package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// The server as diffcoded runs it: a registry always attached, no tracer,
// and artifact caching off so every request pays for a live analysis and
// the per-request instrumentation is not hidden behind a cache hit. Small
// sources keep the fixed per-request cost (spans, counters) as large a
// share of the request as it gets.
//
//	go test -run '^$' -bench Metered -benchmem ./internal/serve/

func benchServer() *Server {
	return New(Options{Checker: core.Options{Metrics: obs.NewRegistry()}, DisableArtifacts: true, DegradeThreshold: -1})
}

func benchServe(b *testing.B, s *Server, path, body string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("%s: status %d: %s", path, w.Code, w.Body.String())
		}
	}
}

func BenchmarkMeteredCheck(b *testing.B) {
	body, _ := json.Marshal(CheckRequest{Sources: map[string]string{"App.java": ecbSource, "B.java": gcmSource}})
	benchServe(b, benchServer(), "/v1/check", string(body))
}

func BenchmarkMeteredAnalyze(b *testing.B) {
	body, _ := json.Marshal(AnalyzeRequest{Changes: []ChangeSpec{{Old: ecbSource, New: gcmSource}, {Old: gcmSource, New: ecbSource}}})
	benchServe(b, benchServer(), "/v1/analyze", string(body))
}

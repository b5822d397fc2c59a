package diffcode

// Benchmarks for the analysis server (DESIGN.md §11). The number that
// matters for a service is sustained throughput at bounded tail latency:
// requests per second through the full admission → guard → analyze →
// respond ladder, plus the p50/p99 of the server's own latency histogram.

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

// serveBenchBody is a representative /v1/check request: two files, one
// violating, exercising parse, interpret, rule evaluation, and JSON
// rendering per request.
const serveBenchBody = `{"sources":{
  "App.java":  "import javax.crypto.Cipher;\nclass App { void f() throws Exception { Cipher c = Cipher.getInstance(\"AES/ECB/PKCS5Padding\"); c.doFinal(new byte[16]); } }",
  "Util.java": "import javax.crypto.Cipher;\nclass Util { void g() throws Exception { Cipher c = Cipher.getInstance(\"AES/GCM/NoPadding\"); } }"
}}`

// BenchmarkServeCheck measures one /v1/check request through the full
// server handler stack, no network.
func BenchmarkServeCheck(b *testing.B) {
	s := serve.New(serve.Options{Checker: core.Options{Metrics: obs.NewRegistry()}})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/check", strings.NewReader(serveBenchBody))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
}

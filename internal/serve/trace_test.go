package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// fakeTracer builds a tracer with a deterministic ID source and clock, both
// safe for concurrent use (spans end on worker goroutines).
func fakeTracer() *trace.Tracer {
	var seq atomic.Uint64
	var tick atomic.Int64
	return trace.NewTracer(
		func() uint64 { return seq.Add(1) },
		func() time.Time { return time.Unix(0, tick.Add(1)*1000) },
	)
}

var traceIDRe = regexp.MustCompile(`^[0-9a-f]{16}$`)

func TestTracedCheckCarriesTraceID(t *testing.T) {
	s := newTestServer(t, Options{Tracer: fakeTracer(), TraceStore: trace.StoreOptions{SampleEvery: 1}})
	w := post(t, s, "/v1/check", checkBody(t, CheckRequest{Sources: map[string]string{"App.java": ecbSource}}))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body.String())
	}
	id := w.Header().Get("X-Trace-Id")
	if !traceIDRe.MatchString(id) {
		t.Fatalf("X-Trace-Id = %q, want 16 hex digits", id)
	}
	var resp CheckResponse
	decodeResp(t, w, &resp)
	if resp.TraceID != id {
		t.Errorf("trace_id field %q != X-Trace-Id header %q", resp.TraceID, id)
	}

	// The healthy fast request was retained (SampleEvery 1) and is
	// inspectable through every /debug/traces surface.
	lw := get(t, s, "/debug/traces")
	var list TraceList
	decodeResp(t, lw, &list)
	if list.Count != 1 || list.Traces[0].TraceID != id {
		t.Fatalf("/debug/traces = %+v, want the one retained trace %s", list, id)
	}
	if list.Traces[0].Retained != trace.RetainSampled {
		t.Errorf("retained = %q, want %q", list.Traces[0].Retained, trace.RetainSampled)
	}

	dw := get(t, s, "/debug/traces/"+id)
	if ct := dw.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("detail Content-Type = %q", ct)
	}
	var rec trace.Record
	decodeResp(t, dw, &rec)
	if rec.ID != id || rec.Root == nil || rec.Root.Name != "check" {
		t.Fatalf("trace detail = %+v", rec)
	}
	names := spanNames(rec.Root)
	for _, want := range []string{"queue", "parse", "interpret", "rules"} {
		if !names[want] {
			t.Errorf("trace tree missing %q span; have %v", want, names)
		}
	}

	tx := get(t, s, "/debug/traces/"+id+"?format=text")
	if ct := tx.Header().Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Errorf("text Content-Type = %q", ct)
	}
	body := tx.Body.String()
	if !strings.HasPrefix(body, "trace "+id+" check ") || !strings.Contains(body, "█") {
		t.Errorf("text waterfall = %q", body)
	}

	// The slow-trace exemplar links the latency histogram to this trace.
	if ex := s.Metrics().Histogram("serve.check.latency_us").Exemplar(); ex != id {
		t.Errorf("latency exemplar = %q, want %q", ex, id)
	}
}

func spanNames(d *trace.SpanData) map[string]bool {
	out := map[string]bool{}
	var walk func(*trace.SpanData)
	walk = func(s *trace.SpanData) {
		out[s.Name] = true
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(d)
	return out
}

func TestTracedFailureAlwaysRetained(t *testing.T) {
	// A budget failure must be retained as a failure (not sampled) with the
	// ledger category on the root span, and the error body must name the
	// trace so the operator can jump from the 504 straight to the waterfall.
	s := newTestServer(t, Options{Tracer: fakeTracer(), TraceStore: trace.StoreOptions{SampleEvery: 1 << 30}})
	w := post(t, s, "/v1/check", checkBody(t, CheckRequest{
		Sources: map[string]string{"App.java": ecbSource}, BudgetSteps: 1,
	}))
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", w.Code)
	}
	var eb ErrorBody
	decodeResp(t, w, &eb)
	if eb.Error.TraceID == "" || eb.Error.TraceID != w.Header().Get("X-Trace-Id") {
		t.Fatalf("error trace_id = %q, header %q", eb.Error.TraceID, w.Header().Get("X-Trace-Id"))
	}
	rec := s.Traces().Get(eb.Error.TraceID)
	if rec == nil {
		t.Fatal("failed trace was not retained")
	}
	if rec.Retained != trace.RetainFailure || rec.Category != "budget" {
		t.Errorf("retained=%q category=%q, want failure/budget", rec.Retained, rec.Category)
	}
}

func TestUntracedServerSurfaceUnchanged(t *testing.T) {
	// Tracing off is the default, and its absence must be invisible: no
	// X-Trace-Id header, no trace_id field anywhere in the body, and no
	// /debug/traces route (the URL space is exactly PR 6's).
	s := newTestServer(t, Options{})
	w := post(t, s, "/v1/check", checkBody(t, CheckRequest{Sources: map[string]string{"App.java": ecbSource}}))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	if h := w.Header().Get("X-Trace-Id"); h != "" {
		t.Errorf("untraced response has X-Trace-Id %q", h)
	}
	if strings.Contains(w.Body.String(), "trace_id") {
		t.Errorf("untraced body mentions trace_id: %s", w.Body.String())
	}
	if ew := post(t, s, "/v1/check", "{nope"); strings.Contains(ew.Body.String(), "trace_id") {
		t.Errorf("untraced error body mentions trace_id: %s", ew.Body.String())
	}
	if lw := get(t, s, "/debug/traces"); lw.Code != http.StatusNotFound {
		t.Errorf("/debug/traces on untraced server = %d, want 404", lw.Code)
	}
	if s.Traces() != nil {
		t.Error("Traces() != nil on untraced server")
	}
}

// TestStageMetricsIndependentOfTracing pins that a request's stage spans
// report into the server registry whether or not the server traces: one
// /v1/analyze and one /v1/check leave the same span.* series with the
// same counts (a change row and a check row, each counted once) on a
// traced and an untraced server.
func TestStageMetricsIndependentOfTracing(t *testing.T) {
	spanCounts := func(opts Options) map[string]int64 {
		t.Helper()
		s := newTestServer(t, opts)
		body, _ := json.Marshal(AnalyzeRequest{Changes: []ChangeSpec{{Old: ecbSource, New: gcmSource}}})
		if w := post(t, s, "/v1/analyze", string(body)); w.Code != http.StatusOK {
			t.Fatalf("analyze status = %d, body %s", w.Code, w.Body.String())
		}
		if w := post(t, s, "/v1/check", checkBody(t, CheckRequest{Sources: map[string]string{"App.java": ecbSource}})); w.Code != http.StatusOK {
			t.Fatalf("check status = %d, body %s", w.Code, w.Body.String())
		}
		out := map[string]int64{}
		for name, n := range obs.TakeSnapshot(s.Metrics(), false).Counters {
			if strings.HasPrefix(name, "span.") {
				out[name] = n
			}
		}
		return out
	}
	untraced := spanCounts(Options{DisableArtifacts: true})
	traced := spanCounts(Options{DisableArtifacts: true, Tracer: fakeTracer(), TraceStore: trace.StoreOptions{SampleEvery: 1}})
	for _, name := range []string{"span.change.count", "span.check.count"} {
		if untraced[name] != 1 {
			t.Errorf("untraced %s = %d, want 1", name, untraced[name])
		}
	}
	if fmt.Sprint(traced) != fmt.Sprint(untraced) {
		t.Errorf("span series differ with tracing:\n traced   %v\n untraced %v", traced, untraced)
	}
}

// hammerFingerprints fires concurrent traced /v1/check requests — one
// distinct source file per request — and returns file → trace fingerprint
// for every retained trace, failing on any cross-request span leakage.
func hammerFingerprints(t *testing.T, workers int) map[string]string {
	t.Helper()
	const requests = 12
	s := newTestServer(t, Options{
		Checker:       core.Options{Workers: workers, Metrics: obs.NewRegistry()},
		Tracer:        fakeTracer(),
		TraceStore:    trace.StoreOptions{Capacity: 64, SampleEvery: 1},
		MaxConcurrent: 4,
		MaxQueue:      requests,
	})
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			file := fmt.Sprintf("App%02d.java", i)
			w := post(t, s, "/v1/check", checkBody(t, CheckRequest{Sources: map[string]string{file: ecbSource}}))
			if w.Code != http.StatusOK {
				t.Errorf("request %d: status = %d, body %s", i, w.Code, w.Body.String())
			}
		}(i)
	}
	wg.Wait()

	out := map[string]string{}
	for _, rec := range s.Traces().List() {
		files := attrValues(rec.Root, "name")
		if len(files) != 1 {
			t.Errorf("trace %s touches files %v — cross-request span leakage", rec.ID, files)
			continue
		}
		var file string
		for f := range files {
			file = f
		}
		out[file] = rec.Root.Fingerprint()
	}
	if len(out) != requests {
		t.Errorf("retained %d distinct request traces, want %d", len(out), requests)
	}
	return out
}

// attrValues collects the distinct values of one attribute key across the
// whole span tree.
func attrValues(d *trace.SpanData, key string) map[string]bool {
	out := map[string]bool{}
	var walk func(*trace.SpanData)
	walk = func(s *trace.SpanData) {
		for _, a := range s.Attrs {
			if a.Key == key {
				out[a.Value] = true
			}
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(d)
	return out
}

// TestDeterminismTracedRequestHammer is the race-hammer of the tracing PR:
// concurrent traced requests against servers at Workers 1 and 4 must yield
// correctly-parented span trees (every trace sees exactly its own request's
// file) and per-request trace fingerprints that are identical across worker
// counts. CI runs it under -race at -cpu=1,4 (the name matches -run
// 'Determinism').
func TestDeterminismTracedRequestHammer(t *testing.T) {
	want := hammerFingerprints(t, 1)
	got := hammerFingerprints(t, 4)
	if len(want) != len(got) {
		t.Fatalf("retained sets differ: %d vs %d", len(want), len(got))
	}
	for file, fp := range want {
		if got[file] != fp {
			t.Errorf("%s: fingerprint %s at workers=4, want %s (workers=1)", file, got[file], fp)
		}
	}
}

func TestGoldenMetricsUnknownFormat(t *testing.T) {
	// Satellite contract: /metrics content negotiation answers an unknown
	// format with 406 and the uniform ledger-style error body, byte-exact.
	s := newTestServer(t, Options{})
	req := get(t, s, "/metrics?format=xml")
	assertGolden(t, req, http.StatusNotAcceptable, mustCompact(t, ErrorBody{Error: ErrorInfo{
		Status:   406,
		Category: "request",
		Message:  `unknown metrics format "xml" (want json or prom)`,
	}}))
	if ct := req.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("406 Content-Type = %q", ct)
	}
}

func TestGoldenTraceDetailNotFoundAndBadFormat(t *testing.T) {
	s := newTestServer(t, Options{Tracer: fakeTracer()})
	w := get(t, s, "/debug/traces/00000000000000ff")
	assertGolden(t, w, http.StatusNotFound, mustCompact(t, ErrorBody{Error: ErrorInfo{
		Status:   404,
		Category: "request",
		Message:  `no retained trace "00000000000000ff"`,
	}}))

	// Retain one trace, then ask for it in an unknown format.
	post(t, s, "/v1/check", checkBody(t, CheckRequest{Sources: map[string]string{"App.java": ecbSource}}))
	id := s.Traces().List()[0].ID
	fw := get(t, s, "/debug/traces/"+id+"?format=yaml")
	assertGolden(t, fw, http.StatusNotAcceptable, mustCompact(t, ErrorBody{Error: ErrorInfo{
		Status:   406,
		Category: "request",
		Message:  `unknown trace format "yaml" (want json or text)`,
	}}))
}

func TestMetricsPromExposition(t *testing.T) {
	s := newTestServer(t, Options{})
	post(t, s, "/v1/check", checkBody(t, CheckRequest{Sources: map[string]string{"App.java": ecbSource}}))
	w := get(t, s, "/metrics?format=prom")
	if w.Code != http.StatusOK {
		t.Fatalf("prom scrape = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	body := w.Body.String()
	for _, want := range []string{
		"serve_check_requests_total 1",
		"# TYPE serve_check_latency_us histogram",
		"serve_check_latency_us_bucket{le=\"+Inf\"} 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prom exposition missing %q:\n%.800s", want, body)
		}
	}
	// JSON stays the default — the content negotiation is additive.
	jw := get(t, s, "/metrics?format=json")
	if jw.Code != http.StatusOK || !json.Valid(jw.Body.Bytes()) {
		t.Errorf("format=json = %d, valid JSON = %t", jw.Code, json.Valid(jw.Body.Bytes()))
	}
}

func TestTracedAnalyzeCarriesTraceID(t *testing.T) {
	s := newTestServer(t, Options{Tracer: fakeTracer(), TraceStore: trace.StoreOptions{SampleEvery: 1}})
	body, _ := json.Marshal(AnalyzeRequest{Changes: []ChangeSpec{{Old: ecbSource, New: gcmSource}}})
	w := post(t, s, "/v1/analyze", string(body))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var resp AnalyzeResponse
	decodeResp(t, w, &resp)
	if resp.TraceID == "" || resp.TraceID != w.Header().Get("X-Trace-Id") {
		t.Fatalf("trace_id = %q, header = %q", resp.TraceID, w.Header().Get("X-Trace-Id"))
	}
	rec := s.Traces().Get(resp.TraceID)
	if rec == nil {
		t.Fatal("analyze trace not retained")
	}
	if names := spanNames(rec.Root); !names["change[0]"] {
		t.Errorf("analyze trace missing change[0] span: %v", names)
	}
}

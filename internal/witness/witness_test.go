package witness

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/absdom"
	"repro/internal/analysis"
	"repro/internal/obs"
	"repro/internal/rules"
)

func analyzeWhy(t *testing.T, src string) *analysis.Result {
	t.Helper()
	return analysis.Analyze(
		analysis.ParseProgram(map[string]string{"T.java": src}),
		analysis.Options{Provenance: true})
}

func traceFor(t *testing.T, src string, r *rules.Rule) []Trace {
	t.Helper()
	res := analyzeWhy(t, src)
	vs := rules.CheckPoolCtx(context.Background(), res, rules.Context{}, []*rules.Rule{r}, nil)
	if len(vs) != 1 {
		t.Fatalf("want 1 violation of %s, got %d", r.ID, len(vs))
	}
	traces := ForViolation(vs[0], res, rules.Context{})
	if len(traces) == 0 {
		t.Fatalf("no traces for %s", r.ID)
	}
	return traces
}

// TestTraceEndsAtSink pins the core witness contract: every trace is
// non-empty and its final step is the sink call.
func TestTraceEndsAtSink(t *testing.T) {
	traces := traceFor(t, `
		import javax.crypto.Cipher;
		class T {
			void run() throws Exception {
				Cipher c = Cipher.getInstance("AES/ECB/PKCS5Padding");
			}
		}`, rules.R7)
	for _, tr := range traces {
		if len(tr.Steps) == 0 {
			t.Fatal("empty trace")
		}
		sink := tr.Sink()
		if sink.Kind != "sink" {
			t.Errorf("last step kind = %q, want sink", sink.Kind)
		}
		if !strings.Contains(sink.What, "getInstance") {
			t.Errorf("sink = %q, want the getInstance call", sink.What)
		}
		if sink.Line == 0 || sink.File == "" {
			t.Errorf("sink has no position: %+v", sink)
		}
	}
}

// TestTraceFollowsFlow checks that a value flowing literal → variable →
// helper call → sink produces the full chain in order.
func TestTraceFollowsFlow(t *testing.T) {
	traces := traceFor(t, `
		import javax.crypto.spec.SecretKeySpec;
		class T {
			void run() throws Exception {
				String key = "s3cr3t";
				SecretKeySpec ks = new SecretKeySpec(key.getBytes(), "AES");
			}
		}`, rules.R10)
	tr := traces[0]
	kinds := make([]string, len(tr.Steps))
	for i, s := range tr.Steps {
		kinds[i] = s.Kind
	}
	got := strings.Join(kinds, ",")
	want := "literal,assign,call,sink"
	if got != want {
		t.Errorf("step kinds = %s, want %s", got, want)
	}
	if tr.Steps[0].Kind != "literal" || !strings.Contains(tr.Steps[0].What, "s3cr3t") {
		t.Errorf("origin = %+v, want the key literal", tr.Steps[0])
	}
	if tr.Explanation == "" {
		t.Error("trace carries no explanation")
	}
}

// TestTraceCrossMethodFlow checks provenance survives call inlining: the
// literal is defined in a helper and consumed in the caller.
func TestTraceCrossMethodFlow(t *testing.T) {
	traces := traceFor(t, `
		import javax.crypto.spec.IvParameterSpec;
		class T {
			byte[] iv() { return new byte[]{1, 2, 3, 4, 5, 6, 7, 8}; }
			void run() throws Exception {
				IvParameterSpec spec = new IvParameterSpec(iv());
			}
		}`, rules.R9)
	tr := traces[0]
	var sawOrigin, sawInline bool
	for _, s := range tr.Steps {
		if s.Kind == "literal" {
			sawOrigin = true
		}
		if s.Kind == "call" && strings.Contains(s.What, "inlined iv") {
			sawInline = true
		}
	}
	if !sawOrigin || !sawInline {
		t.Errorf("steps missed the helper flow (origin %t, inlined call %t): %+v",
			sawOrigin, sawInline, tr.Steps)
	}
}

// TestRenderAndJSON sanity-checks both output forms.
func TestRenderAndJSON(t *testing.T) {
	traces := traceFor(t, `
		import javax.crypto.Cipher;
		class T {
			void run() throws Exception {
				Cipher c = Cipher.getInstance("DES");
			}
		}`, rules.R8)
	text := Render(traces)
	if !strings.Contains(text, "R8:") || !strings.Contains(text, "sink:") {
		t.Errorf("render missing rule header or sink:\n%s", text)
	}
	if !strings.Contains(text, "why:") {
		t.Errorf("render missing explanation:\n%s", text)
	}
	var back []Trace
	if err := json.Unmarshal([]byte(JSON(traces)), &back); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if len(back) != len(traces) || back[0].Rule != "R8" {
		t.Errorf("JSON round-trip lost traces: %+v", back)
	}
	if got := JSON(nil); got != "[]\n" {
		t.Errorf("JSON(nil) = %q, want []", got)
	}
}

// TestCapSteps checks the render cap keeps head and tail around an elision
// marker.
func TestCapSteps(t *testing.T) {
	long := make([]Step, 100)
	for i := range long {
		long[i] = Step{Kind: "assign", What: "step"}
	}
	capped := capSteps(long)
	if len(capped) != MaxRenderSteps {
		t.Fatalf("len = %d, want %d", len(capped), MaxRenderSteps)
	}
	mid := capped[(MaxRenderSteps-1)/2]
	if mid.Kind != "elided" || !strings.Contains(mid.What, "elided") {
		t.Errorf("no elision marker at the cut: %+v", mid)
	}
}

// TestObserve checks the telemetry counters the e2e workflow asserts on.
func TestObserve(t *testing.T) {
	reg := obs.NewRegistry()
	traces := []Trace{
		{Rule: "R1", Steps: []Step{{Kind: "literal"}, {Kind: "sink"}}},
		{Rule: "R2", Steps: []Step{{Kind: "literal", Truncated: true}, {Kind: "sink"}}},
	}
	Observe(reg, traces)
	if got := reg.Counter("witness.traces").Value(); got != 2 {
		t.Errorf("witness.traces = %d, want 2", got)
	}
	if got := reg.Counter("witness.steps").Value(); got != 4 {
		t.Errorf("witness.steps = %d, want 4", got)
	}
	if got := reg.Counter("witness.truncated").Value(); got != 1 {
		t.Errorf("witness.truncated = %d, want 1", got)
	}
}

// TestProvenanceDepthCapBounds builds a chain far beyond MaxProvDepth and
// checks the interpreter-side cap keeps the origin reachable and depth
// bounded (the witness layer then renders the truncation marker).
func TestProvenanceDepthCapBounds(t *testing.T) {
	p := absdom.NewProv(absdom.ProvLiteral, "F.java", 1, 1, "origin", nil, nil)
	origin := p
	for i := 0; i < 10*absdom.MaxProvDepth; i++ {
		p = absdom.NewProv(absdom.ProvAssign, "F.java", i+2, 1, "hop", p, nil)
	}
	if p.Depth() > absdom.MaxProvDepth+2 {
		t.Errorf("depth = %d, want <= %d", p.Depth(), absdom.MaxProvDepth+2)
	}
	if p.Origin() != origin {
		t.Error("origin lost through truncation")
	}
	steps := appendChain(nil, p, map[*absdom.Prov]bool{})
	if steps[0].What != "origin" {
		t.Errorf("first rendered step = %+v, want the origin", steps[0])
	}
	var sawTrunc bool
	for _, s := range steps {
		if s.Truncated {
			sawTrunc = true
		}
	}
	if !sawTrunc {
		t.Error("no truncated step rendered for an over-deep chain")
	}
}

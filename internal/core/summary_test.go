package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/artifact"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/witness"
)

// TestDeterminismSummariesOnOff pins the summary layer's contract on a
// generated corpus: every project's violations are identical whether the
// checker analyzes with its summary table (at workers 1, 2, and 8) or with
// summaries off, i.e. live analysis with no table. Summaries change how
// often the interpreter executes a callee, never what an execution
// observes.
func TestDeterminismSummariesOnOff(t *testing.T) {
	c := determinismCorpus()
	var sb strings.Builder
	for _, p := range c.Projects {
		fmt.Fprintf(&sb, "%s:\n", p.Name)
		res := analysis.Analyze(analysis.ParseProgram(p.Files), analysis.Options{})
		writeViolations(&sb, rules.Check(res, ContextOf(p), rules.All()))
	}
	want := sb.String()
	if !strings.Contains(want, "R") {
		t.Fatalf("no violations found; fingerprint exercises too little")
	}
	for _, w := range []int{1, 2, 8} {
		if got := checkerFingerprint(c, Options{Workers: w}); got != want {
			t.Errorf("workers=%d: checker with summaries differs from live analysis\ngot:\n%.800s\nwant:\n%.800s", w, got, want)
		}
	}
}

// TestDeterminismSummariesWithArtifactCache runs the pipeline cold and warm
// over one disk-backed store and requires both fingerprints to equal the
// storeless default pipeline's. The warm run varies the step budget so the
// per-change analysis artifacts miss (their option fingerprint includes the
// budget) while the budget-independent summary keys hit — proving persisted
// summaries replay across processes without changing a single byte of
// output.
func TestDeterminismSummariesWithArtifactCache(t *testing.T) {
	c := determinismCorpus()
	dir := t.TempDir()
	want := pipelineFingerprint(t, c, Options{Workers: 1})

	cold := pipelineFingerprint(t, c, Options{
		Workers:   1,
		Artifacts: artifact.New(artifact.Config{Dir: dir}),
	})
	if cold != want {
		t.Fatalf("cold-store run differs from the storeless pipeline")
	}

	reg := obs.NewRegistry()
	warm := pipelineFingerprint(t, c, Options{
		Workers:     1,
		BudgetSteps: 1 << 40, // different analysis-artifact fingerprint, same summary keys
		Metrics:     reg,
		Artifacts:   artifact.New(artifact.Config{Dir: dir, Metrics: reg}),
	})
	if warm != want {
		t.Fatalf("warm-store run differs from the storeless pipeline")
	}
	if hits := reg.Counter("summary.hits").Value(); hits < 1 {
		t.Errorf("summary.hits on warm run = %d, want >= 1 (persisted summaries must replay)", hits)
	}
}

// deepChainDES threads the weak algorithm constant through a six-deep helper
// chain — past the depth-4 cliff of the paper's bounded inliner — before it
// reaches the Cipher.getInstance sink on the last line.
const deepChainDES = `class Deep {
    void entry() {
        h1("DES");
    }
    void h1(String a) { h2(a); }
    void h2(String a) { h3(a); }
    void h3(String a) { h4(a); }
    void h4(String a) { h5(a); }
    void h5(String a) { h6(a); }
    void h6(String a) {
        Cipher c = Cipher.getInstance(a);
    }
}
`

// TestSummaryDeepChainDetection pins the depth-independent reach end to end
// at the checker boundary: the depth-6 DES misuse is detected with and
// without -why, with a witness trace that runs from the string literal in
// entry to the getInstance sink in h6. The rendered trace is a golden;
// refresh with -update-golden.
func TestSummaryDeepChainDetection(t *testing.T) {
	sources := map[string]string{"Deep.java": deepChainDES}

	checker := NewChecker([]*rules.Rule{rules.R8}, Options{})
	if vs := checker.CheckSources(sources, rules.Context{}); len(vs) != 1 {
		t.Fatalf("violations = %d, want 1 (R8)", len(vs))
	}
	vs, traces := checker.CheckSourcesWhy(sources, rules.Context{})
	if len(vs) != 1 {
		t.Fatalf("-why violations = %d, want 1 (R8)", len(vs))
	}
	if vs[0].Rule.ID != "R8" {
		t.Fatalf("violated rule = %s, want R8", vs[0].Rule.ID)
	}
	if len(traces) == 0 {
		t.Fatal("no witness traces for the deep-chain violation")
	}
	for _, tr := range traces {
		if tr.Rule != "R8" {
			t.Errorf("trace rule = %s, want R8", tr.Rule)
		}
		if len(tr.Steps) == 0 {
			t.Fatal("empty trace")
		}
		sink := tr.Sink()
		if sink.Kind != "sink" || sink.Line != 11 {
			t.Errorf("sink = %+v, want the getInstance call on line 11", sink)
		}
		if first := tr.Steps[0]; !strings.Contains(first.What, "DES") {
			t.Errorf("trace origin %+v does not carry the DES literal", first)
		}
	}

	got := witness.Render(traces)
	path := filepath.Join("testdata", "witness", "deep_chain_R8.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden: %v (refresh with -update-golden)", err)
	}
	if got != string(want) {
		t.Errorf("deep-chain witness trace drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

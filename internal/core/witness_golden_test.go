package core

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/rules"
	"repro/internal/witness"
)

// witnessExamples maps every registered rule to a violating example under
// examples/violations and the project context it fires in. The CL reference
// rules share the example of the R rule they re-label.
var witnessExamples = map[string]struct {
	file string
	ctx  rules.Context
}{
	"R1":  {file: "R1.java"},
	"R2":  {file: "R2.java"},
	"R3":  {file: "R3.java"},
	"R4":  {file: "R4.java"},
	"R5":  {file: "R5.java"},
	"R6":  {file: "R6.java", ctx: rules.Context{Android: true, MinSDKVersion: 17}},
	"R7":  {file: "R7.java"},
	"R8":  {file: "R8.java"},
	"R9":  {file: "R9.java"},
	"R10": {file: "R10.java"},
	"R11": {file: "R11.java"},
	"R12": {file: "R12.java"},
	"R13": {file: "R13.java"},
	"CL1": {file: "R7.java"},
	"CL2": {file: "R9.java"},
	"CL3": {file: "R10.java"},
	"CL4": {file: "R2.java"},
	"CL5": {file: "R11.java"},
}

func loadExample(t *testing.T, name string) map[string]string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "examples", "violations", name))
	if err != nil {
		t.Fatalf("example: %v", err)
	}
	// Key by base name so traces (and goldens) carry stable file names.
	return map[string]string{name: string(b)}
}

func whyTraces(t *testing.T, r *rules.Rule, workers int) []witness.Trace {
	t.Helper()
	ex := witnessExamples[r.ID]
	checker := NewChecker([]*rules.Rule{r}, Options{Workers: workers})
	out := mustCheck(t, context.Background(), checker, loadExample(t, ex.file), ex.ctx, true)
	if len(out.Violations) == 0 {
		t.Fatalf("%s: example %s does not violate the rule", r.ID, ex.file)
	}
	return out.Traces
}

// TestWitnessGoldenAllRules pins the rendered witness trace of one
// violating example per registered rule — all 13 elicited rules and the
// five CryptoLint reference rules. Refresh with:
//
//	go test ./internal/core -run WitnessGolden -update-golden
func TestWitnessGoldenAllRules(t *testing.T) {
	for _, r := range append(rules.All(), rules.CryptoLint()...) {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			if _, ok := witnessExamples[r.ID]; !ok {
				t.Fatalf("no example registered for rule %s", r.ID)
			}
			traces := whyTraces(t, r, 1)
			if len(traces) == 0 {
				t.Fatal("no witness traces")
			}
			for _, tr := range traces {
				if tr.Rule != r.ID {
					t.Errorf("trace rule = %s, want %s", tr.Rule, r.ID)
				}
				if len(tr.Steps) == 0 {
					t.Fatal("empty trace")
				}
				if sink := tr.Sink(); sink.Kind != "sink" || sink.Line == 0 {
					t.Errorf("trace does not end at a positioned sink: %+v", sink)
				}
				if tr.Explanation == "" {
					t.Error("trace carries no explanation")
				}
			}
			got := witness.Render(traces)
			path := filepath.Join("testdata", "witness", r.ID+".golden")
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
				t.Fatalf("missing golden file (run with -update-golden): %v", err)
			}
			if got != string(want) {
				t.Errorf("witness trace drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s",
					got, want)
			}
		})
	}
}

// TestWitnessDeterminismAcrossWorkers asserts the rendered traces of every
// rule's example are byte-identical at workers 1 and 8.
func TestWitnessDeterminismAcrossWorkers(t *testing.T) {
	for _, r := range append(rules.All(), rules.CryptoLint()...) {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			want := witness.Render(whyTraces(t, r, 1))
			if got := witness.Render(whyTraces(t, r, 8)); got != want {
				t.Errorf("workers=8 traces differ from workers=1\ngot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestWitnessJSONStable asserts the JSON rendering round-trips and is
// identical across worker counts (the machine-readable -why=json contract).
func TestWitnessJSONStable(t *testing.T) {
	want := witness.JSON(whyTraces(t, rules.R10, 1))
	if !strings.Contains(want, "\"rule\": \"R10\"") {
		t.Fatalf("JSON missing rule field:\n%s", want)
	}
	if got := witness.JSON(whyTraces(t, rules.R10, 8)); got != want {
		t.Errorf("workers=8 JSON differs from workers=1")
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/paper-eval.seed1.golden from a full-size seed-1 evaluation (~10 s)")

// smokeSizes shrink every workload to a fraction of a second.
var smokeSizes = sizes{
	paper:      corpusSize{scale: 0.1, projects: 30, extra: 4},
	incr:       corpusSize{scale: 0.05, projects: 12, extra: 0},
	serve:      corpusSize{scale: 0.2, projects: 20, extra: 0},
	warmRuns:   1,
	programs:   40,
	serveOpen:  60,
	serveBurst: 20,
}

// benchmarkNames reads the metric names BENCHMARK.json lists.
func benchmarkNames(t *testing.T) (e2e, layer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var ws []string
	for _, w := range spec.Workloads {
		ws = append(ws, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(ws, " ") != strings.Join(have, " ") {
		t.Errorf("BENCHMARK.json workloads %v, runner has %v", ws, have)
	}
	names := func(list []struct{ Name, Unit string }, defs []metricDef) []string {
		var out []string
		for i, m := range list {
			out = append(out, m.Name)
			if i < len(defs) && defs[i] != (metricDef{m.Name, m.Unit}) {
				t.Errorf("BENCHMARK.json metric %d is %s [%s], runner has %s [%s]", i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
		return out
	}
	return names(spec.EndToEnd, endToEnd), names(spec.PerLayer, perLayer)
}

// TestWorkloadsSmoke runs every workload once at a tiny size, untraced and
// traced. Each run's output checks must pass (a traced run also checks
// that the rebuilt pipeline reproduces the product's outputs), and the
// metrics it prints must be exactly BENCHMARK.json's.
func TestWorkloadsSmoke(t *testing.T) {
	e2e, layer := benchmarkNames(t)
	sort.Strings(e2e)
	sort.Strings(layer)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			rec, err := runWorkload(&out, w.name, 1, 0.001, trace, smokeSizes)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			if !rec.Result.Correct || rec.Result.Failed > 0 || rec.Result.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d\n%s",
					w.name, trace, rec.Result.Correct, rec.Result.Attempted, rec.Result.Failed, out.String())
			}
			want := e2e
			if trace {
				want = layer
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace=%t: last line is not the result: %v", w.name, trace, err)
			}
			var got []string
			for name := range last.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s trace=%t: printed metrics %v, BENCHMARK.json lists %v", w.name, trace, got, want)
			}
		}
	}
}

// TestPaperGolden regenerates the paper-eval golden file with -update.
// Check the Figure 6 and Figure 10 rows of a new golden against the
// measured columns of EXPERIMENTS.md before committing it.
func TestPaperGolden(t *testing.T) {
	if !*update {
		t.Skip("run with -update to rewrite the golden file")
	}
	o, _, err := paperEval(paperCorpus.generate(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/paper-eval.seed1.golden", []byte(o.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{2, 9}, 0.25, 10.75},
		{[]float64{4.7, 5.2, 4.9, 6.1, 5.0}, 4.8, 5.65},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{10, 10.1, 9.9}
	for _, c := range []struct {
		old, new []float64
		want     string
	}{
		{steady, []float64{10.5, 10.6, 10.4}, "same"},
		{steady, []float64{13, 13.1, 12.9}, "worse"},
		{steady, []float64{7, 7.1, 6.9}, "better"},
		{steady, []float64{8, 10, 14}, "unresolved"},
		{steady, []float64{13}, "unresolved"},
	} {
		if got := verdict(c.old, c.new, 0.1, true); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.old, c.new, got, c.want)
		}
	}
}

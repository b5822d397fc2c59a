package core

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/change"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// tickClock advances one millisecond per reading, making span durations
// deterministic: a leaf span costs exactly two readings, i.e. 1ms, and an
// enclosing span also counts the readings of everything inside it.
type tickClock struct{ ticks atomic.Int64 }

func (c *tickClock) now() time.Time {
	return time.Unix(0, c.ticks.Add(1)*int64(time.Millisecond))
}

const obsOld = `
class A {
    void m(Key k) throws Exception {
        Cipher c = Cipher.getInstance("DES");
        c.init(Cipher.ENCRYPT_MODE, k);
    }
}
`

const obsNew = `
class A {
    void m(Key k) throws Exception {
        Cipher c = Cipher.getInstance("AES/CBC/PKCS5Padding");
        c.init(Cipher.ENCRYPT_MODE, k);
    }
}
`

// twoChanges is the fixed two-change workload of the golden tests.
func twoChanges() []mining.CodeChange {
	return []mining.CodeChange{
		{Meta: change.Meta{Project: "p", Commit: "c1", File: "A.java"}, Old: obsOld, New: obsNew},
		{Meta: change.Meta{Project: "p", Commit: "c2", File: "B.java"}, Old: obsOld, New: obsNew},
	}
}

// TestPipelineMetricsTwoChanges drives the instrumented pipeline over a
// fixed two-change run and asserts the stderr summary table verbatim
// (deterministic thanks to the tick clock and a single worker). The stage
// rows are the span names: the analyze batch, one change span per change
// (labeled with the change), and the parse and interpret spans of the
// versions each change analyses itself. Both changes carry the same old and
// new versions, so the first change leads both and the second takes them
// (analysis.versions_shared = 2): two parse and interpret runs, not four.
// Extraction likewise builds each version's Cipher DAGs once and the second
// change reads them (extract.dags_built = extract.dags_shared = 2).
// The pool's per-file spans are tree-only and report no row.
func TestPipelineMetricsTwoChanges(t *testing.T) {
	clock := &tickClock{}
	reg := obs.NewRegistryClock(clock.now)
	d := New(Options{Workers: 1, Metrics: reg})
	analyzed := d.AnalyzeAll(twoChanges())
	for i, a := range analyzed {
		if a == nil {
			t.Fatalf("change %d skipped unexpectedly", i)
		}
	}
	r := d.RunClass(analyzed, "Cipher")
	if len(r.Survivors) == 0 {
		t.Fatal("expected semantic Cipher survivors")
	}

	want := strings.Join([]string{
		"stage            runs      total       mean        p50        p90        max  slowest",
		"analyze             1       13ms       13ms   16.384ms   16.384ms       13ms  ",
		"change              2       10ms        5ms    1.024ms    1.024ms        9ms  change p@c1:A.java",
		"extract             1        1ms        1ms    1.024ms    1.024ms        1ms  Cipher",
		"filter              1        1ms        1ms    1.024ms    1.024ms        1ms  Cipher",
		"interpret           2        2ms        1ms    1.024ms    1.024ms        1ms  change p@c1:A.java",
		"parse               2        2ms        1ms    1.024ms    1.024ms        1ms  change p@c1:A.java",
		"counters",
		"  analysis.changes_analyzed                         2",
		"  analysis.runs                                     2",
		"  analysis.steps                                   16",
		"  analysis.versions_shared                          2",
		"  extract.dags_built                                2",
		"  extract.dags_shared                               2",
		"  extract.usage_changes                             2",
		"  filter.survivors                                  1",
		"  filter.usage_changes                              2",
		"  parse.bytes                                     301",
		"  parse.errors                                      0",
		"  parse.files                                       2",
		// The summary.* counters register eagerly when the table is built
		// (so a Prometheus scrape carries the series from the start); this
		// workload has no helper calls, so all five stay zero.
		"  summary.cycles                                    0",
		"  summary.hits                                      0",
		"  summary.instantiations                            0",
		"  summary.misses                                    0",
		"  summary.unportable                                0",
		"gauges",
		"  pipeline.workers                                  1",
		"distributions",
		"  analysis.steps_per_run                 n=2 sum=16 min=8 p50=8 p90=8 max=8",
		"",
	}, "\n")
	if got := reg.Summary(); got != want {
		t.Errorf("summary mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestSnapshotCarriesStageAndFailureMetrics checks the acceptance shape of
// the -metrics artifact: per-stage span histograms (one change span per
// change, each labeled with its change), step counters, and ledger-derived
// failure counts all land in one snapshot.
func TestSnapshotCarriesStageAndFailureMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	d := New(Options{Workers: 2, Metrics: reg, BudgetSteps: 10})
	// Budget of 10 steps guarantees both changes exhaust and land in the
	// ledger rather than the result.
	analyzed := d.AnalyzeAll(twoChanges())
	for i, a := range analyzed {
		if a != nil {
			t.Fatalf("change %d survived a 10-step budget", i)
		}
	}
	obs.FoldLedger(reg, d.Ledger())
	s := obs.TakeSnapshot(reg, false)
	if s.Counters["failures.total"] != 2 ||
		s.Counters["failures.category."+string(resilience.CatBudget)] != 2 {
		t.Fatalf("failure counters missing: %v", s.Counters)
	}
	h, ok := s.Histograms["span.change.us"]
	if !ok || h.Count != 2 || s.Counters["span.change.count"] != 2 {
		t.Fatalf("span.change.us histogram missing or wrong: %+v", s.Histograms)
	}
	if s.Counters["analysis.steps"] == 0 {
		t.Fatal("analysis.steps not recorded")
	}
	if task := s.Slowest["change"].Task; !strings.HasPrefix(task, "change p@c") {
		t.Fatalf("slowest-task attribution missing: %v", s.Slowest)
	}
}

// TestUninstrumentedPipelineUnchanged guards the no-op path: a nil registry
// must not alter results (the CLIs rely on byte-identical output when no
// observability flag is set).
func TestUninstrumentedPipelineUnchanged(t *testing.T) {
	plain := New(Options{Workers: 1})
	instr := New(Options{Workers: 1, Metrics: obs.NewRegistry()})
	a1 := plain.AnalyzeAll(twoChanges())
	a2 := instr.AnalyzeAll(twoChanges())
	r1 := plain.RunClass(a1, "Cipher")
	r2 := instr.RunClass(a2, "Cipher")
	if r1.Stats != r2.Stats || len(r1.Survivors) != len(r2.Survivors) {
		t.Fatalf("instrumentation changed results: %+v vs %+v", r1.Stats, r2.Stats)
	}
	for i := range r1.Survivors {
		if r1.Survivors[i].String() != r2.Survivors[i].String() {
			t.Fatalf("survivor %d differs", i)
		}
	}
}

package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/change"
	"repro/internal/corpus"
	"repro/internal/cryptoapi"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/usage"
)

// withRepeats inserts about a fifth more changes at random places in ccs:
// half keep one change's new text as both their old and new text, half
// take their old text from one change and their new text from another, so
// versions recur in changes that are not adjacent.
func withRepeats(ccs []mining.CodeChange, rng *rand.Rand) []mining.CodeChange {
	out := slices.Clone(ccs)
	for k := 0; k < len(ccs)/5; k++ {
		a, b := ccs[rng.Intn(len(ccs))], ccs[rng.Intn(len(ccs))]
		cc := mining.CodeChange{
			Meta: change.Meta{Project: "repeat", Commit: fmt.Sprintf("r%03d", k), File: a.Meta.File},
			Old:  a.Old,
			New:  b.New,
		}
		if k%2 == 0 {
			cc.Old = a.New
			cc.New = a.New
		}
		at := rng.Intn(len(out) + 1)
		out = slices.Insert(out, at, cc)
	}
	return out
}

// extractRef is extractRows without sharing: each change runs
// change.Extract on its own.
func extractRef(d *DiffCode, analyzed []*AnalyzedChange, class string) [][]change.UsageChange {
	rows := make([][]change.UsageChange, len(analyzed))
	for i, a := range analyzed {
		if a != nil && a.UsesClass(class) {
			rows[i] = change.Extract(a.Old, a.New, class, d.opts.Depth, a.Meta)
		}
	}
	return rows
}

// TestDifferentialSharedDAGs holds the class pass, which builds each
// version's DAGs once and shares them, to a per-change change.Extract run:
// every row, Meta included, on seeded corpora with inserted changes whose
// old equals their new, versions that recur far apart, and skipped
// changes (nil slots). It also checks the pass's counters: one build per
// distinct version read, and a share for every other read.
func TestDifferentialSharedDAGs(t *testing.T) {
	oldIsNew, farRepeats, skipped := 0, 0, 0
	for seed := int64(1); seed <= 3; seed++ {
		c := corpus.Generate(corpus.Config{Seed: seed, Scale: 0.3, Projects: 12, ExtraProjects: 1})
		d := New(Options{Workers: 2})
		ccs := withRepeats(d.collect(context.Background(), c), rand.New(rand.NewSource(seed)))
		analyzed := analyzeWithin(t, d, ccs)
		for i := range analyzed {
			if i%7 == 3 && analyzed[i] != nil {
				analyzed[i] = nil
				skipped++
			}
		}
		lastAt := map[*analysis.Result]int{}
		for i, a := range analyzed {
			if a == nil {
				continue
			}
			if a.Old == a.New {
				oldIsNew++
			}
			for _, res := range []*analysis.Result{a.Old, a.New} {
				if j, ok := lastAt[res]; ok && i-j > 1 {
					farRepeats++
				}
				lastAt[res] = i
			}
		}
		for _, class := range cryptoapi.TargetClasses {
			reg := obs.NewRegistry()
			d.opts.Metrics = reg
			got := d.extractRows(context.Background(), analyzed, class)
			want := extractRef(d, analyzed, class)
			reads, distinct := 0, map[*analysis.Result]bool{}
			for i, a := range analyzed {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("seed %d %s: change %d (%s) differs\ngot:\n%swant:\n%s", seed, class, i, a.Meta, renderChanges(got[i]), renderChanges(want[i]))
				}
				if a != nil && a.UsesClass(class) {
					reads += 2
					distinct[a.Old], distinct[a.New] = true, true
				}
			}
			built, shared := reg.Counter("extract.dags_built").Value(), reg.Counter("extract.dags_shared").Value()
			if built != int64(len(distinct)) || built+shared != int64(reads) {
				t.Errorf("seed %d %s: %d built and %d shared; want %d built of %d reads", seed, class, built, shared, len(distinct), reads)
			}
		}
	}
	if oldIsNew == 0 || farRepeats == 0 || skipped == 0 {
		t.Fatalf("corpora exercise too little: %d changes with old == new, %d non-adjacent repeats, %d skipped", oldIsNew, farRepeats, skipped)
	}
	t.Logf("%d changes with old == new, %d non-adjacent repeats, %d skipped", oldIsNew, farRepeats, skipped)
}

// TestExtractSharedVersionPanic: a version whose DAG build panics is
// ledgered against every change that carries it, in input order, as a
// per-change extraction ledgers it; every other change keeps its rows. The
// version is carried by three changes, not all adjacent.
func TestExtractSharedVersionPanic(t *testing.T) {
	c := corpus.Generate(corpus.Config{Seed: 7, Scale: 0.2, Projects: 10, ExtraProjects: 2})
	d := New(Options{Workers: 1})
	analyzed := compact(d.AnalyzeAll(withRepeats(d.collect(context.Background(), c), rand.New(rand.NewSource(7)))))
	class := cryptoapi.Cipher
	carriers := map[*analysis.Result][]int{}
	var victim *analysis.Result
	for i, a := range analyzed {
		if !a.UsesClass(class) {
			continue
		}
		for _, res := range []*analysis.Result{a.Old, a.New} {
			if n := len(carriers[res]); n == 0 || carriers[res][n-1] != i {
				carriers[res] = append(carriers[res], i)
			}
			if is := carriers[res]; victim == nil && len(is) == 3 && is[2]-is[0] > 2 {
				victim = res
			}
		}
	}
	if victim == nil {
		t.Fatal("setup: no version is carried by three changes, not all adjacent")
	}
	want := extractRef(d, analyzed, class)
	var wantLedger []string
	for _, i := range carriers[victim] {
		a := analyzed[i]
		want[i] = nil
		wantLedger = append(wantLedger, fmt.Sprintf("extract %s %s@%s:%s|extract|panic", class, a.Meta.Project, a.Meta.Commit, a.Meta.File))
	}
	// A nil object makes every DAG build over the version panic.
	victim.Objs = append(slices.Clip(victim.Objs), nil)

	got := d.RunClass(analyzed, class)
	wantRes := d.filterRows(context.Background(), want, class)
	if !reflect.DeepEqual(got, wantRes) {
		t.Errorf("class result differs from the per-change extraction without the carriers:\ngot  %+v\nwant %+v", got.Stats, wantRes.Stats)
	}
	var gotLedger []string
	for _, e := range d.Ledger().Entries() {
		gotLedger = append(gotLedger, fmt.Sprintf("%s|%s|%s", e.Task, e.Phase, e.Category))
	}
	if !reflect.DeepEqual(gotLedger, wantLedger) {
		t.Errorf("ledger differs\ngot:  %s\nwant: %s", strings.Join(gotLedger, "\n      "), strings.Join(wantLedger, "\n      "))
	}
}

// TestDifferentialIndexedGraph holds graphs on both sides of the 16-node
// index threshold to the reference extraction: Cipher objects with 10 to
// 24 distinct update arguments (14 to 28 nodes), each against itself and
// against the next size up and down.
func TestDifferentialIndexedGraph(t *testing.T) {
	program := func(n int) *analysis.Result {
		var body strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&body, "        c.update(\"u%d\");\n", i)
		}
		return analysis.AnalyzeSource(cipherProgram(body.String()), analysis.Options{})
	}
	sizes := map[int]bool{}
	prev := program(10)
	for n := 11; n <= 24; n++ {
		res := program(n)
		for _, g := range usage.BuildAll(res, cryptoapi.Cipher, usage.DefaultDepth) {
			sizes[g.NodeCount()] = true
		}
		diffExtraction(t, fmt.Sprintf("%d updates vs itself", n), res, res, cryptoapi.Cipher)
		diffExtraction(t, fmt.Sprintf("%d vs %d updates", n-1, n), prev, res, cryptoapi.Cipher)
		diffExtraction(t, fmt.Sprintf("%d vs %d updates", n, n-1), res, prev, cryptoapi.Cipher)
		prev = res
	}
	for _, n := range []int{15, 16, 17, 28} {
		if !sizes[n] {
			t.Fatalf("no graph of %d nodes was built (sizes %v)", n, sizes)
		}
	}
}

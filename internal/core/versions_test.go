package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/change"
	"repro/internal/corpus"
	"repro/internal/cryptoapi"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// The shared-versions oracle: a batch analyses each distinct source version
// once and hands the result to every later change carrying the same text.
// Everything observable must equal analysing each change on its own — the
// events of each version, every extraction row, Figures 6–8, provenance,
// and the ledger under a step budget that trips some changes — at any
// worker count. CI runs it under -race at -cpu=1,4 (the name matches
// -run 'Differential').

// ledgerLines renders ledger entries without their stack snippets.
func ledgerLines(es []resilience.Entry) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = fmt.Sprintf("%s|%s|%s|%s|%v", e.Task, e.Phase, e.Category, e.Err, e.Meta)
	}
	return out
}

// unsharedBatch analyses every change on its own (a batch of one each, so
// no change sees another's versions) and records failures in input order,
// as AnalyzeAll does.
func unsharedBatch(d *DiffCode, ccs []mining.CodeChange) []*AnalyzedChange {
	out := make([]*AnalyzedChange, len(ccs))
	for i, cc := range ccs {
		a, phase, err := d.analyzeChange(context.Background(), newVersionTable(ccs[i:i+1]).run(0), cc)
		if err != nil {
			d.record(cc, phase, err)
			continue
		}
		out[i] = a
	}
	return out
}

func compact(as []*AnalyzedChange) []*AnalyzedChange {
	var out []*AnalyzedChange
	for _, a := range as {
		if a != nil {
			out = append(out, a)
		}
	}
	return out
}

// changeFingerprint renders everything a change carries into the figures:
// the events of both versions, the classes each mentions, and its
// extraction for every target class.
func changeFingerprint(d *DiffCode, a *AnalyzedChange) string {
	if a == nil {
		return "nil\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "old uses %s\n%snew uses %s\n%s", sortedKeys(a.UsesOld), renderUses(a.Old), sortedKeys(a.UsesNew), renderUses(a.New))
	for _, class := range cryptoapi.TargetClasses {
		fmt.Fprintf(&sb, "%s:\n%s", class, renderChanges(d.ExtractClass(a, class)))
	}
	return sb.String()
}

// evalFingerprint renders Figures 6–8 and the provenance of every survivor.
func evalFingerprint(e *Evaluation) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%v\n%+v\n%s\n", e.Figure6().Rows, e.Figure7Data(), e.Figure8().Rendering)
	for _, class := range cryptoapi.TargetClasses {
		for _, uc := range e.SortedSurvivors(class) {
			sb.WriteString(e.RenderProvenance(uc, 2))
		}
	}
	return sb.String()
}

// TestDifferentialSharedVersions compares batches against unshared
// per-change analysis on a generated corpus, then covers the edge cases:
// a failing leader, fail-fast and max-errors (on one history, and on
// several where level order differs from input order), a follower that
// waits on a held leader, and a change whose old and new are equal.
func TestDifferentialSharedVersions(t *testing.T) {
	t.Run("corpus", testSharedVersionsCorpus)
	t.Run("leader_fails", testSharedVersionsLeaderFails)
	t.Run("fail_fast", testSharedVersionsFailFast)
	t.Run("abort_histories", testSharedVersionsAbortHistories)
	t.Run("wait_counters", testSharedVersionsWaitCounters)
	t.Run("old_equals_new", testSharedVersionsOldEqualsNew)
	t.Run("store_duplicate_pair", testSharedVersionsStoreDuplicatePair)
}

// testSharedVersionsCorpus runs the oracle without a budget and under one
// that trips some changes, at workers 1, 2 and 8.
func testSharedVersionsCorpus(t *testing.T) {
	c := determinismCorpus()
	for _, budget := range []int64{0, 90} {
		opts := Options{BudgetSteps: budget}
		ref := New(opts)
		ccs := ref.collect(context.Background(), c)
		want := unsharedBatch(ref, ccs)
		wantLedger := ledgerLines(ref.Ledger().Entries())
		if budget > 0 && (len(wantLedger) == 0 || len(wantLedger) == len(ccs)) {
			t.Fatalf("budget %d trips %d of %d changes; want some but not all", budget, len(wantLedger), len(ccs))
		}
		t.Logf("budget %d: %d changes, %d skipped", budget, len(ccs), len(wantLedger))
		refEval := &Evaluation{DiffCode: ref, Corpus: c, Analyzed: compact(want), classes: map[string]*classEntry{}}
		wantEval := evalFingerprint(refEval)

		for _, workers := range []int{1, 2, 8} {
			opts.Workers = workers
			reg := obs.NewRegistry()
			opts.Metrics = reg
			e := within(t, "NewEvaluation", func() *Evaluation { return NewEvaluation(c, opts) })
			d := e.DiffCode
			if reg.Counter("analysis.versions_shared").Value() == 0 {
				t.Fatalf("budget %d workers %d: no version was shared; the corpus exercises nothing", budget, workers)
			}
			got := analyzeWithin(t, d, ccs)
			for i := range ccs {
				if g, w := changeFingerprint(d, got[i]), changeFingerprint(ref, want[i]); g != w {
					t.Fatalf("budget %d workers %d: change %d (%s) differs\ngot:\n%.600s\nwant:\n%.600s", budget, workers, i, taskName(ccs[i]), g, w)
				}
			}
			// The evaluation's ledger holds its own mining pass; AnalyzeAll
			// appended a second, identical pass.
			gotLedger := ledgerLines(d.Ledger().Entries())
			if n := len(wantLedger); !reflect.DeepEqual(gotLedger[:n], wantLedger) || !reflect.DeepEqual(gotLedger[n:], wantLedger) {
				t.Errorf("budget %d workers %d: ledger differs\ngot:  %q\nwant: %q (twice)", budget, workers, gotLedger, wantLedger)
			}
			if g := evalFingerprint(e); g != wantEval {
				t.Errorf("budget %d workers %d: figures or provenance differ\ngot:\n%.800s\nwant:\n%.800s", budget, workers, g, wantEval)
			}
		}
	}
}

// historyVersion is version i of project p's history of H.java.
func historyVersion(p string, i int) string {
	return fmt.Sprintf(`class H {
  void m(java.security.Key k) throws Exception {
    javax.crypto.Cipher c = javax.crypto.Cipher.getInstance("AES/CBC/%s%d");
    c.init(javax.crypto.Cipher.ENCRYPT_MODE, k);
  }
}
`, p, i)
}

// historyOf is n changes over project p's H.java: change i takes version i
// to i+1, so each change's old version is the previous change's new one.
func historyOf(p string, n int) []mining.CodeChange {
	ccs := make([]mining.CodeChange, n)
	for i := range ccs {
		ccs[i] = mining.CodeChange{
			Meta: change.Meta{Project: p, Commit: fmt.Sprintf("c%02d", i), File: "H.java"},
			Old:  historyVersion(p, i),
			New:  historyVersion(p, i+1),
		}
	}
	return ccs
}

// history is n changes over one file's history.
func history(n int) []mining.CodeChange { return historyOf("hist", n) }

// batchDeadline bounds every multi-worker batch in these tests. A dispatch
// bug can leave a follower waiting on a leader that never publishes, and
// the batch then hangs: the test must fail at the deadline, not at the test
// binary's timeout.
const batchDeadline = 60 * time.Second

// within runs f and fails the test if it does not return within
// batchDeadline.
func within[T any](t *testing.T, what string, f func() T) T {
	t.Helper()
	done := make(chan T, 1)
	go func() { done <- f() }()
	select {
	case out := <-done:
		return out
	case <-time.After(batchDeadline):
		t.Fatalf("%s did not return in %v: a follower is waiting on a leader that never published", what, batchDeadline)
		panic("unreachable")
	}
}

// analyzeWithin runs AnalyzeAll within batchDeadline.
func analyzeWithin(t *testing.T, d *DiffCode, ccs []mining.CodeChange) []*AnalyzedChange {
	t.Helper()
	return within(t, "AnalyzeAll", func() []*AnalyzedChange { return d.AnalyzeAll(ccs) })
}

// testSharedVersionsLeaderFails: a leader that fails publishes
// no result, and the followers of its versions analyse them live and
// succeed — with or without an artifact store, at any worker count.
func testSharedVersionsLeaderFails(t *testing.T) {
	defer resilience.ClearFaultInjector()
	ccs := history(8)
	ref := New(Options{})
	want := unsharedBatch(ref, ccs)
	// Change 0 fails while interpreting (it leads versions 0 and 1), change
	// 3 while parsing (it leads version 4).
	faulty := map[string]bool{taskName(ccs[0]): true, taskName(ccs[3]) + " [parse]": true}
	resilience.SetFaultInjector(func(task string) error {
		if faulty[task] {
			panic("injected leader fault")
		}
		return nil
	})
	for _, store := range []bool{false, true} {
		for _, workers := range []int{1, 2, 8} {
			opts := Options{Workers: workers, Metrics: obs.NewRegistry()}
			if store {
				opts.Artifacts = artifact.New(artifact.Config{})
			}
			d := New(opts)
			out := analyzeWithin(t, d, ccs)
			for i, a := range out {
				if i == 0 || i == 3 {
					if a != nil {
						t.Errorf("store=%t workers=%d: change %d survived its injected fault", store, workers, i)
					}
					continue
				}
				if a == nil {
					t.Fatalf("store=%t workers=%d: change %d failed; followers of a failed leader must run live", store, workers, i)
				}
				if !store && changeFingerprint(d, a) != changeFingerprint(ref, want[i]) {
					t.Errorf("store=%t workers=%d: change %d differs from its unshared analysis", store, workers, i)
				}
			}
			lines := ledgerLines(d.Ledger().Entries())
			if len(lines) != 2 || !strings.HasPrefix(lines[0], taskName(ccs[0])+"|analyze|panic") ||
				!strings.HasPrefix(lines[1], taskName(ccs[3])+"|parse|panic") {
				t.Errorf("store=%t workers=%d: ledger = %q, want change 0's analyze panic then change 3's parse panic", store, workers, lines)
			}
		}
	}
}

// testSharedVersionsFailFast: fail-fast stops dispatch while
// followers may be waiting on leaders; the batch still returns, and at one
// worker it stops exactly at the failing change.
func testSharedVersionsFailFast(t *testing.T) {
	defer resilience.ClearFaultInjector()
	ccs := history(40)
	victim := taskName(ccs[5])
	resilience.SetFaultInjector(func(task string) error {
		if task == victim {
			panic("injected fail-fast fault")
		}
		return nil
	})
	for _, workers := range []int{1, 2, 8} {
		d := New(Options{Workers: workers, FailFast: true})
		out := analyzeWithin(t, d, ccs)
		if n := d.Ledger().Len(); n != 1 {
			t.Errorf("workers=%d: fail-fast recorded %d failures, want 1:\n%s", workers, n, d.Ledger().Report())
		}
		for i := 0; i < 5; i++ {
			if workers == 1 && out[i] == nil {
				t.Errorf("workers=1: change %d before the failure was not analysed", i)
			}
		}
		if out[5] != nil {
			t.Errorf("workers=%d: the failing change has a result", workers)
		}
		if workers == 1 {
			for i := 6; i < len(out); i++ {
				if out[i] != nil {
					t.Errorf("workers=1: change %d after the failure was dispatched", i)
				}
			}
		}
	}
}

// testSharedVersionsAbortHistories: fail-fast and max-errors on a batch of
// several histories, laid out one after the other as the miner collects
// them, so level order differs from input order; one change copies
// another history's pair and one another history's version. The batch
// returns, and its ledger holds only the injected failures.
func testSharedVersionsAbortHistories(t *testing.T) {
	defer resilience.ClearFaultInjector()
	var ccs []mining.CodeChange
	for _, p := range []string{"ha", "hb", "hc"} {
		ccs = append(ccs, historyOf(p, 12)...)
	}
	dup := ccs[3]
	dup.Meta.Project = "copy"
	cross := ccs[20]
	cross.Meta.Project, cross.Old = "cross", historyVersion("hd", 0)
	ccs = append(ccs, dup, cross)
	ref := New(Options{})
	want := unsharedBatch(ref, ccs)
	// Two interpreter faults and one parse fault, each at a leader. The
	// ledger names a failing change by its task, whatever the phase.
	inject, faulty := map[string]bool{}, map[string]bool{}
	for _, task := range []string{taskName(ccs[2]), taskName(ccs[15]) + " [parse]", taskName(ccs[27])} {
		inject[task] = true
		faulty[strings.TrimSuffix(task, " [parse]")] = true
	}
	resilience.SetFaultInjector(func(task string) error {
		if inject[task] {
			panic("injected abort fault")
		}
		return nil
	})
	for _, abort := range []Options{{FailFast: true}, {MaxErrors: 2}} {
		least := max(abort.MaxErrors, 1)
		for _, workers := range []int{2, 8} {
			opts := abort
			opts.Workers = workers
			name := fmt.Sprintf("fail-fast=%t max-errors=%d workers=%d", opts.FailFast, opts.MaxErrors, workers)
			d := New(opts)
			out := analyzeWithin(t, d, ccs)
			es := d.Ledger().Entries()
			if len(es) < least || len(es) > len(faulty) {
				t.Errorf("%s: %d failures, want %d to %d:\n%s", name, len(es), least, len(faulty), d.Ledger().Report())
			}
			for _, e := range es {
				if !faulty[e.Task] {
					t.Errorf("%s: ledger holds %q, which was not injected", name, e.Task)
				}
			}
			for i, a := range out {
				if a != nil && changeFingerprint(d, a) != changeFingerprint(ref, want[i]) {
					t.Errorf("%s: change %d differs from its unshared analysis", name, i)
				}
			}
		}
	}
}

// testSharedVersionsWaitCounters holds a leader until its follower has
// started, so the follower blocks taking the leader's version: both wait
// counters move, and the output is unchanged.
func testSharedVersionsWaitCounters(t *testing.T) {
	defer resilience.ClearFaultInjector()
	ccs := history(2)
	ref := New(Options{})
	want := unsharedBatch(ref, ccs)
	started := make(chan struct{})
	resilience.SetFaultInjector(func(task string) error {
		switch task {
		case taskName(ccs[1]):
			close(started)
		case taskName(ccs[0]):
			<-started
			time.Sleep(50 * time.Millisecond)
		}
		return nil
	})
	reg := obs.NewRegistry()
	d := New(Options{Workers: 2, Metrics: reg})
	out := analyzeWithin(t, d, ccs)
	for i := range ccs {
		if g, w := changeFingerprint(d, out[i]), changeFingerprint(ref, want[i]); g != w {
			t.Errorf("change %d differs from its unshared analysis\ngot:\n%.600s\nwant:\n%.600s", i, g, w)
		}
	}
	if n := reg.Counter("analysis.version_waits").Value(); n != 1 {
		t.Errorf("analysis.version_waits = %d, want 1", n)
	}
	if us := reg.Counter("analysis.version_wait_us").Value(); us <= 0 {
		t.Errorf("analysis.version_wait_us = %d, want > 0", us)
	}
}

// testSharedVersionsOldEqualsNew: a change whose two versions
// are the same text analyses it once, and still charges its budget for
// both, exactly as analysing it twice would.
func testSharedVersionsOldEqualsNew(t *testing.T) {
	cc := mining.CodeChange{Meta: change.Meta{Project: "p", Commit: "c1", File: "A.java"}, Old: obsOld, New: obsOld}
	for _, batch := range []bool{false, true} {
		reg := obs.NewRegistry()
		d := New(Options{Workers: 2, Metrics: reg})
		var a *AnalyzedChange
		if batch {
			a = analyzeWithin(t, d, []mining.CodeChange{cc})[0]
		} else {
			var err error
			if a, err = d.AnalyzeChange(cc); err != nil {
				t.Fatal(err)
			}
		}
		if a == nil || a.Old != a.New {
			t.Fatalf("batch=%t: old and new do not share one result: %+v", batch, a)
		}
		s := obs.TakeSnapshot(reg, false)
		for name, want := range map[string]int64{"analysis.runs": 1, "parse.files": 1, "analysis.versions_shared": 1} {
			if got := s.Counters[name]; got != want {
				t.Errorf("batch=%t: %s = %d, want %d", batch, name, got, want)
			}
		}
		steps := s.Counters["analysis.steps"]
		// The change costs 2×steps, so a budget between steps and 2×steps
		// trips it and one of 2×steps does not.
		for budget, trips := range map[int64]bool{steps + steps/2: true, 2 * steps: false} {
			_, err := New(Options{BudgetSteps: budget}).AnalyzeChange(cc)
			if got := errors.Is(err, resilience.ErrBudgetExhausted); got != trips {
				t.Errorf("batch=%t: budget %d (version costs %d): err = %v, want tripped=%t", batch, budget, steps, err, trips)
			}
		}
	}
}

// testSharedVersionsStoreDuplicatePair: a later change with the same old
// and new text as its leader reaches the artifact store's single-flight
// first. It must wait for the leader's versions before it takes the
// flight; otherwise it would own the flight while waiting on the leader,
// and the leader would queue on that flight.
func testSharedVersionsStoreDuplicatePair(t *testing.T) {
	ccs := duplicateHeavyBatch(2, 1)
	d := New(Options{Artifacts: artifact.New(artifact.Config{})})
	vt := newVersionTable(ccs)
	errs := make(chan error, len(ccs))
	run := func(i int) {
		_, _, err := d.analyzeChange(context.Background(), vt.run(i), ccs[i])
		errs <- err
	}
	go run(1)
	time.Sleep(20 * time.Millisecond) // let the follower reach the store first
	go run(0)
	for range ccs {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("the leader and its duplicate-pair follower wait on each other")
		}
	}
}

// genVersionBatch generates the texts of a batch of interleaved histories:
// each change continues one history, and some copy a text from another
// history or keep their old text as their new one.
func genVersionBatch(rng *rand.Rand) []mining.CodeChange {
	cur := make([]string, 2+rng.Intn(5))
	left := make([]int, len(cur))
	total := 0
	for h := range cur {
		cur[h] = fmt.Sprintf("h%d v0", h)
		left[h] = 1 + rng.Intn(10)
		total += left[h]
	}
	var ccs []mining.CodeChange
	for len(ccs) < total {
		h := rng.Intn(len(cur))
		if left[h] == 0 {
			continue
		}
		left[h]--
		next := fmt.Sprintf("h%d v%d", h, len(ccs)+1)
		switch rng.Intn(6) {
		case 0:
			next = cur[h]
		case 1:
			next = cur[rng.Intn(len(cur))]
		}
		ccs = append(ccs, mining.CodeChange{Old: cur[h], New: next})
		cur[h] = next
	}
	return ccs
}

// TestDifferentialDispatchOrder checks the batch's dispatch order on
// generated tables: it is a permutation of the batch, every leader comes
// before its followers, and one worker keeps input order. CI runs it under
// -race at -cpu=1,4 (the name matches -run 'Differential').
func TestDifferentialDispatchOrder(t *testing.T) {
	reordered, copied, same := 0, 0, 0
	for seed := int64(0); seed < 200; seed++ {
		ccs := genVersionBatch(rand.New(rand.NewSource(seed)))
		vt := newVersionTable(ccs)
		for j, i := range vt.order(1) {
			if i != j {
				t.Fatalf("seed %d: one worker dispatches change %d at %d, want input order", seed, i, j)
			}
		}
		for _, workers := range []int{2, 8} {
			order := vt.order(workers)
			pos := make([]int, len(ccs))
			for i := range pos {
				pos[i] = -1
			}
			for j, i := range order {
				if i < 0 || i >= len(ccs) || pos[i] >= 0 {
					t.Fatalf("seed %d workers %d: order %v is not a permutation of %d changes", seed, workers, order, len(ccs))
				}
				pos[i] = j
			}
			for i, vs := range vt.vers {
				for _, v := range vs {
					if v.leader != i && pos[v.leader] > pos[i] {
						t.Fatalf("seed %d workers %d: change %d is dispatched at %d, before its leader %d at %d", seed, workers, i, pos[i], v.leader, pos[v.leader])
					}
				}
			}
			if !sort.IntsAreSorted(order) {
				reordered++
			}
		}
		for i, cc := range ccs {
			if cc.Old == cc.New {
				same++
			}
			if h := strings.Fields(cc.New)[0]; h != strings.Fields(cc.Old)[0] && vt.vers[i][1].leader != i {
				copied++
			}
		}
	}
	if reordered == 0 || copied == 0 || same == 0 {
		t.Fatalf("generated batches exercise too little: %d reordered, %d cross-history copies, %d with old == new", reordered, copied, same)
	}
}

// BenchmarkVersionTable times a mining batch's serial pre-pass over the
// seed-1 paper-scale corpus: 13,168 changes carrying 13,894 distinct
// versions.
func BenchmarkVersionTable(b *testing.B) {
	ccs := New(Options{}).collect(context.Background(), corpus.Generate(corpus.Default()))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		newVersionTable(ccs)
	}
}

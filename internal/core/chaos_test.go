package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/change"
	"repro/internal/corpus"
	"repro/internal/cryptoapi"
	"repro/internal/mining"
	"repro/internal/resilience"
	"repro/internal/rules"
)

// tinyChange builds a well-behaved mined change (a few dozen interpreter
// steps) that uses a target class, with unique provenance.
func tinyChange(idx int) mining.CodeChange {
	old := fmt.Sprintf(`class C%d {
  void m() { javax.crypto.Cipher c = javax.crypto.Cipher.getInstance("DES"); }
}`, idx)
	nw := strings.Replace(old, `"DES"`, `"AES"`, 1)
	return mining.CodeChange{
		Meta: change.Meta{
			Project: "chaosproj",
			Commit:  fmt.Sprintf("c%02d", idx),
			File:    fmt.Sprintf("C%d.java", idx),
			Message: "tiny change",
		},
		Old: old,
		New: nw,
	}
}

// forkBomb renders a legal Java class whose abstract execution takes far
// more steps than any tinyChange: n sequential state-forking ifs evaluated
// over the capped state set.
func forkBomb(n int) string {
	var sb strings.Builder
	sb.WriteString("class Bomb {\n  void go(int x) {\n    int acc = 0;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "    if (x > %d) { acc = acc + %d * 2 + x; } else { acc = acc - %d; }\n", i, i, i)
	}
	sb.WriteString("  }\n}\n")
	return sb.String()
}

// TestAnalyzeAllChaos is the chaos path of the issue: inject a panic into
// change i and a budget stall into change j of a 20-change batch, and
// assert the batch completes with 18 results in input order (nil slots for
// the failures) and a ledger holding exactly the two injected failures.
func TestAnalyzeAllChaos(t *testing.T) {
	cases := []struct{ panicAt, stallAt int }{
		{panicAt: 3, stallAt: 11},
		{panicAt: 0, stallAt: 19},
		{panicAt: 8, stallAt: 7},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("panic%d_stall%d", tc.panicAt, tc.stallAt), func(t *testing.T) {
			defer resilience.ClearFaultInjector()
			ccs := make([]mining.CodeChange, 20)
			for i := range ccs {
				ccs[i] = tinyChange(i)
			}
			// The stall is real: a fork-heavy new version that exhausts the
			// per-change step budget inside the interpreter's hot loop.
			ccs[tc.stallAt].New = forkBomb(400)
			panicTask := taskName(ccs[tc.panicAt])
			resilience.SetFaultInjector(func(task string) error {
				if task == panicTask {
					panic("injected chaos panic")
				}
				return nil
			})

			d := New(Options{BudgetSteps: 5000, Workers: 4})
			out := d.AnalyzeAll(ccs)

			if len(out) != len(ccs) {
				t.Fatalf("AnalyzeAll returned %d slots, want %d", len(out), len(ccs))
			}
			analyzed := 0
			for i, a := range out {
				if i == tc.panicAt || i == tc.stallAt {
					if a != nil {
						t.Errorf("slot %d: got a result, want nil (injected failure)", i)
					}
					continue
				}
				if a == nil {
					t.Errorf("slot %d: nil, want analyzed change", i)
					continue
				}
				analyzed++
				if a.Meta.Commit != ccs[i].Meta.Commit {
					t.Errorf("slot %d holds commit %s, want %s (order not preserved)",
						i, a.Meta.Commit, ccs[i].Meta.Commit)
				}
			}
			if analyzed != 18 {
				t.Errorf("analyzed %d changes, want 18", analyzed)
			}

			entries := d.Ledger().Entries()
			if len(entries) != 2 {
				t.Fatalf("ledger has %d entries, want 2:\n%s", len(entries), d.Ledger().Report())
			}
			byTask := map[string]resilience.Entry{}
			for _, e := range entries {
				byTask[e.Task] = e
			}
			pe, ok := byTask[panicTask]
			if !ok {
				t.Fatalf("no ledger entry for injected panic task %q", panicTask)
			}
			if pe.Phase != resilience.PhaseAnalyze || pe.Category != resilience.CatPanic {
				t.Errorf("panic entry = phase %q category %q, want analyze/panic", pe.Phase, pe.Category)
			}
			if pe.Stack == "" {
				t.Error("panic entry has no stack snippet")
			}
			se, ok := byTask[taskName(ccs[tc.stallAt])]
			if !ok {
				t.Fatalf("no ledger entry for stalled task %q", taskName(ccs[tc.stallAt]))
			}
			if se.Phase != resilience.PhaseAnalyze || se.Category != resilience.CatBudget {
				t.Errorf("stall entry = phase %q category %q, want analyze/budget", se.Phase, se.Category)
			}
			if se.Meta["commit"] != ccs[tc.stallAt].Meta.Commit {
				t.Errorf("stall entry meta commit = %q, want %q", se.Meta["commit"], ccs[tc.stallAt].Meta.Commit)
			}
		})
	}
}

// TestMineCorpusChaos injects panics into k of the n mined changes of a
// generated corpus and asserts the full mining front-end completes with
// n−k analyzed changes and exactly k ledger entries.
func TestMineCorpusChaos(t *testing.T) {
	defer resilience.ClearFaultInjector()
	c := corpus.Generate(corpus.Config{Seed: 7, Scale: 0.2, Projects: 10, ExtraProjects: 2})
	ccs := mining.Collect(c, mining.Options{})
	n := len(ccs)
	if n < 8 {
		t.Fatalf("generated corpus mined only %d changes; too small for chaos", n)
	}
	const k = 3
	faulty := map[string]bool{}
	for i := 0; i < k; i++ {
		faulty[taskName(ccs[i*2])] = true
	}
	if len(faulty) != k {
		t.Fatalf("task names not unique across the %d selected changes", k)
	}
	resilience.SetFaultInjector(func(task string) error {
		if faulty[task] {
			panic("injected mining panic")
		}
		return nil
	})

	d := New(Options{})
	analyzed := d.MineCorpus(c)
	if len(analyzed) != n-k {
		t.Errorf("MineCorpus returned %d changes, want %d (n=%d − k=%d)", len(analyzed), n-k, n, k)
	}
	for _, a := range analyzed {
		if a == nil {
			t.Error("MineCorpus returned a nil slot; skipped changes must be compacted away")
		}
	}
	entries := d.Ledger().Entries()
	if len(entries) != k {
		t.Fatalf("ledger has %d entries, want %d:\n%s", len(entries), k, d.Ledger().Report())
	}
	for _, e := range entries {
		if !faulty[e.Task] {
			t.Errorf("unexpected ledger task %q", e.Task)
		}
		if e.Phase != resilience.PhaseAnalyze || e.Category != resilience.CatPanic {
			t.Errorf("entry %q = phase %q category %q, want analyze/panic", e.Task, e.Phase, e.Category)
		}
	}
}

// TestAnalyzeAllFailFast: with FailFast set and a single worker, the first
// failure stops the batch after exactly one ledger entry.
func TestAnalyzeAllFailFast(t *testing.T) {
	defer resilience.ClearFaultInjector()
	resilience.SetFaultInjector(func(task string) error {
		if strings.HasPrefix(task, "change ") && !strings.HasSuffix(task, "[parse]") {
			panic("boom")
		}
		return nil
	})
	ccs := make([]mining.CodeChange, 10)
	for i := range ccs {
		ccs[i] = tinyChange(i)
	}
	d := New(Options{FailFast: true, Workers: 1})
	out := d.AnalyzeAll(ccs)
	for i, a := range out {
		if a != nil {
			t.Errorf("slot %d non-nil; every change should have failed or been skipped", i)
		}
	}
	if got := d.Ledger().Len(); got != 1 {
		t.Errorf("fail-fast recorded %d failures, want 1", got)
	}
}

// TestAnalyzeAllMaxErrors: the batch aborts once MaxErrors failures are on
// the ledger.
func TestAnalyzeAllMaxErrors(t *testing.T) {
	defer resilience.ClearFaultInjector()
	resilience.SetFaultInjector(func(task string) error {
		if strings.HasPrefix(task, "change ") && !strings.HasSuffix(task, "[parse]") {
			return fmt.Errorf("%w: injected stall", resilience.ErrBudgetExhausted)
		}
		return nil
	})
	ccs := make([]mining.CodeChange, 10)
	for i := range ccs {
		ccs[i] = tinyChange(i)
	}
	d := New(Options{MaxErrors: 3, Workers: 1})
	d.AnalyzeAll(ccs)
	if got := d.Ledger().Len(); got != 3 {
		t.Errorf("max-errors recorded %d failures, want 3", got)
	}
	for _, e := range d.Ledger().Entries() {
		if e.Category != resilience.CatBudget {
			t.Errorf("entry %q category %q, want budget", e.Task, e.Category)
		}
	}
}

// TestRunClassExtractGuard: a panic while extracting one change's usage
// changes skips that change with a PhaseExtract entry instead of aborting
// the class pipeline.
func TestRunClassExtractGuard(t *testing.T) {
	ccs := make([]mining.CodeChange, 5)
	for i := range ccs {
		ccs[i] = tinyChange(i)
	}
	d := New(Options{})
	analyzed := d.AnalyzeAll(ccs)
	if n := d.Ledger().Len(); n != 0 {
		t.Fatalf("setup: ledger has %d entries, want 0", n)
	}

	defer resilience.ClearFaultInjector()
	victim := fmt.Sprintf("extract Cipher %s@%s:%s",
		ccs[2].Meta.Project, ccs[2].Meta.Commit, ccs[2].Meta.File)
	resilience.SetFaultInjector(func(task string) error {
		if task == victim {
			panic("extract chaos")
		}
		return nil
	})
	r := d.RunClass(analyzed, "Cipher")
	if r.Stats.Total == 0 {
		t.Error("RunClass extracted nothing; other changes should still contribute")
	}
	entries := d.Ledger().Entries()
	if len(entries) != 1 {
		t.Fatalf("ledger has %d entries, want 1:\n%s", len(entries), d.Ledger().Report())
	}
	if entries[0].Phase != resilience.PhaseExtract || entries[0].Category != resilience.CatPanic {
		t.Errorf("entry = phase %q category %q, want extract/panic", entries[0].Phase, entries[0].Category)
	}
}

// TestEvaluationExtractGuard: within an evaluation, a change whose
// extraction panics is skipped by every figure alike and recorded once,
// however many figures read its class.
func TestEvaluationExtractGuard(t *testing.T) {
	c := corpus.Generate(corpus.Config{Seed: 7, Scale: 0.2, Projects: 10, ExtraProjects: 2})
	e := NewEvaluation(c, Options{})
	victim := ""
	for _, a := range e.Analyzed {
		if a.UsesClass(cryptoapi.Cipher) && len(e.DiffCode.ExtractClass(a, cryptoapi.Cipher)) > 0 {
			victim = fmt.Sprintf("extract %s %s@%s:%s", cryptoapi.Cipher, a.Meta.Project, a.Meta.Commit, a.Meta.File)
			break
		}
	}
	if victim == "" {
		t.Fatal("setup: no change has Cipher usage changes")
	}

	defer resilience.ClearFaultInjector()
	resilience.SetFaultInjector(func(task string) error {
		if task == victim {
			panic("extract chaos")
		}
		return nil
	})
	fig6 := map[string]string{}
	for _, row := range e.Figure6().Rows {
		fig6[row[0]] = row[1]
	}
	fig7 := e.Figure7Data()
	e.ElicitRules()

	entries := e.DiffCode.Ledger().Entries()
	if len(entries) != 1 {
		t.Fatalf("ledger has %d entries, want 1:\n%s", len(entries), e.DiffCode.Ledger().Report())
	}
	if entries[0].Task != victim || entries[0].Phase != resilience.PhaseExtract {
		t.Errorf("entry = %q phase %q, want %q phase extract", entries[0].Task, entries[0].Phase, victim)
	}
	totals := map[string]int{}
	for _, row := range fig7 {
		totals[row.Rule] += row.Total
	}
	for _, cl := range rules.CryptoLint() {
		class := cl.Clauses[0].Class
		if got := fmt.Sprint(totals[cl.ID]); got != fig6[class] {
			t.Errorf("%s: Figure 7 totals %s usage changes, Figure 6 counts %s for %s", cl.ID, got, fig6[class], class)
		}
	}
}

// TestAnalyzeAllHappyPath: with no faults the resilience layer is a no-op —
// every change analyzed, empty ledger, AnalyzeChange errors nil.
func TestAnalyzeAllHappyPath(t *testing.T) {
	ccs := make([]mining.CodeChange, 20)
	for i := range ccs {
		ccs[i] = tinyChange(i)
	}
	d := New(Options{BudgetSteps: 1 << 20})
	out := d.AnalyzeAll(ccs)
	for i, a := range out {
		if a == nil {
			t.Errorf("slot %d nil on the happy path", i)
		}
	}
	if got := d.Ledger().Len(); got != 0 {
		t.Errorf("happy path recorded %d failures, want 0:\n%s", got, d.Ledger().Report())
	}
	a, err := d.AnalyzeChange(ccs[0])
	if err != nil || a == nil {
		t.Errorf("AnalyzeChange = (%v, %v), want result and nil error", a, err)
	}
}

// TestAnalyzeChangeBudgetError: AnalyzeChange surfaces budget exhaustion as
// an error wrapping resilience.ErrBudgetExhausted.
func TestAnalyzeChangeBudgetError(t *testing.T) {
	cc := tinyChange(0)
	cc.New = forkBomb(400)
	d := New(Options{BudgetSteps: 5000})
	a, err := d.AnalyzeChange(cc)
	if !errors.Is(err, resilience.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if a != nil {
		t.Error("got a partial AnalyzedChange, want nil")
	}
}

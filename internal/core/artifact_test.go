package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/change"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/rules"
)

// The artifact suite pins the incremental-pipeline contracts: per-key
// single-flight under concurrency (duplicate work collapses to one compute),
// and precise invalidation (exactly the mutated source, option, or rule set
// misses — nothing else). The `artifact.analysis.computes` counter is the
// oracle throughout: it increments only inside the cache-miss compute body,
// so computes == distinct keys proves no duplicate analysis ran and
// computes == 0 proves a run was fully warm.

// cipherChange renders one parseable Java change pair keyed by an algorithm
// tag: distinct tags give distinct (Old, New) contents and so distinct
// artifact keys.
func cipherChange(tag string) (string, string) {
	old := fmt.Sprintf(`
class A {
    void m(Key k) throws Exception {
        Cipher c = Cipher.getInstance("DES%s");
        c.init(Cipher.ENCRYPT_MODE, k);
    }
}
`, tag)
	new := fmt.Sprintf(`
class A {
    void m(Key k) throws Exception {
        Cipher c = Cipher.getInstance("AES/CBC/PKCS5Padding%s");
        c.init(Cipher.ENCRYPT_MODE, k);
    }
}
`, tag)
	return old, new
}

// duplicateHeavyBatch builds batchSize changes spanning only distinct
// different contents, round-robin, with unique commit metadata per change
// (meta is not part of the artifact key, so duplicates share a key).
func duplicateHeavyBatch(batchSize, distinct int) []mining.CodeChange {
	ccs := make([]mining.CodeChange, batchSize)
	for i := range ccs {
		old, new := cipherChange(fmt.Sprintf("-%d", i%distinct))
		ccs[i] = mining.CodeChange{
			Meta: change.Meta{Project: "p", Commit: fmt.Sprintf("c%02d", i), File: "A.java"},
			Old:  old, New: new,
		}
	}
	return ccs
}

// TestArtifactSingleFlightRaceHammer hammers a duplicate-heavy batch through
// AnalyzeAll at one and at four workers (run under -race in CI) and asserts
// the per-key single-flight contract: the number of live analyses equals the
// number of distinct (old, new) keys — concurrent duplicates wait for the
// leader instead of recomputing — while every change still resolves.
func TestArtifactSingleFlightRaceHammer(t *testing.T) {
	const batch, distinct = 24, 3
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			reg := obs.NewRegistry()
			st := artifact.New(artifact.Config{Metrics: reg})
			d := New(Options{Workers: workers, Metrics: reg, Artifacts: st})
			analyzed := d.AnalyzeAll(duplicateHeavyBatch(batch, distinct))
			for i, a := range analyzed {
				if a == nil {
					t.Fatalf("change %d skipped unexpectedly", i)
				}
			}
			s := obs.TakeSnapshot(reg, false)
			if got := s.Counters["artifact.analysis.computes"]; got != distinct {
				t.Errorf("computes = %d, want %d (one per distinct key)", got, distinct)
			}
			if got := s.Counters["analysis.changes_analyzed"]; got != batch {
				t.Errorf("changes_analyzed = %d, want %d", got, batch)
			}
			// Everyone but the per-key leaders resolved without computing:
			// either a plain cache hit (sequential duplicate) or a shared
			// single-flight result (concurrent duplicate).
			hits := s.Counters["artifact.analysis.hits"]
			shared := s.Counters["artifact.singleflight.shared"]
			if hits+shared < batch-distinct {
				t.Errorf("hits(%d) + singleflight.shared(%d) < %d: some duplicate was recomputed",
					hits, shared, batch-distinct)
			}

			// A second DiffCode over the same store is fully warm: zero new
			// computes, every change an artifact hit — its own, or, when a
			// duplicate is looked up at the same moment, the hit it shares
			// through single-flight.
			warm := New(Options{Workers: workers, Metrics: reg, Artifacts: st})
			for i, a := range warm.AnalyzeAll(duplicateHeavyBatch(batch, distinct)) {
				if a == nil {
					t.Fatalf("warm change %d skipped unexpectedly", i)
				}
			}
			s2 := obs.TakeSnapshot(reg, false)
			if got := s2.Counters["artifact.analysis.computes"]; got != distinct {
				t.Errorf("computes after warm rerun = %d, want still %d", got, distinct)
			}
			warmHits := s2.Counters["artifact.analysis.hits"] - hits
			warmShared := s2.Counters["artifact.singleflight.shared"] - shared
			if warmHits+warmShared < batch {
				t.Errorf("warm rerun: hits(%d) + singleflight.shared(%d) < %d",
					warmHits, warmShared, batch)
			}
		})
	}
}

// invalidationBatch is the 20-change corpus of the invalidation tests: all
// contents distinct, so cold computes == len(batch).
func invalidationBatch() []mining.CodeChange {
	return duplicateHeavyBatch(20, 20)
}

// runBatch analyzes the batch against a fresh disk-backed store over dir and
// returns the artifact.analysis hit/miss/compute counters of that run alone.
func runBatch(t *testing.T, dir string, ccs []mining.CodeChange, opts Options) (hits, misses, computes int) {
	t.Helper()
	reg := obs.NewRegistry()
	opts.Metrics = reg
	opts.Artifacts = artifact.New(artifact.Config{Dir: dir, Metrics: reg})
	d := New(opts)
	analyzed := d.AnalyzeAll(ccs)
	for i, a := range analyzed {
		if a == nil {
			t.Fatalf("change %d skipped unexpectedly", i)
		}
	}
	s := obs.TakeSnapshot(reg, false)
	return int(s.Counters["artifact.analysis.hits"]),
		int(s.Counters["artifact.analysis.misses"]),
		int(s.Counters["artifact.analysis.computes"])
}

// TestArtifactInvalidationSourceMutation pins the precision of source-keyed
// invalidation over a 20-change corpus: a fully warm re-run computes nothing,
// and mutating a single change's new version re-computes exactly that change
// while the other 19 stay warm.
func TestArtifactInvalidationSourceMutation(t *testing.T) {
	dir := t.TempDir()
	ccs := invalidationBatch()
	opts := Options{Workers: 2}

	if _, _, computes := runBatch(t, dir, ccs, opts); computes != len(ccs) {
		t.Fatalf("cold run computes = %d, want %d", computes, len(ccs))
	}
	hits, misses, computes := runBatch(t, dir, ccs, opts)
	if computes != 0 || misses != 0 || hits != len(ccs) {
		t.Fatalf("warm run hits/misses/computes = %d/%d/%d, want %d/0/0", hits, misses, computes, len(ccs))
	}

	mutated := invalidationBatch()
	mutated[7].New = strings.Replace(mutated[7].New, "PKCS5Padding", "NoPadding", 1)
	hits, misses, computes = runBatch(t, dir, mutated, opts)
	if computes != 1 || misses != 1 || hits != len(ccs)-1 {
		t.Errorf("one-file mutation hits/misses/computes = %d/%d/%d, want %d/1/1",
			hits, misses, computes, len(ccs)-1)
	}
}

// TestArtifactInvalidationOptionMutation asserts the options fingerprint
// isolates artifact reuse: changing an analysis-relevant option (the
// expansion depth, then the step budget) over a warm store misses every
// key, while changing only the worker count — deliberately excluded from
// the fingerprint — stays fully warm.
func TestArtifactInvalidationOptionMutation(t *testing.T) {
	dir := t.TempDir()
	ccs := invalidationBatch()

	if _, _, computes := runBatch(t, dir, ccs, Options{Workers: 2}); computes != len(ccs) {
		t.Fatalf("cold run computes = %d, want %d", computes, len(ccs))
	}
	if hits, _, computes := runBatch(t, dir, ccs, Options{Workers: 8}); computes != 0 || hits != len(ccs) {
		t.Errorf("workers-only change hits/computes = %d/%d, want %d/0 (workers excluded from fingerprint)",
			hits, computes, len(ccs))
	}
	if hits, misses, computes := runBatch(t, dir, ccs, Options{Workers: 2, Depth: 3}); computes != len(ccs) || hits != 0 {
		t.Errorf("depth change hits/misses/computes = %d/%d/%d, want 0/%d/%d",
			hits, misses, computes, len(ccs), len(ccs))
	}
	if hits, _, computes := runBatch(t, dir, ccs, Options{Workers: 2, BudgetSteps: 1 << 30}); computes != len(ccs) || hits != 0 {
		t.Errorf("budget change hits/computes = %d/%d, want 0/%d", hits, computes, len(ccs))
	}
	// The mutated-option artifacts landed beside the originals; the original
	// option set is still fully warm.
	if hits, _, computes := runBatch(t, dir, ccs, Options{Workers: 2}); computes != 0 || hits != len(ccs) {
		t.Errorf("original options after option churn hits/computes = %d/%d, want %d/0",
			hits, computes, len(ccs))
	}
}

// checkerSources is a small program that violates R5 (DES) and R7 (implicit
// ECB) — enough for check artifacts to carry a non-empty violation list
// through the cache.
func checkerSources() map[string]string {
	old, _ := cipherChange("")
	return map[string]string{"A.java": old}
}

// checkRun runs one CheckRequest (the serve path, where check outcomes are
// cached) against a store over dir and returns the violation IDs plus the
// run's check-artifact hit/miss counters.
func checkRun(t *testing.T, dir string, ruleSet []*rules.Rule) (ids string, hits, misses int) {
	t.Helper()
	reg := obs.NewRegistry()
	st := artifact.New(artifact.Config{Dir: dir, Metrics: reg})
	checker := NewChecker(ruleSet, Options{Workers: 1, Metrics: reg, Artifacts: st})
	out, err := checker.CheckRequest(context.Background(), checkerSources(), rules.Context{}, false)
	if err != nil {
		t.Fatalf("CheckRequest: %v", err)
	}
	var sb strings.Builder
	for _, v := range out.Violations {
		fmt.Fprintf(&sb, "%s ", v.Rule.ID)
	}
	s := obs.TakeSnapshot(reg, false)
	return sb.String(), int(s.Counters["artifact.check.hits"]), int(s.Counters["artifact.check.misses"])
}

// TestArtifactInvalidationRuleMutation pins rule-set-keyed invalidation on
// the checker path: identical sources + identical rules hit; narrowing the
// rule set misses (and still returns the right violations); restoring the
// original rules hits the original artifact again.
func TestArtifactInvalidationRuleMutation(t *testing.T) {
	dir := t.TempDir()

	cold, hits, misses := checkRun(t, dir, nil)
	if !strings.Contains(cold, "R5") {
		t.Fatalf("expected an R5 violation, got %q", cold)
	}
	if hits != 0 || misses != 1 {
		t.Fatalf("cold check hits/misses = %d/%d, want 0/1", hits, misses)
	}
	warm, hits, misses := checkRun(t, dir, nil)
	if warm != cold {
		t.Errorf("warm check output %q differs from cold %q", warm, cold)
	}
	if hits != 1 || misses != 0 {
		t.Errorf("warm check hits/misses = %d/%d, want 1/0", hits, misses)
	}

	// A different rule set is a different key: miss, and the narrowed run
	// must not see R5 (which is no longer in the set).
	narrowed, hits, misses := checkRun(t, dir, []*rules.Rule{rules.ByID("R3")})
	if strings.Contains(narrowed, "R5") {
		t.Errorf("narrowed rule set still reports R5: %q", narrowed)
	}
	if misses != 1 || hits != 0 {
		t.Errorf("narrowed check hits/misses = %d/%d, want 0/1", hits, misses)
	}
	again, hits, misses := checkRun(t, dir, nil)
	if again != cold || hits != 1 || misses != 0 {
		t.Errorf("restored rules: output %q hits/misses %d/%d, want %q 1/0", again, hits, misses, cold)
	}
}

// TestCheckRequestPartialOnBudget pins the budget contract of the checker's
// one entry point: an exhausted step budget still returns the rules'
// outcome over the partial analysis, together with ErrBudgetExhausted, and
// that partial outcome is never cached — a repeat check is a second miss.
func TestCheckRequestPartialOnBudget(t *testing.T) {
	reg := obs.NewRegistry()
	st := artifact.New(artifact.Config{Metrics: reg})
	checker := NewChecker(nil, Options{Workers: 1, BudgetSteps: 1, Metrics: reg, Artifacts: st})
	for i := 0; i < 2; i++ {
		out, err := checker.CheckRequest(context.Background(), checkerSources(), rules.Context{}, false)
		if !errors.Is(err, resilience.ErrBudgetExhausted) {
			t.Fatalf("check %d: err = %v, want ErrBudgetExhausted", i, err)
		}
		if out == nil || out.Result == nil {
			t.Fatalf("check %d: outcome = %+v, want the partial outcome", i, out)
		}
	}
	if misses := reg.Counter("artifact.check.misses").Value(); misses != 2 {
		t.Errorf("artifact.check.misses = %d, want 2 (a partial outcome must not be cached)", misses)
	}
	if n := reg.Counter("checker.programs").Value(); n != 2 {
		t.Errorf("checker.programs = %d, want 2 (partial checks are counted)", n)
	}
}

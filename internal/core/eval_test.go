package core

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/androidctx"
	"repro/internal/corpus"
	"repro/internal/cryptoapi"
	"repro/internal/rules"
)

// sharedEval builds one mined evaluation for all shape tests (the analysis
// pass is the expensive part).
var (
	evalOnce sync.Once
	evalInst *Evaluation
)

func sharedEval(t *testing.T) *Evaluation {
	t.Helper()
	evalOnce.Do(func() {
		c := corpus.Generate(corpus.Config{Seed: 1, Scale: 0.5, Projects: 230, ExtraProjects: 29})
		evalInst = NewEvaluation(c, Options{})
	})
	return evalInst
}

// TestFigure6Shape checks the headline filtering claims: >99% of usage
// changes are filtered, per-class volume ordering holds, and every class
// retains a non-negative monotone filter cascade.
func TestFigure6Shape(t *testing.T) {
	e := sharedEval(t)
	totals := map[string]int{}
	var all, kept int
	for _, class := range cryptoapi.TargetClasses {
		s := e.classResult(class).Stats
		totals[class] = s.Total
		all += s.Total
		kept += s.AfterDup
		if s.Total < s.AfterSame || s.AfterSame < s.AfterAdd ||
			s.AfterAdd < s.AfterRem || s.AfterRem < s.AfterDup {
			t.Errorf("%s: filter cascade not monotone: %+v", class, s)
		}
	}
	if all == 0 {
		t.Fatal("no usage changes mined")
	}
	filtered := float64(all-kept) / float64(all)
	if filtered < 0.99 {
		t.Errorf("filtered fraction = %.4f, want > 0.99 (paper headline)", filtered)
	}
	// Per-class volume ordering (paper Figure 6): SecureRandom dominates,
	// PBEKeySpec is rarest, IvParameterSpec below Cipher.
	if totals[cryptoapi.SecureRandom] <= totals[cryptoapi.Cipher] {
		t.Errorf("SecureRandom (%d) should exceed Cipher (%d)",
			totals[cryptoapi.SecureRandom], totals[cryptoapi.Cipher])
	}
	for _, class := range cryptoapi.TargetClasses {
		if class != cryptoapi.PBEKeySpec && totals[cryptoapi.PBEKeySpec] >= totals[class] {
			t.Errorf("PBEKeySpec (%d) should be rarest, but >= %s (%d)",
				totals[cryptoapi.PBEKeySpec], class, totals[class])
		}
	}
	if totals[cryptoapi.IvParameterSpec] >= totals[cryptoapi.Cipher] {
		t.Error("IvParameterSpec should be below Cipher")
	}
}

// TestFilterKeepsInjectedFixes verifies the paper's filter-soundness claim:
// the filters do not lose security fixes. A fix may legitimately appear as
// an addition for a *secondary* class (e.g. switching to GCM introduces a
// SecureRandom for the fresh IV), but for at least one target class the fix
// must survive as a two-sided semantic usage change — except for fixes
// whose only effect is on a non-target class (adding a Mac for R13).
func TestFilterKeepsInjectedFixes(t *testing.T) {
	e := sharedEval(t)
	var fixCommits, survived, addOnly int
	for _, a := range e.Analyzed {
		if a.Kind != corpus.KindFix {
			continue
		}
		fixCommits++
		// Two fix families are purely additive under the abstraction and
		// are legitimately caught by fadd: adding a Mac (R13) and adding a
		// provider argument where none existed (R5 from the default
		// provider). The paper's fadd column accounts for exactly these.
		if strings.Contains(a.Meta.Message, "integrity check") ||
			strings.Contains(a.Meta.Message, "BouncyCastle") {
			addOnly++
			continue
		}
		ok := false
		for _, class := range cryptoapi.TargetClasses {
			if !a.UsesClass(class) {
				continue
			}
			for _, c := range e.DiffCode.ExtractClass(a, class) {
				if !c.IsSame() && !c.IsAddOnly() && !c.IsRemoveOnly() {
					ok = true
				}
			}
		}
		if !ok {
			t.Errorf("fix commit %s (%s) produced no surviving semantic change",
				a.Meta.Commit, a.Meta.Message)
		}
		if ok {
			survived++
		}
	}
	if fixCommits == 0 {
		t.Fatal("no fix commits in corpus")
	}
	if survived+addOnly != fixCommits {
		t.Errorf("fixes: %d total, %d survived, %d additive-only", fixCommits, survived, addOnly)
	}
	if survived < fixCommits/2 {
		t.Errorf("only %d of %d fixes survive the filters", survived, fixCommits)
	}
}

// TestRefactorsAllFiltered: refactoring and unrelated commits must always
// produce fsame-filterable usage changes (the abstraction's core promise).
func TestRefactorsAllFiltered(t *testing.T) {
	e := sharedEval(t)
	for _, a := range e.Analyzed {
		if a.Kind != corpus.KindRefactor && a.Kind != corpus.KindUnrelated {
			continue
		}
		for _, class := range cryptoapi.TargetClasses {
			if !a.UsesClass(class) {
				continue
			}
			for _, c := range e.DiffCode.ExtractClass(a, class) {
				if !c.IsSame() {
					t.Fatalf("refactor %s (%s) produced a semantic %s change:\n%s",
						a.Meta.Commit, a.Meta.Message, class, c.String())
				}
			}
		}
	}
}

// TestFigure7Shape: most rule-flipping semantic changes are fixes (>80%,
// the paper's second headline), and nothing semantic is lost before fdup.
func TestFigure7Shape(t *testing.T) {
	e := sharedEval(t)
	rows := e.Figure7Data()
	var fixes, bugs int
	for _, r := range rows {
		if r.Type == rules.SecurityFix {
			fixes += r.Total
			// A fix that flips a CL rule is by definition semantic; the
			// non-dup filters must not eat it.
			if r.ByFsame != 0 || r.ByFadd != 0 || r.ByFrem != 0 {
				t.Errorf("%s: fixes removed by non-dup filters: %+v", r.Rule, r)
			}
		}
		if r.Type == rules.BuggyChange {
			bugs += r.Total
		}
	}
	if fixes == 0 {
		t.Fatal("no security fixes classified")
	}
	if frac := float64(fixes) / float64(fixes+bugs); frac < 0.8 {
		t.Errorf("fix fraction = %.2f, want > 0.8 (paper: over 80%%)", frac)
	}
}

// TestFigure8ECBCluster: clustering the surviving Cipher changes must
// isolate an ECB-removal cluster (the paper's Figure 8 → rule R7).
func TestFigure8ECBCluster(t *testing.T) {
	e := sharedEval(t)
	f8 := e.Figure8()
	if len(f8.Survivors) == 0 {
		t.Fatal("no surviving Cipher changes to cluster")
	}
	if len(f8.ECBCluster) < 2 {
		t.Fatalf("ECB cluster not found among %d survivors:\n%s",
			len(f8.Survivors), f8.Rendering)
	}
	for _, i := range f8.ECBCluster {
		c := f8.Survivors[i]
		if !removesECB(c) {
			// Complete linkage may pull in a close relative; at least the
			// majority must remove ECB (checked in Figure8 itself), and
			// every member must touch getInstance.
			touches := false
			for _, p := range append(c.Removed, c.Added...) {
				if len(p) > 1 && p[1] == "getInstance" {
					touches = true
				}
			}
			if !touches {
				t.Errorf("cluster member %d unrelated to getInstance:\n%s", i, c.String())
			}
		}
	}
	if !strings.Contains(f8.Rendering, "└─") {
		t.Error("dendrogram rendering missing")
	}
}

// TestFigure10Shape checks the checker evaluation against the paper's
// relative rates: R3/R5 match nearly all applicable projects, R4/R12 match
// almost none, and >57% of projects violate at least one rule.
func TestFigure10Shape(t *testing.T) {
	e := sharedEval(t)
	f10 := e.Figure10()
	rate := map[string]float64{}
	appl := map[string]int{}
	for _, r := range f10.Rows {
		appl[r.Rule] = r.Applicable
		if r.Applicable > 0 {
			rate[r.Rule] = float64(r.Matching) / float64(r.Applicable)
		}
	}
	if rate["R3"] < 0.85 {
		t.Errorf("R3 match rate = %.2f, want near-total (paper: 94.8%%)", rate["R3"])
	}
	if rate["R5"] < 0.85 {
		t.Errorf("R5 match rate = %.2f, want near-total (paper: 97.6%%)", rate["R5"])
	}
	if rate["R4"] > 0.10 {
		t.Errorf("R4 match rate = %.2f, want rare (paper: 1%%)", rate["R4"])
	}
	if rate["R12"] > 0.10 {
		t.Errorf("R12 match rate = %.2f, want rare (paper: 0.3%%)", rate["R12"])
	}
	if rate["R7"] < 0.10 || rate["R7"] > 0.55 {
		t.Errorf("R7 match rate = %.2f, want around 28%%", rate["R7"])
	}
	if rate["R1"] < 0.15 || rate["R1"] > 0.60 {
		t.Errorf("R1 match rate = %.2f, want around 35%%", rate["R1"])
	}
	// Applicability ordering: SecureRandom rules apply most broadly,
	// composite R13 most narrowly.
	if appl["R3"] <= appl["R2"] || appl["R13"] >= appl["R2"] {
		t.Errorf("applicability ordering broken: R3=%d R2=%d R13=%d",
			appl["R3"], appl["R2"], appl["R13"])
	}
	viol := float64(f10.ViolatedAtLeastOne) / float64(f10.Projects)
	if viol < 0.57 {
		t.Errorf("violated fraction = %.2f, want > 0.57 (paper headline)", viol)
	}
}

// TestHeadline ties the three claims together.
func TestHeadline(t *testing.T) {
	e := sharedEval(t)
	h := e.ComputeHeadline(e.Figure10())
	if h.FilteredPct <= 99 {
		t.Errorf("FilteredPct = %.2f, want > 99", h.FilteredPct)
	}
	if h.FixPct <= 80 {
		t.Errorf("FixPct = %.2f, want > 80", h.FixPct)
	}
	if h.ViolatedPct <= 57 {
		t.Errorf("ViolatedPct = %.2f, want > 57", h.ViolatedPct)
	}
	if h.TotalChanges == 0 || h.TotalSurviving == 0 {
		t.Errorf("degenerate headline: %+v", h)
	}
}

// TestCheckerOnProjects exercises the CryptoChecker facade directly.
func TestCheckerOnProjects(t *testing.T) {
	e := sharedEval(t)
	checker := NewChecker(nil, Options{})
	found := 0
	for _, p := range e.Corpus.Projects[:30] {
		vs := mustCheck(t, context.Background(), checker, p.Files, ContextOf(p), false).Violations
		found += len(vs)
		for _, v := range vs {
			if v.Rule == nil || len(v.Objs) == 0 {
				t.Errorf("%s: malformed violation", p.Name)
			}
		}
	}
	if found == 0 {
		t.Error("checker found nothing across 30 projects")
	}
}

// TestFigure9Static sanity-checks the rule table rendering.
func TestFigure9Static(t *testing.T) {
	out := Figure9().String()
	for _, id := range []string{"R1", "R7", "R13"} {
		if !strings.Contains(out, id) {
			t.Errorf("Figure 9 missing %s:\n%s", id, out)
		}
	}
	if !strings.Contains(out, "BouncyCastle") || !strings.Contains(out, "SHA-256") {
		t.Error("Figure 9 missing rule descriptions")
	}
}

// TestDeterministicEvaluation: the same corpus and options give the same
// Figure 6 table.
func TestDeterministicEvaluation(t *testing.T) {
	cfg := corpus.Config{Seed: 42, Scale: 0.05, Projects: 25, ExtraProjects: 0}
	t1 := NewEvaluation(corpus.Generate(cfg), Options{}).Figure6().String()
	t2 := NewEvaluation(corpus.Generate(cfg), Options{}).Figure6().String()
	if t1 != t2 {
		t.Errorf("evaluation not deterministic:\n%s\nvs\n%s", t1, t2)
	}
}

// TestManifestDetectionMatchesInfo: the corpus emits real Android manifests
// and PRNGFixes stubs; file-based context detection must reconstruct the
// generator's metadata exactly, so CheckCorpus (which uses the metadata)
// and cryptochecker's auto-detection (which uses the files) agree.
func TestManifestDetectionMatchesInfo(t *testing.T) {
	e := sharedEval(t)
	for _, p := range e.Corpus.Projects {
		detected := androidctx.Detect(p.Files)
		want := ContextOf(p)
		if detected != want {
			t.Errorf("%s: detected %+v, want %+v", p.Name, detected, want)
		}
	}
}

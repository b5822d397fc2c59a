package rules

import (
	"context"
	"testing"

	"repro/internal/analysis"
)

func analyzeSrc(t *testing.T, src string) *analysis.Result {
	t.Helper()
	return analysis.Analyze(analysis.ParseProgram(map[string]string{"T.java": src}), analysis.Options{})
}

// TestExplanationCoverage walks both rule registries and requires a
// non-empty remediation note for every ID — new rules must register one.
func TestExplanationCoverage(t *testing.T) {
	for _, r := range append(All(), CryptoLint()...) {
		if Explanation(r.ID) == "" {
			t.Errorf("rule %s has no explanation", r.ID)
		}
	}
	for cl, r := range relabels {
		if ByID(cl).Formula != ByID(r).Formula {
			t.Errorf("%s explains as %s but runs %q, not %q", cl, r, ByID(cl).Formula, ByID(r).Formula)
		}
	}
}

// TestEvidenceFindersCoverAllRules requires every positive clause of the
// registered rules to carry an exact evidence finder (no fallback).
func TestEvidenceFindersCoverAllRules(t *testing.T) {
	for _, r := range append(All(), CryptoLint()...) {
		for i, c := range r.Clauses {
			if c.Negated {
				continue
			}
			if c.Find == nil {
				t.Errorf("rule %s clause %d (%s) has no evidence finder", r.ID, i, c.Class)
			}
		}
	}
}

// TestEvidencePinpointsSinkArgument checks that evidence for an ECB
// violation names the getInstance call and its transformation argument.
func TestEvidencePinpointsSinkArgument(t *testing.T) {
	res := analyzeSrc(t, `
		import javax.crypto.Cipher;
		class T {
			void run() throws Exception {
				Cipher c = Cipher.getInstance("AES/ECB/PKCS5Padding");
				c.doFinal(new byte[16]);
			}
		}`)
	vs := CheckPoolCtx(context.Background(), res, Context{}, []*Rule{R7}, nil)
	if len(vs) != 1 {
		t.Fatalf("want 1 violation, got %d", len(vs))
	}
	ev := vs[0].Evidence(res, Context{})
	if len(ev) != len(vs[0].Objs) {
		t.Fatalf("evidence covers %d objects, want %d", len(ev), len(vs[0].Objs))
	}
	for obj, matches := range ev {
		if len(matches) == 0 {
			t.Fatalf("no evidence for object %s", obj.SiteLabel())
		}
		m := matches[0]
		got := res.Uses[obj][m.EventIndex]
		if got.Sig.Name != "getInstance" {
			t.Errorf("evidence event = %s, want getInstance", got.Sig.Name)
		}
		if len(m.Args) != 1 || m.Args[0] != 0 {
			t.Errorf("evidence args = %v, want [0]", m.Args)
		}
	}
}

// TestEvidenceFallbackForPredOnlyRules checks that a rule without finders
// (the DSL/custom-rule shape) still yields evidence for every witness.
func TestEvidenceFallbackForPredOnlyRules(t *testing.T) {
	res := analyzeSrc(t, `
		import javax.crypto.Cipher;
		class T {
			void run() throws Exception {
				Cipher c = Cipher.getInstance("DES");
			}
		}`)
	bare := &Rule{
		ID:          "X1",
		Description: "pred-only rule",
		Clauses:     []Clause{{Class: "Cipher", Pred: R8.Clauses[0].Pred}},
	}
	vs := CheckPoolCtx(context.Background(), res, Context{}, []*Rule{bare}, nil)
	if len(vs) != 1 {
		t.Fatalf("want 1 violation, got %d", len(vs))
	}
	for obj, matches := range vs[0].Evidence(res, Context{}) {
		if len(matches) == 0 {
			t.Fatalf("fallback produced no evidence for %s", obj.SiteLabel())
		}
	}
}

package rules

import (
	"testing"

	"repro/internal/ruledsl"
	"repro/rulepacks"
)

// TestPredAgreesWithEvidence checks, on the pin generator's objects, that
// every clause of every built-in and shipped pack rule accepts an object
// exactly when it finds evidence on it: Pred and Find run one compiled
// formula.
func TestPredAgreesWithEvidence(t *testing.T) {
	ruleSet := append(All(), CryptoLint()...)
	files := rulepacks.Files()
	for _, name := range rulepacks.Names() {
		p := ruledsl.ParsePack(name, files[name])
		for _, pr := range p.Rules {
			if pr.Err != nil {
				t.Fatalf("%s: %v", name, pr.Err)
			}
			ruleSet = append(ruleSet, Compile(pr.ID, pr.Description, pr.Syntax))
		}
	}
	for _, r := range ruleSet {
		checked := 0
		for _, evs := range pinObjects(r) {
			res := pinResult(evs)
			o := res.Objs[0]
			for _, ctx := range pinContexts() {
				for i, c := range r.Clauses {
					if c.Class != o.Type {
						continue
					}
					pred, ev := c.Pred(res, o, ctx), c.Find(res, o, ctx)
					if pred != (len(ev) > 0) {
						t.Errorf("%s clause %d on %s: Pred = %t, %d evidence matches",
							r.ID, i, pinEventString(evs[len(evs)-1]), pred, len(ev))
					}
					checked++
				}
			}
		}
		if checked == 0 {
			t.Errorf("%s: no generated object of its classes", r.ID)
		}
	}
}

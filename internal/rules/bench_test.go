package rules

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/corpus"
)

// BenchmarkRuleMatch runs the built-in rules (All and CryptoLint) over the
// analyzed old and new versions of a small generated corpus's changes.
// "pred" calls every clause predicate on every object of its class, which
// is all a compiled formula runs; "matches" is Rule.Matches, which also
// collects the witnessing objects.
func BenchmarkRuleMatch(b *testing.B) {
	c := corpus.Generate(corpus.Config{Seed: 1, Scale: 0.1, Projects: 40})
	seen := map[string]bool{}
	var results []*analysis.Result
	for _, p := range c.TrainingProjects() {
		for _, cm := range p.Commits {
			for _, src := range []string{cm.Old, cm.New} {
				if src == "" || seen[cm.File+"\x00"+src] {
					continue
				}
				seen[cm.File+"\x00"+src] = true
				results = append(results, analysis.Analyze(analysis.ParseProgram(map[string]string{cm.File: src}), analysis.Options{}))
			}
		}
	}
	ruleSet := append(All(), CryptoLint()...)
	ctx := Context{Android: true, MinSDKVersion: 16}
	b.Run("pred", func(b *testing.B) {
		calls := 0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			calls = 0
			for _, res := range results {
				for _, r := range ruleSet {
					for _, cl := range r.Clauses {
						for _, o := range res.Objs {
							if o.Type == cl.Class {
								cl.Pred(res, o, ctx)
								calls++
							}
						}
					}
				}
			}
		}
		b.ReportMetric(float64(calls), "preds/op")
	})
	b.Run("matches", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, res := range results {
				for _, r := range ruleSet {
					r.Matches(res, ctx)
				}
			}
		}
		b.ReportMetric(float64(len(results)), "versions")
	})
}

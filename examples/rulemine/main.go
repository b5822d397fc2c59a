// Rulemine: eliciting a brand-new rule from mined fixes.
//
// The paper's final step is manual: an analyst reads a cluster of similar
// fixes and writes a rule. This example walks that path mechanically for a
// fix family the 13 shipped rules do not cover — switching MessageDigest
// from MD5 to SHA-256 — and shows the two halves of elicitation:
//
//  1. cluster the mined MessageDigest fixes and inspect the dominant
//     cluster, and
//  2. turn one representative change into a checkable rule with
//     SuggestRule, then measure how many corpus projects the new rule
//     flags (the Figure 10 loop for a rule that did not exist before).
//
// Run with: go run ./examples/rulemine
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	diffcode "repro"
)

func main() {
	cfg := diffcode.CorpusConfig{Seed: 21, Scale: 0.6, Projects: 160, ExtraProjects: 0}
	corpus := diffcode.GenerateCorpus(cfg)
	eval := diffcode.NewEvaluation(corpus, diffcode.Options{})

	survivors := eval.SortedSurvivors(diffcode.MessageDigest)
	fmt.Printf("%d semantic MessageDigest changes mined\n\n", len(survivors))
	if len(survivors) == 0 {
		fmt.Println("no survivors at this scale; re-run with a larger corpus")
		return
	}

	fmt.Println("=== Dendrogram (what the analyst inspects) ===")
	root := diffcode.Cluster(survivors)
	fmt.Print(diffcode.RenderDendrogram(root, func(i int) string {
		c := survivors[i]
		return fmt.Sprintf("[%s] %s", c.Meta.Commit, strings.TrimSpace(c.Meta.Message))
	}))

	// Pick a representative MD5→SHA-256 change.
	var rep *diffcode.UsageChange
	for i := range survivors {
		if strings.Contains(survivors[i].String(), `"MD5"`) &&
			strings.Contains(survivors[i].String(), `"SHA-256"`) {
			rep = &survivors[i]
			break
		}
	}
	if rep == nil {
		rep = &survivors[0]
	}
	fmt.Println("\n=== Representative fix ===")
	fmt.Printf("[%s/%s] %q\n%s\n", rep.Meta.Project, rep.Meta.Commit, rep.Meta.Message, rep.String())

	rule := diffcode.SuggestRule(*rep)
	fmt.Println("=== Suggested rule ===")
	fmt.Println(rule.Formula)

	// Validate the new rule across all project snapshots.
	checker := diffcode.NewChecker([]*diffcode.Rule{rule}, diffcode.Options{})
	applicable, matching := 0, 0
	for _, p := range corpus.Projects {
		rctx := diffcode.RuleContext{Android: p.Info.Android, MinSDKVersion: p.Info.MinSDKVersion, HasLPRNG: p.Info.HasLPRNG}
		out, err := checker.CheckRequest(context.Background(), p.Files, rctx, false)
		if err != nil {
			log.Fatal(err)
		}
		vs := out.Violations
		uses := false
		for _, src := range p.Files {
			if strings.Contains(src, diffcode.MessageDigest) {
				uses = true
			}
		}
		if uses {
			applicable++
		}
		if len(vs) > 0 {
			matching++
		}
	}
	fmt.Printf("\n=== New-rule evaluation (Figure 10 loop) ===\n")
	fmt.Printf("projects using %s: %d\n", diffcode.MessageDigest, applicable)
	fmt.Printf("projects the new rule flags: %d\n", matching)
}

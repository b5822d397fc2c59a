package main

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/change"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cryptoapi"
	"repro/internal/distcache"
	"repro/internal/mining"
	"repro/internal/report"
	"repro/internal/rules"
	"repro/internal/summary"
	"repro/internal/usage"
	"repro/internal/witness"
)

// The traced passes rebuild core's pipelines from the public functions of
// each layer package, with the options core uses, so that every call can be
// timed on its own. Their outputs must equal the product's; the workloads
// check that.

// analyzeTraced is core.DiffCode's live analysis of one change: parse and
// interpret both versions. aopts carries the run's shared summary table.
func analyzeTraced(l *layers, cc mining.CodeChange, aopts analysis.Options) (*core.AnalyzedChange, error) {
	ctx := context.Background()
	var po, pn *analysis.Program
	l.do("parse", func() {
		po = analysis.ParseProgramPoolCtx(ctx, map[string]string{"Main.java": cc.Old}, l.reg, nil)
		pn = analysis.ParseProgramPoolCtx(ctx, map[string]string{"Main.java": cc.New}, l.reg, nil)
	})
	a := &core.AnalyzedChange{
		Meta: cc.Meta, Kind: cc.Kind, OldSrc: cc.Old, NewSrc: cc.New,
		UsesOld: map[string]bool{}, UsesNew: map[string]bool{},
	}
	var err error
	l.do("interpret", func() {
		if a.Old, err = analysis.AnalyzeBudgetedCtx(ctx, po, aopts); err == nil {
			a.New, err = analysis.AnalyzeBudgetedCtx(ctx, pn, aopts)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("interpreting %s@%s: %w", cc.Meta.Project, cc.Meta.Commit, err)
	}
	return a, nil
}

// mineTraced is core.DiffCode.MineCorpus at one worker: collect the code
// changes, analyze each, and record which target classes each version
// mentions.
func mineTraced(l *layers, c *corpus.Corpus) ([]*core.AnalyzedChange, error) {
	var ccs []mining.CodeChange
	l.do("mining.collect", func() { ccs = mining.Collect(c, mining.Options{}) })
	// One summary table for the whole run, as core.New builds it.
	aopts := analysis.Options{Summaries: summary.NewTable(nil, l.reg), Metrics: l.reg}
	out := make([]*core.AnalyzedChange, 0, len(ccs))
	for _, cc := range ccs {
		a, err := analyzeTraced(l, cc, aopts)
		if err != nil {
			return nil, err
		}
		l.do("mining.uses_class", func() {
			for _, class := range cryptoapi.TargetClasses {
				a.UsesOld[class] = mining.UsesClass(cc.Old, class)
				a.UsesNew[class] = mining.UsesClass(cc.New, class)
			}
		})
		out = append(out, a)
	}
	return out, nil
}

// classRun is the outcome of one target class's extract-and-filter pass.
type classRun struct {
	class     string
	stats     change.FilterStats
	survivors []change.UsageChange
	graphs    int
}

// extractTraced is change.Extract: build both versions' usage DAGs of one
// class, pair them and diff each pair. It also returns the DAG count.
func extractTraced(l *layers, a *core.AnalyzedChange, class string) ([]change.UsageChange, int) {
	var og, ng []*usage.Graph
	l.do("usage.build", func() {
		og = usage.BuildAll(a.Old, class, usage.DefaultDepth)
		ng = usage.BuildAll(a.New, class, usage.DefaultDepth)
	})
	var pairs []usage.PairResult
	l.do("usage.pair", func() { pairs = usage.Pair(og, ng, class) })
	var out []change.UsageChange
	l.do("change.diff", func() {
		for _, pr := range pairs {
			rem, add := change.Diff(pr.Old, pr.New)
			out = append(out, change.UsageChange{Class: class, Removed: rem, Added: add, Meta: a.Meta})
		}
	})
	return out, len(og) + len(ng)
}

// classTraced is core.DiffCode.RunClass: extract every change that uses
// the class, then filter.
func classTraced(l *layers, analyzed []*core.AnalyzedChange, class string) classRun {
	r := classRun{class: class}
	var all []change.UsageChange
	for _, a := range analyzed {
		if !a.UsesClass(class) {
			continue
		}
		ucs, graphs := extractTraced(l, a, class)
		all = append(all, ucs...)
		r.graphs += graphs
	}
	l.do("change.filter", func() { r.survivors, r.stats = change.Filter(all) })
	return r
}

// checkTraced is core.CryptoChecker.CheckRequest at one worker without an
// artifact store: parse, interpret, evaluate every rule and, with why, sort
// the violations and collect their witness traces.
func checkTraced(l *layers, sources map[string]string, why bool, table *summary.Table) *core.CheckOutcome {
	ctx := context.Background()
	var prog *analysis.Program
	l.do("parse", func() { prog = analysis.ParseProgramStoreCtx(ctx, sources, l.reg, nil, nil) })
	var res *analysis.Result
	l.do("interpret", func() {
		res, _ = analysis.AnalyzeBudgetedCtx(ctx, prog, analysis.Options{Provenance: why, Summaries: table, Metrics: l.reg})
	})
	out := &core.CheckOutcome{}
	l.do("rules", func() { out.Violations = rules.CheckPoolCtx(ctx, res, rules.Context{}, rules.All(), nil) })
	if why {
		l.do("witness", func() {
			out.Violations = report.SortViolations(out.Violations, res)
			out.Traces = witness.Collect(out.Violations, res, rules.Context{})
		})
		witness.Observe(l.reg, out.Traces)
	}
	return out
}

// clusterTraced is core.DiffCode.ClusterChanges: the distance matrix, then
// complete-linkage agglomeration.
func clusterTraced(l *layers, changes []change.UsageChange, eng *distcache.Engine) *cluster.Node {
	if len(changes) == 0 {
		return nil
	}
	var d [][]float64
	l.do("cluster.dist", func() { d = cluster.DistMatrixEngine(changes, nil, nil, eng) })
	var root *cluster.Node
	l.do("cluster.agglomerate", func() { root = cluster.AgglomerateMatrix(d, cluster.Complete) })
	return root
}

// pipelineCounts are the per-layer work counts of a rebuilt mining run.
func pipelineCounts(changes int, classes []classRun) map[string]float64 {
	counts := map[string]float64{"mining.changes": float64(changes)}
	for _, r := range classes {
		counts["usage.graphs"] += float64(r.graphs)
		counts["change.usage_changes"] += float64(r.stats.Total)
		counts["change.survivors"] += float64(len(r.survivors))
		n := float64(len(r.survivors))
		counts["cluster.pairs"] += n * (n - 1) / 2
	}
	return counts
}

// survivorText renders the survivors of each class and the leaf order of
// their dendrogram: the output the incremental workload checks.
func survivorText(classes []classRun, roots []*cluster.Node) string {
	var sb strings.Builder
	for i, r := range classes {
		fmt.Fprintf(&sb, "%s %d survivors\n", r.class, len(r.survivors))
		for _, s := range r.survivors {
			fmt.Fprintf(&sb, "  %q %s@%s\n", s.Key(), s.Meta.Project, s.Meta.Commit)
		}
		if roots[i] != nil {
			fmt.Fprintf(&sb, "  dendrogram %v\n", roots[i].Items())
		}
	}
	return sb.String()
}

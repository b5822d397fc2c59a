package main

import (
	_ "embed"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cryptoapi"
	"repro/internal/distcache"
	"repro/internal/mining"
)

// corpusSize fixes the generated corpus of a workload; the seed varies.
type corpusSize struct {
	scale           float64
	projects, extra int
}

func (s corpusSize) generate(seed int64) *corpus.Corpus {
	return corpus.Generate(corpus.Config{Seed: seed, Scale: s.scale, Projects: s.projects, ExtraProjects: s.extra})
}

// paperCorpus is the paper's data set: 461 training projects (13,168 mined
// changes at seed 1) plus 58 held-out projects for the checker evaluation.
var paperCorpus = corpusSize{scale: 1.0, projects: 461, extra: 58}

// paperGolden is the paper-eval output at seed 1 on paperCorpus. Its Fig 6
// and Fig 10 rows match the measured columns of EXPERIMENTS.md.
//
//go:embed testdata/paper-eval.seed1.golden
var paperGolden string

// paperOutputs renders what paper-eval checks: the Figure 6, 7 and 10 rows
// and the elicited rules, one line each.
type paperOutputs struct {
	fig6     []string
	fig7     []core.Figure7Row
	fig10    *core.Figure10Result
	elicited []core.ElicitedRule
}

func (o paperOutputs) String() string {
	var sb strings.Builder
	sb.WriteString("# Figure 6: class total fsame fadd frem fdup\n")
	for _, row := range o.fig6 {
		sb.WriteString(row + "\n")
	}
	sb.WriteString("# Figure 7: rule type total fsame fadd frem fdup remaining\n")
	for _, r := range o.fig7 {
		fmt.Fprintf(&sb, "%s %s %d %d %d %d %d %d\n", r.Rule, r.Type, r.Total, r.ByFsame, r.ByFadd, r.ByFrem, r.ByFdup, r.Remaining)
	}
	fmt.Fprintf(&sb, "# Figure 10: rule applicable matching (%d projects, %d violate at least one rule)\n",
		o.fig10.Projects, o.fig10.ViolatedAtLeastOne)
	for _, r := range o.fig10.Rows {
		fmt.Fprintf(&sb, "%s %d %d\n", r.Rule, r.Applicable, r.Matching)
	}
	sb.WriteString("# Elicited rules: class support reversals members rule\n")
	for _, er := range o.elicited {
		fmt.Fprintf(&sb, "%s %d %d %d %s\n", er.Class, er.Support, er.Reversals, len(er.Members), er.Rule.Formula)
	}
	return sb.String()
}

// corpusProps records the input properties of a corpus workload: how many
// code changes mining yields and their mean source size.
func corpusProps(r *run, c *corpus.Corpus) {
	ccs := mining.Collect(c, mining.Options{})
	var bytes float64
	for _, cc := range ccs {
		bytes += float64(len(cc.Old) + len(cc.New))
	}
	r.props["changes_mined"] = float64(len(ccs))
	r.props["mean_source_bytes"] = bytes / float64(2*max(1, len(ccs)))
}

// paperEval runs one full evaluation through the product's entry points:
// mine and analyze the corpus, then every figure and the elicitation. It
// also returns how long mining and analysis took, in seconds.
func paperEval(c *corpus.Corpus, workers int) (paperOutputs, float64, error) {
	t0 := time.Now()
	e := core.NewEvaluation(c, core.Options{Workers: workers})
	mined := time.Since(t0).Seconds()
	o := paperOutputs{fig7: e.Figure7Data()}
	for _, row := range e.Figure6().Rows {
		o.fig6 = append(o.fig6, strings.Join(row, " "))
	}
	e.Figure8()
	o.fig10 = e.Figure10()
	o.elicited = e.ElicitRules()
	if n := e.DiffCode.Ledger().Len(); n > 0 {
		return o, mined, fmt.Errorf("evaluation skipped %d changes: %s", n, e.DiffCode.Ledger().Report())
	}
	return o, mined, nil
}

// paperTraced rebuilds paperEval at one worker from the layer packages.
// Figures 7 and 10 and the elicitation are timed as whole calls on an
// Evaluation holding the rebuilt changes. ElicitRules recomputes the
// per-class pipeline that the product reuses from Figure 6, so eval.elicit
// carries one extra extract-and-filter pass.
func paperTraced(l *layers, c *corpus.Corpus) (paperOutputs, map[string]float64, error) {
	analyzed, err := mineTraced(l, c)
	if err != nil {
		return paperOutputs{}, nil, err
	}
	var o paperOutputs
	var classes []classRun
	var figure8 float64
	for _, class := range cryptoapi.TargetClasses {
		r := classTraced(l, analyzed, class)
		classes = append(classes, r)
		s := r.stats
		o.fig6 = append(o.fig6, fmt.Sprintf("%s %d %d %d %d %d", class, s.Total, s.AfterSame, s.AfterAdd, s.AfterRem, s.AfterDup))
		if class == cryptoapi.Cipher {
			clusterTraced(l, r.survivors, distcache.New(nil))
			figure8 = float64(len(r.survivors))
		}
	}
	// An Evaluation over an empty corpus mines nothing; it is then pointed
	// at the rebuilt changes.
	e := core.NewEvaluation(&corpus.Corpus{}, core.Options{Workers: 1})
	e.Corpus, e.Analyzed = c, analyzed
	l.do("eval.figure7", func() { o.fig7 = e.Figure7Data() })
	l.do("eval.figure10", func() { o.fig10 = core.CheckCorpus(c, e.DiffCode.Options()) })
	l.do("eval.elicit", func() { o.elicited = e.ElicitRules() })

	counts := pipelineCounts(len(analyzed), classes)
	counts["rules.evaluated"] = float64(len(o.fig10.Rows) * o.fig10.Projects)
	for _, r := range o.fig10.Rows {
		counts["rules.violations"] += float64(r.Matching)
	}
	// The rebuild clusters only Figure 8's Cipher survivors.
	counts["cluster.pairs"] = figure8 * (figure8 - 1) / 2
	return o, counts, nil
}

func runPaperEval(r *run) error {
	c, setup, err := timeSetup(func() (*corpus.Corpus, error) { return r.sizes.paper.generate(r.seed), nil }, nil)
	if err != nil {
		return err
	}
	r.setup = setup
	corpusProps(r, c)

	// The expected output is the golden file at seed 1 on the paper's
	// corpus; elsewhere it is the run's first evaluation, so other seeds
	// check self-consistency.
	var want string
	if r.seed == 1 && r.sizes.paper == paperCorpus {
		want = paperGolden
	}
	check := func(got string) error {
		if want == "" {
			want = got
		}
		return firstDiff(want, got)
	}
	if !r.trace {
		// wall_s is the median evaluation, p50_ms the median time to mine
		// and analyze the corpus (the first result a user waits for).
		var mined []float64
		walls, peak, alloc := measure(r.budget, func() {
			o, m, err := paperEval(c, r.workers)
			mined = append(mined, m)
			if err == nil {
				err = check(o.String())
			}
			r.fail.op(err)
		})
		r.e2e(walls, mined, peak, alloc)
		return nil
	}

	r.traced(func() tracedPass {
		return r.tracedIteration(func() error {
			o, _, err := paperEval(c, 1)
			if err != nil {
				return err
			}
			return check(o.String())
		}, func(l *layers) (map[string]float64, error) {
			o, counts, err := paperTraced(l, c)
			if err != nil {
				return nil, err
			}
			return counts, check(o.String())
		})
	})
	return nil
}

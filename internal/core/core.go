// Package core wires the substrates into the two systems of the paper:
// DiffCode (mine → analyze → abstract → diff → filter → cluster, §5) and
// CryptoChecker (the rule checker of §6.4). The evaluation harness that
// regenerates the paper's figures lives in eval.go.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/artifact"
	"repro/internal/change"
	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/cryptoapi"
	"repro/internal/distcache"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/resilience"
	"repro/internal/rules"
	"repro/internal/summary"
	"repro/internal/trace"
	"repro/internal/usage"
	"repro/internal/witness"
)

// Options configures the DiffCode pipeline.
type Options struct {
	// Depth bounds the usage-DAG expansion (paper default: 5).
	Depth int
	// Analysis forwards analyzer limits.
	Analysis analysis.Options
	// MinCommits filters toy projects during mining (paper: 30).
	MinCommits int
	// Workers sizes the worker pool behind batch analysis, clustering, and
	// checking (default: GOMAXPROCS). Workers == 1 is the exact serial
	// path: no goroutines, no pool telemetry, byte-identical output to the
	// single-threaded pipeline. Any worker count produces identical results
	// (the parallel layer is deterministic); only wall-clock time changes.
	Workers int
	// BudgetSteps caps the abstract-interpretation steps spent on one mined
	// change (both versions share the budget) or, on a checker, on one
	// check request; 0 means unlimited. Changes that exhaust it are skipped
	// and recorded in the ledger; a check that exhausts it reports over the
	// partial analysis (see CheckRequest).
	BudgetSteps int64
	// BudgetWall caps the wall-clock time spent on one mined change or one
	// check request; 0 means unlimited.
	BudgetWall time.Duration
	// FailFast stops a batch analysis after the first recorded failure.
	FailFast bool
	// MaxErrors aborts a batch once this many failures have been recorded
	// (0 means unlimited).
	MaxErrors int
	// Ledger receives the skip-and-record entries of this pipeline; nil
	// means New creates a private one (reachable via DiffCode.Ledger).
	Ledger *resilience.Ledger
	// Metrics receives stage telemetry (spans, counters, histograms) for
	// the whole pipeline; nil disables all instrumentation at the cost of
	// one nil check per probe.
	Metrics *obs.Registry
	// Artifacts, when non-nil, is the content-addressed artifact store
	// behind the incremental pipeline (the -cache-dir CLI toggle): parse
	// results, per-change analysis extractions, and check outcomes are
	// cached by content hash and reused across runs. Nil (the default)
	// disables artifact caching entirely — the exact pre-artifact pipeline.
	// Output is byte-identical with the store on or off; only how often
	// the parser, interpreter, and checker run changes.
	Artifacts *artifact.Store
	// Summaries, when non-nil, is the shared summary table of this run;
	// nil (the default) makes New/NewChecker build one over
	// Artifacts/Metrics. A server passes one process-lifetime table so
	// requests share summaries in memory. Summaries replay exactly, so the
	// table changes how often helpers are interpreted, never the results.
	Summaries *summary.Table
}

// pool builds the worker pool the pipeline's batch stages dispatch onto.
// A fresh pool is a cheap two-word struct; the workers themselves only
// exist while a batch is in flight.
func (o Options) pool() *parallel.Pool { return parallel.New(o.Workers, o.Metrics) }

func (o Options) withDefaults() Options {
	if o.Depth <= 0 {
		o.Depth = usage.DefaultDepth
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Analysis.Metrics == nil {
		o.Analysis.Metrics = o.Metrics
	}
	if o.Summaries == nil {
		o.Summaries = summary.NewTable(o.Artifacts, o.Metrics)
	}
	o.Analysis.Summaries = o.Summaries
	return o
}

// DiffCode is the end-to-end system of §5.
type DiffCode struct {
	opts   Options
	ledger *resilience.Ledger
	// engine is the memoized distance engine behind clustering and
	// elicitation.
	engine *distcache.Engine
	// optFP fingerprints the result-shaping options once; it prefixes
	// every analysis-artifact key this instance derives.
	optFP string
}

// New returns a DiffCode instance.
func New(opts Options) *DiffCode {
	opts = opts.withDefaults()
	l := opts.Ledger
	if l == nil {
		l = resilience.NewLedger()
	}
	return &DiffCode{opts: opts, ledger: l, engine: distcache.New(opts.Metrics), optFP: optFingerprint(opts)}
}

// Options returns the effective configuration.
func (d *DiffCode) Options() Options { return d.opts }

// Ledger returns the failure ledger recording every change or project the
// pipeline skipped instead of dying on.
func (d *DiffCode) Ledger() *resilience.Ledger { return d.ledger }

// Metrics returns the pipeline's registry (nil when uninstrumented).
func (d *DiffCode) Metrics() *obs.Registry { return d.opts.Metrics }

// AnalyzedChange is a mined code change with both versions analyzed. The
// raw sources are retained so the concrete patch behind a usage change can
// be inspected (the paper's manual elicitation step).
type AnalyzedChange struct {
	Meta   change.Meta
	Kind   corpus.CommitKind
	OldSrc string
	NewSrc string
	Old    *analysis.Result
	New    *analysis.Result
	// UsesOld/UsesNew record which target classes each version mentions
	// (pre-filter granularity, before abstraction).
	UsesOld map[string]bool
	UsesNew map[string]bool
	// art holds the cached per-class extraction when the change resolved
	// through the artifact store; on a warm hit Old/New stay nil and
	// ExtractClass instantiates from here instead.
	art *changeArtifact
}

// UsesClass reports whether either version uses the class.
func (a *AnalyzedChange) UsesClass(class string) bool {
	return a.UsesOld[class] || a.UsesNew[class]
}

// taskName renders the ledger/guard identity of a mined change.
func taskName(cc mining.CodeChange) string {
	m := cc.Meta
	switch {
	case m.Project != "" && m.Commit != "":
		return fmt.Sprintf("change %s@%s:%s", m.Project, m.Commit, m.File)
	case m.File != "":
		return "change " + m.File
	default:
		return "change"
	}
}

// AnalyzeChange parses and analyzes one code change. A panic anywhere in
// parsing or analysis, or an exhausted per-change budget, is returned as an
// error instead of propagating.
func (d *DiffCode) AnalyzeChange(cc mining.CodeChange) (*AnalyzedChange, error) {
	return d.AnalyzeChangeCtx(context.Background(), cc)
}

// AnalyzeChangeCtx is AnalyzeChange bound to a request context: the
// per-change budget is tightened by ctx's deadline and the analysis aborts
// early (resilience.ErrCanceled) once ctx is canceled. This is the
// request-scoped entry point behind the analysis server's /v1/analyze.
// The change runs under its own "change" stage span (a child of ctx's
// span, or a metrics-only root when the pipeline has a registry).
func (d *DiffCode) AnalyzeChangeCtx(ctx context.Context, cc mining.CodeChange) (*AnalyzedChange, error) {
	ctx, sp := trace.Stage(ctx, d.opts.Metrics, "change")
	defer sp.End()
	a, _, err := d.analyzeChange(ctx, cc)
	return a, err
}

// analyzeChange is AnalyzeChange plus the pipeline phase a failure belongs
// to (parse vs analyze) for ledger bookkeeping. ctx's span, when there is
// one, is the change's own span (AnalyzeChangeCtx's "change", a batch's
// "change[i]"): it is labeled with the change as its task, the parse and
// the two interpreter runs appear as its children, and a failure annotates
// it with its ledger category. With an artifact
// store configured the change resolves through analyzedOutcome — a warm
// hit skips parse and interpretation entirely (and so creates none of
// their spans) while producing an identical AnalyzedChange downstream.
func (d *DiffCode) analyzeChange(ctx context.Context, cc mining.CodeChange) (*AnalyzedChange, resilience.Phase, error) {
	if sp := trace.FromContext(ctx); sp != nil {
		sp.SetTask(taskName(cc))
	}
	var a *AnalyzedChange
	if d.opts.Artifacts == nil {
		var phase resilience.Phase
		var err error
		a, phase, err = d.analyzeChangeLive(ctx, cc)
		if err != nil {
			trace.FromContext(ctx).Annotate(string(resilience.Categorize(err)))
			return nil, phase, err
		}
	} else {
		oc, phase, err := d.analyzedOutcome(ctx, cc)
		if err != nil {
			trace.FromContext(ctx).Annotate(string(resilience.Categorize(err)))
			return nil, phase, err
		}
		a = &AnalyzedChange{
			Meta:   cc.Meta,
			Kind:   cc.Kind,
			OldSrc: cc.Old,
			NewSrc: cc.New,
			Old:    oc.old,
			New:    oc.new,
			art:    oc.art,
		}
	}
	d.opts.Metrics.Counter("analysis.changes_analyzed").Inc()
	a.UsesOld, a.UsesNew = map[string]bool{}, map[string]bool{}
	for _, c := range cryptoapi.TargetClasses {
		a.UsesOld[c] = mining.UsesClass(cc.Old, c)
		a.UsesNew[c] = mining.UsesClass(cc.New, c)
	}
	return a, "", nil
}

// analyzeChangeLive parses and interprets both versions of one change —
// the storeless pipeline body, also run (under single-flight) on an
// artifact miss. Callers fill the Uses maps and count changes_analyzed.
func (d *DiffCode) analyzeChangeLive(ctx context.Context, cc mining.CodeChange) (*AnalyzedChange, resilience.Phase, error) {
	task := taskName(cc)
	reg := d.opts.Metrics
	var progOld, progNew *analysis.Program
	err := resilience.Guard(task+" [parse]", func() error {
		progOld = analysis.ParseProgramPoolCtx(ctx, map[string]string{"Main.java": cc.Old}, reg, nil)
		progNew = analysis.ParseProgramPoolCtx(ctx, map[string]string{"Main.java": cc.New}, reg, nil)
		return nil
	})
	if err != nil {
		return nil, resilience.PhaseParse, err
	}
	a := &AnalyzedChange{
		Meta:   cc.Meta,
		Kind:   cc.Kind,
		OldSrc: cc.Old,
		NewSrc: cc.New,
	}
	err = resilience.Guard(task, func() error {
		// Both versions share one budget: the unit of skipping is the change.
		aopts := d.opts.Analysis
		aopts.Budget = resilience.NewBudgetContext(ctx, d.opts.BudgetSteps, d.opts.BudgetWall)
		old, err := analysis.AnalyzeBudgetedCtx(ctx, progOld, aopts)
		if err != nil {
			return err
		}
		nw, err := analysis.AnalyzeBudgetedCtx(ctx, progNew, aopts)
		if err != nil {
			return err
		}
		a.Old, a.New = old, nw
		return nil
	})
	if err != nil {
		return nil, resilience.PhaseAnalyze, err
	}
	return a, "", nil
}

// record files a failure for a mined change in the ledger.
func (d *DiffCode) record(cc mining.CodeChange, phase resilience.Phase, err error) {
	e := resilience.NewEntry(taskName(cc), phase, err)
	e.Meta = map[string]string{
		"project": cc.Meta.Project,
		"commit":  cc.Meta.Commit,
		"file":    cc.Meta.File,
	}
	d.ledger.Record(e)
}

// AnalyzeAll analyzes a batch of code changes on the pipeline's worker
// pool, preserving input order (slot i holds change i — the pool's ordered
// fan-in). Failing changes are skipped and recorded in the ledger, leaving
// a nil slot at their index; Options.FailFast and Options.MaxErrors abort
// the remainder of the batch via cooperative cancellation (no new change is
// dispatched once the failure threshold is reached; in-flight changes
// finish and keep their slots). Workers == 1 runs the exact serial path.
func (d *DiffCode) AnalyzeAll(ccs []mining.CodeChange) []*AnalyzedChange {
	return d.AnalyzeAllCtx(context.Background(), ccs)
}

// AnalyzeAllCtx is AnalyzeAll with span propagation: the batch runs under
// an "analyze" stage span (a metrics-only root when tctx carries no span
// and the pipeline has a registry) with one "change[i]" span per change
// (ordered by input index at any worker count), each labeled with its
// change and annotated with its ledger failure category when the change is
// skipped. Only the span propagates from tctx — the batch keeps its own
// cancellation lifecycle, exactly as before.
func (d *DiffCode) AnalyzeAllCtx(tctx context.Context, ccs []mining.CodeChange) []*AnalyzedChange {
	d.opts.Metrics.Gauge("pipeline.workers").Set(int64(d.opts.Workers))
	out := make([]*AnalyzedChange, len(ccs))
	_, bsp := trace.Stage(tctx, d.opts.Metrics, "analyze")
	defer bsp.End()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var failures atomic.Int64
	// Budgets inside the batch deliberately stay unbound from the cancel
	// context: fail-fast/max-errors stop dispatching new changes, but
	// in-flight changes finish and keep their slots (the documented abort
	// semantics, and what keeps aborted-run output deterministic). A change
	// therefore runs under a fresh context carrying only its span.
	d.opts.pool().ForEach(ctx, len(ccs), func(i int) {
		sp := bsp.Task("change", i)
		defer sp.End()
		a, phase, err := d.analyzeChange(trace.NewContext(context.Background(), sp), ccs[i])
		if err != nil {
			d.record(ccs[i], phase, err)
			n := failures.Add(1)
			if d.opts.FailFast || (d.opts.MaxErrors > 0 && n >= int64(d.opts.MaxErrors)) {
				cancel()
			}
			return
		}
		out[i] = a
	})
	return out
}

// ExtractClass derives the usage changes of one target class from an
// analyzed change. A change that resolved through the artifact store
// instantiates its cached extraction (stamping this change's meta);
// otherwise the extraction runs live on the analysis results.
func (d *DiffCode) ExtractClass(a *AnalyzedChange, class string) []change.UsageChange {
	if a.art != nil {
		return a.art.instantiate(class, a.Meta)
	}
	return change.Extract(a.Old, a.New, class, d.opts.Depth, a.Meta)
}

// MineCorpus runs the full mining front-end over a corpus: collect code
// changes, analyze both versions of each, in parallel. Changes the
// resilience layer skipped are dropped from the result (they are recorded
// in the ledger), so downstream stages see only analyzed changes.
func (d *DiffCode) MineCorpus(c *corpus.Corpus) []*AnalyzedChange {
	return d.MineCorpusCtx(context.Background(), c)
}

// MineCorpusCtx is MineCorpus with span propagation: the collection runs
// under a "mine" stage span carrying the mined-change count, and the batch
// analysis under AnalyzeAllCtx's "analyze" span.
func (d *DiffCode) MineCorpusCtx(ctx context.Context, c *corpus.Corpus) []*AnalyzedChange {
	analyzed := d.AnalyzeAllCtx(ctx, d.collect(ctx, c))
	out := make([]*AnalyzedChange, 0, len(analyzed))
	for _, a := range analyzed {
		if a != nil {
			out = append(out, a)
		}
	}
	return out
}

// collect gathers the corpus's code changes under a "mine" stage span.
func (d *DiffCode) collect(ctx context.Context, c *corpus.Corpus) []mining.CodeChange {
	_, sp := trace.Stage(ctx, d.opts.Metrics, "mine")
	ccs := mining.Collect(c, mining.Options{MinCommits: d.opts.MinCommits, Metrics: d.opts.Metrics})
	sp.SetAttr("changes", fmt.Sprint(len(ccs)))
	sp.End()
	return ccs
}

// ClassPipelineResult is the per-class outcome of the filtering pipeline.
type ClassPipelineResult struct {
	Class     string
	Stats     change.FilterStats
	Survivors []change.UsageChange
}

// RunClass extracts, filters, and returns the semantic usage changes of one
// target class across analyzed changes. Nil slots (changes the resilience
// layer skipped) are ignored; a panic while extracting one change skips
// that change and records it, rather than aborting the class.
func (d *DiffCode) RunClass(analyzed []*AnalyzedChange, class string) ClassPipelineResult {
	return d.RunClassCtx(context.Background(), analyzed, class)
}

// RunClassCtx is RunClass with span propagation: the extract and filter
// stages appear as stage spans labeled with the class name and carrying
// survivor counts.
func (d *DiffCode) RunClassCtx(ctx context.Context, analyzed []*AnalyzedChange, class string) ClassPipelineResult {
	reg := d.opts.Metrics
	var all []change.UsageChange
	_, xsp := trace.Stage(ctx, reg, "extract")
	xsp.SetTask(class)
	xsp.SetAttr("class", class)
	for _, a := range analyzed {
		if a == nil || !a.UsesClass(class) {
			continue
		}
		a := a
		task := fmt.Sprintf("extract %s %s@%s:%s", class, a.Meta.Project, a.Meta.Commit, a.Meta.File)
		err := resilience.Guard(task, func() error {
			all = append(all, d.ExtractClass(a, class)...)
			return nil
		})
		if err != nil {
			d.ledger.Record(resilience.NewEntry(task, resilience.PhaseExtract, err))
		}
	}
	xsp.SetAttr("usage_changes", fmt.Sprint(len(all)))
	xsp.End()
	reg.Counter("extract.usage_changes").Add(int64(len(all)))
	_, psp := trace.Stage(ctx, reg, "filter")
	psp.SetTask(class)
	psp.SetAttr("class", class)
	kept, stats := change.Filter(all)
	psp.SetAttr("survivors", fmt.Sprint(len(kept)))
	psp.End()
	reg.Counter("filter.usage_changes").Add(int64(stats.Total))
	reg.Counter("filter.survivors").Add(int64(len(kept)))
	return ClassPipelineResult{Class: class, Stats: stats, Survivors: kept}
}

// ClusterChanges builds the dendrogram over semantic usage changes
// (complete linkage, per the paper). The distance matrix and the per-merge
// scans run row-chunked on the pipeline's worker pool, and the distance
// kernels run through the memoized engine; the dendrogram is identical at
// any worker count.
func (d *DiffCode) ClusterChanges(changes []change.UsageChange) *cluster.Node {
	return d.ClusterChangesCtx(context.Background(), changes)
}

// ClusterChangesCtx is ClusterChanges with span propagation: the whole
// agglomeration runs under a "cluster" stage span carrying the input size
// (the distance-matrix fan-out below it is deliberately not per-task traced
// — an O(n²) stage would dominate the span tree without adding attribution).
func (d *DiffCode) ClusterChangesCtx(ctx context.Context, changes []change.UsageChange) *cluster.Node {
	_, sp := trace.Stage(ctx, d.opts.Metrics, "cluster")
	sp.SetAttr("changes", fmt.Sprint(len(changes)))
	root := cluster.AgglomerateEngine(changes, cluster.Complete, d.opts.Metrics, d.opts.pool(), d.engine)
	sp.End()
	return root
}

// ---------------------------------------------------------------------------
// CryptoChecker
// ---------------------------------------------------------------------------

// CryptoChecker checks programs against a rule set (§6.4).
type CryptoChecker struct {
	Rules []*rules.Rule
	opts  Options
	// optFP/rulesFP fingerprint the checker's options and rule set once;
	// together they prefix every check-outcome artifact key.
	optFP   string
	rulesFP string
}

// NewChecker returns a checker over the given rules (default: all 13).
func NewChecker(ruleSet []*rules.Rule, opts Options) *CryptoChecker {
	if len(ruleSet) == 0 {
		ruleSet = rules.All()
	}
	opts = opts.withDefaults()
	return &CryptoChecker{
		Rules:   ruleSet,
		opts:    opts,
		optFP:   optFingerprint(opts),
		rulesFP: rulesFingerprint(ruleSet),
	}
}

// CheckOutcome is the result of one check.
type CheckOutcome struct {
	Violations []rules.Violation
	// Traces holds the witness traces when the request asked for them; the
	// violations are then in report order (file, line, rule ID). Nil when
	// witnesses were not requested.
	Traces []witness.Trace
	Result *analysis.Result
}

// CheckRequest is the checker's one entry point — behind the CLIs, the
// library facade, and the analysis server's /v1/check: one guarded,
// budgeted, cancelable check of a source bundle analyzed as one program.
// The whole parse+analyze+check runs under resilience.Guard, so a panic on
// a pathological snippet comes back as a categorizable error instead of
// killing the caller, and the step budget is tightened by ctx's deadline
// and trips early if ctx is canceled (a disconnected client stops paying
// for analysis nobody will read). The per-file parse and the per-rule
// evaluation fan out on the checker's worker pool; violations come back in
// the stable rule-set order at any worker count — or, with why, in report
// order with their witness traces. An exhausted budget still checks the
// partial analysis: the outcome comes back together with an error wrapping
// resilience.ErrBudgetExhausted. Any other error returns a nil outcome.
func (c *CryptoChecker) CheckRequest(ctx context.Context, sources map[string]string, rctx rules.Context, why bool) (*CheckOutcome, error) {
	out, err := c.checkOutcome(ctx, sources, rctx, why)
	if out == nil {
		return nil, err
	}
	// Per-request accounting fires once for every outcome returned — the
	// live leader, its single-flight waiters, warm artifact hits, and
	// partial checks alike.
	reg := c.opts.Metrics
	reg.Counter("checker.programs").Inc()
	reg.Counter("checker.rules_evaluated").Add(int64(len(c.Rules)))
	reg.Counter("checker.violations").Add(int64(len(out.Violations)))
	if why {
		witness.Observe(reg, out.Traces)
	}
	return out, err
}

// checkLive runs one guarded, budgeted, cancelable check — the storeless
// CheckRequest body, also run (under single-flight) on an artifact miss.
// The program runs as a "check" stage span with parse, interpret, rules,
// and (with why) witness stages below it. Per-request counters and witness
// observation live in CheckRequest.
func (c *CryptoChecker) checkLive(ctx context.Context, sources map[string]string, rctx rules.Context, why bool) (*CheckOutcome, error) {
	reg := c.opts.Metrics
	pool := c.opts.pool()
	var out *CheckOutcome
	cctx, csp := trace.Stage(ctx, reg, "check")
	defer csp.End()
	err := resilience.Guard("check", func() error {
		aopts := c.opts.Analysis
		aopts.Budget = resilience.NewBudgetContext(ctx, c.opts.BudgetSteps, c.opts.BudgetWall)
		aopts.Provenance = aopts.Provenance || why
		res, err := analysis.AnalyzeBudgetedCtx(cctx, analysis.ParseProgramStoreCtx(cctx, sources, reg, pool, c.opts.Artifacts), aopts)
		if err != nil && !errors.Is(err, resilience.ErrBudgetExhausted) {
			return err
		}
		// A budget stop leaves a partial result: the rules still run over it.
		out = &CheckOutcome{Result: res, Violations: rules.CheckPoolCtx(cctx, res, rctx, c.Rules, pool)}
		if why {
			out.Violations = report.SortViolations(out.Violations, res)
			_, wsp := trace.Start(cctx, "witness")
			out.Traces = witness.Collect(out.Violations, res, rctx)
			wsp.SetAttr("traces", fmt.Sprint(len(out.Traces)))
			wsp.End()
		}
		return err
	})
	if err != nil {
		csp.Annotate(string(resilience.Categorize(err)))
	}
	return out, err
}

// ContextOf converts corpus project metadata into a rule context.
func ContextOf(p *corpus.Project) rules.Context {
	return rules.Context{
		Android:       p.Info.Android,
		MinSDKVersion: p.Info.MinSDKVersion,
		HasLPRNG:      p.Info.HasLPRNG,
	}
}

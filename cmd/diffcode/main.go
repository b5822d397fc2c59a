// Command diffcode runs the DiffCode pipeline. Two modes:
//
// Single change — abstract and diff two versions of one Java file:
//
//	diffcode -old Old.java -new New.java [-class Cipher]
//
// Corpus mining — mine a corpus directory (from corpusgen), filter, and
// cluster the semantic usage changes of one target class:
//
//	diffcode -corpus /tmp/corpus -class Cipher
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/change"
	"repro/internal/cliutil"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cryptoapi"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/rules"
	"repro/internal/textdiff"
	"repro/internal/witness"
)

func main() {
	var (
		oldFile   = flag.String("old", "", "old version of a Java file")
		newFile   = flag.String("new", "", "new version of a Java file")
		corpusDir = flag.String("corpus", "", "corpus directory produced by corpusgen")
		class     = flag.String("class", "", "target API class (default: all six)")
		depth     = flag.Int("depth", 5, "usage-DAG expansion depth")
		showDiff  = flag.Bool("patch", false, "also print the textual patch (single-change mode)")
		dot       = flag.Bool("dot", false, "emit the usage DAGs of both versions in Graphviz dot format (single-change mode)")
		budget    = flag.Int64("budget", 0, "max abstract-interpretation steps per change (0 = unlimited)")
		maxErrors = flag.Int("max-errors", 0, "abort mining after this many skipped changes (0 = unlimited)")
		failFast  = flag.Bool("fail-fast", false, "abort mining at the first skipped change")
		metrics   = flag.String("metrics", "", "write a JSON metrics snapshot to this file at exit")
		verbose   = flag.Bool("v", false, "print a stage-by-stage telemetry summary to stderr at exit")
		debugAddr = flag.String("debug-addr", "", "serve live metrics and pprof on this address (e.g. localhost:6060)")
		shards    = flag.Int("shards", 1, "analyze and filter the mined corpus in N contiguous shards (map-reduce over a shared -cache-dir; output is identical at any N)")
		std       = cliutil.StandardFlags("diffcode")
	)
	std.Parse()
	why := std.Why()
	if *shards < 1 {
		cliutil.UsageError("diffcode", "-shards must be at least 1 (got %d)", *shards)
	}

	run, err := obs.NewCLI("diffcode", *metrics, *debugAddr, *verbose)
	if err != nil {
		fmt.Fprintf(os.Stderr, "diffcode: %v\n", err)
		os.Exit(1)
	}
	// -trace threads a span tree through the whole run and dumps it to
	// stderr at exit (stdout output is byte-identical either way).
	tctx, troot := std.Trace().Begin("diffcode")
	defer std.Trace().Dump(os.Stderr, troot)
	opts := core.Options{
		Depth:       *depth,
		BudgetSteps: *budget,
		MaxErrors:   *maxErrors,
		FailFast:    *failFast,
		Metrics:     run.Reg,
		Workers:     std.Workers(),
		Artifacts:   std.Artifacts(run.Reg),
	}
	// The rule-pack gate: -rules packs must compile and lint before any
	// mode runs (exit 2 on error findings unless -rules-lax). The merged
	// set feeds the -why check path; mining itself evaluates no rules.
	activeRules := std.ActiveRules(run.Reg)
	classes := cryptoapi.TargetClasses
	if *class != "" {
		if !cryptoapi.IsTarget(*class) {
			cliutil.UsageError("diffcode", "unknown target class %q (want one of %v)",
				*class, cryptoapi.TargetClasses)
		}
		classes = []string{*class}
	}

	switch {
	case *oldFile != "" && *newFile != "":
		runSingle(tctx, run, *oldFile, *newFile, classes, opts, *showDiff, *dot, why, activeRules)
	case *corpusDir != "":
		if why.On() {
			cliutil.UsageError("diffcode", "-why applies to single-change mode (-old/-new) only")
		}
		runCorpus(tctx, run, *corpusDir, classes, opts, *shards)
	default:
		cliutil.UsageError("diffcode", "need either -old/-new or -corpus")
	}
}

func runSingle(tctx context.Context, run *obs.CLI, oldPath, newPath string, classes []string, opts core.Options, showDiff, dot bool, why cliutil.WhyMode, activeRules []*rules.Rule) {
	oldSrc := mustRead(oldPath)
	newSrc := mustRead(newPath)
	if showDiff {
		fmt.Println("--- patch ---")
		fmt.Print(textdiff.Unified(oldSrc, newSrc, 2))
		fmt.Println()
	}
	if dot {
		for _, cls := range classes {
			for i, g := range core.BuildDAGs(oldSrc, cls, opts) {
				fmt.Print(g.DOT(fmt.Sprintf("old_%s_%d", cls, i)))
			}
			for i, g := range core.BuildDAGs(newSrc, cls, opts) {
				fmt.Print(g.DOT(fmt.Sprintf("new_%s_%d", cls, i)))
			}
		}
	}
	d := core.New(opts)
	a, err := d.AnalyzeChangeCtx(tctx, mining.CodeChange{
		Old: oldSrc, New: newSrc,
		Meta: change.Meta{File: newPath},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "diffcode: %v\n", err)
		run.Flush(d.Ledger(), true)
		os.Exit(1)
	}
	any := false
	for _, cls := range classes {
		for _, c := range d.ExtractClass(a, cls) {
			if c.IsSame() {
				continue
			}
			any = true
			label := "semantic change"
			switch {
			case c.IsAddOnly():
				label = "new usage added"
			case c.IsRemoveOnly():
				label = "usage removed"
			}
			fmt.Printf("%s (%s):\n%s\n", cls, label, c.String())
		}
	}
	if !any {
		fmt.Println("no semantic usage changes (refactoring or unrelated change)")
	}
	if why.On() {
		printWhy(tctx, run, oldPath, oldSrc, newPath, newSrc, opts, why, activeRules)
	}
	run.Flush(d.Ledger(), false)
}

// printWhy checks both versions of the change against the active rule set
// (the built-ins, plus any -rules packs) and prints witness traces for the
// violations the change fixed (old version only) and introduced (new
// version only).
func printWhy(tctx context.Context, run *obs.CLI, oldPath, oldSrc, newPath, newSrc string, opts core.Options, why cliutil.WhyMode, activeRules []*rules.Rule) {
	checker := core.NewChecker(activeRules, opts)
	ctx := rules.Context{}
	oldVs, oldTraces := checker.CheckSourcesWhyCtx(tctx, map[string]string{oldPath: oldSrc}, ctx)
	newVs, newTraces := checker.CheckSourcesWhyCtx(tctx, map[string]string{newPath: newSrc}, ctx)
	oldIDs := ruleIDSet(oldVs)
	newIDs := ruleIDSet(newVs)
	fixed := filterTraces(oldTraces, func(id string) bool { return !newIDs[id] })
	introduced := filterTraces(newTraces, func(id string) bool { return !oldIDs[id] })
	if why == cliutil.WhyJSON {
		out := struct {
			Fixed      []witness.Trace `json:"fixed"`
			Introduced []witness.Trace `json:"introduced"`
		}{fixed, introduced}
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "diffcode: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(b))
		return
	}
	fmt.Printf("\n--- violations fixed by this change (%d) ---\n", countRules(fixed))
	fmt.Print(witness.Render(fixed))
	fmt.Printf("\n--- violations introduced by this change (%d) ---\n", countRules(introduced))
	fmt.Print(witness.Render(introduced))
}

func ruleIDSet(vs []rules.Violation) map[string]bool {
	out := map[string]bool{}
	for _, v := range vs {
		out[v.Rule.ID] = true
	}
	return out
}

func filterTraces(ts []witness.Trace, keep func(ruleID string) bool) []witness.Trace {
	var out []witness.Trace
	for _, t := range ts {
		if keep(t.Rule) {
			out = append(out, t)
		}
	}
	return out
}

func countRules(ts []witness.Trace) int {
	seen := map[string]bool{}
	for _, t := range ts {
		seen[t.Rule] = true
	}
	return len(seen)
}

func runCorpus(tctx context.Context, run *obs.CLI, dir string, classes []string, opts core.Options, shards int) {
	// One ledger spans the whole run: corpus loading and mining both record
	// the work they skipped into it.
	ledger := resilience.NewLedger()
	opts.Ledger = ledger
	loadOpts := []corpus.LoadOption{corpus.WithLedger(ledger), corpus.WithMetrics(run.Reg),
		corpus.WithArtifacts(opts.Artifacts)}
	if opts.FailFast {
		loadOpts = append(loadOpts, corpus.Strict())
	}
	c, err := corpus.Load(dir, loadOpts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "diffcode: %v\n", err)
		run.Flush(ledger, true)
		os.Exit(1)
	}
	d := core.New(opts)
	// -shards N analyzes and class-filters the mined corpus in N contiguous
	// shards, merging per-class results (core.MergeClassResults) into exactly
	// the monolithic output; -shards 1 is the classic single-pass path.
	var analyzed []*core.AnalyzedChange
	var shardAnalyzed [][]*core.AnalyzedChange
	if shards > 1 {
		shardAnalyzed = d.MineCorpusShardsCtx(tctx, c, shards)
		for _, sh := range shardAnalyzed {
			analyzed = append(analyzed, sh...)
		}
	} else {
		analyzed = d.MineCorpusCtx(tctx, c)
	}
	fmt.Printf("mined %d code changes from %d training projects\n\n",
		len(analyzed), len(c.TrainingProjects()))
	for _, cls := range classes {
		var r core.ClassPipelineResult
		if shards > 1 {
			parts := make([]core.ClassPipelineResult, len(shardAnalyzed))
			for i, sh := range shardAnalyzed {
				parts[i] = d.RunClassCtx(tctx, sh, cls)
			}
			r = core.MergeClassResults(cls, parts...)
		} else {
			r = d.RunClassCtx(tctx, analyzed, cls)
		}
		s := r.Stats
		fmt.Printf("%s: %d usage changes → fsame %d → fadd %d → frem %d → fdup %d\n",
			cls, s.Total, s.AfterSame, s.AfterAdd, s.AfterRem, s.AfterDup)
		if len(r.Survivors) == 0 {
			continue
		}
		fmt.Println("semantic usage changes:")
		for _, uc := range r.Survivors {
			fmt.Printf("  [%s %s] %s\n", uc.Meta.Project, uc.Meta.Commit, uc.Meta.Message)
		}
		if len(r.Survivors) > 1 {
			root := d.ClusterChangesCtx(tctx, r.Survivors)
			fmt.Println("dendrogram:")
			fmt.Print(indent(cluster.Render(root, func(i int) string {
				uc := r.Survivors[i]
				return fmt.Sprintf("[%s] %s", uc.Meta.Commit, uc.Meta.Message)
			}), "  "))
		}
		fmt.Println()
	}
	if ledger.Len() > 0 {
		fmt.Fprint(os.Stderr, ledger.Report())
		if opts.FailFast || (opts.MaxErrors > 0 && ledger.Len() >= opts.MaxErrors) {
			fmt.Fprintln(os.Stderr, "diffcode: mining aborted early (fail-fast/max-errors); results are partial")
			// The snapshot still lands on disk, flagged partial, so a
			// degraded run stays diagnosable.
			run.Flush(ledger, true)
			os.Exit(1)
		}
	}
	run.Flush(ledger, false)
}

func mustRead(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "diffcode: %v\n", err)
		os.Exit(1)
	}
	return string(b)
}

func indent(s, prefix string) string {
	out := ""
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			if i > start {
				out += prefix + s[start:i] + "\n"
			}
			start = i + 1
		}
	}
	return out
}

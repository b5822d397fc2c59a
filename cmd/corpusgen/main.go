// Command corpusgen generates the synthetic Java project corpus (the
// substitute for the paper's mined GitHub dataset) and writes it to disk
// for inspection or for consumption by cmd/diffcode:
//
//	corpusgen -out /tmp/corpus -seed 1 -scale 0.2 -projects 50
//
// The layout is one directory per project with its final snapshot and the
// full commit history (old/new version of each change).
//
// Projects are written in isolation: a project that fails to write is
// skipped and recorded rather than aborting the whole corpus; -fail-fast
// and -max-errors restore the abort behavior, matching the other CLIs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sync/atomic"

	"repro/internal/cliutil"
	"repro/internal/corpus"
	"repro/internal/parallel"
	"repro/internal/resilience"
	"repro/internal/trace"
)

func main() {
	var (
		out      = flag.String("out", "", "output directory (required)")
		seed     = flag.Int64("seed", 1, "generation seed")
		scale    = flag.Float64("scale", 0.2, "corpus scale (1.0 = paper scale)")
		projects = flag.Int("projects", 50, "training projects")
		extra    = flag.Int("extra", 6, "held-out projects")
		stats    = flag.Bool("stats", false, "print commit-kind statistics")
		// -budget exists for flag parity with the other three CLIs (scripts
		// pass a uniform flag set); generation performs no abstract
		// interpretation, so it has nothing to bound here.
		_        = flag.Int64("budget", 0, "accepted for CLI parity; corpusgen runs no analysis")
		maxErr   = flag.Int("max-errors", 0, "abort after this many unwritable projects (0 = unlimited)")
		failFast = flag.Bool("fail-fast", false, "abort at the first unwritable project")
		// -why and -cache-dir are accepted for CLI parity; generation runs
		// no analysis, clustering, or checking, so there is nothing to
		// explain or cache — scripts can still pass one uniform flag set.
		std = cliutil.StandardFlags("corpusgen")
	)
	std.Parse()
	if *out == "" {
		cliutil.UsageError("corpusgen", "-out is required")
	}
	// run.Ctx spans both stages of the run: generate, then the per-project
	// save fan-out.
	run := std.Start()

	// The rule-pack gate: corpusgen evaluates no rules, but -rules still
	// validates (and exits 2 on error findings) so one uniform flag set
	// fails in the same place from every tool.
	_ = std.ActiveRules(run.Reg)

	_, sp := trace.Start(run.Ctx, "generate")
	c := corpus.Generate(corpus.Config{
		Seed: *seed, Scale: *scale, Projects: *projects, ExtraProjects: *extra,
	})
	sp.End()
	run.Reg.Counter("corpusgen.projects_generated").Add(int64(len(c.Projects)))
	run.Reg.Counter("corpusgen.commits_generated").Add(int64(c.CommitCount()))

	// Each project is saved in isolation so one unwritable directory
	// degrades the run instead of killing it. Saves for distinct projects
	// touch disjoint directories, so they fan out across the worker pool;
	// fail-fast/max-errors cancel further dispatch and the abort is
	// reported once the in-flight saves drain.
	ledger := resilience.NewLedger()
	var files, written atomic.Int64
	ctx, cancel := context.WithCancel(run.Ctx)
	defer cancel()
	ctx, sp = trace.Start(ctx, "save")
	parallel.New(std.Workers(), run.Reg).ForEachCtx(ctx, "project", len(c.Projects), func(fctx context.Context, i int) {
		p := c.Projects[i]
		task := "project " + p.Name
		trace.FromContext(fctx).SetAttr("name", p.Name)
		err := resilience.Guard(task, func() error {
			return corpus.Save(&corpus.Corpus{Projects: []*corpus.Project{p}}, *out)
		})
		if err != nil {
			trace.FromContext(fctx).Annotate(string(resilience.Categorize(err)))
			ledger.Record(resilience.NewEntry(task, resilience.PhaseLoad, err))
			if *failFast || (*maxErr > 0 && ledger.Len() >= *maxErr) {
				cancel()
			}
			return
		}
		written.Add(1)
		files.Add(int64(len(p.Files)))
	})
	sp.End()
	if ledger.Len() > 0 && (*failFast || (*maxErr > 0 && ledger.Len() >= *maxErr)) {
		fmt.Fprint(os.Stderr, ledger.Report())
		fmt.Fprintln(os.Stderr, "corpusgen: aborted early (fail-fast/max-errors); corpus is partial")
		run.Exit(1, ledger, true)
	}
	run.Reg.Counter("corpusgen.projects_written").Add(written.Load())
	run.Reg.Counter("corpusgen.files_written").Add(files.Load())

	fmt.Printf("wrote %d projects (%d files, %d commits) to %s\n",
		written.Load(), files.Load(), c.CommitCount(), *out)
	if *stats {
		kinds := map[corpus.CommitKind]int{}
		for _, p := range c.TrainingProjects() {
			for _, cm := range p.Commits {
				kinds[cm.Kind]++
			}
		}
		for _, k := range []corpus.CommitKind{corpus.KindRefactor, corpus.KindUnrelated,
			corpus.KindAdd, corpus.KindRemove, corpus.KindFix, corpus.KindBug} {
			fmt.Printf("  %-9s %6d\n", k, kinds[k])
		}
	}
	if ledger.Len() > 0 {
		fmt.Fprint(os.Stderr, ledger.Report())
	}
	run.Flush(ledger, false)
	if ledger.Len() > 0 {
		os.Exit(1)
	}
}

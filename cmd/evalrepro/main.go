// Command evalrepro regenerates every table and figure of the paper's
// evaluation (§6) over the synthetic corpus:
//
//	evalrepro -fig 6          Figure 6 (filtering per target class)
//	evalrepro -fig 7          Figure 7 (fixes vs buggy changes, CL1-CL5)
//	evalrepro -fig 8          Figure 8 (Cipher dendrogram + ECB cluster)
//	evalrepro -fig 9          Figure 9 (the 13 elicited rules)
//	evalrepro -fig 10         Figure 10 (CryptoChecker over all projects)
//	evalrepro -fig all        everything plus the headline claims
//	evalrepro -headline       just the three headline numbers
//	evalrepro -elicit         add the automated rule elicitation
//	evalrepro -out artifacts  also write each section to artifacts/*.txt
//
// The corpus defaults to a reduced scale so a full run finishes in seconds;
// pass -scale 1 -projects 461 -extra 58 for the paper-scale run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cryptoapi"
	"repro/internal/obs"
)

var outDir string

// section runs f with a writer that prints to stdout and, when -out is
// set, also captures the section into <out>/<name>.txt.
func section(name string, f func(w io.Writer)) {
	w := io.Writer(os.Stdout)
	var file *os.File
	if outDir != "" {
		var err error
		file, err = os.Create(filepath.Join(outDir, name+".txt"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "evalrepro: %v\n", err)
		} else {
			w = io.MultiWriter(os.Stdout, file)
		}
	}
	f(w)
	if file != nil {
		file.Close()
	}
}

func main() {
	var (
		fig       = flag.String("fig", "all", "figure to regenerate: 6, 7, 8, 9, 10, or all")
		elicit    = flag.Bool("elicit", false, "also run the automated rule elicitation over the mined clusters")
		trend     = flag.Bool("trend", false, "also compare rule violations at the first vs last commit of each history")
		headline  = flag.Bool("headline", false, "print only the headline claims")
		seed      = flag.Int64("seed", 1, "corpus generation seed")
		scale     = flag.Float64("scale", 0.5, "corpus scale (1.0 = paper scale)")
		projects  = flag.Int("projects", 230, "training projects (paper: 461)")
		extra     = flag.Int("extra", 29, "held-out projects (paper: 58)")
		depth     = flag.Int("depth", 5, "usage-DAG expansion depth")
		verbose   = flag.Bool("v", false, "print timing information")
		budget    = flag.Int64("budget", 0, "max abstract-interpretation steps per mined change (0 = unlimited)")
		maxErr    = flag.Int("max-errors", 0, "abort analysis after this many skipped changes (0 = unlimited)")
		failFast  = flag.Bool("fail-fast", false, "abort analysis at the first skipped change")
		metrics   = flag.String("metrics", "", "write a JSON metrics snapshot to this file at exit")
		debugAddr = flag.String("debug-addr", "", "serve live metrics and pprof on this address (e.g. localhost:6060)")
		// -why is accepted for CLI parity; the evaluation harness prints
		// figures, not per-violation traces.
		std = cliutil.StandardFlags("evalrepro")
	)
	flag.StringVar(&outDir, "out", "", "also write each figure to <out>/figureN.txt")
	std.Parse()
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "evalrepro: %v\n", err)
			os.Exit(1)
		}
	}

	// -v doubles as the telemetry-summary switch: timing lines during the
	// run, the stage table at exit.
	run, err := obs.NewCLI("evalrepro", *metrics, *debugAddr, *verbose)
	if err != nil {
		fmt.Fprintf(os.Stderr, "evalrepro: %v\n", err)
		os.Exit(1)
	}
	// -trace threads a span tree through corpus generation and the mining
	// run; the deferred dump runs after the figure sections (defers are
	// LIFO, so it lands after the telemetry flush on stderr).
	tctx, troot := std.Trace().Begin("evalrepro")
	defer std.Trace().Dump(os.Stderr, troot)
	// The rule-pack gate: -rules packs must compile and lint cleanly before
	// the run (exit 2 on error findings unless -rules-lax). The evaluation
	// harness reproduces the paper's figures over the built-in rules, so
	// the merged set is validated and registered but not evaluated here.
	_ = std.ActiveRules(run.Reg)
	cfg := corpus.Config{Seed: *seed, Scale: *scale, Projects: *projects, ExtraProjects: *extra}
	opts := core.Options{
		Depth:       *depth,
		BudgetSteps: *budget,
		MaxErrors:   *maxErr,
		FailFast:    *failFast,
		Metrics:     run.Reg,
		Workers:     std.Workers(),
		// -cache-dir wires the artifact store through the checker paths
		// (Figure 10, -trend); the evaluation harness itself strips it
		// (NewEvaluationCtx needs live analysis results for Figure 7).
		Artifacts: std.Artifacts(run.Reg),
	}

	start := time.Now()
	gsp := troot.Child("generate")
	c := corpus.Generate(cfg)
	gsp.End()
	if *verbose {
		fmt.Fprintf(os.Stderr, "corpus: %d projects, %d commits (%.2fs)\n",
			len(c.Projects), c.CommitCount(), time.Since(start).Seconds())
	}

	if *fig == "9" && !*headline && !*elicit && !*trend {
		section("figure9", func(w io.Writer) { fmt.Fprintln(w, core.Figure9()) })
		run.Flush(nil, false)
		return
	}

	start = time.Now()
	e := core.NewEvaluationCtx(tctx, c, opts)
	if *verbose {
		fmt.Fprintf(os.Stderr, "analysis: %d code changes (%.2fs)\n",
			len(e.Analyzed), time.Since(start).Seconds())
	}
	// Degraded-mode bookkeeping: whatever figures were requested, finish by
	// reporting any changes the resilience layer skipped (empty on an
	// intact corpus, so default output is unchanged). The telemetry flush
	// runs last (defers are LIFO) so the summary includes ledger counts.
	defer func() {
		l := e.DiffCode.Ledger()
		partial := l.Len() > 0 &&
			(opts.FailFast || (opts.MaxErrors > 0 && l.Len() >= opts.MaxErrors))
		run.Flush(l, partial)
	}()
	defer printFailures(e, *verbose)

	want := func(f string) bool { return *fig == "all" || *fig == f }

	if *headline {
		section("headline", func(w io.Writer) { printHeadline(w, e) })
		return
	}
	if want("6") {
		section("figure6", func(w io.Writer) { fmt.Fprintln(w, e.Figure6()) })
	}
	if want("7") {
		section("figure7", func(w io.Writer) { fmt.Fprintln(w, e.Figure7()) })
	}
	if want("8") {
		section("figure8", func(w io.Writer) { printFigure8(w, e) })
	}
	if want("9") {
		section("figure9", func(w io.Writer) { fmt.Fprintln(w, core.Figure9()) })
	}
	if want("10") {
		section("figure10", func(w io.Writer) { fmt.Fprintln(w, e.Figure10().Table()) })
	}
	if *elicit {
		section("elicited", func(w io.Writer) { printElicited(w, e) })
	}
	if *trend {
		section("trend", func(w io.Writer) {
			fmt.Fprintln(w, core.Trend(e.Corpus, opts).Table())
		})
	}
	if *fig == "all" {
		section("headline", func(w io.Writer) { printHeadline(w, e) })
	}
}

// printFailures emits the failure summary of the run when any mined change
// was skipped by the resilience layer.
func printFailures(e *core.Evaluation, verbose bool) {
	l := e.DiffCode.Ledger()
	if l.Len() == 0 {
		if verbose {
			fmt.Fprintln(os.Stderr, "no analysis failures (ledger empty)")
		}
		return
	}
	section("failures", func(w io.Writer) { fmt.Fprint(w, l.Report()) })
}

func printElicited(w io.Writer, e *core.Evaluation) {
	elicited := e.ElicitRules()
	fmt.Fprintf(w, "Automated rule elicitation: %d fix clusters (buggy-direction clusters dropped)\n", len(elicited))
	fmt.Fprintln(w, "==============================================================================")
	for _, er := range elicited {
		fmt.Fprintf(w, "[%s] support=%d commits, reversals=%d, %d distinct change(s)\n",
			er.Class, er.Support, er.Reversals, len(er.Members))
		fmt.Fprintf(w, "  rule: %s\n", er.Rule.Formula)
	}
	fmt.Fprintln(w)
}

func printFigure8(w io.Writer, e *core.Evaluation) {
	f8 := e.Figure8()
	fmt.Fprintf(w, "Figure 8: hierarchical clustering of the %d semantic %s usage changes\n",
		len(f8.Survivors), cryptoapi.Cipher)
	fmt.Fprintln(w, "==========================================================================")
	fmt.Fprint(w, f8.Rendering)
	if len(f8.ECBCluster) > 0 {
		fmt.Fprintf(w, "\nECB cluster (elicits rule R7, \"do not use Cipher in ECB mode\"): ")
		fmt.Fprintf(w, "%d usage changes switching away from ECB:\n", len(f8.ECBCluster))
		for _, i := range f8.ECBCluster {
			c := f8.Survivors[i]
			fmt.Fprintf(w, "  [%s] %s\n", c.Meta.Commit, c.Meta.Message)
			fmt.Fprint(w, indent(c.String(), "    "))
		}
		// The inspection step: the concrete patch behind the cluster's
		// first member (what the analyst would read on GitHub).
		fmt.Fprintln(w, "\nConcrete patch behind the first cluster member:")
		fmt.Fprint(w, indent(e.RenderProvenance(f8.Survivors[f8.ECBCluster[0]], 2), "  "))
	} else {
		fmt.Fprintln(w, "\n(no ECB cluster at this scale — increase -scale)")
	}
	fmt.Fprintln(w)
}

func printHeadline(w io.Writer, e *core.Evaluation) {
	h := e.ComputeHeadline(e.Figure10())
	fmt.Fprintln(w, "Headline claims (paper §1/§6 vs this run)")
	fmt.Fprintln(w, "=========================================")
	fmt.Fprintf(w, "Non-semantic changes filtered:  paper >99%%   measured %.2f%% (%d of %d usage changes)\n",
		h.FilteredPct, h.TotalChanges-h.TotalSurviving, h.TotalChanges)
	fmt.Fprintf(w, "Semantic changes that are fixes: paper >80%%   measured %.1f%%\n", h.FixPct)
	fmt.Fprintf(w, "Projects violating ≥1 rule:      paper >57%%   measured %.1f%%\n", h.ViolatedPct)
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

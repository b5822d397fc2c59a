// Command cryptochecker checks Java sources against the 13 security rules
// elicited by DiffCode (paper Figure 9):
//
//	cryptochecker [flags] file.java [dir ...]
//
// All named .java files (directories are walked recursively) are analyzed
// together as one program. Android context for rule R6 comes from flags:
//
//	cryptochecker -android -minsdk 17 src/
//
// Exit status is 1 when at least one rule matches, 0 otherwise.
//
// Rule packs load through the uniform -rules flag (repeatable); packs are
// compiled and linted before anything runs, and error-level findings abort
// with exit 2 (-rules-lax loads what compiles instead). -lint-rules turns
// the tool into a standalone pack linter:
//
//	cryptochecker -lint-rules pack.rules [more.rules ...]
//
// printing the diagnostics (as JSON with -why=json) and exiting 2 on
// error findings, 1 on warnings, 0 on a clean pack.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/androidctx"
	"repro/internal/cliutil"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/resilience"
	"repro/internal/ruledsl"
	"repro/internal/rulelint"
	"repro/internal/rules"
	"repro/internal/summary"
	"repro/internal/witness"
)

func main() {
	var (
		ruleList  = flag.String("only", "", "comma-separated rule IDs to check (default: the full active set)")
		ruleFile  = flag.String("rulefile", "", "load additional rules from a file ('id | description | formula' lines; unlinted legacy path — prefer -rules)")
		lintRules = flag.Bool("lint-rules", false, "lint the given rule pack files and exit (2 = errors, 1 = warnings, 0 = clean)")
		android   = flag.Bool("android", false, "treat the project as an Android app")
		minSDK    = flag.Int("minsdk", 0, "Android minSdkVersion (for rule R6)")
		lprng     = flag.Bool("lprng", false, "the Linux-PRNG SecureRandom fix is installed")
		list      = flag.Bool("list", false, "list available rules and exit")
		quiet     = flag.Bool("q", false, "print only rule IDs")
		verbose   = flag.Bool("v", false, "explain each violation with the matched abstract usages")
		budget    = flag.Int64("budget", 0, "max abstract-interpretation steps (0 = unlimited)")
		maxErr    = flag.Int("max-errors", 0, "abort after this many unreadable inputs (0 = unlimited)")
		failFast  = flag.Bool("fail-fast", false, "abort at the first unreadable input")
		metrics   = flag.String("metrics", "", "write a JSON metrics snapshot to this file at exit")
		debugAddr = flag.String("debug-addr", "", "serve live metrics and pprof on this address (e.g. localhost:6060)")
		std       = cliutil.StandardFlags("cryptochecker")
	)
	std.Parse()
	why := std.Why()
	workers := std.Workers()

	if *lintRules {
		// Standalone pack linter: -rules flags and positional arguments are
		// all pack files; the report is the product, on stdout.
		lintMode(std, why)
		return
	}
	if *list {
		for _, r := range rules.All() {
			fmt.Printf("%-4s %s\n     %s\n", r.ID, r.Description, r.Formula)
		}
		return
	}
	if flag.NArg() == 0 {
		cliutil.UsageError("cryptochecker", "no input files")
	}

	// -v doubles as the telemetry-summary switch (it goes to stderr, so
	// the violation report on stdout is unchanged).
	run, err := obs.NewCLI("cryptochecker", *metrics, *debugAddr, *verbose)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cryptochecker: %v\n", err)
		os.Exit(1)
	}
	// -trace threads a span tree through parse → interpret → rules; the
	// dump goes to stderr right after the pipeline so it survives the
	// violation-dependent exit codes below.
	tctx, troot := std.Trace().Begin("cryptochecker")
	// The artifact store caches per-file parses and -rulefile compilations;
	// with -cache-dir the parses persist across runs.
	store := std.Artifacts(run.Reg)

	// The rule-pack gate: -rules packs compile, lint, and merge with the
	// built-ins (exit 2 on error findings unless -rules-lax); without the
	// flag the active set is exactly the built-in 13.
	ruleSet := rules.All()
	if active := std.ActiveRules(run.Reg); active != nil {
		ruleSet = active
	}
	if *ruleList != "" {
		byID := make(map[string]*rules.Rule, len(ruleSet))
		for _, r := range ruleSet {
			byID[r.ID] = r
		}
		filtered := []*rules.Rule(nil)
		for _, id := range strings.Split(*ruleList, ",") {
			id = strings.TrimSpace(id)
			r := byID[id]
			if r == nil {
				r = rules.ByID(id) // CL1–CL5 aliases stay addressable
			}
			if r == nil {
				cliutil.UsageError("cryptochecker", "unknown rule %q", id)
			}
			filtered = append(filtered, r)
		}
		ruleSet = filtered
	}
	if *ruleFile != "" {
		content, err := os.ReadFile(*ruleFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cryptochecker: %v\n", err)
			os.Exit(1)
		}
		extra, err := ruledsl.ParseFileCached(string(content), store)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cryptochecker: %s: %v\n", *ruleFile, err)
			os.Exit(1)
		}
		ruleSet = append(ruleSet, extra...)
	}

	// Unreadable inputs are skipped and recorded rather than aborting the
	// whole check; -fail-fast restores the old abort-on-first-error mode.
	ledger := resilience.NewLedger()
	sources := map[string]string{}
	for _, arg := range flag.Args() {
		if err := collect(arg, sources); err != nil {
			if *failFast {
				fmt.Fprintf(os.Stderr, "cryptochecker: %v\n", err)
				run.Flush(ledger, true)
				os.Exit(1)
			}
			ledger.Record(resilience.NewEntry(arg, resilience.PhaseLoad, err))
			if *maxErr > 0 && ledger.Len() >= *maxErr {
				fmt.Fprint(os.Stderr, ledger.Report())
				fmt.Fprintln(os.Stderr, "cryptochecker: too many unreadable inputs (-max-errors)")
				run.Flush(ledger, true)
				os.Exit(1)
			}
		}
	}
	if len(sources) == 0 {
		fmt.Fprint(os.Stderr, ledger.Report())
		fmt.Fprintln(os.Stderr, "cryptochecker: no .java files found")
		run.Flush(ledger, true)
		os.Exit(2)
	}

	ctx := rules.Context{Android: *android, MinSDKVersion: *minSDK, HasLPRNG: *lprng}
	if !*android && *minSDK == 0 && !*lprng {
		ctx = androidctx.Detect(sources)
		if ctx.Android && !*quiet {
			fmt.Fprintf(os.Stderr, "cryptochecker: detected Android project (minSdk %d, lprng fix %t)\n",
				ctx.MinSDKVersion, ctx.HasLPRNG)
		}
	}
	// The analysis runs under panic isolation and an optional step budget:
	// a pathological input degrades to a partial (or failed) check instead
	// of a crash.
	var res *analysis.Result
	pool := parallel.New(workers, run.Reg)
	sp := run.Reg.StartSpan("check")
	err = resilience.Guard("analyze", func() error {
		var aerr error
		// Method summaries share the tool's artifact store, so a warm
		// -cache-dir re-check replays helpers instead of re-interpreting.
		aopts := analysis.Options{Budget: resilience.NewBudget(*budget, 0), Metrics: run.Reg,
			Provenance: why.On(), Summaries: summary.NewTable(store, run.Reg)}
		res, aerr = analysis.AnalyzeBudgetedCtx(tctx, analysis.ParseProgramStoreCtx(tctx, sources, run.Reg, pool, store),
			aopts)
		return aerr
	})
	if err != nil {
		if errors.Is(err, resilience.ErrBudgetExhausted) && res != nil {
			fmt.Fprintln(os.Stderr, "cryptochecker: analysis budget exhausted; results may be partial")
		} else {
			ledger.Record(resilience.NewEntry("analyze", resilience.PhaseAnalyze, err))
			fmt.Fprint(os.Stderr, ledger.Report())
			fmt.Fprintf(os.Stderr, "cryptochecker: %v\n", err)
			run.Flush(ledger, true)
			os.Exit(1)
		}
	}
	violations := rules.CheckPoolCtx(tctx, res, ctx, ruleSet, pool)
	sp.End()
	std.Trace().Dump(os.Stderr, troot)
	run.Reg.Counter("checker.rules_evaluated").Add(int64(len(ruleSet)))
	run.Reg.Counter("checker.violations").Add(int64(len(violations)))

	if why.On() {
		// Witness mode: violations sort by source location and each carries
		// its reconstructed trace. Takes precedence over -q/-v rendering.
		sorted := report.SortViolations(violations, res)
		traces := witness.Collect(sorted, res, ctx)
		witness.Observe(run.Reg, traces)
		if why == cliutil.WhyJSON {
			fmt.Print(witness.JSON(traces))
		} else {
			fmt.Print(witness.Render(traces))
		}
	} else {
		for _, v := range violations {
			if *quiet {
				fmt.Println(v.Rule.ID)
				continue
			}
			if *verbose {
				fmt.Print(rules.Explain(v, res))
				continue
			}
			fmt.Printf("%s: %s\n", v.Rule.ID, v.Rule.Description)
			fmt.Printf("    rule: %s\n", v.Rule.Formula)
			for _, o := range v.Objs {
				fmt.Printf("    at %s (line %d)\n", o.SiteLabel(), o.Site.Line)
			}
		}
	}
	if ledger.Len() > 0 {
		fmt.Fprint(os.Stderr, ledger.Report())
	}
	run.Flush(ledger, false)
	if len(violations) > 0 {
		if !*quiet && why != cliutil.WhyJSON {
			fmt.Printf("\n%d rule(s) matched across %d file(s)\n", len(violations), len(sources))
		}
		os.Exit(1)
	}
	if !*quiet && why != cliutil.WhyJSON {
		fmt.Printf("no rule violations across %d file(s)\n", len(sources))
	}
}

// lintMode is the standalone pack linter behind -lint-rules: every -rules
// flag and positional argument names a pack file, the rendered report goes
// to stdout (JSON with -why=json), and the exit status grades the result —
// 2 on error findings, 1 on warnings only, 0 on a clean pack.
func lintMode(std *cliutil.Standard, why cliutil.WhyMode) {
	paths := append(std.RulePacks(), flag.Args()...)
	if len(paths) == 0 {
		cliutil.UsageError("cryptochecker", "-lint-rules needs rule pack files (-rules or positional arguments)")
	}
	res, err := rulelint.Load(paths)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cryptochecker: loading rule packs: %v\n", err)
		os.Exit(2)
	}
	if why == cliutil.WhyJSON {
		b, err := res.Report.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "cryptochecker: %v\n", err)
			os.Exit(2)
		}
		fmt.Println(string(b))
	} else {
		fmt.Print(res.Report.Render())
	}
	switch {
	case res.Report.HasErrors():
		os.Exit(2)
	case res.Report.HasFindings():
		os.Exit(1)
	}
}

// collect gathers .java sources from a file or directory tree.
func collect(path string, into map[string]string) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	if !info.IsDir() {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		into[path] = string(b)
		return nil
	}
	return filepath.WalkDir(path, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		base := filepath.Base(p)
		if !strings.HasSuffix(p, ".java") && base != "AndroidManifest.xml" &&
			!strings.HasSuffix(p, ".gradle") && !strings.HasSuffix(p, ".gradle.kts") {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		into[p] = string(b)
		return nil
	})
}

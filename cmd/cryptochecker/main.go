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

	"repro/internal/androidctx"
	"repro/internal/cliutil"
	"repro/internal/core"
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
		budget    = flag.Int64("budget", 0, "max abstract-interpretation steps (0 = unlimited)")
		maxErr    = flag.Int("max-errors", 0, "abort after this many unreadable inputs (0 = unlimited)")
		failFast  = flag.Bool("fail-fast", false, "abort at the first unreadable input")
		std       = cliutil.StandardFlags("cryptochecker")
	)
	flag.Lookup("v").Usage = "explain each violation with the matched abstract usages, and print a stage-by-stage telemetry summary to stderr at exit"
	std.Parse()
	verbose := std.Verbose()
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
	// the violation report on stdout is unchanged). run.Ctx carries the
	// run's root span through check → parse → interpret → rules.
	run := std.Start()
	// The artifact store caches per-file parses, method summaries, check
	// outcomes, and -rulefile compilations; with -cache-dir they persist
	// across runs (compilations stay in memory).
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
			run.Fatal(nil, err)
		}
		extra, err := ruledsl.ParseFileCached(string(content), store)
		if err != nil {
			run.Fatal(nil, fmt.Errorf("%s: %v", *ruleFile, err))
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
				run.Fatal(ledger, err)
			}
			ledger.Record(resilience.NewEntry(arg, resilience.PhaseLoad, err))
			if *maxErr > 0 && ledger.Len() >= *maxErr {
				fmt.Fprint(os.Stderr, ledger.Report())
				fmt.Fprintln(os.Stderr, "cryptochecker: too many unreadable inputs (-max-errors)")
				run.Exit(1, ledger, true)
			}
		}
	}
	if len(sources) == 0 {
		fmt.Fprint(os.Stderr, ledger.Report())
		fmt.Fprintln(os.Stderr, "cryptochecker: no .java files found")
		run.Exit(2, ledger, true)
	}

	ctx := rules.Context{Android: *android, MinSDKVersion: *minSDK, HasLPRNG: *lprng}
	if !*android && *minSDK == 0 && !*lprng {
		ctx = androidctx.Detect(sources)
		if ctx.Android && !*quiet {
			fmt.Fprintf(os.Stderr, "cryptochecker: detected Android project (minSdk %d, lprng fix %t)\n",
				ctx.MinSDKVersion, ctx.HasLPRNG)
		}
	}
	// One check request: panic isolation, the optional step budget (a
	// pathological input degrades to a partial or failed check instead of a
	// crash), and — through the artifact store — cached parses, summaries,
	// and check outcomes. -v renders from the live analysis result, which
	// an outcome-cache hit does not carry, so under -v the store backs the
	// summary table only.
	opts := core.Options{Workers: workers, BudgetSteps: *budget, Metrics: run.Reg, Artifacts: store}
	if verbose {
		opts.Artifacts, opts.Summaries = nil, summary.NewTable(store, run.Reg)
	}
	out, err := core.NewChecker(ruleSet, opts).CheckRequest(run.Ctx, sources, ctx, why.On())
	if err != nil {
		if errors.Is(err, resilience.ErrBudgetExhausted) && out != nil {
			fmt.Fprintln(os.Stderr, "cryptochecker: analysis budget exhausted; results may be partial")
		} else {
			ledger.Record(resilience.NewEntry("analyze", resilience.PhaseAnalyze, err))
			fmt.Fprint(os.Stderr, ledger.Report())
			run.Fatal(ledger, err)
		}
	}

	if why.On() {
		// Witness mode: violations sort by source location and each carries
		// its reconstructed trace. Takes precedence over -q/-v rendering.
		if why == cliutil.WhyJSON {
			fmt.Print(witness.JSON(out.Traces))
		} else {
			fmt.Print(witness.Render(out.Traces))
		}
	} else {
		for _, v := range out.Violations {
			if *quiet {
				fmt.Println(v.Rule.ID)
				continue
			}
			if verbose {
				fmt.Print(rules.Explain(v, out.Result))
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
	if len(out.Violations) > 0 {
		if !*quiet && why != cliutil.WhyJSON {
			fmt.Printf("\n%d rule(s) matched across %d file(s)\n", len(out.Violations), len(sources))
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

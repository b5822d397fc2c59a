// Package cliutil holds the small helpers shared by the five command-line
// front-ends (diffcode, evalrepro, cryptochecker, corpusgen, diffcoded),
// so flags with cross-tool contracts are registered and validated in
// exactly one place instead of five drifting copies, and usage errors look
// the same from every tool (one line, exit status 2).
package cliutil

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/artifact"
	"repro/internal/obs"
)

// ValidateWorkers checks a -workers value: every worker pool needs at least
// one worker, so N < 1 is a usage error (0 does not mean "auto" at the CLI
// — the auto default is already the flag's default value).
func ValidateWorkers(n int) error {
	if n < 1 {
		return fmt.Errorf("-workers must be at least 1 (got %d)", n)
	}
	return nil
}

// UsageError reports a command-line usage error the uniform way across
// every CLI: one "tool: message" line on stderr and exit status 2. No flag
// dump — `tool -h` prints the flags; a usage error should say what was
// wrong, not scroll it off screen.
func UsageError(tool, format string, args ...any) {
	fmt.Fprintf(os.Stderr, tool+": "+format+"\n", args...)
	osExit(2)
}

// osExit is swapped out by tests that need to observe UsageError.
var osExit = os.Exit

// Standard is the shared cross-tool flag set, registered and validated in
// one place so the tools cannot drift: -workers, -why, -trace, -cache-dir,
// -rules, -rules-lax, -metrics, -v, and (batch tools) -debug-addr with
// identical names, defaults, and help text everywhere. Tools that have no
// use for one of the flags still accept it (the established parity
// convention — scripts pass a uniform flag set to every tool). There is no engine selection: every tool analyzes with
// memoized method summaries and clusters through the memoized distance
// engine, both exact.
type Standard struct {
	tool      string
	workers   *int
	why       *WhyMode
	trace     *TraceMode
	cacheDir  *string
	rulePacks *[]string
	rulesLax  *bool
	metrics   *string
	verbose   *bool
	// debugAddr is nil exactly for the server (ServerFlags), which serves
	// /debug/ on its own address.
	debugAddr *string
}

// StandardFlags registers the shared flag set of a batch tool on the
// default flag set. Call Parse after registering any tool-specific flags,
// then Start.
func StandardFlags(tool string) *Standard {
	s := newStandard(tool)
	s.debugAddr = flag.String("debug-addr", "", "serve live metrics and pprof on this address (e.g. localhost:6060)")
	return s
}

// ServerFlags is StandardFlags for the long-running server: no -debug-addr
// (the server mounts /debug/ on its own address), and its Run always has a
// registry and opens no root span (each request is its own trace).
func ServerFlags(tool string) *Standard { return newStandard(tool) }

func newStandard(tool string) *Standard {
	s := &Standard{
		tool:      tool,
		why:       new(WhyMode),
		trace:     new(TraceMode),
		rulePacks: new([]string),
		// -workers 0 is a usage error, not "auto": GOMAXPROCS is already
		// the default.
		workers: flag.Int("workers", runtime.GOMAXPROCS(0),
			"parallel workers for analysis, clustering, and checking (1 = serial; default GOMAXPROCS)"),
		// An empty -cache-dir keeps artifacts in memory only: within-run
		// reuse without leaving anything on disk.
		cacheDir: flag.String("cache-dir", "",
			"persist content-addressed artifacts (parsed ASTs, analysis results, check outcomes) under this directory; warm re-runs recompute only what changed (empty = in-memory only)"),
		rulesLax: flag.Bool("rules-lax", false,
			"load rule packs despite error-level lint findings (broken rules are skipped; built-ins win ID collisions)"),
		metrics: flag.String("metrics", "", "write a JSON metrics snapshot to this file at exit"),
		verbose: flag.Bool("v", false, "print a stage-by-stage telemetry summary to stderr at exit"),
	}
	// -why and -trace are off by default, and off they leave tool output
	// byte-identical to a build without witness or trace support. Bare,
	// -trace dumps the run's span tree to stderr at exit (diffcoded: the
	// retained traces at shutdown).
	flag.Var(modeValue[WhyMode]{s.why}, "why", "explain each violation with its witness trace (origin → defs → sink); -why=json for JSON")
	flag.Var(modeValue[TraceMode]{s.trace}, "trace", "trace the run with hierarchical spans and dump the trace tree at exit; -trace=json for JSON")
	flag.Var(ruleListValue{s.rulePacks}, "rules",
		"load a rule pack file ('id | description | formula' lines; repeatable); packs are linted and error findings abort with exit 2")
	return s
}

// Parse parses the command line and validates the shared flags, reporting
// violations through UsageError (single line, exit 2).
func (s *Standard) Parse() {
	flag.Parse()
	if err := ValidateWorkers(*s.workers); err != nil {
		UsageError(s.tool, "%v", err)
	}
}

// Tool returns the tool name the flag set was registered for.
func (s *Standard) Tool() string { return s.tool }

// Workers returns the validated -workers value.
func (s *Standard) Workers() int { return *s.workers }

// Why returns the parsed -why mode.
func (s *Standard) Why() WhyMode { return *s.why }

// Trace returns the parsed -trace mode.
func (s *Standard) Trace() TraceMode { return *s.trace }

// Verbose returns the -v value.
func (s *Standard) Verbose() bool { return *s.verbose }

// Artifacts builds the tool's artifact store from -cache-dir: disk-backed
// when a directory was given, in-memory otherwise. Every CLI run gets a
// store — within-run artifact reuse (duplicate commits, repeated snippets)
// costs nothing and changes no output; the flag only decides persistence.
// Telemetry lands in reg under artifact.*.
func (s *Standard) Artifacts(reg *obs.Registry) *artifact.Store {
	return artifact.New(artifact.Config{Dir: *s.cacheDir, Metrics: reg})
}

// WhyMode is the parsed value of the uniform -why flag.
type WhyMode string

// The three -why settings: off (default), text traces, JSON traces.
const (
	WhyOff  WhyMode = ""
	WhyText WhyMode = "text"
	WhyJSON WhyMode = "json"
)

// On reports whether witness traces were requested in any form.
func (m WhyMode) On() bool { return m != WhyOff }

// TraceMode is the parsed value of the uniform -trace flag.
type TraceMode string

// The three -trace settings: off (default), text tree, JSON tree.
const (
	TraceOff  TraceMode = ""
	TraceText TraceMode = "text"
	TraceJSON TraceMode = "json"
)

// On reports whether request tracing was requested in any form.
func (m TraceMode) On() bool { return m != TraceOff }

// modeValue adapts WhyMode and TraceMode to the flag package. IsBoolFlag
// lets the flag appear bare (-why, meaning text) or valued (-why=json).
type modeValue[M ~string] struct{ m *M }

func (v modeValue[M]) String() string {
	if v.m == nil {
		return ""
	}
	return string(*v.m)
}

func (v modeValue[M]) Set(s string) error {
	switch s {
	case "true", "text":
		*v.m = "text"
	case "false", "":
		*v.m = ""
	case "json":
		*v.m = "json"
	default:
		return fmt.Errorf("must be 'text' or 'json' (got %q)", s)
	}
	return nil
}

func (modeValue[M]) IsBoolFlag() bool { return true }

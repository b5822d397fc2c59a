// Package cliutil holds the small helpers shared by the five command-line
// front-ends (diffcode, evalrepro, cryptochecker, corpusgen, diffcoded),
// so flags with cross-tool contracts are registered and validated in
// exactly one place instead of five drifting copies, and usage errors look
// the same from every tool (one line, exit status 2).
package cliutil

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/artifact"
	"repro/internal/obs"
	"repro/internal/trace"
)

// WorkersFlag registers the uniform -workers flag on the default flag set:
// same name, default (GOMAXPROCS), and help text in every CLI. Parse the
// flags, then pass the value through MustWorkers.
func WorkersFlag() *int {
	return flag.Int("workers", runtime.GOMAXPROCS(0),
		"parallel workers for analysis, clustering, and checking (1 = serial; default GOMAXPROCS)")
}

// CacheDirFlag registers the uniform -cache-dir flag on the default flag
// set: the root directory of the persistent artifact store behind
// incremental runs. Empty (the default) keeps artifacts in memory only —
// within-run reuse without leaving anything on disk.
func CacheDirFlag() *string {
	return flag.String("cache-dir", "",
		"persist content-addressed artifacts (parsed ASTs, analysis results, check outcomes) under this directory; warm re-runs recompute only what changed (empty = in-memory only)")
}

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
// -rules, and -rules-lax with identical names, defaults, and help text
// everywhere. Tools that have no use for one of the flags still accept it
// (the established parity convention — scripts pass a uniform flag set to
// every tool). There is no engine selection: every tool analyzes with
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
}

// StandardFlags registers the shared flag set for the named tool on the
// default flag set. Call Parse after registering any tool-specific flags.
func StandardFlags(tool string) *Standard {
	return &Standard{
		tool:      tool,
		workers:   WorkersFlag(),
		why:       WhyFlag(),
		trace:     TraceFlag(),
		cacheDir:  CacheDirFlag(),
		rulePacks: RulePacksFlag(),
		rulesLax:  RulesLaxFlag(),
	}
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

// CacheDir returns the -cache-dir value ("" = in-memory artifacts only).
func (s *Standard) CacheDir() string { return *s.cacheDir }

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

// whyValue adapts WhyMode to the flag package. IsBoolFlag lets the flag
// appear bare (-why, meaning text) or valued (-why=json).
type whyValue struct{ m *WhyMode }

func (w whyValue) String() string {
	if w.m == nil {
		return ""
	}
	return string(*w.m)
}

func (w whyValue) Set(s string) error {
	switch s {
	case "true", "text":
		*w.m = WhyText
	case "false", "":
		*w.m = WhyOff
	case "json":
		*w.m = WhyJSON
	default:
		return fmt.Errorf("must be 'text' or 'json' (got %q)", s)
	}
	return nil
}

func (w whyValue) IsBoolFlag() bool { return true }

// WhyFlag registers the uniform -why flag on the default flag set: bare
// -why prints a witness trace for every violation, -why=json emits the
// traces as JSON. Off by default; with the flag off, tool output is
// byte-identical to a build without witness support.
func WhyFlag() *WhyMode {
	m := WhyOff
	flag.Var(whyValue{&m}, "why", "explain each violation with its witness trace (origin → defs → sink); -why=json for JSON")
	return &m
}

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

// traceValue adapts TraceMode to the flag package, mirroring whyValue:
// IsBoolFlag lets the flag appear bare (-trace, meaning text) or valued
// (-trace=json).
type traceValue struct{ m *TraceMode }

func (t traceValue) String() string {
	if t.m == nil {
		return ""
	}
	return string(*t.m)
}

func (t traceValue) Set(s string) error {
	switch s {
	case "true", "text":
		*t.m = TraceText
	case "false", "":
		*t.m = TraceOff
	case "json":
		*t.m = TraceJSON
	default:
		return fmt.Errorf("must be 'text' or 'json' (got %q)", s)
	}
	return nil
}

func (t traceValue) IsBoolFlag() bool { return true }

// TraceFlag registers the uniform -trace flag on the default flag set: bare
// -trace traces the run with hierarchical spans and dumps the trace tree at
// exit (batch tools: text to stderr; diffcoded: retained traces at
// shutdown), -trace=json emits JSON. Off by default; with the flag off,
// tool output is byte-identical to an untraced build.
func TraceFlag() *TraceMode {
	m := TraceOff
	flag.Var(traceValue{&m}, "trace", "trace the run with hierarchical spans and dump the trace tree at exit; -trace=json for JSON")
	return &m
}

// Begin opens the run's root span when tracing is on, returning a context
// to thread through the pipeline's Ctx entry points and the root span to
// Dump at exit. Off → the background context and a nil (inert) span, so
// call sites need no mode check.
func (m TraceMode) Begin(tool string) (context.Context, *trace.Span) {
	if !m.On() {
		return context.Background(), nil
	}
	root := trace.New().Root(tool)
	return trace.NewContext(context.Background(), root), root
}

// Dump ends the root span and writes the run's trace tree to w. The CLIs
// pass stderr, keeping stdout byte-identical to an untraced run. No-op on a
// nil span (tracing off).
func (m TraceMode) Dump(w io.Writer, root *trace.Span) {
	if root == nil {
		return
	}
	root.End()
	d := trace.Snapshot(root)
	if m == TraceJSON {
		fmt.Fprint(w, d.JSON())
		return
	}
	fmt.Fprint(w, d.Render())
}

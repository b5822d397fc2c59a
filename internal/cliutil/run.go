package cliutil

import (
	"context"
	"fmt"
	"os"
	"sync"

	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/trace"
)

// Run is the instrumentation of one tool invocation, opened by
// Standard.Start: one registry, one context carrying the run's root span,
// and one idempotent exit path that reports both. Every stage the pipeline
// runs under Ctx is one span, so the -trace tree, the -v stage table, and
// the -metrics snapshot all read the same stage names and durations.
type Run struct {
	tool    string
	mode    TraceMode
	metrics string
	verbose bool
	// Reg is the run's registry: nil unless -metrics, -v, or -debug-addr
	// was given (a server always has one), so an unflagged run stays on
	// the no-op path end to end.
	Reg *obs.Registry
	// Ctx carries the root span named after the tool — traced under
	// -trace, metrics-only with just a registry, absent otherwise. Thread
	// it through the pipeline's Ctx entry points.
	Ctx    context.Context
	tracer *trace.Tracer
	root   *trace.Span
	once   sync.Once
}

// Start opens the run once the flags are parsed. -debug-addr also starts
// the live introspection endpoint and logs its address to stderr; failing
// to bind it exits 1.
func (s *Standard) Start() *Run {
	r := &Run{tool: s.tool, mode: *s.trace, metrics: *s.metrics, verbose: *s.verbose, Ctx: context.Background()}
	server := s.debugAddr == nil
	debug := !server && *s.debugAddr != ""
	if server || r.metrics != "" || r.verbose || debug {
		r.Reg = obs.NewRegistry()
	}
	if r.mode.On() {
		r.tracer = trace.New()
	}
	if debug {
		addr, err := obs.StartDebugServer(*s.debugAddr, r.Reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", s.tool, err)
			osExit(1)
		}
		fmt.Fprintf(os.Stderr, "%s: debug endpoint on http://%s/debug/vars (pprof under /debug/pprof/)\n", s.tool, addr)
	}
	if !server {
		r.root = trace.Open(r.tracer, r.Reg, s.tool)
		r.Ctx = trace.NewContext(r.Ctx, r.root)
	}
	return r
}

// Tracer returns the run's tracer (nil without -trace); the server hands
// it to its per-request tracing.
func (r *Run) Tracer() *trace.Tracer { return r.tracer }

// Flush ends the run's reporting: it ends the root span, dumps the trace
// tree to stderr under -trace (stdout stays byte-identical), folds the
// ledger's failures into the registry, prints the -v stage table, and
// writes the -metrics snapshot, flagged partial when the run aborted
// early. Only the first call does anything, so every exit path can call
// it. A snapshot write failure is reported but never changes the exit
// status — telemetry must not fail a run that otherwise succeeded.
func (r *Run) Flush(l *resilience.Ledger, partial bool) {
	r.once.Do(func() {
		r.root.End()
		if r.tracer != nil && r.root != nil {
			d := trace.Snapshot(r.root)
			if r.mode == TraceJSON {
				fmt.Fprint(os.Stderr, d.JSON())
			} else {
				fmt.Fprint(os.Stderr, d.Render())
			}
		}
		obs.FoldLedger(r.Reg, l)
		if r.verbose {
			fmt.Fprint(os.Stderr, r.Reg.Summary())
		}
		if r.metrics != "" {
			if err := obs.WriteSnapshotFile(r.metrics, r.Reg, partial); err != nil {
				fmt.Fprintf(os.Stderr, "%s: writing metrics snapshot: %v\n", r.tool, err)
			}
		}
	})
}

// Exit flushes the run and exits with code.
func (r *Run) Exit(code int, l *resilience.Ledger, partial bool) {
	r.Flush(l, partial)
	osExit(code)
}

// Fatal reports err as one "tool: err" line on stderr and exits 1 through
// the exit path, the snapshot flagged partial.
func (r *Run) Fatal(l *resilience.Ledger, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", r.tool, err)
	r.Exit(1, l, true)
}

// Command diffcoded is the checker-as-a-service daemon: a long-running
// HTTP/JSON analysis server over the DiffCode/CryptoChecker pipeline.
//
//	diffcoded -addr :8371
//
// Endpoints:
//
//	POST /v1/check    source snippets → rule violations (+ witness traces)
//	POST /v1/analyze  old/new change batches → semantic usage changes
//	GET  /healthz     liveness
//	GET  /readyz      readiness (503 while draining)
//	GET  /metrics     live metrics snapshot (diffcode-metrics/v1; ?format=prom
//	                  for Prometheus text exposition)
//	     /debug/      expvar-style vars + pprof
//	GET  /debug/traces  retained request traces (-trace only): JSON list,
//	                  per-trace detail, ?format=text waterfall
//
// With -trace, every API request gets a hierarchical span tree: an
// X-Trace-Id response header, a trace_id response field, and tail-based
// retention (failures and slow requests always kept, the healthy fast
// majority sampled) inspectable at /debug/traces; the retained traces are
// summarized on stderr at shutdown (-trace=json for full JSON records).
// Without it, responses are byte-identical to an untraced build.
//
// Every request runs under panic isolation and a per-request step/wall
// budget; overload sheds with 429 + Retry-After, sustained overload trips
// a degraded mode that disables witness provenance, and SIGTERM drains
// gracefully: stop accepting, finish in-flight requests within -drain,
// then flush a final metrics snapshot.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
)

func main() {
	var (
		addr        = flag.String("addr", "localhost:8371", "listen address (host:port; :0 picks a free port)")
		budget      = flag.Int64("budget", 2_000_000, "max abstract-interpretation steps per request (0 = unlimited)")
		timeout     = flag.Duration("timeout", 10*time.Second, "per-request wall deadline (requests can only tighten it)")
		concurrency = flag.Int("concurrency", 0, "max concurrent analyses (0 = GOMAXPROCS)")
		queue       = flag.Int("queue", 64, "max requests waiting for an analysis slot before shedding")
		drain       = flag.Duration("drain", 15*time.Second, "graceful-drain budget for in-flight requests on SIGTERM")
		metrics     = flag.String("metrics", "", "write a final JSON metrics snapshot to this file on shutdown")
		verbose     = flag.Bool("v", false, "print a telemetry summary to stderr on shutdown")
		// -why is accepted for CLI parity; witness traces are a
		// per-request option (the "why" request field).
		std = cliutil.StandardFlags("diffcoded")
	)
	std.Parse()

	// A server is always instrumented: serve.* telemetry is how an operator
	// sees shedding, degradation, and tail latency at all. Tracing stays
	// opt-in (-trace): with it off every response is byte-identical to an
	// untraced build.
	reg := obs.NewRegistry()
	var tracer *trace.Tracer
	if std.Trace().On() {
		tracer = trace.New()
	}
	copts := core.Options{
		BudgetSteps: *budget,
		Workers:     std.Workers(),
		Metrics:     reg,
	}
	// The rule-pack gate: -rules packs must lint before the server binds
	// (exit 2 on error findings unless -rules-lax). The pack paths stay
	// with the server for hot reload — SIGHUP or POST /v1/rules/reload
	// re-lints and atomically swaps the active set; a broken pack on
	// reload keeps the previous set live.
	activeRules := std.ActiveRules(reg)
	srv := serve.New(serve.Options{
		Checker:        copts,
		Rules:          activeRules,
		RulePacks:      std.RulePacks(),
		RulesLax:       std.RulesLax(),
		MaxConcurrent:  *concurrency,
		MaxQueue:       *queue,
		RequestTimeout: *timeout,
		DrainTimeout:   *drain,
		Tracer:         tracer,
		// The process-lifetime artifact store: repeated identical requests
		// are served from cache; -cache-dir persists artifacts across
		// restarts (empty = in-memory only, the serve default either way).
		Artifacts: std.Artifacts(reg),
	})

	errc := make(chan error, 1)
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	// SIGHUP hot-reloads the rule packs (the POST /v1/rules/reload of the
	// signal world): re-read, re-lint, swap atomically; a failed reload
	// logs the findings and keeps the running set.
	hupc := make(chan os.Signal, 1)
	signal.Notify(hupc, syscall.SIGHUP)
	go func() {
		for range hupc {
			out := srv.ReloadRules()
			if out.OK {
				fmt.Fprintf(os.Stderr, "diffcoded: SIGHUP: rules reloaded (epoch %d, %d rules)\n", out.Epoch, out.Rules)
				continue
			}
			if out.Report != nil {
				fmt.Fprint(os.Stderr, out.Report.Render())
			}
			if out.Err != "" {
				fmt.Fprintf(os.Stderr, "diffcoded: SIGHUP: %s\n", out.Err)
			}
			fmt.Fprintf(os.Stderr, "diffcoded: SIGHUP: reload failed, keeping rule set epoch %d\n", out.Epoch)
		}
	}()
	go func() { errc <- srv.ListenAndServe(*addr) }()

	// Wait for the listener to bind so the address line is accurate.
	for srv.Addr() == "" {
		select {
		case err := <-errc:
			fmt.Fprintf(os.Stderr, "diffcoded: %v\n", err)
			os.Exit(1)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	fmt.Fprintf(os.Stderr, "diffcoded: serving on http://%s (healthz, readyz, metrics, v1/check, v1/analyze)\n", srv.Addr())

	select {
	case err := <-errc:
		if err != nil {
			fmt.Fprintf(os.Stderr, "diffcoded: %v\n", err)
			os.Exit(1)
		}
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "diffcoded: %v: draining (budget %s)\n", sig, *drain)
		rep := srv.Drain()
		fmt.Fprintf(os.Stderr, "diffcoded: drain complete: %d finished, %d dropped\n", rep.Finished, rep.Dropped)
		dumpTraces(srv.Traces(), std.Trace())
		flush(reg, *metrics, *verbose)
		if rep.Dropped > 0 {
			os.Exit(1)
		}
	}
	flush(reg, *metrics, *verbose)
}

// dumpTraces writes the retained-trace buffer to stderr at shutdown: one
// summary line per trace in text mode, the full records in JSON mode. No-op
// when tracing is off (st is nil).
func dumpTraces(st *trace.Store, mode cliutil.TraceMode) {
	if st == nil || !mode.On() {
		return
	}
	recs := st.List()
	if mode == cliutil.TraceJSON {
		b, err := json.MarshalIndent(recs, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "diffcoded: rendering traces: %v\n", err)
			return
		}
		fmt.Fprintln(os.Stderr, string(b))
		return
	}
	fmt.Fprintf(os.Stderr, "diffcoded: %d retained trace(s), newest first:\n", len(recs))
	for _, r := range recs {
		line := fmt.Sprintf("  %s %s %dµs spans=%d retained=%s", r.ID, r.Name, r.DurUs, r.Spans, r.Retained)
		if r.Category != "" {
			line += " [" + r.Category + "]"
		}
		fmt.Fprintln(os.Stderr, line)
	}
}

// flush writes the final metrics snapshot and summary; it is idempotent
// enough for the two exit paths (a second write of the same snapshot file
// is harmless).
func flush(reg *obs.Registry, path string, verbose bool) {
	if verbose {
		fmt.Fprint(os.Stderr, reg.Summary())
	}
	if path != "" {
		if err := obs.WriteSnapshotFile(path, reg, false); err != nil {
			fmt.Fprintf(os.Stderr, "diffcoded: writing metrics snapshot: %v\n", err)
		}
	}
}

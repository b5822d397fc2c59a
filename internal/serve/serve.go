// Package serve is the checker-as-a-service boundary: a long-running
// HTTP/JSON front-end over the request-scoped entry points of
// internal/core, hardened for the ROADMAP's "millions of users, heavy
// traffic" deployment shape. Every request flows through the same ladder:
//
//		admission → guard → analyze → respond
//
//	  - admission: a concurrency limiter sized off the analysis worker pool
//	    plus a bounded queue with deadline-aware load shedding (429 +
//	    Retry-After once the predicted queue wait exceeds the request's
//	    deadline). Overload turns into fast, honest rejections instead of a
//	    convoy of timeouts.
//	  - guard: each admitted request runs under resilience.Guard with a
//	    per-request step/wall budget derived from its context deadline, so a
//	    pathological snippet — a panic, an interpreter stall — returns a
//	    structured 422/504 and the process survives. One request can never
//	    take down the fleet member.
//	  - degradation: sustained shedding trips a circuit-style degraded mode
//	    that disables expensive options (witness provenance) until the queue
//	    drains; degraded responses advertise it.
//	  - drain: on SIGTERM the server stops admitting (503 + /readyz down),
//	    finishes in-flight requests within a drain budget, and reports any
//	    it had to drop.
//
// Everything is observable under serve.* in the shared obs registry:
// request/shed/degraded/failure counters, queue depth and inflight gauges,
// per-endpoint latency and queue-wait histograms.
package serve

import (
	"context"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/summary"
	"repro/internal/trace"

	"repro/internal/core"
)

// Options configures the analysis server.
type Options struct {
	// Checker carries the per-request pipeline configuration (workers,
	// default step/wall budgets, metrics). Checker.Workers sizes the pool
	// *inside* one request; cross-request parallelism comes from
	// MaxConcurrent. The default (1) maximizes sustained throughput —
	// admission-level concurrency already saturates the cores.
	Checker core.Options
	// Rules is the rule set /v1/check evaluates (default: all).
	Rules []*rules.Rule
	// RulePacks are the rule-pack file paths behind the active set, kept
	// for hot reload: SIGHUP or POST /v1/rules/reload re-reads, re-lints,
	// and atomically swaps them in. Empty disables reload (and the
	// rules_epoch field, keeping responses byte-identical to a build
	// without pack support).
	RulePacks []string
	// RulesLax mirrors -rules-lax for reloads: a pack with error-level
	// lint findings still swaps in (broken rules skipped). Off, a failed
	// lint keeps the previous rule set live.
	RulesLax bool
	// MaxConcurrent bounds concurrently running analyses (default:
	// GOMAXPROCS, matching the worker pool the batch CLIs would use).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for a slot; one more is shed with
	// 429 (default 64).
	MaxQueue int
	// RequestTimeout is the per-request wall deadline (default 10s); a
	// request's timeout_ms can only tighten it.
	RequestTimeout time.Duration
	// DrainTimeout bounds how long Drain waits for in-flight requests
	// (default 15s).
	DrainTimeout time.Duration
	// DegradeThreshold sheds within DegradeWindow trip degraded mode for
	// DegradeCooldown (defaults 8 / 2s / 5s; threshold <= 0 disables).
	DegradeThreshold int
	DegradeWindow    time.Duration
	DegradeCooldown  time.Duration
	// MaxBodyBytes bounds a request body (default 8 MiB).
	MaxBodyBytes int64
	// Now is the degrader's clock (tests inject a fake; default wall clock).
	Now func() time.Time
	// Tracer enables per-request hierarchical tracing: every API request
	// gets a root span (X-Trace-Id header, trace_id response field) with the
	// pipeline's stages as children, retained by tail-based sampling and
	// inspectable at /debug/traces. Nil keeps tracing off — every response
	// is then byte-identical to an untraced build.
	Tracer *trace.Tracer
	// TraceStore tunes the tail-based retention buffer behind /debug/traces
	// (zero values take the trace.StoreOptions defaults). Only consulted
	// when Tracer is set.
	TraceStore trace.StoreOptions
	// Artifacts is the server's process-lifetime artifact store: repeated
	// /v1/check and /v1/analyze requests over identical snippets resolve
	// from cache, and concurrent identical requests share one analysis
	// (per-key single-flight). Nil makes New build a private in-memory
	// store — server-side caching is on by default because responses are
	// byte-identical either way; pass a disk-backed store (-cache-dir) to
	// persist artifacts across restarts.
	Artifacts *artifact.Store
	// DisableArtifacts turns server-side artifact caching off entirely
	// (every request analyzes live). Chaos/fault-injection harnesses that
	// count analysis executions per request need this; production callers
	// should not.
	DisableArtifacts bool
}

func (o Options) withDefaults() Options {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 64
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 15 * time.Second
	}
	if o.DegradeThreshold == 0 {
		o.DegradeThreshold = 8
	}
	if o.DegradeWindow <= 0 {
		o.DegradeWindow = 2 * time.Second
	}
	if o.DegradeCooldown <= 0 {
		o.DegradeCooldown = 5 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 8 << 20
	}
	if len(o.Rules) == 0 {
		o.Rules = rules.All()
	}
	if o.Checker.Workers == 0 {
		o.Checker.Workers = 1
	}
	return o
}

// Server is one fault-contained analysis service instance.
type Server struct {
	opts   Options
	reg    *obs.Registry
	adm    *admission
	deg    *degrader
	mux    *http.ServeMux
	tracer *trace.Tracer
	traces *trace.Store

	// rstate is the live rule set, swapped atomically by ReloadRules so
	// in-flight requests keep the set they started with.
	rstate   atomic.Pointer[ruleState]
	reloadMu sync.Mutex // serializes reloads (epoch bumps are strictly ordered)

	draining atomic.Bool
	inflight atomic.Int64
	done     sync.WaitGroup // in-flight API requests, for drain accounting

	httpMu  sync.Mutex
	httpSrv *http.Server
	addr    string
}

// New builds a server; it serves nothing until Serve/ListenAndServe (or a
// test drives Handler directly).
func New(opts Options) *Server {
	opts = opts.withDefaults()
	reg := opts.Checker.Metrics
	if opts.DisableArtifacts {
		opts.Artifacts = nil
	} else if opts.Artifacts == nil {
		opts.Artifacts = artifact.New(artifact.Config{Metrics: reg})
	}
	// The checker owns the cache lookups; every request-scoped checker and
	// DiffCode the handlers build inherits this store.
	opts.Checker.Artifacts = opts.Artifacts
	// One process-lifetime summary table: the per-request checkers the
	// handlers build all share it, so method summaries recorded for one
	// request serve every later request over the same sources (and persist
	// through the artifact store when one is disk-backed).
	if opts.Checker.Summaries == nil {
		opts.Checker.Summaries = summary.NewTable(opts.Artifacts, reg)
	}
	s := &Server{
		opts:   opts,
		reg:    reg,
		adm:    newAdmission(opts.MaxConcurrent, opts.MaxQueue, reg),
		deg:    newDegrader(opts.DegradeThreshold, opts.DegradeWindow, opts.DegradeCooldown, opts.Now, reg),
		tracer: opts.Tracer,
	}
	// Epoch 0 means "no packs configured": the rules_epoch field stays off
	// the wire and every response is byte-identical to a pack-less build.
	// With packs, the set loaded at startup is epoch 1.
	epoch := int64(0)
	if len(opts.RulePacks) > 0 {
		epoch = 1
	}
	s.rstate.Store(newRuleState(opts.Rules, epoch))
	if s.tracer != nil {
		s.traces = trace.NewStore(opts.TraceStore, reg)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/check", s.api("check", s.handleCheck))
	mux.HandleFunc("/v1/analyze", s.api("analyze", s.handleAnalyze))
	mux.HandleFunc("/v1/rules/reload", s.handleRulesReload)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	if s.traces != nil {
		// Registered only when tracing is on, so an untraced server's URL
		// space (and its 404 surface) stays exactly what it was.
		mux.HandleFunc("/debug/traces", s.handleTraceList)
		mux.HandleFunc("/debug/traces/", s.handleTraceDetail)
	}
	if reg != nil {
		mux.Handle("/debug/", obs.NewDebugMux(reg))
	}
	s.mux = mux
	return s
}

// Traces returns the server's retained-trace buffer (nil when tracing is
// off); the CLI dumps it at shutdown.
func (s *Server) Traces() *trace.Store { return s.traces }

// Handler returns the server's HTTP handler (tests mount it directly).
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the server's registry (nil when uninstrumented).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// ListenAndServe binds addr and serves until Drain or a listener error.
// The bound address is reachable via Addr (useful with ":0").
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve serves on ln until Drain or a listener error.
func (s *Server) Serve(ln net.Listener) error {
	srv := &http.Server{Handler: s.mux}
	s.httpMu.Lock()
	s.httpSrv = srv
	s.addr = ln.Addr().String()
	s.httpMu.Unlock()
	err := srv.Serve(ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Addr returns the bound listen address ("" before Serve).
func (s *Server) Addr() string {
	s.httpMu.Lock()
	defer s.httpMu.Unlock()
	return s.addr
}

// DrainReport is the outcome of a graceful drain.
type DrainReport struct {
	// Finished counts API requests that were in flight when the drain
	// began and completed within the budget.
	Finished int64
	// Dropped counts API requests still running when the budget expired.
	Dropped int64
}

// Drain executes the graceful-shutdown sequence: stop admitting (new API
// requests get 503, /readyz goes down), wait for in-flight requests up to
// the drain budget, then close the listener. The report says whether every
// in-flight request got its response — the SIGTERM contract is zero
// dropped within the budget.
func (s *Server) Drain() DrainReport {
	s.draining.Store(true)
	s.reg.Gauge("serve.draining").Set(1)
	atStart := s.inflight.Load()

	finished := make(chan struct{})
	go func() {
		s.done.Wait()
		close(finished)
	}()
	budget := time.NewTimer(s.opts.DrainTimeout)
	defer budget.Stop()
	var report DrainReport
	select {
	case <-finished:
		report.Finished = atStart
	case <-budget.C:
		report.Dropped = s.inflight.Load()
		report.Finished = atStart - report.Dropped
	}

	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpMu.Unlock()
	if srv != nil {
		// In-flight work is already accounted for; give lingering
		// connections a moment to flush and then cut them off.
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}
	s.reg.Counter("serve.drain.finished").Add(report.Finished)
	s.reg.Counter("serve.drain.dropped").Add(report.Dropped)
	return report
}

// Draining reports whether the server has begun its drain sequence.
func (s *Server) Draining() bool { return s.draining.Load() }

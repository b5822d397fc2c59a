// Package parallel is the execution layer of the mining pipeline: a
// stdlib-only bounded worker pool with cooperative context cancellation,
// deterministic ordered fan-in, and chunked range splitting for 2-D
// (triangular) workloads. The paper's DiffCode mines ~72k code changes and
// clusters their usage changes per class (§5–6); every hot path it feeds —
// per-change analysis, the O(n²) clustering distance matrix, per-project
// rule checking — is embarrassingly parallel, and this package scales them
// across cores while keeping output byte-identical to the serial pipeline.
//
// Determinism contract: tasks are indexed 0..n-1 and results land at their
// index (ordered fan-in), so the observable output of ForEach/Map never
// depends on completion order or worker count. A pool with one worker (or a
// nil *Pool) runs tasks inline on the calling goroutine — the exact serial
// path, with no goroutines spawned and no pool telemetry recorded.
//
// Failure contract: tasks that can panic must guard themselves (the
// pipeline wraps per-change work in resilience.Guard, which converts panics
// into ledger entries). A panic that escapes a task anyway does not crash
// or deadlock the pool: the workers drain, and the first escaped panic
// value is re-raised on the calling goroutine, matching what the serial
// loop would have done.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Pool is a bounded worker pool. The zero value and the nil pool are valid
// and run everything serially; construct with New for real parallelism.
type Pool struct {
	workers int
	reg     *obs.Registry
}

// New returns a pool with the given worker count, recording pool telemetry
// into reg (nil reg disables it). workers < 1 defaults to GOMAXPROCS.
func New(workers int, reg *obs.Registry) *Pool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, reg: reg}
}

// Workers returns the pool's worker count (1 for a nil or zero pool).
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// Serial reports whether the pool runs tasks inline on the calling
// goroutine (the exact serial path).
func (p *Pool) Serial() bool { return p.Workers() == 1 }

// ForEach runs fn(i) for every i in [0, n), distributing indices across the
// pool's workers. Dispatch order is 0, 1, 2, ... on every worker count.
//
// Cancellation is cooperative: once ctx is done no new index is dispatched,
// but in-flight tasks run to completion (a task that must stop early checks
// its own budget — see resilience.Budget). A nil ctx never cancels.
//
// With one worker the loop runs inline on the calling goroutine with no
// goroutines, channels, or telemetry — byte-identical to a hand-written
// serial loop. With more, per-task latency, per-worker busy time, and queue
// depth are recorded into the pool's registry under pool.*.
func (p *Pool) ForEach(ctx context.Context, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if p.Serial() {
		for i := 0; i < n; i++ {
			if ctx != nil && ctx.Err() != nil {
				return
			}
			fn(i)
		}
		return
	}
	reg := p.pReg()
	workers := p.Workers()
	if workers > n {
		workers = n
	}
	reg.Gauge("pool.workers").Set(int64(p.Workers()))
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Pointer[panicValue]
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var busy time.Duration
			for {
				if ctx != nil && ctx.Err() != nil {
					break
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					break
				}
				reg.Gauge("pool.queue_depth").Set(int64(n - i - 1))
				busy += p.runTask(fn, i, &panicked)
			}
			if reg != nil {
				reg.Histogram("pool.busy.us").Observe(busy.Microseconds())
			}
		}()
	}
	wg.Wait()
	reg.Gauge("pool.queue_depth").Set(0)
	if pv := panicked.Load(); pv != nil {
		panic(pv.v)
	}
}

// panicValue boxes a recovered panic so an atomic.Pointer can carry it.
type panicValue struct{ v any }

// runTask executes one task, timing it and capturing an escaped panic (the
// first one wins; the rest are dropped so the pool always drains).
func (p *Pool) runTask(fn func(int), i int, panicked *atomic.Pointer[panicValue]) (busy time.Duration) {
	defer func() {
		if r := recover(); r != nil {
			panicked.CompareAndSwap(nil, &panicValue{v: r})
		}
	}()
	reg := p.pReg()
	if reg == nil {
		fn(i)
		return 0
	}
	start := reg.Now()
	defer func() {
		busy = reg.Now().Sub(start)
		reg.Histogram("pool.task.us").Observe(busy.Microseconds())
		reg.Counter("pool.tasks").Inc()
	}()
	fn(i)
	return busy
}

// pReg returns the pool's registry (nil on a nil pool).
func (p *Pool) pReg() *obs.Registry {
	if p == nil {
		return nil
	}
	return p.reg
}

// Map runs fn over [0, n) on the pool and returns the results in index
// order — the deterministic ordered fan-in primitive. Slots whose task was
// never dispatched (cancellation) hold the zero value of T.
func Map[T any](p *Pool, ctx context.Context, n int, fn func(i int) T) []T {
	out := make([]T, n)
	p.ForEach(ctx, n, func(i int) { out[i] = fn(i) })
	return out
}

// ForEachCtx is ForEach with trace propagation: when ctx carries a traced
// span, each task runs under a trace.Fanout child named "<name>[i]" whose
// sibling ordinal is the task index — so the snapshot of the parent orders
// task spans by index, not by completion, and the trace fingerprint is
// identical at every worker count. Task spans structure the tree only and
// are not timed into a registry, so under an untraced or metrics-only ctx
// the tasks see ctx unchanged and the only extra cost is one check,
// preserving the byte-identical serial path.
func (p *Pool) ForEachCtx(ctx context.Context, name string, n int, fn func(ctx context.Context, i int)) {
	parent := trace.FromContext(ctx)
	if !parent.Traced() {
		p.ForEach(ctx, n, func(i int) { fn(ctx, i) })
		return
	}
	p.ForEach(ctx, n, func(i int) {
		sp := parent.Fanout(name, i)
		defer sp.End()
		fn(trace.NewContext(ctx, sp), i)
	})
}

// MapCtx is Map with the same per-task trace propagation as ForEachCtx.
func MapCtx[T any](p *Pool, ctx context.Context, name string, n int, fn func(ctx context.Context, i int) T) []T {
	out := make([]T, n)
	p.ForEachCtx(ctx, name, n, func(c context.Context, i int) { out[i] = fn(c, i) })
	return out
}

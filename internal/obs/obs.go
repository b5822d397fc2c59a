// Package obs is the observability layer of the pipeline: a stdlib-only
// metrics and tracing substrate sized for mining runs of the paper's scale
// (§6.1: 114,940 commits over 2,711 projects), where the only way to
// diagnose a slow or degraded batch is telemetry from the analyzer itself.
//
// The primitives are deliberately small:
//
//   - Counter / Gauge: atomic int64s registered by name.
//   - Histogram: fixed power-of-two buckets with atomic per-bucket counts,
//     used for per-change latencies and step distributions.
//   - Stage: the sink internal/trace reports every ended span into
//     (ObserveSpan) — a span.<stage>.us histogram, a span.<stage>.count
//     counter, and the slowest task per stage with its provenance label.
//     There is no span type here: a stage is one trace.Span.
//
// A nil *Registry is valid everywhere and turns every operation into a
// no-op costing one nil check, so the uninstrumented happy path of the
// pipeline is unchanged (the same convention resilience.Budget and
// resilience.Ledger use). All operations on a non-nil Registry are safe
// for concurrent use by the mining worker pool.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds the named metrics of one pipeline run.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	stages   map[string]*stage
	// now is the clock of metrics-only spans and pool task timing;
	// replaceable for deterministic tests.
	now func() time.Time
}

// stage is the aggregate of one span stage: its span.<stage>.us histogram
// and span.<stage>.count counter (also registered in hists/counters) and
// its worst-case task.
type stage struct {
	hist     *Histogram
	count    *Counter
	slowTask string
	slowDur  time.Duration
}

// NewRegistry returns an empty registry using the wall clock.
func NewRegistry() *Registry { return NewRegistryClock(time.Now) }

// NewRegistryClock returns a registry with a custom clock (tests use a
// deterministic fake so metrics-only span durations are reproducible).
func NewRegistryClock(now func() time.Time) *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		stages:   map[string]*stage{},
		now:      now,
	}
}

// Now reads the registry's clock (the wall clock on a nil registry). The
// parallel worker pool and metrics-only spans time work through this
// accessor, so their durations honor the injectable test clock.
func (r *Registry) Now() time.Time {
	if r == nil {
		return time.Now()
	}
	return r.now()
}

// Counter returns the named counter, creating it on first use. On a nil
// registry it returns nil, which is a valid no-op counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Nil-safe.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// ObserveSpan records one ended span of the named stage: its duration in
// microseconds into span.<stage>.us, one tick of span.<stage>.count, and,
// when task is non-empty, the task as the stage's slowest if no earlier
// task took longer. trace.Span.End is the caller. Nil-safe.
func (r *Registry) ObserveSpan(name, task string, d time.Duration) {
	if r == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	r.mu.Lock()
	st, ok := r.stages[name]
	if !ok {
		st = &stage{hist: newHistogram(), count: &Counter{}}
		r.stages[name] = st
		r.hists["span."+name+".us"] = st.hist
		r.counters["span."+name+".count"] = st.count
	}
	if task != "" && (st.slowTask == "" || d > st.slowDur) {
		st.slowTask, st.slowDur = task, d
	}
	r.mu.Unlock()
	st.hist.Observe(d.Microseconds())
	st.count.Inc()
}

// counterNames returns the registered counter names, sorted.
func (r *Registry) counterNames() []string {
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Counter is a monotonically increasing atomic counter. A nil *Counter is
// a valid no-op.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. A nil *Gauge is a valid no-op.
type Gauge struct{ v atomic.Int64 }

// Set stores the value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// numBuckets is the fixed bucket count: bucket i holds observations with
// value <= 2^i, plus one overflow bucket. 2^40 covers ~12 days in
// microseconds and ~10^12 interpreter steps — beyond any per-change span.
const numBuckets = 41

// Histogram is a fixed-bucket histogram with power-of-two bucket bounds
// (bucket i counts observations <= 2^i; the last bucket is the overflow).
// Negative observations clamp to zero. A nil *Histogram is a valid no-op.
type Histogram struct {
	buckets [numBuckets + 1]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid when count > 0
	max     atomic.Int64

	// exemplar labels the largest observation seen so far (the slowest
	// request's trace ID); the lock is off the Observe fast path entirely —
	// only ObserveExemplar takes it.
	exMu sync.Mutex
	exV  int64
	ex   string
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(int64(^uint64(0) >> 1)) // MaxInt64 sentinel
	return h
}

// bucketOf returns the index of the smallest bucket bound >= v.
func bucketOf(v int64) int {
	for i := 0; i < numBuckets; i++ {
		if v <= 1<<uint(i) {
			return i
		}
	}
	return numBuckets
}

// BucketBound returns the upper bound of bucket i (the overflow bucket
// reports the largest regular bound; quantiles saturate there).
func BucketBound(i int) int64 {
	if i >= numBuckets {
		i = numBuckets - 1
	}
	return 1 << uint(i)
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// ObserveExemplar records one value and, when label is non-empty, keeps it
// as the histogram's exemplar if this is the largest observation so far.
// The server links its slowest trace ID to each latency histogram this way,
// so an operator can jump from "p99 is bad" straight to a retained trace.
func (h *Histogram) ObserveExemplar(v int64, label string) {
	if h == nil {
		return
	}
	h.Observe(v)
	if label == "" {
		return
	}
	if v < 0 {
		v = 0
	}
	h.exMu.Lock()
	if v >= h.exV || h.ex == "" {
		h.exV, h.ex = v, label
	}
	h.exMu.Unlock()
}

// Exemplar returns the label of the largest observation recorded through
// ObserveExemplar ("" when none, or on nil).
func (h *Histogram) Exemplar() string {
	if h == nil {
		return ""
	}
	h.exMu.Lock()
	defer h.exMu.Unlock()
	return h.ex
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile returns the upper bucket bound at or below which at least
// q (0..1) of the observations fall — a conservative estimate with
// power-of-two resolution. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := 0; i <= numBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= target {
			return BucketBound(i)
		}
	}
	return BucketBound(numBuckets)
}

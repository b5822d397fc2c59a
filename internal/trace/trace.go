// Package trace is the span layer of the pipeline: a stage is one span.
// Spans nest into a tree of timed, attributed units of work per request or
// per pipeline run (the -trace dump and /debug/traces), and a span that
// carries an *obs.Registry also reports its duration there when it ends —
// the data behind the -v stage table and the -metrics snapshot. A span
// opened without a tracer is metrics-only: it keeps no children and no
// attributes, so -v without -trace builds no tree. Children inherit their
// parent's tracer, registry, and task label.
//
// The design follows the conventions the rest of the codebase already
// relies on:
//
//   - Nil safety: a nil *Tracer and a nil *Span are valid everywhere and
//     turn every operation into a no-op costing one nil check, exactly like
//     obs.Registry and resilience.Budget. With tracing off the pipeline's
//     output is byte-identical to an untraced build.
//   - Determinism: the ID source and the clock are injectable, and the
//     canonical form of a finished trace (Snapshot → Fingerprint) depends
//     only on tree structure, span names, ordering keys, categories, and
//     attributes — never on IDs, wall-clock times, or goroutine scheduling.
//     The same request traced at -workers 1 and -workers 8 fingerprints
//     identically.
//   - Concurrency: spans from the same trace may be started and ended from
//     different worker goroutines; per-span state is mutex-guarded, and the
//     deterministic child ordering uses explicit ordinals (the worker pool
//     tags each task span with its task index).
//
// A trace is built top-down: Open (or Tracer.Root) opens the root span,
// Span.Child / Span.ChildOrd open nested spans, and context propagation
// (NewContext / FromContext / Start / Stage) threads the current span
// through the pipeline without widening every call signature.
package trace

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Attr is one key/value annotation on a span. Values are strings so the
// wire form is stable; numeric attributes are formatted by the caller.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Tracer mints spans. The zero Tracer is not usable; construct with New or
// NewTracer. A nil *Tracer is a valid no-op tracer.
type Tracer struct {
	now func() time.Time
	ids func() uint64
	seq atomic.Uint64 // backing sequence for the default ID source
}

// New returns a tracer using the wall clock and a process-local sequential
// ID source (IDs are unique within the process; traces are scoped to one
// process, so that is all uniqueness the inspector needs).
func New() *Tracer { return NewTracer(nil, nil) }

// NewTracer returns a tracer with an injectable ID source and clock; nil
// selects the defaults. Golden tests inject both so trace IDs and rendered
// durations are byte-stable. Injected sources must be safe for concurrent
// use (spans are minted from worker goroutines), like the defaults.
func NewTracer(ids func() uint64, now func() time.Time) *Tracer {
	t := &Tracer{ids: ids, now: now}
	if t.now == nil {
		t.now = time.Now
	}
	if t.ids == nil {
		t.ids = func() uint64 { return t.seq.Add(1) }
	}
	return t
}

// Root opens a new trace: a parentless span whose ID doubles as the trace
// ID. Nil-safe: a nil tracer returns a nil (inert) span.
func (t *Tracer) Root(name string) *Span { return Open(t, nil, name) }

// Open opens a root span reporting into reg: a traced root under t, a
// metrics-only root when t is nil, and nil — the inert span — when both
// are nil.
func Open(t *Tracer, reg *obs.Registry, name string) *Span {
	switch {
	case t != nil:
		return &Span{tracer: t, reg: reg, name: name, id: t.ids(), start: t.now(), ord: -1}
	case reg != nil:
		return &Span{reg: reg, name: name, start: reg.Now(), ord: -1}
	}
	return nil
}

// Span is one timed unit of work. All methods are safe on a nil span
// (no-ops), and safe for concurrent use on a shared span (the worker pool
// attaches child spans from many goroutines).
type Span struct {
	tracer *Tracer // nil on a metrics-only span
	reg    *obs.Registry
	name   string
	id     uint64
	start  time.Time
	// ord is the deterministic ordering key among siblings: the task index
	// for fan-out task spans, the serial creation ordinal otherwise.
	ord int
	// treeOnly marks a pool fan-out span (Fanout): it structures the tree
	// but reports no duration of its own.
	treeOnly bool

	mu       sync.Mutex
	end      time.Time
	ended    bool
	category string
	task     string // the slowest-task label reported with the duration
	attrs    []Attr
	children []*Span
	nextOrd  int
}

// now reads the span's clock: the tracer's, or on a metrics-only span the
// registry's (which tests replace for deterministic stage tables).
func (s *Span) now() time.Time {
	if s.tracer != nil {
		return s.tracer.now()
	}
	return s.reg.Now()
}

// Child opens a child span. Sibling order is the serial creation order,
// which is deterministic exactly when the children are created from one
// goroutine; concurrent creators must use ChildOrd with an explicit
// ordinal (the worker pool does). Nil-safe.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	ord := s.nextOrd
	s.nextOrd++
	s.mu.Unlock()
	return s.ChildOrd(name, ord)
}

// ChildOrd opens a child span with an explicit sibling ordinal — the
// deterministic ordering key for spans created concurrently (the worker
// pool passes the task index). A metrics-only parent keeps no reference to
// its children. Nil-safe.
func (s *Span) ChildOrd(name string, ord int) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tracer: s.tracer, reg: s.reg, name: name, ord: ord}
	if s.tracer != nil {
		c.id = s.tracer.ids()
	}
	c.start = c.now()
	s.mu.Lock()
	c.task = s.task
	if s.tracer != nil {
		s.children = append(s.children, c)
	}
	s.mu.Unlock()
	return c
}

// Task opens the span of task i of a fan-out: a child named "name[i]"
// whose sibling ordinal is i, so a snapshot orders the tasks by index, not
// by completion, and the trace fingerprint is the same at every worker
// count. Under a metrics-only span the index is not formatted: the registry
// reads only the stage. Nil-safe.
func (s *Span) Task(name string, i int) *Span {
	if s == nil {
		return nil
	}
	if s.tracer != nil {
		name += "[" + strconv.Itoa(i) + "]"
	}
	return s.ChildOrd(name, i)
}

// Fanout opens the span of worker-pool task i under a traced span: a Task
// that only structures the tree. It reports no duration of its own — the
// stage around the fan-out reports the total — so the registry reads the
// same with or without a tracer; spans opened inside it report as usual.
// Under a nil or metrics-only span it returns nil and costs nothing.
func (s *Span) Fanout(name string, i int) *Span {
	if !s.Traced() {
		return nil
	}
	c := s.Task(name, i)
	c.treeOnly = true
	return c
}

// Traced reports whether the span belongs to a trace tree (false on a nil
// or metrics-only span).
func (s *Span) Traced() bool { return s != nil && s.tracer != nil }

// End closes the span. Ending twice keeps the first end time; ending a nil
// span is a no-op. The first End of a span with a registry reports the
// duration there, under the span's stage — its name up to any "[i]" task
// index — and its task label (a Fanout span reports nothing).
func (s *Span) End() {
	if s == nil {
		return
	}
	now := s.now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.end, s.ended = now, true
	task := s.task
	s.mu.Unlock()
	if s.reg != nil && !s.treeOnly {
		stage := s.name
		if i := strings.IndexByte(stage, '['); i > 0 {
			stage = stage[:i]
		}
		s.reg.ObserveSpan(stage, task, now.Sub(s.start))
	}
}

// SetTask labels the unit of work the span measures (a change, a class)
// for the registry's slowest-task column; children opened afterwards
// inherit it. Nil-safe.
func (s *Span) SetTask(label string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.task = label
	s.mu.Unlock()
}

// SetAttr appends one annotation. Attribute order is append order; for a
// deterministic trace, attach attributes from the goroutine that owns the
// span. A no-op on a nil or metrics-only span.
func (s *Span) SetAttr(key, value string) {
	if s == nil || s.tracer == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// Annotate marks the span with a failure category from the ledger taxonomy
// ("panic", "budget", "canceled", "shed", ...). The first annotation wins;
// an empty category is ignored. Nil-safe.
func (s *Span) Annotate(category string) {
	if s == nil || category == "" {
		return
	}
	s.mu.Lock()
	if s.category == "" {
		s.category = category
	}
	s.mu.Unlock()
}

// Category returns the span's failure category ("" when it succeeded or on
// a nil span).
func (s *Span) Category() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.category
}

// TraceID renders the span's ID as the 16-hex-digit trace identifier (the
// root span's ID is the trace ID). Empty on a nil or metrics-only span.
func (s *Span) TraceID() string {
	if s == nil || s.tracer == nil {
		return ""
	}
	return fmt.Sprintf("%016x", s.id)
}

// ---------------------------------------------------------------------------
// Context propagation
// ---------------------------------------------------------------------------

type ctxKey struct{}

// NewContext returns ctx carrying the span as the current span.
func NewContext(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the current span of ctx (nil when ctx is untraced —
// the nil span is inert, so callers never need to check).
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// Start opens a child of ctx's current span and returns a context carrying
// it. On an untraced ctx both returns are inert (the original ctx and a nil
// span), so the traced and untraced paths share one call site.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	return Stage(ctx, nil, name)
}

// Stage is Start for a pipeline entry point that owns a registry: the
// child reports into reg (nil: its parent's registry), and on a ctx without
// a span Stage opens a metrics-only root over reg instead. With neither a
// span nor a registry it costs one context lookup and a nil check.
func Stage(ctx context.Context, reg *obs.Registry, name string) (context.Context, *Span) {
	var s *Span
	if parent := FromContext(ctx); parent != nil {
		s = parent.Child(name)
		if reg != nil {
			s.reg = reg
		}
	} else if s = Open(nil, reg, name); s == nil {
		return ctx, nil
	}
	return NewContext(ctx, s), s
}

// Detach returns a fresh background context carrying only ctx's current
// span: trace propagation without ctx's deadline or cancellation. The batch
// pipeline uses this where budgets must stay unbound from a batch's cancel
// context while task spans still attach to the right parent.
func Detach(ctx context.Context) context.Context {
	return NewContext(context.Background(), FromContext(ctx))
}

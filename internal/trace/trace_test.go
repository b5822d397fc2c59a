package trace

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeClock returns a deterministic clock advancing stepUs per call.
// Injected clocks must be safe for concurrent use, like time.Now.
func fakeClock(stepUs int64) func() time.Time {
	base := time.Unix(1700000000, 0)
	var calls atomic.Int64
	return func() time.Time {
		return base.Add(time.Duration(calls.Add(1)*stepUs) * time.Microsecond)
	}
}

// fakeIDs returns a deterministic sequential ID source.
func fakeIDs() func() uint64 {
	var n uint64
	var mu sync.Mutex
	return func() uint64 {
		mu.Lock()
		defer mu.Unlock()
		n++
		return n
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	s := tr.Root("x")
	if s != nil {
		t.Fatal("nil tracer minted a span")
	}
	// Every span operation must be a no-op on nil.
	s.End()
	s.SetAttr("k", "v")
	s.Annotate("panic")
	if s.Child("c") != nil || s.ChildOrd("c", 1) != nil {
		t.Error("nil span minted a child")
	}
	if s.TraceID() != "" || s.Category() != "" {
		t.Error("nil span has identity")
	}
	if Snapshot(s) != nil {
		t.Error("nil span snapshots to non-nil")
	}
	ctx, sp := Start(context.Background(), "stage")
	if sp != nil || FromContext(ctx) != nil {
		t.Error("untraced context produced a live span")
	}
	var st *Store
	if st.Offer(&Record{}) || st.Len() != 0 || st.Get("x") != nil || st.List() != nil {
		t.Error("nil store retained something")
	}
}

func TestHierarchyAndContext(t *testing.T) {
	tr := NewTracer(fakeIDs(), fakeClock(10))
	root := tr.Root("run")
	ctx := NewContext(context.Background(), root)
	ctx2, stage := Start(ctx, "mine")
	if FromContext(ctx2) != stage {
		t.Fatal("Start did not install the child span")
	}
	_, inner := Start(ctx2, "parse")
	inner.SetAttr("file", "A.java")
	inner.End()
	stage.End()
	root.End()

	d := Snapshot(root)
	if d.Name != "run" || len(d.Children) != 1 || d.Children[0].Name != "mine" {
		t.Fatalf("unexpected tree: %s", d.Render())
	}
	if got := d.Children[0].Children[0].Attrs[0]; got.Key != "file" || got.Value != "A.java" {
		t.Errorf("attr lost: %+v", got)
	}
	if root.TraceID() != fmt.Sprintf("%016x", 1) {
		t.Errorf("trace ID = %q", root.TraceID())
	}
}

func TestDetach(t *testing.T) {
	tr := NewTracer(fakeIDs(), fakeClock(1))
	root := tr.Root("run")
	ctx, cancel := context.WithCancel(NewContext(context.Background(), root))
	cancel()
	d := Detach(ctx)
	if d.Err() != nil {
		t.Error("Detach kept the cancellation")
	}
	if FromContext(d) != root {
		t.Error("Detach dropped the span")
	}
}

// TestDeterministicOrdering pins the central contract: children created
// concurrently with explicit ordinals snapshot in ordinal order, so the
// fingerprint is independent of scheduling.
func TestDeterministicOrdering(t *testing.T) {
	fingerprint := func() string {
		tr := NewTracer(fakeIDs(), fakeClock(3))
		root := tr.Root("batch")
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c := root.ChildOrd(fmt.Sprintf("task[%d]", i), i)
				c.SetAttr("idx", fmt.Sprint(i))
				c.End()
			}(i)
		}
		wg.Wait()
		root.End()
		return Snapshot(root).Fingerprint()
	}
	want := fingerprint()
	for round := 0; round < 8; round++ {
		if got := fingerprint(); got != want {
			t.Fatalf("round %d: fingerprint %s != %s", round, got, want)
		}
	}
}

// TestFingerprintIgnoresTimesAndIDs: the same structure under different
// clocks and ID sources fingerprints identically, and a structural change
// (name, category, attr) changes it.
func TestFingerprintIgnoresTimesAndIDs(t *testing.T) {
	build := func(ids func() uint64, now func() time.Time, category string) string {
		tr := NewTracer(ids, now)
		root := tr.Root("check")
		c := root.Child("interpret")
		c.Annotate(category)
		c.End()
		root.End()
		return Snapshot(root).Fingerprint()
	}
	a := build(fakeIDs(), fakeClock(5), "")
	var wild uint64 = 1000
	b := build(func() uint64 { wild += 17; return wild }, fakeClock(999), "")
	if a != b {
		t.Errorf("fingerprint depends on IDs or clock: %s vs %s", a, b)
	}
	if c := build(fakeIDs(), fakeClock(5), "budget"); c == a {
		t.Error("fingerprint ignores the failure category")
	}
}

func TestRenderAndWaterfall(t *testing.T) {
	tr := NewTracer(fakeIDs(), fakeClock(100))
	root := tr.Root("check")
	p := root.Child("parse")
	p.End()
	i := root.Child("interpret")
	i.SetAttr("steps", "42")
	i.Annotate("budget")
	i.End()
	root.End()
	d := Snapshot(root)

	text := d.Render()
	for _, want := range []string{"check ", "  parse ", "  interpret ", "[budget]", "steps=42"} {
		if !strings.Contains(text, want) {
			t.Errorf("Render missing %q:\n%s", want, text)
		}
	}
	wf := d.Waterfall()
	if !strings.Contains(wf, "█") || !strings.Contains(wf, "[budget]") {
		t.Errorf("waterfall missing bars or category:\n%s", wf)
	}
	if lines := strings.Count(wf, "\n"); lines != 3 {
		t.Errorf("waterfall has %d lines, want 3:\n%s", lines, wf)
	}
	if !strings.Contains(d.JSON(), `"name": "interpret"`) {
		t.Errorf("JSON missing span: %s", d.JSON())
	}
}

func TestSnapshotUnended(t *testing.T) {
	tr := NewTracer(fakeIDs(), fakeClock(10))
	root := tr.Root("run")
	root.Child("hung") // never ended
	root.End()
	d := Snapshot(root)
	if len(d.Children) != 1 || d.Children[0].DurUs != 0 {
		t.Errorf("unended child should snapshot with zero duration: %+v", d.Children[0])
	}
}

func record(id, category string, durUs int64) *Record {
	return &Record{ID: id, Name: "check", DurUs: durUs, Category: category,
		Root: &SpanData{Name: "check", DurUs: durUs, Category: category}}
}

func TestStoreTailPolicy(t *testing.T) {
	st := NewStore(StoreOptions{Capacity: 8, SlowUs: 1000, SampleEvery: 4}, nil)
	// Failures and slow traces are always retained.
	if !st.Offer(record("f1", "budget", 10)) {
		t.Error("failed trace dropped")
	}
	if !st.Offer(record("s1", "", 5000)) {
		t.Error("slow trace dropped")
	}
	if st.Get("f1").Retained != RetainFailure || st.Get("s1").Retained != RetainSlow {
		t.Error("retention reasons wrong")
	}
	// Fast healthy traces sample 1-in-4: the first of each window of four.
	kept := 0
	for i := 0; i < 8; i++ {
		if st.Offer(record(fmt.Sprintf("h%d", i), "", 10)) {
			kept++
		}
	}
	if kept != 2 {
		t.Errorf("sampled %d of 8 healthy traces, want 2", kept)
	}
	if st.Get("h0").Retained != RetainSampled {
		t.Error("sampled trace lost its reason")
	}
}

func TestStoreRingEviction(t *testing.T) {
	st := NewStore(StoreOptions{Capacity: 4, SlowUs: 1, SampleEvery: 1}, nil)
	for i := 0; i < 10; i++ {
		st.Offer(record(fmt.Sprintf("t%d", i), "", 100))
	}
	if st.Len() != 4 {
		t.Fatalf("Len = %d, want 4", st.Len())
	}
	list := st.List()
	if list[0].ID != "t9" || list[3].ID != "t6" {
		t.Errorf("List order wrong: %s .. %s", list[0].ID, list[3].ID)
	}
	if st.Get("t0") != nil {
		t.Error("evicted trace still retrievable")
	}
	if st.Get("t9") == nil {
		t.Error("newest trace missing")
	}
}

func TestStoreSampleEveryOne(t *testing.T) {
	st := NewStore(StoreOptions{Capacity: 8, SlowUs: 1 << 40, SampleEvery: 1}, nil)
	for i := 0; i < 5; i++ {
		if !st.Offer(record(fmt.Sprintf("t%d", i), "", 1)) {
			t.Fatal("SampleEvery=1 must keep everything")
		}
	}
}

// TestEndFeedsRegistry: ending a span that carries a registry observes the
// stage histogram and count and keeps the slowest task's label — from
// concurrent workers, on a traced and on a metrics-only root alike.
func TestEndFeedsRegistry(t *testing.T) {
	for _, tr := range []*Tracer{New(), nil} {
		reg := obs.NewRegistry()
		root := Open(tr, reg, "run")
		const tasks = 16
		var wg sync.WaitGroup
		for i := 0; i < tasks; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c := root.ChildOrd(fmt.Sprintf("task[%d]", i), i)
				c.SetTask(fmt.Sprintf("change %d", i))
				if i == 7 {
					time.Sleep(20 * time.Millisecond)
				}
				c.End()
				c.End() // a second End reports nothing
			}(i)
		}
		wg.Wait()
		root.End()
		s := obs.TakeSnapshot(reg, false)
		if s.Counters["span.task.count"] != tasks || s.Histograms["span.task.us"].Count != tasks {
			t.Errorf("tracer %v: task stage = %d count / %+v", tr != nil, s.Counters["span.task.count"], s.Histograms["span.task.us"])
		}
		if s.Counters["span.run.count"] != 1 {
			t.Errorf("tracer %v: root stage count = %d", tr != nil, s.Counters["span.run.count"])
		}
		if got := s.Slowest["task"].Task; got != "change 7" {
			t.Errorf("tracer %v: slowest task = %q, want change 7", tr != nil, got)
		}
		if _, ok := s.Slowest["run"]; ok {
			t.Errorf("tracer %v: an unlabeled span named a slowest task", tr != nil)
		}
	}
}

// TestNoTracerNoRegistryIsNoOp: a span opened with neither a tracer nor a
// registry is the nil span, and Stage on a bare context opens nothing.
func TestNoTracerNoRegistryIsNoOp(t *testing.T) {
	if s := Open(nil, nil, "run"); s != nil {
		t.Fatalf("Open(nil, nil) = %v, want nil", s)
	}
	ctx := context.Background()
	sctx, sp := Stage(ctx, nil, "stage")
	if sp != nil || sctx != ctx {
		t.Error("Stage without a span or a registry opened a span")
	}
	sp.SetTask("x")
	sp.End()
}

// TestMetricsOnlyKeepsNoChildren: a metrics-only span reports every stage
// but retains no tree and no attributes, and has no trace identity.
func TestMetricsOnlyKeepsNoChildren(t *testing.T) {
	reg := obs.NewRegistry()
	ctx, root := Stage(context.Background(), reg, "run")
	root.SetTask("change p@c1:A.java")
	cctx, c := Start(ctx, "parse")
	c.SetAttr("files", "1")
	_, g := Start(cctx, "file[0]")
	g.End()
	c.End()
	root.End()
	if len(root.children) != 0 || len(c.children) != 0 || len(c.attrs) != 0 {
		t.Errorf("metrics-only spans retained %d/%d children, %d attrs",
			len(root.children), len(c.children), len(c.attrs))
	}
	if root.TraceID() != "" {
		t.Errorf("metrics-only TraceID = %q", root.TraceID())
	}
	s := obs.TakeSnapshot(reg, false)
	for _, stage := range []string{"run", "parse", "file"} {
		if s.Counters["span."+stage+".count"] != 1 {
			t.Errorf("span.%s.count = %d, want 1", stage, s.Counters["span."+stage+".count"])
		}
		if got := s.Slowest[stage].Task; got != "change p@c1:A.java" {
			t.Errorf("slowest[%s] = %q, want the inherited task label", stage, got)
		}
	}
}

// TestStageUnderUnmeteredParent: Stage with a registry under a traced span
// that reports nowhere keeps the child in the tree and meters it.
func TestStageUnderUnmeteredParent(t *testing.T) {
	reg := obs.NewRegistry()
	root := New().Root("request")
	_, c := Stage(NewContext(context.Background(), root), reg, "check")
	c.End()
	root.End()
	if d := Snapshot(root); len(d.Children) != 1 || d.Children[0].Name != "check" {
		t.Errorf("tree = %s", d.Render())
	}
	s := obs.TakeSnapshot(reg, false)
	if s.Counters["span.check.count"] != 1 || s.Counters["span.request.count"] != 0 {
		t.Errorf("counters = %v", s.Counters)
	}
}

// TestTaskAndFanout: a Task span is a metered child named "name[i]" with
// ordinal i; a Fanout span is the same in a traced tree but reports no
// duration of its own (its children do), and under a metrics-only span it
// is not opened at all — so the registry reads the same either way.
func TestTaskAndFanout(t *testing.T) {
	for _, tr := range []*Tracer{New(), nil} {
		reg := obs.NewRegistry()
		root := Open(tr, reg, "run")
		task := root.Task("change", 3)
		f := root.Fanout("file", 1)
		_, inner := Start(NewContext(context.Background(), f), "interpret")
		if tr == nil {
			if f != nil || inner != nil {
				t.Error("metrics-only: Fanout opened a span")
			}
			_, inner = Start(NewContext(context.Background(), root), "interpret")
		}
		inner.End()
		f.End()
		task.End()
		root.End()
		if tr != nil {
			d := Snapshot(root)
			if len(d.Children) != 2 || d.Children[0].Name != "file[1]" || d.Children[1].Name != "change[3]" {
				t.Errorf("traced tree = %s", d.Render())
			}
		}
		s := obs.TakeSnapshot(reg, false)
		want := map[string]int64{"span.run.count": 1, "span.change.count": 1, "span.interpret.count": 1}
		for name, n := range s.Counters {
			if n != want[name] {
				t.Errorf("tracer %v: %s = %d, want %d", tr != nil, name, n, want[name])
			}
		}
		if len(s.Counters) != len(want) {
			t.Errorf("tracer %v: counters = %v, want %v", tr != nil, s.Counters, want)
		}
	}
}

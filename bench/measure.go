package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// metricDef names one reported metric and its unit. The lists below must
// equal BENCHMARK.json's end_to_end and per_layer lists; the smoke test
// enforces that.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"p50_ms", "ms"},
	{"peak_heap_mb", "MB"},
	{"alloc_mb", "MB"},
}

// perLayer are the metrics a traced run reports (--trace 1). Layer times in
// ms appear only for the layers every workload calls (parse, interpret);
// for the others the JSON carries the layer's share of the traced wall time,
// because a time that reads 0 on every run of a workload that never calls
// the layer is indistinguishable from a broken timer. The human-readable
// layer table printed above the JSON has every layer in ms.
var perLayer = []metricDef{
	{"traced_ms", "ms"},
	{"parse.ms", "ms"},
	{"parse.alloc_mb", "MB"},
	{"parse.files", "count"},
	{"parse.mb_per_s", "MB/s"},
	{"interpret.ms", "ms"},
	{"interpret.alloc_mb", "MB"},
	{"interpret.steps", "count"},
	{"summary.hits", "count"},
	{"summary.misses", "count"},
	{"summary.hit_ratio", "ratio"},
	{"mining.share", "%"},
	{"usage.share", "%"},
	{"change.share", "%"},
	{"cluster.share", "%"},
	{"rules.share", "%"},
	{"witness.share", "%"},
	{"eval.share", "%"},
	{"mining.changes", "count"},
	{"usage.graphs", "count"},
	{"change.usage_changes", "count"},
	{"change.survivors", "count"},
	{"cluster.pairs", "count"},
	{"rules.evaluated", "count"},
	{"rules.violations", "count"},
	{"witness.traces", "count"},
	{"artifact.hits", "count"},
	{"artifact.misses", "count"},
	{"artifact.mb_written", "MB"},
	{"artifact.mb_read", "MB"},
	{"core.unattributed_ms", "ms"},
	{"trace.overhead", "ratio"},
	{"trace.coverage", "ratio"},
	{"gc.cycles", "count"},
	{"gc.cpu_fraction", "ratio"},
}

// setupRepeats is how many times every workload builds its inputs and
// system; setup_s is the median.
const setupRepeats = 3

// median returns the middle of xs (the mean of the two middle values for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method, which extrapolates for tiny samples), since that is how the
// benchmark's acceptance spread is defined.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of their median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// timeSetup builds a workload's state setupRepeats times and returns the
// last one with the median build time in seconds. Earlier states are handed
// to discard (a server has to be stopped).
func timeSetup[T any](build func() (T, error), discard func(T)) (T, float64, error) {
	var st T
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 && discard != nil {
			discard(st)
		}
		t0 := time.Now()
		var err error
		st, err = build()
		if err != nil {
			return st, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return st, median(secs), nil
}

// repeatFor calls op at least once, and again while another call as long
// as the previous one would end within budget; it returns each call's wall
// time in seconds.
func repeatFor(budget time.Duration, op func()) []float64 {
	var walls []float64
	start := time.Now()
	last := time.Duration(0)
	for len(walls) == 0 || time.Since(start)+last <= budget {
		t0 := time.Now()
		op()
		last = time.Since(t0)
		walls = append(walls, last.Seconds())
	}
	return walls
}

// runtime/metrics names the benchmark reads.
const (
	mHeapObjects = "/memory/classes/heap/objects:bytes"
	mHeapAllocs  = "/gc/heap/allocs:bytes"
	mGCCycles    = "/gc/cycles/total:gc-cycles"
	mGCCPU       = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU    = "/cpu/classes/total:cpu-seconds"
)

// readMetrics reads the named runtime metrics as float64s.
func readMetrics(names ...string) []float64 {
	samples := make([]metrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := make([]float64, len(names))
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

const mb = 1 << 20

// measure calls op like repeatFor while sampling the live heap every
// 10 ms. It returns each call's wall time in seconds, the median over calls
// of the largest live heap sampled during the call, and the MB allocated
// per call.
func measure(budget time.Duration, op func()) (walls []float64, peakMB, allocMB float64) {
	var mu sync.Mutex
	var peak float64 // largest sample since the current call began
	var peaks []float64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		sample := []metrics.Sample{{Name: mHeapObjects}}
		for {
			metrics.Read(sample)
			mu.Lock()
			peak = math.Max(peak, float64(sample[0].Value.Uint64()))
			mu.Unlock()
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	alloc0 := readMetrics(mHeapAllocs)[0]
	walls = repeatFor(budget, func() {
		op()
		mu.Lock()
		peaks = append(peaks, peak)
		peak = 0
		mu.Unlock()
	})
	close(stop)
	wg.Wait()
	return walls, median(peaks) / mb, (readMetrics(mHeapAllocs)[0] - alloc0) / mb / float64(len(walls))
}

// failures collects the failed operations and output checks of one run.
// A run with any entry is incorrect and exits non-zero.
type failures struct {
	attempted, failed int
	problems          []string
}

// maxProblems bounds the failure messages a run keeps; the count is exact.
const maxProblems = 20

// op records one attempted operation; a non-nil err marks it failed.
func (f *failures) op(err error) {
	f.attempted++
	if err != nil {
		f.failed++
		f.note(err)
	}
}

// note records a failed check that is not tied to one operation.
func (f *failures) note(err error) {
	if len(f.problems) < maxProblems {
		f.problems = append(f.problems, err.Error())
	}
}

// firstDiff describes where two outputs first differ.
func firstDiff(want, got string) error {
	if want == got {
		return nil
	}
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	lo := max(0, i-40)
	return fmt.Errorf("output differs at byte %d: want %q, got %q",
		i, want[lo:min(len(want), i+40)], got[lo:min(len(got), i+40)])
}

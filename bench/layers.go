package main

import (
	"fmt"
	"io"
	"runtime/metrics"
	"time"

	"repro/internal/obs"
)

// The layers a traced pass attributes time to, in pipeline order. Each is a
// call (or a tight group of calls) into one layer package's public API; the
// group field maps them onto the per-layer JSON metrics.
var layerNames = []struct{ name, group string }{
	{"mining.collect", "mining"},
	{"parse", "parse"},
	{"interpret", "interpret"},
	{"mining.uses_class", "mining"},
	{"usage.build", "usage"},
	{"usage.pair", "usage"},
	{"change.diff", "change"},
	{"change.filter", "change"},
	{"cluster.dist", "cluster"},
	{"cluster.agglomerate", "cluster"},
	{"rules", "rules"},
	{"witness", "witness"},
	{"eval.figure7", "eval"},
	{"eval.figure10", "eval"},
	{"eval.elicit", "eval"},
}

// layerStat is the accumulated cost of one layer over a traced pass.
type layerStat struct {
	Calls      int64   `json:"calls"`
	Ms         float64 `json:"ms"`
	AllocBytes float64 `json:"alloc_bytes"`
}

// layers times calls into the layer packages. With on unset it only runs
// them, which is the untraced twin of a traced pass (the trace.overhead
// baseline). A traced pass is serial, so heap allocation between the two
// reads of a call belongs to that call.
type layers struct {
	on     bool
	stats  map[string]*layerStat
	sample []metrics.Sample
	// reg receives the counters the layer packages report themselves
	// (summary hits, interpreter steps, witness traces).
	reg *obs.Registry
}

func newLayers(on bool) *layers {
	return &layers{
		on:     on,
		stats:  map[string]*layerStat{},
		sample: []metrics.Sample{{Name: mHeapAllocs}},
		reg:    obs.NewRegistry(),
	}
}

func (l *layers) allocs() float64 {
	metrics.Read(l.sample)
	return float64(l.sample[0].Value.Uint64())
}

// do runs f as one call into the named layer.
func (l *layers) do(name string, f func()) {
	if !l.on {
		f()
		return
	}
	a0 := l.allocs()
	t0 := time.Now()
	f()
	d := time.Since(t0)
	a1 := l.allocs()
	st := l.stats[name]
	if st == nil {
		st = &layerStat{}
		l.stats[name] = st
	}
	st.Calls++
	st.Ms += float64(d) / float64(time.Millisecond)
	st.AllocBytes += a1 - a0
}

// count reads one of the layer packages' own counters.
func (l *layers) count(name string) float64 {
	return float64(obs.TakeSnapshot(l.reg, false).Counters[name])
}

// attributedMs is the time spent inside layer calls.
func (l *layers) attributedMs() float64 {
	total := 0.0
	for _, st := range l.stats {
		total += st.Ms
	}
	return total
}

// tracedPass is what one traced iteration of a workload measured.
type tracedPass struct {
	l *layers
	// tracedMs and untracedMs are the same rebuilt pipeline with and
	// without layer timing; productMs is the product's own serial entry
	// point on the same inputs.
	tracedMs, untracedMs, productMs float64
	// counts are per-layer work counts the workload derives from its
	// outputs (usage graphs, survivors, artifact traffic, ...); a count a
	// workload does not set reads 0.
	counts map[string]float64
}

// layerMetrics reduces the traced iterations of a run to the per_layer
// metrics (medians over iterations) plus GC figures over the whole run.
func layerMetrics(passes []tracedPass, gcCycles, gcCPU float64) map[string]float64 {
	per := map[string][]float64{}
	add := func(k string, v float64) { per[k] = append(per[k], v) }
	for _, p := range passes {
		groupMs := map[string]float64{}
		for _, ln := range layerNames {
			if st := p.l.stats[ln.name]; st != nil {
				groupMs[ln.group] += st.Ms
			}
		}
		stat := func(name string) layerStat {
			if st := p.l.stats[name]; st != nil {
				return *st
			}
			return layerStat{}
		}
		parse, interp := stat("parse"), stat("interpret")
		add("traced_ms", p.tracedMs)
		add("parse.ms", parse.Ms)
		add("parse.alloc_mb", parse.AllocBytes/mb)
		add("parse.files", p.l.count("parse.files"))
		if parse.Ms > 0 {
			add("parse.mb_per_s", p.l.count("parse.bytes")/mb/(parse.Ms/1000))
		}
		add("interpret.ms", interp.Ms)
		add("interpret.alloc_mb", interp.AllocBytes/mb)
		add("interpret.steps", p.l.count("analysis.steps"))
		hits, misses := p.l.count("summary.hits"), p.l.count("summary.misses")
		add("summary.hits", hits)
		add("summary.misses", misses)
		add("summary.hit_ratio", hits/max(1, hits+misses))
		for _, g := range []string{"mining", "usage", "change", "cluster", "rules", "witness", "eval"} {
			add(g+".share", 100*groupMs[g]/p.tracedMs)
		}
		add("witness.traces", p.l.count("witness.traces"))
		for k, v := range p.counts {
			add(k, v)
		}
		add("core.unattributed_ms", p.productMs-p.l.attributedMs())
		add("trace.overhead", p.tracedMs/p.untracedMs)
		add("trace.coverage", p.l.attributedMs()/p.tracedMs)
	}
	out := map[string]float64{"gc.cycles": gcCycles, "gc.cpu_fraction": gcCPU}
	for _, d := range perLayer {
		if _, ok := out[d.name]; !ok {
			out[d.name] = median(per[d.name])
		}
	}
	return out
}

// layerTable averages a run's traced iterations per layer for the -out
// record and the printed table.
func layerTable(passes []tracedPass) map[string]layerStat {
	out := map[string]layerStat{}
	for _, p := range passes {
		for name, st := range p.l.stats {
			t := out[name]
			t.Calls += st.Calls
			t.Ms += st.Ms / float64(len(passes))
			t.AllocBytes += st.AllocBytes / float64(len(passes))
			out[name] = t
		}
	}
	for name, t := range out {
		t.Calls /= int64(len(passes))
		out[name] = t
	}
	return out
}

// printLayerTable writes the per-layer time and allocation of one traced
// iteration (mean over the run's iterations).
func printLayerTable(w io.Writer, table map[string]layerStat, tracedMs float64) {
	fmt.Fprintf(w, "%-22s %10s %10s %8s %12s\n", "layer", "calls", "ms", "share", "alloc_mb")
	for _, ln := range layerNames {
		st, ok := table[ln.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-22s %10d %10.1f %7.1f%% %12.1f\n",
			ln.name, st.Calls, st.Ms, 100*st.Ms/tracedMs, st.AllocBytes/mb)
	}
}

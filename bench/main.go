// Command bench is the repository's benchmark: four seeded workloads run
// through the product's public entry points, with their outputs checked,
// reporting the end-to-end metrics of BENCHMARK.json (--trace 0) or a
// serial per-layer split of the same work (--trace 1).
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload check-why --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --seed 1 --runs 1 --out run.json    # every workload, both modes
//	bash bench/run.sh --compare old.json new.json         # deltas against bounds
//
// One workload run prints its metrics by name and unit, then a last line
// holding one JSON object: {"correct", "attempted", "failed", "metrics"}.
// A failed output check makes it exit 1. See bench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// sizes fixes how much work each workload does; the smoke test shrinks it.
type sizes struct {
	paper, incr, serve corpusSize
	// warmRuns is the number of warm re-runs after each cold incremental run.
	warmRuns int
	// programs is the number of generated check-why programs.
	programs int
	// serveOpen requests arrive open-loop at busyRPS, then serveBurst more
	// are sent closed-loop, per serve-mix round.
	serveOpen, serveBurst int
}

var benchSizes = sizes{
	paper:      paperCorpus,
	incr:       incrCorpus,
	serve:      serveCorpus,
	warmRuns:   5,
	programs:   2000,
	serveOpen:  2000,
	serveBurst: 2000,
}

// workloads maps each BENCHMARK.json workload to its runner.
var workloads = []struct {
	name string
	run  func(*run) error
}{
	{"paper-eval", runPaperEval},
	{"incremental", runIncremental},
	{"check-why", runCheckWhy},
	{"serve-mix", runServeMix},
}

// run is one workload run: its parameters and what it measured.
type run struct {
	workload string
	seed     int64
	budget   time.Duration
	trace    bool
	// workers is the core.Options.Workers of every end-to-end call: one
	// per CPU, like GOMAXPROCS.
	workers int
	sizes   sizes

	setup      float64
	fail       failures
	metrics    map[string]float64
	props      map[string]float64
	layerTable map[string]layerStat
	notes      []string
}

// e2e records the end-to-end metrics: the samples of wall_s and p50_ms in
// seconds, and measure's peak heap and allocation in MB.
func (r *run) e2e(iterWalls, opLatencies []float64, peakMB, allocMB float64) {
	r.metrics = map[string]float64{
		"setup_s":      r.setup,
		"wall_s":       median(iterWalls),
		"p50_ms":       1000 * median(opLatencies),
		"peak_heap_mb": peakMB,
		"alloc_mb":     allocMB,
	}
	r.note("wall_s samples (s) %.3f; %d p50_ms samples", iterWalls, len(opLatencies))
}

// traced repeats one traced iteration until the budget is spent and
// records the per-layer metrics.
func (r *run) traced(iter func() tracedPass) {
	gc0 := readMetrics(mGCCycles, mGCCPU, mTotalCPU)
	var passes []tracedPass
	repeatFor(r.budget, func() { passes = append(passes, iter()) })
	gc1 := readMetrics(mGCCycles, mGCCPU, mTotalCPU)
	r.metrics = layerMetrics(passes, gc1[0]-gc0[0], (gc1[1]-gc0[1])/(gc1[2]-gc0[2]))
	r.layerTable = layerTable(passes)
	r.props["summary_hit_ratio"] = r.metrics["summary.hit_ratio"]
}

// tracedIteration times the product's serial path, then the rebuilt
// pipeline untraced and traced, each from a freshly collected heap so that
// one pass's garbage is not charged to the next. Both return an error when
// their outputs differ from the expected ones; rebuild also returns its
// work counts.
func (r *run) tracedIteration(product func() error, rebuild func(*layers) (map[string]float64, error)) tracedPass {
	timed := func(f func()) float64 {
		runtime.GC()
		t0 := time.Now()
		f()
		return msSince(t0)
	}
	p := tracedPass{counts: map[string]float64{}}
	p.productMs = timed(func() { r.fail.op(product()) })
	for _, on := range []bool{false, true} {
		l := newLayers(on)
		var counts map[string]float64
		ms := timed(func() {
			var err error
			counts, err = rebuild(l)
			r.fail.op(err)
		})
		if !on {
			p.untracedMs = ms
			continue
		}
		p.l, p.tracedMs = l, ms
		for k, v := range counts {
			p.counts[k] = v
		}
	}
	return p
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run in an -out file.
type record struct {
	Workload   string               `json:"workload"`
	Seed       int64                `json:"seed"`
	Trace      bool                 `json:"trace"`
	Result     result               `json:"result"`
	Properties map[string]float64   `json:"properties"`
	Layers     map[string]layerStat `json:"layers,omitempty"`
	Problems   []string             `json:"problems,omitempty"`
}

// runSet is the content of an -out file.
type runSet struct {
	Seconds    float64  `json:"seconds"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Runs       []record `json:"runs"`
}

func (r *run) record() record {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	res := result{
		Correct:   r.fail.failed == 0 && len(r.fail.problems) == 0 && r.fail.attempted > 0,
		Attempted: r.fail.attempted,
		Failed:    r.fail.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: r.metrics[d.name], Unit: d.unit}
	}
	return record{
		Workload: r.workload, Seed: r.seed, Trace: r.trace, Result: res,
		Properties: r.props, Layers: r.layerTable, Problems: r.fail.problems,
	}
}

// runWorkload runs one workload and prints its report; the last line of
// standard output is the result JSON.
func runWorkload(w io.Writer, name string, seed int64, seconds float64, trace bool, sz sizes) (record, error) {
	r := &run{
		workload: name, seed: seed, trace: trace, sizes: sz,
		budget:  time.Duration(seconds * float64(time.Second)),
		workers: runtime.NumCPU(),
		props:   map[string]float64{},
	}
	var fn func(*run) error
	for _, wl := range workloads {
		if wl.name == name {
			fn = wl.run
		}
	}
	if fn == nil {
		return record{}, fmt.Errorf("unknown workload %q", name)
	}
	if err := fn(r); err != nil {
		return record{}, fmt.Errorf("%s: %w", name, err)
	}
	rec := r.record()
	mode := "end-to-end"
	if trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s seed %d, %s, GOMAXPROCS %d\n", name, seed, mode, runtime.GOMAXPROCS(0))
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	if r.layerTable != nil {
		printLayerTable(w, r.layerTable, r.metrics["traced_ms"])
	}
	printValues(w, "property", r.props, nil)
	units := map[string]string{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	metrics := map[string]float64{}
	for k, v := range rec.Result.Metrics {
		metrics[k] = v.Value
	}
	printValues(w, "metric", metrics, units)
	for _, p := range rec.Problems {
		fmt.Fprintln(w, "FAILED CHECK:", p)
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		return rec, err
	}
	fmt.Fprintln(w, string(line))
	return rec, nil
}

func printValues(w io.Writer, kind string, vals map[string]float64, units map[string]string) {
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%-9s %-24s %14.4f %s\n", kind, k, vals[k], units[k])
	}
}

func writeSet(path string, set runSet) error {
	b, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readSet(path string) (runSet, error) {
	var set runSet
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &set)
	}
	if err != nil {
		return set, fmt.Errorf("reading run set %s: %w", path, err)
	}
	return set, nil
}

// runAll runs every workload untraced and traced, each run in a fresh
// process (one run's heap does not leak into the next's measurements),
// and returns every record.
func runAll(seed int64, seconds float64, runs int) (runSet, error) {
	set := runSet{Seconds: seconds, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	self, err := os.Executable()
	if err != nil {
		return set, err
	}
	tmp, err := os.MkdirTemp("", "bench-runs")
	if err != nil {
		return set, err
	}
	defer os.RemoveAll(tmp)
	var failed []string
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			for i := 0; i < runs; i++ {
				out := filepath.Join(tmp, fmt.Sprintf("%s-%d-%d.json", w.name, trace, i))
				cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed),
					"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", out)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					failed = append(failed, fmt.Sprintf("%s trace=%d: %v", w.name, trace, err))
				}
				one, err := readSet(out)
				if err != nil {
					failed = append(failed, err.Error())
					continue
				}
				set.Runs = append(set.Runs, one.Runs...)
			}
		}
	}
	if len(failed) > 0 {
		return set, errors.New(strings.Join(failed, "; "))
	}
	return set, nil
}

func main() {
	workload := flag.String("workload", "", "run only this workload (default: every workload, untraced and traced)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed makes the same inputs")
	seconds := flag.Float64("seconds", 20, "how long each run measures")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end measurement")
	runs := flag.Int("runs", 1, "runs per workload and mode when -workload is not set")
	out := flag.String("out", "", "write the runs of this invocation to this JSON file")
	compare := flag.String("compare", "", "print deltas against this earlier -out file; with a file argument, compare the two files without running")
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *trace, *runs, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds float64, trace, runs int, out, compare string, args []string) error {
	if compare != "" && len(args) == 1 {
		return compareFiles(compare, args[0])
	}
	if len(args) > 0 || (trace != 0 && trace != 1) || seconds <= 0 || runs < 1 {
		return errors.New("usage: bench [-workload name -trace 0|1] [-seed n] [-seconds s] [-runs n] [-out file] [-compare old.json [new.json]]")
	}
	var set runSet
	var runErr error
	if workload != "" {
		rec, err := runWorkload(os.Stdout, workload, seed, seconds, trace == 1, benchSizes)
		if err != nil {
			return err
		}
		set = runSet{Seconds: seconds, GOMAXPROCS: runtime.GOMAXPROCS(0), Runs: []record{rec}}
		if !rec.Result.Correct {
			runErr = errors.New("output checks failed")
		}
	} else {
		set, runErr = runAll(seed, seconds, runs)
	}
	if out != "" {
		if err := writeSet(out, set); err != nil {
			return err
		}
	}
	if compare != "" {
		old, err := readSet(compare)
		if err != nil {
			return err
		}
		if err := printComparison(old, set); err != nil {
			return err
		}
	}
	return runErr
}

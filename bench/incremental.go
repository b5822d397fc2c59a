package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/artifact"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cryptoapi"
	"repro/internal/distcache"
	"repro/internal/obs"
)

// incrCorpus is the paper's projects at a quarter of the commit volume
// (3,476 mined changes at seed 1): a cold run takes about a second, so a
// run holds a dozen cold-plus-warm sessions instead of three.
var incrCorpus = corpusSize{scale: 0.25, projects: 461, extra: 0}

// minePipeline is the incremental workload's product path: mine the corpus,
// extract and filter every target class, and cluster each class's
// survivors. A nil store is the storeless pipeline.
func minePipeline(c *corpus.Corpus, workers int, st *artifact.Store) (string, error) {
	d := core.New(core.Options{Workers: workers, Artifacts: st})
	analyzed := d.MineCorpus(c)
	var classes []classRun
	var roots []*cluster.Node
	for _, class := range cryptoapi.TargetClasses {
		res := d.RunClass(analyzed, class)
		classes = append(classes, classRun{class: class, stats: res.Stats, survivors: res.Survivors})
		var root *cluster.Node
		if len(res.Survivors) > 0 {
			root = d.ClusterChanges(res.Survivors)
		}
		roots = append(roots, root)
	}
	if n := d.Ledger().Len(); n > 0 {
		return "", fmt.Errorf("pipeline skipped %d changes: %s", n, d.Ledger().Report())
	}
	return survivorText(classes, roots), nil
}

// mineTracedAll rebuilds minePipeline (storeless, one worker) from the
// layer packages.
func mineTracedAll(l *layers, c *corpus.Corpus) (string, map[string]float64, error) {
	analyzed, err := mineTraced(l, c)
	if err != nil {
		return "", nil, err
	}
	eng := distcache.New(nil)
	var classes []classRun
	var roots []*cluster.Node
	for _, class := range cryptoapi.TargetClasses {
		r := classTraced(l, analyzed, class)
		classes = append(classes, r)
		roots = append(roots, clusterTraced(l, r.survivors, eng))
	}
	return survivorText(classes, roots), pipelineCounts(len(analyzed), classes), nil
}

// storeRun runs the pipeline over a fresh store on dir (a new process's
// view: nothing in memory, everything on disk) and returns its wall time.
func storeRun(c *corpus.Corpus, workers int, dir string, reg *obs.Registry, want string) (float64, error) {
	st := artifact.New(artifact.Config{Dir: dir, Metrics: reg})
	t0 := time.Now()
	got, err := minePipeline(c, workers, st)
	secs := time.Since(t0).Seconds()
	if err == nil {
		err = firstDiff(want, got)
	}
	return secs, err
}

// session is one incremental iteration: a cold run into an empty store
// directory, then warm re-runs over it. Every run must reproduce the
// storeless survivors, and no warm run may miss an analysis artifact.
func session(r *run, c *corpus.Corpus, want string, reg *obs.Registry) (cold float64, warm []float64) {
	dir, err := os.MkdirTemp("", "bench-incr")
	if err != nil {
		r.fail.op(err)
		return 0, nil
	}
	defer os.RemoveAll(dir)
	cold, err = storeRun(c, r.workers, dir, reg, want)
	r.fail.op(err)
	for i := 0; i < r.sizes.warmRuns; i++ {
		wreg := obs.NewRegistry()
		secs, err := storeRun(c, r.workers, dir, wreg, want)
		if err == nil {
			if n := obs.TakeSnapshot(wreg, false).Counters["artifact.analysis.misses"]; n != 0 {
				err = fmt.Errorf("warm run missed %d analysis artifacts", n)
			}
		}
		r.fail.op(err)
		warm = append(warm, secs)
		if reg != nil {
			for k, v := range obs.TakeSnapshot(wreg, false).Counters {
				reg.Counter(k).Add(v)
			}
		}
	}
	return cold, warm
}

func runIncremental(r *run) error {
	c, setup, err := timeSetup(func() (*corpus.Corpus, error) { return r.sizes.incr.generate(r.seed), nil }, nil)
	if err != nil {
		return err
	}
	r.setup = setup
	corpusProps(r, c)
	want, err := minePipeline(c, r.workers, nil)
	if err != nil {
		return fmt.Errorf("storeless reference run: %w", err)
	}

	if !r.trace {
		// wall_s is the median cold run, p50_ms the median warm re-run;
		// creating and deleting the store directory is not timed.
		var cold, warm []float64
		_, peak, alloc := measure(r.budget, func() {
			c, w := session(r, c, want, nil)
			cold, warm = append(cold, c), append(warm, w...)
		})
		r.e2e(cold, warm, peak, alloc)
		return nil
	}

	r.traced(func() tracedPass {
		// One instrumented session (untimed) counts the artifact traffic;
		// the store has no in-program spans to time it by.
		reg := obs.NewRegistry()
		cold, warm := session(r, c, want, reg)
		r.note("instrumented session: cold %.3f s, warm median %.3f s", cold, median(warm))
		p := r.tracedIteration(func() error {
			got, err := minePipeline(c, 1, nil)
			if err != nil {
				return err
			}
			return firstDiff(want, got)
		}, func(l *layers) (map[string]float64, error) {
			got, counts, err := mineTracedAll(l, c)
			if err != nil {
				return nil, err
			}
			return counts, firstDiff(want, got)
		})
		addArtifactCounts(&p, reg)
		return p
	})
	return nil
}

// addArtifactCounts copies the artifact store's traffic, counted by the
// registry passed to artifact.New, into a traced pass's counts.
func addArtifactCounts(p *tracedPass, reg *obs.Registry) {
	snap := obs.TakeSnapshot(reg, false).Counters
	p.counts["artifact.hits"] = float64(snap["artifact.hits"])
	p.counts["artifact.misses"] = float64(snap["artifact.misses"])
	p.counts["artifact.mb_written"] = float64(snap["artifact.bytes_written"]) / mb
	p.counts["artifact.mb_read"] = float64(snap["artifact.bytes_read"]) / mb
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json the comparison reads.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &s)
	}
	if err != nil {
		return s, fmt.Errorf("reading %s: %w", path, err)
	}
	return s, nil
}

// minRuns is the fewest runs per side that give a spread to judge by.
const minRuns = 3

// verdict classifies the move from old to new values of one end-to-end
// metric: worse or better when the medians differ by more than the bound,
// unresolved when either side has fewer than minRuns runs or a spread wider
// than the bound.
func verdict(old, new []float64, bound float64, lowerIsBetter bool) string {
	if len(old) < minRuns || len(new) < minRuns || spread(old) > bound || spread(new) > bound {
		return "unresolved"
	}
	d := relDelta(median(old), median(new))
	if !lowerIsBetter {
		d = -d
	}
	switch {
	case d > bound:
		return "worse"
	case d < -bound:
		return "better"
	}
	return "same"
}

func relDelta(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old
}

// series gathers one metric's values per workload and mode.
type series map[string]map[string][]float64

func collect(set runSet) (metrics series, layers series) {
	metrics, layers = series{}, series{}
	for _, rec := range set.Runs {
		key := rec.Workload + " end-to-end"
		if rec.Trace {
			key = rec.Workload + " traced"
		}
		if metrics[key] == nil {
			metrics[key], layers[key] = map[string][]float64{}, map[string][]float64{}
		}
		for name, v := range rec.Result.Metrics {
			metrics[key][name] = append(metrics[key][name], v.Value)
		}
		for name, st := range rec.Layers {
			layers[key][name+" ms"] = append(layers[key][name+" ms"], st.Ms)
		}
	}
	return metrics, layers
}

func compareFiles(oldPath, newPath string) error {
	old, err := readSet(oldPath)
	if err != nil {
		return err
	}
	new, err := readSet(newPath)
	if err != nil {
		return err
	}
	return printComparison(old, new)
}

// printComparison prints, per workload, the median of every metric and
// layer time in both sets and their relative delta; end-to-end metrics
// also get a verdict against their BENCHMARK.json bound.
func printComparison(old, new runSet) error {
	s, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	oldM, oldL := collect(old)
	newM, newL := collect(new)
	keys := make([]string, 0, len(newM))
	for k := range newM {
		if oldM[k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	fmt.Printf("%-34s %14s %14s %9s  %s\n", "metric", "old median", "new median", "delta", "verdict")
	for _, k := range keys {
		fmt.Printf("== %s\n", k)
		bounded := map[string]bool{}
		for _, m := range s.EndToEnd {
			o, n := oldM[k][m.Name], newM[k][m.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			bounded[m.Name] = true
			v := verdict(o, n, m.Bound, m.Better == "lower")
			fmt.Printf("%-34s %14.4f %14.4f %+8.1f%%  %s (bound %.0f%%, spread %.1f%% / %.1f%%)\n",
				m.Name, median(o), median(n), 100*relDelta(median(o), median(n)), v,
				100*m.Bound, 100*spread(o), 100*spread(n))
		}
		for _, group := range []map[string][]float64{newM[k], newL[k]} {
			names := make([]string, 0, len(group))
			for name := range group {
				if !bounded[name] {
					names = append(names, name)
				}
			}
			sort.Strings(names)
			for _, name := range names {
				o := oldM[k][name]
				if o == nil {
					o = oldL[k][name]
				}
				if o == nil {
					continue
				}
				n := group[name]
				fmt.Printf("%-34s %14.4f %14.4f %+8.1f%%\n", name, median(o), median(n), 100*relDelta(median(o), median(n)))
			}
		}
	}
	return nil
}

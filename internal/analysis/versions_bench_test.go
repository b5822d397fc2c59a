package analysis

import (
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/summary"
)

// BenchmarkAnalyzeVersions analyzes every distinct source version of a
// small generated corpus's commit histories, parsed once, over one fresh
// summary table per pass — the shape of a mining run, whose versions are
// many and small, so most of an analysis's bytes are its set-up.
func BenchmarkAnalyzeVersions(b *testing.B) {
	c := corpus.Generate(corpus.Config{Seed: 1, Scale: 0.1, Projects: 40})
	seen := map[string]bool{}
	var progs []*Program
	for _, p := range c.TrainingProjects() {
		for _, cm := range p.Commits {
			for _, src := range []string{cm.Old, cm.New} {
				if src == "" || seen[cm.File+"\x00"+src] {
					continue
				}
				seen[cm.File+"\x00"+src] = true
				progs = append(progs, ParseProgram(map[string]string{cm.File: src}))
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl := summary.NewTable(nil, nil)
		for _, prog := range progs {
			Analyze(prog, Options{Summaries: tbl})
		}
	}
	b.ReportMetric(float64(len(progs)), "versions")
}

// BenchmarkAnalyzeSnapshot analyzes the final snapshots of a generated
// corpus's projects as one program, the shape of a checker run over a
// source tree: 116 files, 271 field slots and 208 allocation sites in one
// analysis, whose entry states each bind the fields of one class.
func BenchmarkAnalyzeSnapshot(b *testing.B) {
	c := corpus.Generate(corpus.Config{Seed: 1, Scale: 0.1, Projects: 60})
	sources := map[string]string{}
	for _, p := range c.Projects {
		for path, src := range p.Files {
			sources[p.Name+"/"+path] = src
		}
	}
	prog := ParseProgram(sources)
	for _, why := range []bool{false, true} {
		b.Run(fmt.Sprintf("why=%t", why), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Analyze(prog, Options{Provenance: why, Summaries: summary.NewTable(nil, nil)})
			}
		})
	}
}

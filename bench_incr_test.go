package diffcode

// Benchmarks for the incremental artifact store (DESIGN.md §13). The number
// that matters is the warm/cold ratio: a re-run of the mining pipeline over
// an unchanged corpus with a populated -cache-dir must be at least 10x
// faster than the cold run that populated it — warm hits skip parsing and
// abstract interpretation entirely and only reinstantiate cached
// extractions.

import (
	"fmt"
	"testing"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cryptoapi"
)

// benchIncrCorpus is the shared incremental-benchmark workload: large enough
// that parse+interpret dominate a cold run, small enough for CI.
func benchIncrCorpus() *corpus.Corpus {
	return corpus.Generate(corpus.Config{Seed: 11, Scale: 0.4, Projects: 30, ExtraProjects: 3})
}

// benchMineOnce runs the full mining pipeline (mine + per-class filter)
// against a disk-backed artifact store over dir and returns the survivor
// count as a liveness check.
func benchMineOnce(c *corpus.Corpus, dir string) int {
	d := core.New(core.Options{
		Workers:   1,
		Artifacts: artifact.New(artifact.Config{Dir: dir}),
	})
	analyzed := d.MineCorpus(c)
	survivors := 0
	for _, class := range cryptoapi.TargetClasses {
		survivors += len(d.RunClass(analyzed, class).Survivors)
	}
	return survivors
}

// benchIncrAt runs the pipeline cold (a fresh artifact directory every
// iteration) or warm (every iteration over one pre-populated directory).
func benchIncrAt(c *corpus.Corpus, warm bool) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		var warmDir string
		if warm {
			warmDir = b.TempDir()
			benchMineOnce(c, warmDir)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dir := warmDir
			if !warm {
				b.StopTimer()
				dir = b.TempDir()
				b.StartTimer()
			}
			if benchMineOnce(c, dir) == 0 {
				b.Fatal("no survivors; workload exercises too little")
			}
		}
	}
}

// BenchmarkIncrementalMining compares a cold mining run (empty artifact
// directory) with a fully warm re-run over the same directory. The spread
// between the two sub-benchmarks is everything the artifact store saves:
// all parsing and all abstract interpretation.
func BenchmarkIncrementalMining(b *testing.B) {
	c := benchIncrCorpus()
	for _, warm := range []bool{false, true} {
		b.Run(fmt.Sprintf("warm=%t", warm), benchIncrAt(c, warm))
	}
}

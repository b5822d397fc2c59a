package analysis

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/summary"
)

// BenchmarkInterpretHelperChain interprets the committed helper-chain
// fixture, parsed once, over a fresh summary table per run: the
// interpreter-bound shape of the check-why workload, with why (provenance)
// off and on.
func BenchmarkInterpretHelperChain(b *testing.B) {
	src, err := os.ReadFile(filepath.Join("testdata", "HelperChain.java"))
	if err != nil {
		b.Fatal(err)
	}
	prog := ParseProgram(map[string]string{"HelperChain.java": string(src)})
	for _, c := range []struct {
		name string
		why  bool
	}{{"why=off", false}, {"why=on", true}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Analyze(prog, Options{Provenance: c.why, Summaries: summary.NewTable(nil, nil)})
			}
		})
	}
}

package diffcode

// Benchmark for the witness layer behind -why (DESIGN.md §10). The
// interpreter's provenance cost is measured by BenchmarkInterpretHelperChain
// in internal/analysis, with why off and on.

import (
	"context"
	"testing"

	"repro/internal/analysis"
	"repro/internal/rules"
	"repro/internal/witness"
)

// BenchmarkWitnessReconstruct measures the post-analysis witness layer:
// evidence location, provenance linearization, and rendering for every
// violation of the benchmark program. This cost is paid once per -why run,
// after the interpreter, and scales with violations rather than program size.
func BenchmarkWitnessReconstruct(b *testing.B) {
	res := analysis.Analyze(analysis.ParseProgram(benchSources()), analysis.Options{Provenance: true})
	ctx := rules.Context{}
	vs := rules.CheckPoolCtx(context.Background(), res, ctx, rules.All(), nil)
	if len(vs) == 0 {
		b.Fatal("benchmark program has no violations")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traces := witness.Collect(vs, res, ctx)
		if len(traces) == 0 {
			b.Fatal("no witness traces")
		}
		if witness.Render(traces) == "" {
			b.Fatal("empty rendering")
		}
	}
}

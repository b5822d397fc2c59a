package diffcode

// Benchmarks for the provenance-tracking interpreter behind -why (DESIGN.md
// §10). Provenance is observation-only and off by default; the number that
// matters is the overhead it adds to the interpreter's step loop when a user
// asks for witness traces — the acceptance bound is <10% ns/op over the
// tracking-off hot loop on the same pre-parsed program.

import (
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/rules"
	"repro/internal/witness"
)

// benchInterpreterAt runs the interpreter step loop on the shared benchmark
// program with provenance tracking on or off.
func benchInterpreterAt(provenance bool) func(*testing.B) {
	return func(b *testing.B) {
		prog := analysis.ParseProgram(benchSources())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := analysis.Analyze(prog, analysis.Options{Provenance: provenance})
			if len(res.Objs) == 0 {
				b.Fatal("no abstract objects")
			}
		}
	}
}

// BenchmarkInterpreterProvenance compares the interpreter hot loop with
// provenance tracking off (the default every non--why run takes) and on (the
// -why path). The off variant is the same workload as
// BenchmarkInterpreterHotLoop; the spread between the two sub-benchmarks is
// the whole cost of def-site tagging.
func BenchmarkInterpreterProvenance(b *testing.B) {
	for _, prov := range []bool{false, true} {
		b.Run(fmt.Sprintf("prov=%t", prov), benchInterpreterAt(prov))
	}
}

// BenchmarkWitnessReconstruct measures the post-analysis witness layer:
// evidence location, provenance linearization, and rendering for every
// violation of the benchmark program. This cost is paid once per -why run,
// after the interpreter, and scales with violations rather than program size.
func BenchmarkWitnessReconstruct(b *testing.B) {
	res := analysis.Analyze(analysis.ParseProgram(benchSources()), analysis.Options{Provenance: true})
	ctx := rules.Context{}
	vs := rules.Check(res, ctx, rules.All())
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

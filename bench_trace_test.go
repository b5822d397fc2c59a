package diffcode

// Benchmarks for the hierarchical tracing layer (DESIGN.md §12). Tracing is
// observation-only and off by default; the number that matters is the
// overhead a traced context adds to the interpreter's step loop — span
// minting, the step-count attribute, and the nil-checks the untraced path
// pays. The acceptance bound is <10% ns/op over the untraced hot loop on the
// same pre-parsed program.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/trace"
)

// benchInterpreterTracedAt runs the interpreter step loop on the shared
// benchmark program either on an untraced context (the default every
// non--trace run takes) or under a fresh root span per iteration (the
// traced path, including the span mint and End bookkeeping a real request
// pays).
func benchInterpreterTracedAt(traced bool) func(*testing.B) {
	return func(b *testing.B) {
		prog := analysis.ParseProgram(benchSources())
		tr := trace.New()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctx := context.Background()
			var root *trace.Span
			if traced {
				root = tr.Root("bench")
				ctx = trace.NewContext(ctx, root)
			}
			res, err := analysis.AnalyzeBudgetedCtx(ctx, prog, analysis.Options{})
			if err != nil || len(res.Objs) == 0 {
				b.Fatalf("analysis failed: %v", err)
			}
			root.End()
		}
	}
}

// BenchmarkInterpreterTraced compares the interpreter hot loop on an
// untraced context and under a traced one. The spread between the two
// sub-benchmarks is the whole per-request cost of tracing the interpreter
// stage: one span, one attribute, one End.
func BenchmarkInterpreterTraced(b *testing.B) {
	for _, traced := range []bool{false, true} {
		b.Run(fmt.Sprintf("trace=%t", traced), benchInterpreterTracedAt(traced))
	}
}

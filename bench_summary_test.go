package diffcode

// Benchmarks for memoized per-method summaries (DESIGN.md §14). The number
// that matters is the live/memoized ratio on a helper-heavy program: with
// no summary table, the interpreter executes every helper body at every
// call site in every fork (the re-inlining tax); with a table, each unique
// (method, arguments, context) executes once and replays everywhere else.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/summary"
)

// benchSummarySource builds the helper-heavy workload: entries entry
// methods, each invoking the same chunky helper four times with identical
// constant arguments. The helper body is stmts statements of local string
// work ending in a crypto-API call, so a single execution is expensive and
// a replay is cheap — exactly the shape of real utility-wrapped crypto
// code, where one doCrypt helper is called from dozens of call sites.
func benchSummarySource(entries, stmts int) string {
	var sb strings.Builder
	sb.WriteString("class Bench {\n")
	for i := 0; i < entries; i++ {
		fmt.Fprintf(&sb, "    void entry%d() {\n", i)
		for j := 0; j < 4; j++ {
			sb.WriteString("        work(\"AES/CBC/PKCS5Padding\");\n")
		}
		sb.WriteString("    }\n")
	}
	sb.WriteString("    Cipher work(String s) {\n")
	for i := 0; i < stmts; i++ {
		fmt.Fprintf(&sb, "        String x%d = s + \"pad%d\";\n", i, i)
	}
	sb.WriteString("        Cipher c = Cipher.getInstance(s);\n")
	sb.WriteString("        c.init(Cipher.ENCRYPT_MODE, key);\n")
	sb.WriteString("        return c;\n")
	sb.WriteString("    }\n}\n")
	return sb.String()
}

// benchSummaryOnce analyzes the workload once, live (no table) or with a
// fresh summary table, and returns the cipher-object count as a liveness
// check.
func benchSummaryOnce(src string, summaries bool) int {
	opts := analysis.Options{}
	if summaries {
		opts.Summaries = summary.NewTable(nil, nil)
	}
	r := analysis.AnalyzeSource(src, opts)
	return len(r.ObjsOfType("Cipher"))
}

// benchSummaryAt runs the abstract interpretation of the helper-heavy
// program with summaries on (a fresh table every iteration — the measured
// win is within-run memoization, not cross-run caching) or live.
func benchSummaryAt(src string, summaries bool) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if benchSummaryOnce(src, summaries) == 0 {
				b.Fatal("no cipher objects; workload exercises too little")
			}
		}
	}
}

// BenchmarkSummaries compares live execution (no summary table) with the
// memoizing interpreter on the helper-heavy workload. The spread is the re-inlining
// tax: every call past the first replays a recorded effect triple instead
// of re-interpreting the helper body.
func BenchmarkSummaries(b *testing.B) {
	src := benchSummarySource(24, 160)
	for _, on := range []bool{false, true} {
		b.Run(fmt.Sprintf("summaries=%t", on), benchSummaryAt(src, on))
	}
}

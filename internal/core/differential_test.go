package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/summary"
)

// The differential oracle for the interprocedural engine: generated
// helper-chain programs must yield identical usage events and violation
// sets whether every call executes live, replays memoized summaries from a
// fresh or a warm shared table, runs with provenance tracking, or is
// checked through the pipeline at different worker counts. Each program
// also plants one misuse of a built-in rule at the bottom of its chain, and
// every mode must report it regardless of the chain's depth.

// plantedMisuse is a sink over the String parameter a, together with the
// rule it violates once the constant arg reaches it.
type plantedMisuse struct {
	rule string
	arg  string
	sink string
}

var plantedMisuses = []plantedMisuse{
	{"R1", `"SHA-1"`, `MessageDigest md = MessageDigest.getInstance(a);`},
	{"R2", `"100"`, `PBEKeySpec spec = new PBEKeySpec(pw, salt, Integer.parseInt(a), 128);`},
	{"R7", `"AES/ECB/PKCS5Padding"`, `Cipher c = Cipher.getInstance(a);`},
	{"R8", `"DES/CBC/PKCS5Padding"`, `Cipher c = Cipher.getInstance(a);`},
	{"R9", `"0102030405060708"`, `IvParameterSpec iv = new IvParameterSpec(a.getBytes());`},
	{"R10", `"0123456789abcdef"`, `SecretKeySpec ks = new SecretKeySpec(a.getBytes(), "AES");`},
	{"R11", `"saltsalt"`, `PBEKeySpec spec = new PBEKeySpec(pw, a.getBytes(), 65536, 256);`},
	{"R12", `"42"`, `SecureRandom sr = new SecureRandom(); sr.setSeed(Long.parseLong(a));`},
}

// genProgram is one generated helper-chain program.
type genProgram struct {
	src    string
	rule   string // the planted misuse's rule ID
	depth  int
	fanOut int
}

// genHelperChain generates program id: an entry method passes the planted
// constant down a chain of depth helpers, each calling the next fanOut
// times (verbatim, through a folded rewrite, in a branch fork, or feeding
// its return value back into a), with direct or mutual recursion in some
// programs; a recursive call that the cycle guard widens returns ⊤. Some entries also call a
// mid-chain helper directly, so a summary recorded inside a recursive
// cycle is looked up again from a stack without that cycle. Half the
// programs keep the helpers in a second class and call them as static
// methods.
func genHelperChain(r *rand.Rand, id int) genProgram {
	depth := 1 + r.Intn(8)
	fan := 1 + r.Intn(3)
	if depth > 5 {
		fan = min(fan, 2) // keeps live execution at a few hundred calls
	}
	m := plantedMisuses[r.Intn(len(plantedMisuses))]
	split := r.Intn(2) == 0
	recurseAt := 0 // helper level that recurses (0 = none)
	if r.Intn(3) == 0 {
		recurseAt = 1 + r.Intn(depth)
	}
	mutual := r.Intn(2) == 0
	direct := 0 // helper level the entry also calls directly (0 = none)
	if depth > 1 && r.Intn(2) == 0 {
		direct = 2 + r.Intn(depth-1)
	}

	main := fmt.Sprintf("P%d", id)
	helperClass, qual, static := main, "", ""
	if split {
		helperClass, qual, static = fmt.Sprintf("H%d", id), fmt.Sprintf("H%d.", id), "static "
	}
	call := func(k int, arg string) string { return fmt.Sprintf("%sh%d(%s);", qual, k, arg) }

	var helpers strings.Builder
	for k := 1; k <= depth; k++ {
		fmt.Fprintf(&helpers, "    %sString h%d(String a) {\n", static, k)
		if k == recurseAt {
			target := k
			if mutual && k > 1 {
				target = k - 1
			}
			fmt.Fprintf(&helpers, "        if (a.isEmpty()) { a = %s }\n", call(target, "a"))
		}
		if k == depth {
			fmt.Fprintf(&helpers, "        %s\n", m.sink)
		} else {
			for j := 0; j < fan; j++ {
				switch r.Intn(5) {
				case 0:
					fmt.Fprintf(&helpers, "        a = %s\n", call(k+1, "a"))
				case 1:
					fmt.Fprintf(&helpers, "        %s\n", call(k+1, "a.trim()"))
				case 2:
					fmt.Fprintf(&helpers, "        if (a.length() > 2) { %s } else { %s }\n", call(k+1, "a"), call(k+1, `a + ""`))
				default:
					fmt.Fprintf(&helpers, "        %s\n", call(k+1, "a"))
				}
			}
		}
		helpers.WriteString("        return a;\n    }\n")
	}

	var sb strings.Builder
	fields := "    char[] pw;\n    byte[] salt;\n"
	entry := call(1, m.arg)
	if direct > 0 {
		entry += "\n        " + call(direct, m.arg)
	}
	fmt.Fprintf(&sb, "class %s {\n%s    void run() {\n        %s\n    }\n", main, fields, entry)
	if split {
		fmt.Fprintf(&sb, "}\n\nclass %s {\n%s", helperClass, fields)
	}
	sb.WriteString(helpers.String())
	sb.WriteString("}\n")
	return genProgram{src: sb.String(), rule: m.rule, depth: depth, fanOut: fan}
}

// renderUses flattens a result into every abstract object in discovery
// order with its ID, type, site, and deduplicated event keys.
func renderUses(r *analysis.Result) string {
	var sb strings.Builder
	for _, o := range r.Objs {
		fmt.Fprintf(&sb, "#%d %s @%d:%d\n", o.ID, o.Type, o.Site.Line, o.Site.Col)
		for _, e := range r.Uses[o] {
			fmt.Fprintf(&sb, "  %s\n", e.Key())
		}
	}
	return sb.String()
}

// renderViolationSet renders violations as a sorted set of rule IDs with
// their witnessing objects (order-insensitive: -why sorts by location).
func renderViolationSet(vs []rules.Violation) string {
	lines := make([]string, 0, len(vs))
	for _, v := range vs {
		line := v.Rule.ID
		for _, o := range v.Objs {
			line += fmt.Sprintf(" %s@%d", o.SiteLabel(), o.Site.Line)
		}
		lines = append(lines, line)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestDifferentialSummaryOracle runs the oracle over 200 seeded programs.
func TestDifferentialSummaryOracle(t *testing.T) {
	const programs = 200
	r := rand.New(rand.NewSource(12))
	warmReg := obs.NewRegistry()
	warm := summary.NewTable(nil, warmReg)
	checkers := map[int]*CryptoChecker{}
	for _, w := range []int{1, 4} {
		checkers[w] = NewChecker(nil, Options{Workers: w})
	}
	ctx := rules.Context{}
	maxDepth, recursive := 0, 0
	for id := 0; id < programs; id++ {
		g := genHelperChain(r, id)
		maxDepth = max(maxDepth, g.depth)
		if strings.Contains(g.src, "isEmpty") {
			recursive++
		}
		fail := func(format string, args ...any) {
			t.Helper()
			t.Errorf("program %d (depth %d, fan-out %d, planted %s): %s\n%s",
				id, g.depth, g.fanOut, g.rule, fmt.Sprintf(format, args...), g.src)
		}
		prog := analysis.ParseProgram(map[string]string{"P.java": g.src})

		live := analysis.Analyze(prog, analysis.Options{})
		wantUses, wantVs := renderUses(live), renderViolationSet(rules.CheckPoolCtx(context.Background(), live, ctx, rules.All(), nil))
		if !strings.Contains("\n"+wantVs, "\n"+g.rule+" ") {
			fail("live execution misses the planted misuse; violations:\n%s", wantVs)
		}

		type mode struct {
			name string
			opts analysis.Options
		}
		modes := []mode{
			{"memo (fresh table)", analysis.Options{Summaries: summary.NewTable(nil, nil)}},
			{"memo (warm table, recording)", analysis.Options{Summaries: warm}},
			{"memo (warm table, replaying)", analysis.Options{Summaries: warm}},
			{"provenance", analysis.Options{Summaries: warm, Provenance: true}},
		}
		for _, m := range modes {
			hits := warmReg.Counter("summary.hits").Value()
			res := analysis.Analyze(prog, m.opts)
			if got := renderUses(res); got != wantUses {
				fail("%s: events differ from live execution\n--- live ---\n%s--- %s ---\n%s", m.name, wantUses, m.name, got)
			}
			if got := renderViolationSet(rules.CheckPoolCtx(context.Background(), res, ctx, rules.All(), nil)); got != wantVs {
				fail("%s: violations differ from live execution\n--- live ---\n%s\n--- %s ---\n%s", m.name, wantVs, m.name, got)
			}
			if m.name == "memo (warm table, replaying)" && warmReg.Counter("summary.hits").Value() == hits {
				fail("warm table replayed nothing (summary.hits unchanged)")
			}
		}

		for w, c := range checkers {
			if got := renderViolationSet(mustCheck(t, context.Background(), c, map[string]string{"P.java": g.src}, ctx, false).Violations); got != wantVs {
				fail("core checker at workers=%d: violations differ from live execution\n--- live ---\n%s\n--- checker ---\n%s", w, wantVs, got)
			}
		}
		if t.Failed() {
			return
		}
	}
	if maxDepth < 6 || recursive == 0 {
		t.Fatalf("generator too tame: max depth %d, %d recursive programs", maxDepth, recursive)
	}
}

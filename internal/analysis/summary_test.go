package analysis

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/obs"
	"repro/internal/summary"
)

// renderResult flattens a Result into a canonical string: every abstract
// object in discovery order with its ID, type, site, and deduplicated event
// keys. Two runs producing the same rendering made the same observations in
// the same order — the equivalence the summary layer must preserve.
func renderResult(r *Result) string {
	var sb strings.Builder
	for _, o := range r.Objs {
		fmt.Fprintf(&sb, "#%d %s @%d:%d\n", o.ID, o.Type, o.Site.Line, o.Site.Col)
		for _, e := range r.Uses[o] {
			fmt.Fprintf(&sb, "  %s\n", eventKey(e))
		}
	}
	return sb.String()
}

// analyzeWith runs src twice — live (nil table) and memoized (fresh table)
// — and fails the test unless the results are identical. It returns the
// memoized rendering and the registry that collected summary.* counters.
func analyzeWith(t *testing.T, src string) (string, *obs.Registry) {
	t.Helper()
	live := renderResult(AnalyzeSource(src, Options{}))
	reg := obs.NewRegistry()
	tbl := summary.NewTable(nil, reg)
	memo := renderResult(AnalyzeSource(src, Options{Summaries: tbl}))
	if memo != live {
		t.Errorf("memoized result diverges from live execution:\n--- live ---\n%s--- memo ---\n%s", live, memo)
	}
	return memo, reg
}

const helperForkSrc = `
class C {
    void run(boolean flag) {
        Cipher a;
        if (flag) {
            a = make("AES/CBC/PKCS5Padding");
        } else {
            a = make("AES/CBC/PKCS5Padding");
        }
        a.init(Cipher.ENCRYPT_MODE, key);
    }
    Cipher make(String t) {
        return Cipher.getInstance(t);
    }
    void other() {
        Cipher b = make("AES/CBC/PKCS5Padding");
    }
}
`

// TestSummaryHitWithinAnalyzer checks the core memoization win: the same
// helper invoked with the same abstract arguments and field context is
// executed once and replayed afterwards, with identical results.
func TestSummaryHitWithinAnalyzer(t *testing.T) {
	_, reg := analyzeWith(t, helperForkSrc)
	hits := reg.Counter("summary.hits").Value()
	misses := reg.Counter("summary.misses").Value()
	if hits < 1 {
		t.Errorf("summary.hits = %d, want >= 1 (make is called three times with identical key)", hits)
	}
	if misses < 1 {
		t.Errorf("summary.misses = %d, want >= 1 (first call must record)", misses)
	}
}

// TestSummaryCrossAnalyzerSharing checks the mining-run tier: a table shared
// across analyses of the same program serves the second analysis from
// memory, and the replayed result is identical to the cold one.
func TestSummaryCrossAnalyzerSharing(t *testing.T) {
	reg := obs.NewRegistry()
	tbl := summary.NewTable(nil, reg)
	first := renderResult(AnalyzeSource(helperForkSrc, Options{Summaries: tbl}))
	h0 := reg.Counter("summary.hits").Value()
	second := renderResult(AnalyzeSource(helperForkSrc, Options{Summaries: tbl}))
	if second != first {
		t.Errorf("warm analysis diverges from cold:\n--- cold ---\n%s--- warm ---\n%s", first, second)
	}
	if h1 := reg.Counter("summary.hits").Value(); h1 <= h0 {
		t.Errorf("summary.hits after warm run = %d, want > %d (second analyzer must replay)", h1, h0)
	}
}

// TestSummaryPersistedThroughArtifactStore checks the disk tier: entries
// written through one table are found by a fresh table attached to the same
// artifact store, so warm corpus re-runs replay helpers recorded by earlier
// processes.
func TestSummaryPersistedThroughArtifactStore(t *testing.T) {
	store := artifact.New(artifact.Config{Dir: t.TempDir()})
	reg1 := obs.NewRegistry()
	first := renderResult(AnalyzeSource(helperForkSrc, Options{Summaries: summary.NewTable(store, reg1)}))

	reg2 := obs.NewRegistry()
	second := renderResult(AnalyzeSource(helperForkSrc, Options{Summaries: summary.NewTable(store, reg2)}))
	if second != first {
		t.Errorf("store-warmed analysis diverges:\n--- cold ---\n%s--- warm ---\n%s", first, second)
	}
	if hits := reg2.Counter("summary.hits").Value(); hits < 1 {
		t.Errorf("summary.hits with fresh table over shared store = %d, want >= 1", hits)
	}
}

// TestSummaryRecursionWidensToTop: a directly recursive helper must
// converge via the cycle guard (widening to the callee's declared-type Top)
// instead of looping, must count summary.cycles, and must produce exactly
// the live-execution result.
func TestSummaryRecursionWidensToTop(t *testing.T) {
	src := `
class C {
    void run() {
        Cipher c = Cipher.getInstance(depth("AES", 3));
    }
    String depth(String s, int n) {
        if (n > 0) {
            return depth(s, n - 1);
        }
        return s;
    }
}
`
	_, reg := analyzeWith(t, src)
	if cy := reg.Counter("summary.cycles").Value(); cy < 1 {
		t.Errorf("summary.cycles = %d, want >= 1 (depth recurses)", cy)
	}
}

// TestSummaryMutualRecursion: a two-method recursive SCC converges the same
// way — each member's recursive re-entry widens, the pair still analyzes,
// and results match live execution.
func TestSummaryMutualRecursion(t *testing.T) {
	src := `
class C {
    void run() {
        Cipher c = Cipher.getInstance(ping("AES"));
        c.init(Cipher.ENCRYPT_MODE, key);
    }
    String ping(String s) {
        return pong(s);
    }
    String pong(String s) {
        return ping(s);
    }
}
`
	_, reg := analyzeWith(t, src)
	if cy := reg.Counter("summary.cycles").Value(); cy < 1 {
		t.Errorf("summary.cycles = %d, want >= 1 (ping/pong form a recursive SCC)", cy)
	}
}

// deepChainSrc threads the weak algorithm constant "DES" through a six-deep
// helper chain before it reaches Cipher.getInstance. The paper's bounded
// inliner (depth 4) abandoned the chain at h4, so the sink only ever ran in
// the unexecuted-method sweep with Top parameters and the misuse was
// invisible. Cycle detection has no depth cliff, so the constant flows all
// the way down.
const deepChainSrc = `
class Deep {
    void entry() {
        h1("DES");
    }
    void h1(String a) { h2(a); }
    void h2(String a) { h3(a); }
    void h3(String a) { h4(a); }
    void h4(String a) { h5(a); }
    void h5(String a) { h6(a); }
    void h6(String a) {
        Cipher c = Cipher.getInstance(a);
    }
}
`

// TestSummaryLiftsDepthCliff pins the depth-independent reach: the depth-6
// DES misuse is detected both by live execution (no table) and with
// summaries memoized, and the two results are identical.
func TestSummaryLiftsDepthCliff(t *testing.T) {
	for name, opts := range map[string]Options{
		"live": {},
		"memo": {Summaries: summary.NewTable(nil, obs.NewRegistry())},
	} {
		r := AnalyzeSource(deepChainSrc, opts)
		ciphers := r.ObjsOfType("Cipher")
		if len(ciphers) != 1 {
			t.Fatalf("%s: cipher objects = %d, want 1", name, len(ciphers))
		}
		if !findEvent(r, ciphers[0], `Cipher.getInstance "DES"`) {
			t.Errorf("%s: misses the DES constant at depth 6: %v", name, evKeys(r, ciphers[0]))
		}
	}
	analyzeWith(t, deepChainSrc)
}

// TestSummaryDepthCliffRespectsMaxInlineOff pins that live execution (no
// summary table) needs no inline bound to see through a helper chain: a
// twelve-deep chain, past any bound the paper's inliner was ever run with,
// still carries the DES constant to the sink.
func TestSummaryDepthCliffRespectsMaxInlineOff(t *testing.T) {
	const depth = 12
	var sb strings.Builder
	sb.WriteString("class Deeper {\n    void entry() { h1(\"DES\"); }\n")
	for i := 1; i < depth; i++ {
		fmt.Fprintf(&sb, "    void h%d(String a) { h%d(a); }\n", i, i+1)
	}
	fmt.Fprintf(&sb, "    void h%d(String a) { Cipher c = Cipher.getInstance(a); }\n}\n", depth)

	r := AnalyzeSource(sb.String(), Options{})
	ciphers := r.ObjsOfType("Cipher")
	if len(ciphers) != 1 {
		t.Fatalf("cipher objects = %d, want 1", len(ciphers))
	}
	if !findEvent(r, ciphers[0], `Cipher.getInstance "DES"`) {
		t.Errorf("live analysis misses the constant at depth %d: %v", depth, evKeys(r, ciphers[0]))
	}
}

// TestSummaryEquivalenceOnPaperExamples replays the package's existing
// fixture sources under summaries and requires byte-identical results —
// object IDs, discovery order, and deduplicated event streams.
func TestSummaryEquivalenceOnPaperExamples(t *testing.T) {
	for name, src := range map[string]string{
		"newVersion": newVersionSrc,
		"oldVersion": oldVersionSrc,
	} {
		t.Run(name, func(t *testing.T) { analyzeWith(t, src) })
	}
}

// outerGuardSrc builds the cycle-context replay chain the OuterGuard
// machinery exists for. Under entry's first call, x records h while x is on
// the stack, so h's summary embeds the x-recursion widening and carries
// OuterGuard=[x]; x then records g, whose execution *replays* h rather than
// running it. The replay must propagate h's guard into g's in-flight
// recording — otherwise g is memoized guard-free and entry's direct g()
// call replays the embedded widening where live execution runs x("Q")'s
// body (whose Cipher.getInstance("Q") event is the observable difference).
const outerGuardSrc = `
class C {
    void entry() {
        x("P");
        g();
    }
    void x(String s) {
        Cipher c = Cipher.getInstance(s);
        h();
        g();
    }
    String g() {
        return h();
    }
    String h() {
        x("Q");
        return "k";
    }
}
`

// TestSummaryOuterGuardPropagatesThroughReplay is the regression test for
// guard inheritance across replays: a summary recorded while replaying a
// cycle-dependent summary must itself be cycle-dependent, so calling the
// outer helper without the cycle on the stack executes live and matches the
// live execution exactly.
func TestSummaryOuterGuardPropagatesThroughReplay(t *testing.T) {
	_, reg := analyzeWith(t, outerGuardSrc)
	if cy := reg.Counter("summary.cycles").Value(); cy < 1 {
		t.Errorf("summary.cycles = %d, want >= 1 (h widens against x)", cy)
	}

	// The sharp end: the "Q" event only exists if entry's g() ran live.
	r := AnalyzeSource(outerGuardSrc, Options{Summaries: summary.NewTable(nil, obs.NewRegistry())})
	ciphers := r.ObjsOfType("Cipher")
	if len(ciphers) != 1 {
		t.Fatalf("cipher objects = %d, want 1", len(ciphers))
	}
	if !findEvent(r, ciphers[0], `Cipher.getInstance "Q"`) {
		t.Errorf("g() outside the x-cycle replayed the embedded widening instead of executing live: %v",
			evKeys(r, ciphers[0]))
	}
}

// TestResolveSummaryRejectsCorruptEntries: malformed disk artifacts must
// read as misses, including a negative step count that would otherwise
// corrupt the analyzer's budget accounting on replay, and provenance
// templates whose references would loop, dangle, or index past the call's
// inputs or the program's files.
func TestResolveSummaryRejectsCorruptEntries(t *testing.T) {
	prog := ParseProgram(map[string]string{"C.java": "class C { void run() {} }"})
	an := newAnalyzer(prog, Options{}.withDefaults())
	for name, e := range map[string]*summary.Entry{
		"negativeSteps":         {Steps: -1},
		"negativeAlloc":         {NAlloc: -1},
		"allocOverrun":          {NAlloc: 1},
		"badEventObj":           {Events: []summary.PEvent{{Obj: 2}}},
		"provWithoutProvenance": {Prov: []summary.PProv{{Kind: 1}}},
	} {
		if rs := an.resolveSummary(e, 0); rs != nil {
			t.Errorf("%s: resolveSummary accepted corrupt entry %+v", name, e)
		}
	}

	an = newAnalyzer(prog, Options{Provenance: true}.withDefaults())
	ret := func(r int) *summary.PValue { return &summary.PValue{Kind: 1, Prov: r} }
	for name, tc := range map[string]struct {
		e   *summary.Entry
		nIn int
	}{
		"forwardRef":     {&summary.Entry{Prov: []summary.PProv{{P0: 2}, {}}}, 0},
		"selfRef":        {&summary.Entry{Prov: []summary.PProv{{P1: 1}}}, 0},
		"slotOutOfRange": {&summary.Entry{NIn: 1, Prov: []summary.PProv{{P0: -2}}}, 1},
		"valueSlot":      {&summary.Entry{NIn: 1, Ret: ret(-2)}, 1},
		"valueNode":      {&summary.Entry{Prov: []summary.PProv{{}}, Ret: ret(2)}, 0},
		"nInMismatch":    {&summary.Entry{NIn: 2, Ret: ret(-1)}, 1},
		"fileOutOfRange": {&summary.Entry{Prov: []summary.PProv{{File: 2}}}, 0},
		"negativeFile":   {&summary.Entry{Prov: []summary.PProv{{File: -1}}}, 0},
	} {
		if rs := an.resolveSummary(tc.e, tc.nIn); rs != nil {
			t.Errorf("%s: resolveSummary accepted corrupt entry %+v", name, tc.e)
		}
	}
	// The well-formed neighbour of those cases resolves.
	ok := &summary.Entry{NIn: 1, Prov: []summary.PProv{{File: 1, P0: -1}, {P0: 1, P1: -1}}, Ret: ret(2)}
	if an.resolveSummary(ok, 1) == nil {
		t.Errorf("resolveSummary rejected a well-formed template %+v", ok)
	}
}

// TestEntryMethodArityOverload is the regression test for the entry-method
// heuristic: a 2-arg overload that no call resolves to must stay an entry
// method even though its 1-arg sibling is called — name-only matching used
// to demote it.
func TestEntryMethodArityOverload(t *testing.T) {
	src := `
class C {
    void run() {
        help("AES");
    }
    Cipher help(String t) {
        return Cipher.getInstance(t);
    }
    Cipher help(String t, String mode) {
        return Cipher.getInstance(t + "/" + mode);
    }
}
`
	prog := ParseProgram(map[string]string{"C.java": src})
	an := newAnalyzer(prog, Options{}.withDefaults())
	ci := an.classes["C"]
	if ci == nil {
		t.Fatal("class C not indexed")
	}
	var entries []string
	for _, m := range an.entryMethods(ci) {
		entries = append(entries, fmt.Sprintf("%s/%d", m.Name, len(m.Params)))
	}
	want := map[string]bool{"run/0": true, "help/2": true}
	if len(entries) != len(want) {
		t.Fatalf("entry methods = %v, want run/0 and help/2", entries)
	}
	for _, e := range entries {
		if !want[e] {
			t.Errorf("unexpected entry method %s (want run/0 and help/2)", e)
		}
	}
}

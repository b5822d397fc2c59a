package analysis_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/absdom"
	"repro/internal/analysis"
	"repro/internal/artifact"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/summary"
	"repro/internal/witness"
)

// Summaries under provenance: every test here compares an analysis that
// records or replays summaries with provenance on against a live
// provenance run (no table), by the witness text of its violations and by
// the provenance chain of every event argument.

// whyText renders the witness traces of res's violations (JSON and text),
// then the provenance DAG of every argument of every event. Nodes are
// numbered by first visit across the whole result, so two results render
// alike only if their chains share nodes the same way.
func whyText(res *analysis.Result) string {
	ctx := rules.Context{}
	traces := witness.Collect(rules.CheckPoolCtx(context.Background(), res, ctx, rules.All(), nil), res, ctx)
	var sb strings.Builder
	sb.WriteString(witness.JSON(traces))
	sb.WriteString(witness.Render(traces))
	ids := map[*absdom.Prov]int{}
	for _, o := range res.Objs {
		fmt.Fprintf(&sb, "#%d %s\n", o.ID, o.SiteLabel())
		for _, ev := range res.Uses[o] {
			fmt.Fprintf(&sb, "  %s\n", analysis.EventKey(ev))
			for _, a := range ev.Args {
				fmt.Fprintf(&sb, "    arg n%d\n", chainText(&sb, a.Prov, ids))
			}
		}
	}
	return sb.String()
}

func chainText(sb *strings.Builder, p *absdom.Prov, ids map[*absdom.Prov]int) int {
	if p == nil {
		return 0
	}
	if id, ok := ids[p]; ok {
		return id
	}
	a, b := chainText(sb, p.Prev0, ids), chainText(sb, p.Prev1, ids)
	id := len(ids) + 1
	ids[p] = id
	fmt.Fprintf(sb, "    n%d %s %s:%d:%d %q cut=%v <- n%d n%d\n", id, p.Kind, p.File(), p.Line, p.Col, p.What(), p.Truncated, a, b)
	return id
}

// checkWhy analyzes src with provenance live, then with a fresh table
// twice (recording, then replaying), and fails unless every run's whyText
// equals the live one. It returns the table's registry.
func checkWhy(t *testing.T, src string) *obs.Registry {
	t.Helper()
	prog := analysis.ParseProgram(map[string]string{"Main.java": src})
	want := whyText(analysis.Analyze(prog, analysis.Options{Provenance: true}))
	reg := obs.NewRegistry()
	tbl := summary.NewTable(nil, reg)
	for _, leg := range []string{"recording", "replaying"} {
		got := whyText(analysis.Analyze(prog, analysis.Options{Provenance: true, Summaries: tbl}))
		if got != want {
			t.Errorf("%s: provenance diverges from the live run:\n--- live ---\n%s--- %s ---\n%s", leg, want, leg, got)
		}
	}
	return reg
}

// TestSummaryProvenanceStillLiftsDepth: with provenance on, summaries are
// memoized like any other analysis — the depth-6 DES constant still
// reaches its sink, the repeated helper of helperForkSrc replays, and the
// witness text equals a live provenance run's.
func TestSummaryProvenanceStillLiftsDepth(t *testing.T) {
	r := analysis.AnalyzeSource(analysis.DeepChainSrc, analysis.Options{
		Summaries:  summary.NewTable(nil, nil),
		Provenance: true,
	})
	ciphers := r.ObjsOfType("Cipher")
	if len(ciphers) != 1 {
		t.Fatalf("cipher objects = %d, want 1", len(ciphers))
	}
	found := false
	for _, ev := range r.Uses[ciphers[0]] {
		found = found || ev.Sig.Name == "getInstance" && ev.Args[0].Label() == `"DES"`
	}
	if !found {
		t.Errorf("provenance-on summaries miss the depth-6 constant: %v", r.Uses[ciphers[0]])
	}
	checkWhy(t, analysis.DeepChainSrc)
	reg := checkWhy(t, analysis.HelperForkSrc)
	if hits := reg.Counter("summary.hits").Value(); hits < 1 {
		t.Errorf("summary.hits = %d with provenance on, want >= 1 (make repeats its key)", hits)
	}
}

// TestSummaryProvenanceStaticConstant: a cached cross-class constant's
// chain is shared by every later read and lives outside the summary key,
// so a recording that reads it is dropped as unportable and the helper
// runs live at every call site — a and b must share one K.ALG node, as
// live. A helper downstream of it still replays.
func TestSummaryProvenanceStaticConstant(t *testing.T) {
	reg := checkWhy(t, `
class K { static final String ALG = "DES"; }
class C {
    void run() throws Exception {
        Cipher a = Cipher.getInstance(alg());
        Cipher b = Cipher.getInstance(alg());
        Cipher c = make(alg());
        Cipher d = make(alg());
        Cipher e = direct();
        Cipher f = direct();
    }
    String alg() { return K.ALG; }
    Cipher make(String s) throws Exception { return Cipher.getInstance(s); }
    Cipher direct() throws Exception { return Cipher.getInstance(K.ALG); }
}
`)
	if n := reg.Counter("summary.unportable").Value(); n < 1 {
		t.Errorf("summary.unportable = %d, want > 0 (alg and direct read K.ALG)", n)
	}
	if hits := reg.Counter("summary.hits").Value(); hits < 1 {
		t.Errorf("summary.hits = %d, want >= 1 (make takes its argument as an input)", hits)
	}
}

// TestSummaryProvenanceDepthCap passes values whose chains end just below,
// at, and past MaxProvDepth into a helper id first recorded with a shallow
// argument, and into a helper id2 that only ever sees the deep one; helper
// inner builds a chain past the cap on its own. Replay must cut the chains
// where live execution cuts them; a recording whose own nodes were cut is
// unportable.
func TestSummaryProvenanceDepthCap(t *testing.T) {
	var hits, unportable int64
	for k := 18; k <= 28; k++ {
		src := "class D {\n    void run() throws Exception {\n" +
			"        String s = \"DES\";\n        Cipher c1 = Cipher.getInstance(id(s));\n" +
			"        String a = \"DES\";\n" + strings.Repeat("        a = a.trim();\n", k) +
			"        Cipher c2 = Cipher.getInstance(id(a));\n        Cipher c3 = Cipher.getInstance(id(a));\n" +
			"        Cipher c4 = Cipher.getInstance(id2(a));\n        Cipher c5 = Cipher.getInstance(id2(a));\n" +
			"        Cipher c6 = Cipher.getInstance(inner());\n        Cipher c7 = Cipher.getInstance(inner());\n" +
			"    }\n    String id(String v) { String t = v; return t; }\n" +
			"    String id2(String v) { String t = v; return t; }\n" +
			"    String inner() {\n        String b = \"DES\";\n" + strings.Repeat("        b = b.trim();\n", k) +
			"        return b;\n    }\n}\n"
		t.Run(fmt.Sprint(k), func(t *testing.T) {
			reg := checkWhy(t, src)
			hits += reg.Counter("summary.hits").Value()
			unportable += reg.Counter("summary.unportable").Value()
		})
	}
	if hits == 0 || unportable == 0 {
		t.Errorf("summary.hits = %d, summary.unportable = %d; want both > 0 (deep arguments replay, cut recordings drop)", hits, unportable)
	}
}

// TestSummaryProvenanceAliasedArgs calls one helper as f(x, x) and as
// f(x, y) with equal abstract values: the replayed chain of b must come
// from the caller's second argument, not whichever slot the recording saw.
// either joins its two arguments, so its replay must also keep the join's
// predecessors in order.
func TestSummaryProvenanceAliasedArgs(t *testing.T) {
	reg := checkWhy(t, `
class A {
    void run() throws Exception {
        String x = "DES";
        String y = "DES";
        Cipher c1 = Cipher.getInstance(second(x, x));
        Cipher c2 = Cipher.getInstance(second(x, y));
        Cipher c3 = Cipher.getInstance(second(y, y));
        Cipher c4 = Cipher.getInstance(second(y, x));
        Cipher c5 = Cipher.getInstance(either(x, y));
        Cipher c6 = Cipher.getInstance(either(y, x));
    }
    String second(String a, String b) { return b; }
    String either(String a, String b) {
        String r = a;
        if (a.isEmpty()) { r = b; }
        return r;
    }
}
`)
	if hits := reg.Counter("summary.hits").Value(); hits < 3 {
		t.Errorf("summary.hits = %d, want >= 3 (c3, c4 and c6 repeat the shapes of c1, c2 and c5)", hits)
	}
}

// TestSummaryProvenanceNilInput calls a helper with an argument that
// carries no provenance (an API constant) and then with the same abstract
// value carrying a chain (a local copied from a field): the parameter step
// links the caller's chain only in the second case, so the two calls must
// not share an entry.
func TestSummaryProvenanceNilInput(t *testing.T) {
	reg := checkWhy(t, `
class N {
    int mode = Cipher.ENCRYPT_MODE;
    int last;
    void run() throws Exception {
        int m = mode;
        keep(m);
        Cipher c1 = Cipher.getInstance("DES");
        c1.init(last, k);
        keep(Cipher.ENCRYPT_MODE);
        Cipher c2 = Cipher.getInstance("DES");
        c2.init(last, k);
        keep(m);
        Cipher c3 = Cipher.getInstance("DES");
        c3.init(last, k);
        keep(Cipher.ENCRYPT_MODE);
        Cipher c4 = Cipher.getInstance("DES");
        c4.init(last, k);
    }
    void keep(int m) { last = m; }
}
`)
	if hits := reg.Counter("summary.hits").Value(); hits < 1 {
		t.Errorf("summary.hits = %d, want >= 1 (the last keep repeats the second's key)", hits)
	}
}

// TestSummaryProvenancePersistedThroughArtifactStore: provenance entries
// written through one table are replayed by a fresh table over the same
// artifact store, with the witness text of a live provenance run.
func TestSummaryProvenancePersistedThroughArtifactStore(t *testing.T) {
	prog := analysis.ParseProgram(map[string]string{"Main.java": analysis.HelperForkSrc})
	want := whyText(analysis.Analyze(prog, analysis.Options{Provenance: true}))
	store := artifact.New(artifact.Config{Dir: t.TempDir()})
	for i := 0; i < 2; i++ {
		reg := obs.NewRegistry()
		got := whyText(analysis.Analyze(prog, analysis.Options{Provenance: true, Summaries: summary.NewTable(store, reg)}))
		if got != want {
			t.Errorf("run %d over the store diverges from the live run:\n--- live ---\n%s--- store ---\n%s", i, want, got)
		}
		if hits := reg.Counter("summary.hits").Value(); i == 1 && hits < 2 {
			t.Errorf("summary.hits with a fresh table over a warm store = %d, want >= 2 (every make call)", hits)
		}
	}
}

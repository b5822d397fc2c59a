package usage

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cryptoapi"
)

const oldSrc = `
class AESCipher {
    Cipher enc;
    final String algorithm = "AES";
    protected void setKey(Secret key) {
        try {
            enc = Cipher.getInstance(algorithm);
            enc.init(Cipher.ENCRYPT_MODE, key);
        } catch (Exception e) {}
    }
}
`

const newSrc = `
class AESCipher {
    Cipher enc;
    final String algorithm = "AES/CBC/PKCS5Padding";
    protected void setKeyAndIV(Secret key, String iv) {
        try {
            byte[] ivBytes = Hex.decodeHex(iv.toCharArray());
            IvParameterSpec ivSpec = new IvParameterSpec(ivBytes);
            enc = Cipher.getInstance(algorithm);
            enc.init(Cipher.ENCRYPT_MODE, key, ivSpec);
        } catch (Exception e) {}
    }
}
`

func buildOne(t *testing.T, src string) *Graph {
	t.Helper()
	res := analysis.AnalyzeSource(src, analysis.Options{})
	objs := res.ObjsOfType(cryptoapi.Cipher)
	if len(objs) != 1 {
		t.Fatalf("cipher objects = %d, want 1", len(objs))
	}
	return Build(res, objs[0], DefaultDepth)
}

// TestPaperFigure2DAGs reconstructs Figures 2(b) and 2(c) and checks the
// node sets and the 1/2 distance computed in §3.5.
func TestPaperFigure2DAGs(t *testing.T) {
	g1 := buildOne(t, oldSrc)
	g2 := buildOne(t, newSrc)

	// Figure 2(b): 6 nodes.
	wantOld := []string{
		"T|Cipher",
		"M|Cipher.getInstance",
		"M|Cipher.init",
		`A|1|"AES"`,
		"A|1|ENCRYPT_MODE",
		"A|2|Secret",
	}
	if g1.NodeCount() != len(wantOld) {
		t.Errorf("old DAG nodes = %d, want %d: %v", g1.NodeCount(), len(wantOld), keys(g1))
	}
	for _, k := range wantOld {
		if !g1.NodeSet()[k] {
			t.Errorf("old DAG missing node %q (have %v)", k, keys(g1))
		}
	}

	// Figure 2(c): 9 nodes, including the expanded IvParameterSpec ctor.
	wantNew := []string{
		"T|Cipher",
		"M|Cipher.getInstance",
		"M|Cipher.init",
		`A|1|"AES/CBC/PKCS5Padding"`,
		"A|1|ENCRYPT_MODE",
		"A|2|Secret",
		"A|3|IvParameterSpec",
		"M|IvParameterSpec.<init>",
		"A|1|⊤byte[]",
	}
	if g2.NodeCount() != len(wantNew) {
		t.Errorf("new DAG nodes = %d, want %d: %v", g2.NodeCount(), len(wantNew), keys(g2))
	}
	for _, k := range wantNew {
		if !g2.NodeSet()[k] {
			t.Errorf("new DAG missing node %q (have %v)", k, keys(g2))
		}
	}

	// §3.5: dist(G1, G2) = 1/2 for this pair.
	if d := Dist(g1, g2); math.Abs(d-0.5) > 1e-12 {
		t.Errorf("Dist = %v, want 0.5 (the paper's worked example)", d)
	}
}

func keys(g *Graph) []string {
	var out []string
	for k := range g.NodeSet() {
		out = append(out, k)
	}
	return out
}

func TestPathsEnumeration(t *testing.T) {
	g := buildOne(t, newSrc)
	paths := map[string]bool{}
	for _, p := range g.Paths() {
		paths[p.String()] = true
	}
	want := []string{
		"Cipher",
		"Cipher → getInstance",
		`Cipher → getInstance → arg1:"AES/CBC/PKCS5Padding"`,
		"Cipher → init",
		"Cipher → init → arg1:ENCRYPT_MODE",
		"Cipher → init → arg2:Secret",
		"Cipher → init → arg3:IvParameterSpec",
		"Cipher → init → arg3:IvParameterSpec → <init>",
		"Cipher → init → arg3:IvParameterSpec → <init> → arg1:⊤byte[]",
	}
	if len(paths) != len(want) {
		t.Errorf("paths = %d, want %d:\n%s", len(paths), len(want), renderPaths(g))
	}
	for _, w := range want {
		if !paths[w] {
			t.Errorf("missing path %q\nhave:\n%s", w, renderPaths(g))
		}
	}
}

func renderPaths(g *Graph) string {
	var sb strings.Builder
	for _, p := range g.Paths() {
		sb.WriteString("  " + p.String() + "\n")
	}
	return sb.String()
}

func TestDepthBound(t *testing.T) {
	// Depth 1 keeps only the root and method nodes; depth 3 stops before
	// the nested <init> argument.
	res := analysis.AnalyzeSource(newSrc, analysis.Options{})
	obj := res.ObjsOfType(cryptoapi.Cipher)[0]
	g1 := Build(res, obj, 1)
	for k := range g1.NodeSet() {
		if strings.HasPrefix(k, "A|") {
			t.Errorf("depth-1 DAG contains argument node %q", k)
		}
	}
	g3 := Build(res, obj, 3)
	if g3.NodeSet()["A|1|⊤byte[]"] {
		t.Error("depth-3 DAG contains depth-4 node")
	}
	if !g3.NodeSet()["M|IvParameterSpec.<init>"] {
		t.Error("depth-3 DAG lost the depth-3 method node")
	}
}

func TestRootOnly(t *testing.T) {
	g := NewRootOnly("Cipher")
	if g.NodeCount() != 1 || !g.NodeSet()["T|Cipher"] {
		t.Fatalf("root-only graph wrong: %v", keys(g))
	}
	if len(g.Paths()) != 1 {
		t.Errorf("paths = %d", len(g.Paths()))
	}
	full := buildOne(t, oldSrc)
	d := Dist(g, full)
	// Intersection = {root}, union = 6 → 1 - 1/6.
	if math.Abs(d-(1-1.0/6)) > 1e-12 {
		t.Errorf("dist to root-only = %v", d)
	}
}

func TestDistProperties(t *testing.T) {
	g1 := buildOne(t, oldSrc)
	g2 := buildOne(t, newSrc)
	if Dist(g1, g1) != 0 {
		t.Error("self distance not 0")
	}
	if Dist(g1, g2) != Dist(g2, g1) {
		t.Error("distance not symmetric")
	}
	if d := Dist(g1, g2); d < 0 || d > 1 {
		t.Errorf("distance out of range: %v", d)
	}
}

func TestPairBySimilarity(t *testing.T) {
	// Old has [AES-cipher, DES-cipher]; new has [DES-cipher, AES-cipher]
	// (reordered). Pairing must match by content, not order.
	oldRes := analysis.AnalyzeSource(`
class A {
    void m(Key k) throws Exception {
        Cipher a = Cipher.getInstance("AES/CBC/PKCS5Padding");
        a.init(Cipher.ENCRYPT_MODE, k);
        Cipher d = Cipher.getInstance("DES");
        d.init(Cipher.DECRYPT_MODE, k);
    }
}
`, analysis.Options{})
	newRes := analysis.AnalyzeSource(`
class A {
    void m(Key k) throws Exception {
        Cipher d = Cipher.getInstance("DES");
        d.init(Cipher.DECRYPT_MODE, k);
        Cipher a = Cipher.getInstance("AES/CBC/PKCS5Padding");
        a.init(Cipher.ENCRYPT_MODE, k);
    }
}
`, analysis.Options{})
	oldGs := BuildAll(oldRes, cryptoapi.Cipher, DefaultDepth)
	newGs := BuildAll(newRes, cryptoapi.Cipher, DefaultDepth)
	pairs := Pair(oldGs, newGs, cryptoapi.Cipher)
	if len(pairs) != 2 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	for _, pr := range pairs {
		if d := Dist(pr.Old, pr.New); d != 0 {
			t.Errorf("pairing not content-based: dist = %v", d)
		}
	}
}

func TestPairUnequalCounts(t *testing.T) {
	res := analysis.AnalyzeSource(oldSrc, analysis.Options{})
	gs := BuildAll(res, cryptoapi.Cipher, DefaultDepth)
	pairs := Pair(nil, gs, cryptoapi.Cipher)
	if len(pairs) != 1 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	if pairs[0].Old.NodeCount() != 1 {
		t.Error("old side not padded with root-only graph")
	}
	pairs = Pair(gs, nil, cryptoapi.Cipher)
	if len(pairs) != 1 || pairs[0].New.NodeCount() != 1 {
		t.Error("new side not padded with root-only graph")
	}
	if Pair(nil, nil, cryptoapi.Cipher) != nil {
		t.Error("empty pairing should be nil")
	}
}

// TestPairOneByOne holds Pair's direct 1×1 pairing to the cost-matrix
// path: the same graphs on both sides, and root-only padding of the class's
// type where one side is empty.
func TestPairOneByOne(t *testing.T) {
	g1, g2 := buildOne(t, oldSrc), buildOne(t, newSrc)
	render := func(prs []PairResult) string {
		var sb strings.Builder
		for _, pr := range prs {
			for _, g := range []*Graph{pr.Old, pr.New} {
				if g == g1 || g == g2 {
					sb.WriteString(g.Root + " built\n")
				} else {
					sb.WriteString(g.Root + " padding " + strings.Join(keys(g), ",") + "\n")
				}
			}
		}
		return sb.String()
	}
	for _, tc := range []struct {
		name     string
		old, new []*Graph
	}{
		{"both", []*Graph{g1}, []*Graph{g2}},
		{"same graph", []*Graph{g1}, []*Graph{g1}},
		{"removed", []*Graph{g1}, nil},
		{"added", nil, []*Graph{g2}},
	} {
		got := Pair(tc.old, tc.new, cryptoapi.Cipher)
		want := pairAssigned(tc.old, tc.new, cryptoapi.Cipher)
		if len(got) != 1 || render(got) != render(want) {
			t.Errorf("%s: Pair = %q, assignment = %q", tc.name, render(got), render(want))
		}
		for i, g := range tc.old {
			if got[i].Old != g {
				t.Errorf("%s: old graph %d not paired as itself", tc.name, i)
			}
		}
		for _, g := range tc.new {
			if got[0].New != g {
				t.Errorf("%s: new graph not paired as itself", tc.name)
			}
		}
	}
}

func TestCycleGuard(t *testing.T) {
	// Two objects that reference each other through method arguments must
	// not loop the builder.
	src := `
class A {
    void m() throws Exception {
        Mac m1 = Mac.getInstance("HmacSHA256");
        Mac m2 = Mac.getInstance("HmacSHA1");
        m1.verify(m2);
        m2.verify(m1);
    }
}
`
	res := analysis.AnalyzeSource(src, analysis.Options{})
	objs := res.ObjsOfType(cryptoapi.Mac)
	if len(objs) != 2 {
		t.Fatalf("mac objects = %d", len(objs))
	}
	g := Build(res, objs[0], DefaultDepth)
	if g.NodeCount() == 0 {
		t.Fatal("empty graph")
	}
	for _, p := range g.Paths() {
		if len(p) > DefaultDepth+1 {
			t.Errorf("path exceeds depth bound: %v", p)
		}
	}
}

func TestPathPrefix(t *testing.T) {
	p := Path{"a", "b"}
	q := Path{"a", "b", "c"}
	if !p.IsPrefixOf(q) {
		t.Error("prefix not detected")
	}
	if q.IsPrefixOf(p) {
		t.Error("longer path cannot be prefix of shorter")
	}
	if !p.IsPrefixOf(p) {
		t.Error("path is a (non-strict) prefix of itself")
	}
	if (Path{"a", "x"}).IsPrefixOf(q) {
		t.Error("mismatching path detected as prefix")
	}
}

func BenchmarkBuildDAG(b *testing.B) {
	res := analysis.AnalyzeSource(newSrc, analysis.Options{})
	obj := res.ObjsOfType(cryptoapi.Cipher)[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Build(res, obj, DefaultDepth)
	}
}

func TestDOTExport(t *testing.T) {
	g := buildOne(t, newSrc)
	dot := g.DOT("enc")
	for _, want := range []string{
		"digraph \"enc\"", "doublecircle", "shape=box",
		`label="Cipher"`, `label="getInstance"`, "->",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Every edge references declared nodes.
	lines := strings.Split(dot, "\n")
	declared := map[string]bool{}
	for _, l := range lines {
		l = strings.TrimSpace(l)
		if strings.HasPrefix(l, "n") && strings.Contains(l, "[label=") {
			declared[strings.Fields(l)[0]] = true
		}
	}
	for _, l := range lines {
		l = strings.TrimSpace(l)
		if strings.Contains(l, "->") {
			parts := strings.Split(strings.TrimSuffix(l, ";"), "->")
			for _, p := range parts {
				if p = strings.TrimSpace(p); !declared[p] {
					t.Errorf("edge references undeclared node %q", p)
				}
			}
		}
	}
	// Deterministic output.
	if g.DOT("enc") != dot {
		t.Error("DOT rendering not deterministic")
	}
}

// graphOf builds a graph under root "T|C" from edges between keys, each
// node labeled with its own key.
func graphOf(edges ...[2]string) *Graph {
	g := NewRootOnly("C")
	node := func(k string) (int32, bool) {
		if n, ok := g.node(k); ok {
			return n, false
		}
		return g.addNode(k, k), true
	}
	for _, e := range edges {
		from, _ := node(e[0])
		to, fresh := node(e[1])
		g.addEdge(from, to, fresh)
	}
	return g
}

func TestSameShapeIgnoresChildOrder(t *testing.T) {
	g1 := graphOf([2]string{"T|C", "M|a"}, [2]string{"T|C", "M|b"}, [2]string{"M|a", "A|x"}, [2]string{"M|a", "A|y"})
	g2 := graphOf([2]string{"T|C", "M|b"}, [2]string{"T|C", "M|a"}, [2]string{"M|a", "A|y"}, [2]string{"M|a", "A|x"})
	if !SameShape(g1, g2) || !SameShape(g2, g1) {
		t.Error("graphs with reordered children are not SameShape")
	}
	if renderPaths(g1) == renderPaths(g2) {
		t.Error("path order should follow child order")
	}
	if !SameShape(g1, g1) {
		t.Error("graph is not SameShape with itself")
	}
}

func TestSameShapeSeesEdgesAndLabels(t *testing.T) {
	base := [][2]string{{"T|C", "M|a"}, {"T|C", "M|b"}, {"M|a", "A|x"}, {"M|b", "A|y"}}
	moved := [][2]string{{"T|C", "M|a"}, {"T|C", "M|b"}, {"M|a", "A|y"}, {"M|b", "A|x"}}
	g1, g2 := graphOf(base...), graphOf(moved...)
	if !reflect.DeepEqual(g1.NodeSet(), g2.NodeSet()) {
		t.Fatal("node sets differ")
	}
	if SameShape(g1, g2) || SameShape(g2, g1) {
		t.Error("graphs with moved edges are SameShape")
	}
	relabeled := graphOf(base...)
	x, _ := relabeled.node("A|x")
	relabeled.labels[x] = "other"
	if SameShape(g1, relabeled) {
		t.Error("graphs with different labels are SameShape")
	}
	if SameShape(g1, graphOf(base[:3]...)) {
		t.Error("graphs with different node counts are SameShape")
	}
}

// TestCycleRejected checks that an edge closing a cycle is not added: in
// the built DAG the argument node of m2 expands into m2's own uses, whose
// verify method is already on the path above it.
func TestCycleRejected(t *testing.T) {
	g := graphOf([2]string{"T|C", "M|a"}, [2]string{"M|a", "A|x"}, [2]string{"A|x", "M|a"}, [2]string{"A|x", "T|C"})
	if got := g.Children("A|x"); got != nil {
		t.Errorf("A|x children = %v, want none (both edges close a cycle)", got)
	}

	res := analysis.AnalyzeSource(`
class A {
    void m() throws Exception {
        Mac m1 = Mac.getInstance("HmacSHA256");
        Mac m2 = Mac.getInstance("HmacSHA1");
        m1.verify(m2);
        m2.verify(m1);
    }
}
`, analysis.Options{})
	built := Build(res, res.ObjsOfType(cryptoapi.Mac)[0], DefaultDepth)
	if got := built.Children("M|Mac.verify"); !reflect.DeepEqual(got, []string{"A|1|Mac"}) {
		t.Fatalf("verify children = %v, want [A|1|Mac]", got)
	}
	if got := built.Children("A|1|Mac"); !reflect.DeepEqual(got, []string{"M|Mac.getInstance"}) {
		t.Errorf("A|1|Mac children = %v, want [M|Mac.getInstance] (A|1|Mac → verify closes a cycle)", got)
	}
}

func TestNodeSetIsACopy(t *testing.T) {
	g := buildOne(t, newSrc)
	s := g.NodeSet()
	delete(s, g.Root)
	s["X|extra"] = true
	if g.NodeCount() != 9 || !g.NodeSet()[g.Root] || g.NodeSet()["X|extra"] {
		t.Errorf("mutating NodeSet's result changed the graph: %v", keys(g))
	}
	if Dist(g, buildOne(t, newSrc)) != 0 {
		t.Error("mutating NodeSet's result changed Dist")
	}
}

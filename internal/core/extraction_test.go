package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/change"
	"repro/internal/corpus"
	"repro/internal/cryptoapi"
	"repro/internal/usage"
)

// renderGraph lists a graph's nodes in key order, each with its label and
// its ordered children.
func renderGraph(g *usage.Graph) string {
	keys := make([]string, 0, g.NodeCount())
	for k := range g.NodeSet() {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s [%s] -> %s\n", k, g.Label(k), strings.Join(g.Children(k), ", "))
	}
	return sb.String()
}

func (g *refGraph) render() string {
	keys := make([]string, 0, len(g.nodes))
	for k := range g.nodes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s [%s] -> %s\n", k, g.labels[k], strings.Join(g.edges[k], ", "))
	}
	return sb.String()
}

func renderPathList(ps []usage.Path) string {
	var sb strings.Builder
	for _, p := range ps {
		sb.WriteString(p.String() + "\n")
	}
	return sb.String()
}

func renderChanges(ucs []change.UsageChange) string {
	var sb strings.Builder
	for i, uc := range ucs {
		fmt.Fprintf(&sb, "[%d] %s -\n%s+\n%s", i, uc.Class, renderPathList(uc.Removed), renderPathList(uc.Added))
	}
	return sb.String()
}

// diffExtraction compares one (old, new, class) extraction against the
// reference: every DAG's nodes, labels, child order, path order and DOT
// text, every pairwise distance, and the usage changes in order. It
// returns the number of DAGs compared and of non-empty usage changes.
func diffExtraction(t *testing.T, what string, oldRes, newRes *analysis.Result, class string) (graphs, changed int) {
	t.Helper()
	var gs []*usage.Graph
	var refs []*refGraph
	for _, res := range []*analysis.Result{oldRes, newRes} {
		gs = append(gs, usage.BuildAll(res, class, usage.DefaultDepth)...)
		refs = append(refs, refBuildAll(res, class, usage.DefaultDepth)...)
	}
	if len(gs) != len(refs) {
		t.Fatalf("%s %s: %d DAGs, reference %d", what, class, len(gs), len(refs))
	}
	for i, g := range gs {
		ref := refs[i]
		if got, want := renderGraph(g), ref.render(); got != want {
			t.Errorf("%s %s DAG %d: graph differs\n--- got ---\n%s--- reference ---\n%s", what, class, i, got, want)
		}
		if got, want := renderPathList(g.Paths()), renderPathList(ref.paths()); got != want {
			t.Errorf("%s %s DAG %d: paths differ\n--- got ---\n%s--- reference ---\n%s", what, class, i, got, want)
		}
		if got, want := g.DOT("g"), ref.dot("g"); got != want {
			t.Errorf("%s %s DAG %d: DOT differs\n--- got ---\n%s--- reference ---\n%s", what, class, i, got, want)
		}
		for j := range gs {
			if got, want := usage.Dist(g, gs[j]), refDist(ref, refs[j]); got != want {
				t.Errorf("%s %s: Dist(%d, %d) = %v, reference %v", what, class, i, j, got, want)
			}
		}
	}
	got := change.Extract(oldRes, newRes, class, usage.DefaultDepth, change.Meta{})
	want := refExtract(oldRes, newRes, class, usage.DefaultDepth, change.Meta{})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s %s: usage changes differ\n--- got ---\n%s--- reference ---\n%s", what, class, renderChanges(got), renderChanges(want))
	}
	for _, uc := range got {
		if !uc.IsSame() {
			changed++
		}
	}
	return len(gs), changed
}

// TestDifferentialExtraction holds usage.Build, Graph.Paths, DOT,
// usage.Dist and change.Extract (pairing plus Diff with its same-shape
// shortcut) to the map-based reference on every (change, class) of a
// generated corpus and on the helper-chain programs of the summary oracle.
func TestDifferentialExtraction(t *testing.T) {
	c := corpus.Generate(corpus.Config{Seed: 3, Scale: 0.25, Projects: 200, ExtraProjects: 10})
	analyzed := New(Options{Workers: 2}).MineCorpus(c)
	graphs, changed := 0, 0
	check := func(what string, oldRes, newRes *analysis.Result) {
		for _, class := range cryptoapi.TargetClasses {
			g, c := diffExtraction(t, what, oldRes, newRes, class)
			graphs, changed = graphs+g, changed+c
		}
	}
	// Each mined change, and, for DAG pairs that differ more than a
	// commit's, each change's new version against the next change's old.
	for i, a := range analyzed {
		check(a.Meta.Project+"@"+a.Meta.Commit, a.Old, a.New)
		if i > 0 {
			check(fmt.Sprintf("change %d new vs %d old", i-1, i), analyzed[i-1].New, a.Old)
		}
	}
	// Helper-chain programs: each against itself and against the previous.
	r := rand.New(rand.NewSource(19))
	var prev *analysis.Result
	for id := 0; id < 60; id++ {
		res := analysis.AnalyzeSource(genHelperChain(r, id).src, analysis.Options{})
		check(fmt.Sprintf("program %d vs itself", id), res, res)
		if prev != nil {
			check(fmt.Sprintf("program %d vs %d", id-1, id), prev, res)
		}
		prev = res
	}
	// The inputs must exercise both Diff branches: same-shape DAG pairs and
	// pairs that differ.
	if graphs < 1000 || changed < 1000 {
		t.Fatalf("inputs too small: %d DAGs, %d non-empty usage changes", graphs, changed)
	}
	t.Logf("%d corpus changes: %d DAGs, %d non-empty usage changes", len(analyzed), graphs, changed)
}

// buildOnly analyzes src and returns its single object of class with both
// the index-based and the reference builder.
func buildOnly(t *testing.T, src, class string) (*usage.Graph, *refGraph) {
	t.Helper()
	res := analysis.AnalyzeSource(src, analysis.Options{})
	objs := res.ObjsOfType(class)
	if len(objs) != 1 {
		t.Fatalf("%s objects = %d, want 1", class, len(objs))
	}
	return usage.Build(res, objs[0], usage.DefaultDepth), refBuild(res, objs[0], usage.DefaultDepth)
}

func cipherProgram(body string) string {
	return "class A {\n    void m(Key k) throws Exception {\n        Cipher c = Cipher.getInstance(\"AES\");\n" +
		body + "    }\n}\n"
}

// TestDiffSameShapeReordered checks that two DAGs with equal nodes and
// edges inserted in a different order are SameShape and diff to nothing,
// as the reference does.
func TestDiffSameShapeReordered(t *testing.T) {
	g1, r1 := buildOnly(t, cipherProgram("        c.init(Cipher.ENCRYPT_MODE, k);\n        c.init(Cipher.DECRYPT_MODE, k);\n"), cryptoapi.Cipher)
	g2, r2 := buildOnly(t, cipherProgram("        c.init(Cipher.DECRYPT_MODE, k);\n        c.init(Cipher.ENCRYPT_MODE, k);\n"), cryptoapi.Cipher)
	if reflect.DeepEqual(g1.Children("M|Cipher.init"), g2.Children("M|Cipher.init")) {
		t.Fatalf("init children in the same order %v; the test needs them reordered", g1.Children("M|Cipher.init"))
	}
	if !usage.SameShape(g1, g2) || !usage.SameShape(g2, g1) {
		t.Error("reordered DAGs are not SameShape")
	}
	if rem, add := change.Diff(g1, g2); rem != nil || add != nil {
		t.Errorf("Diff = %v, %v, want nil, nil", rem, add)
	}
	if rem, add := refDiff(r1, r2); rem != nil || add != nil {
		t.Errorf("reference Diff = %v, %v, want nil, nil", rem, add)
	}
}

// TestDiffOneEdgeApart checks that two DAGs over the same node set that
// differ in one edge are not SameShape, and that their Diff equals the
// reference's: once with an edge added, once with an edge moved to a
// sibling argument (equal child counts, different child sets).
func TestDiffOneEdgeApart(t *testing.T) {
	for _, tc := range []struct {
		name, old, new, added string
	}{
		{"added edge",
			"        c.update(\"DES\");\n        c.doFinal(\"AES\");\n",
			"        c.update(\"DES\");\n        c.update(\"AES\");\n        c.doFinal(\"AES\");\n",
			`Cipher → update → arg1:"AES"`},
		{"moved edge",
			"        c.update(\"AES\");\n        c.doFinal(\"DES\");\n",
			"        c.update(\"DES\");\n        c.doFinal(\"DES\");\n",
			`Cipher → update → arg1:"DES"`},
	} {
		g1, r1 := buildOnly(t, cipherProgram(tc.old), cryptoapi.Cipher)
		g2, r2 := buildOnly(t, cipherProgram(tc.new), cryptoapi.Cipher)
		if !reflect.DeepEqual(g1.NodeSet(), g2.NodeSet()) {
			t.Fatalf("%s: node sets differ: %v vs %v", tc.name, g1.NodeSet(), g2.NodeSet())
		}
		if usage.SameShape(g1, g2) || usage.SameShape(g2, g1) {
			t.Errorf("%s: DAGs one edge apart are SameShape", tc.name)
		}
		rem, add := change.Diff(g1, g2)
		wantRem, wantAdd := refDiff(r1, r2)
		if !reflect.DeepEqual(rem, wantRem) || !reflect.DeepEqual(add, wantAdd) {
			t.Errorf("%s: Diff = %v, %v; reference %v, %v", tc.name, rem, add, wantRem, wantAdd)
		}
		if len(add) != 1 || add[0].String() != tc.added {
			t.Errorf("%s: added = %v, want %s", tc.name, add, tc.added)
		}
	}
}

package cluster

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/change"
	"repro/internal/usage"
)

// mkChange builds a usage change switching getInstance from one
// transformation to another — the shape of the paper's Figure 8 leaves.
func mkChange(from, to string, extraAdd ...string) change.UsageChange {
	c := change.UsageChange{Class: "Cipher"}
	c.Removed = []usage.Path{{"Cipher", "getInstance", `arg1:"` + from + `"`}}
	c.Added = []usage.Path{{"Cipher", "getInstance", `arg1:"` + to + `"`}}
	for _, e := range extraAdd {
		c.Added = append(c.Added, usage.Path{"Cipher", "init", e})
	}
	return c
}

// figure8Changes are the three ECB→CBC/GCM fixes of Figure 8 plus two
// unrelated changes.
func figure8Changes() []change.UsageChange {
	return []change.UsageChange{
		mkChange("AES/ECB", "AES/GCM", "arg3:IvParameterSpec"),
		mkChange("AES/ECB", "AES/CBC", "arg3:IvParameterSpec"),
		mkChange("AES", "AES/CBC", "arg3:IvParameterSpec"),
		mkChange("DES", "AES/GCM/NoPadding"),
		{
			Class:   "Cipher",
			Removed: []usage.Path{{"Cipher", "getInstance", `arg2:"SunJCE"`}},
			Added:   []usage.Path{{"Cipher", "getInstance", `arg2:"BC"`}},
		},
	}
}

func TestDistMatrixSymmetry(t *testing.T) {
	d := DistMatrixPool(figure8Changes(), nil, nil)
	for i := range d {
		if d[i][i] != 0 {
			t.Errorf("d[%d][%d] = %v, want 0", i, i, d[i][i])
		}
		for j := range d {
			if d[i][j] != d[j][i] {
				t.Errorf("asymmetric at (%d,%d)", i, j)
			}
			if d[i][j] < 0 {
				t.Errorf("negative distance at (%d,%d)", i, j)
			}
		}
	}
}

func TestFigure8ECBClusterForms(t *testing.T) {
	changes := figure8Changes()
	root := AgglomeratePool(changes, Complete, nil, nil)
	if root == nil || root.Size() != len(changes) {
		t.Fatalf("dendrogram size = %v", root)
	}
	// Cutting at a moderate threshold must group the three ECB fixes
	// (indices 0-2) into one cluster, separate from the provider switch.
	clusters := root.Cut(0.6)
	var ecb []int
	for _, cl := range clusters {
		for _, i := range cl {
			if i == 0 {
				ecb = cl
			}
		}
	}
	if len(ecb) < 3 {
		t.Fatalf("ECB cluster = %v, want the three mode fixes together\n%s",
			ecb, Render(root, func(i int) string { return changes[i].String() }))
	}
	has := map[int]bool{}
	for _, i := range ecb {
		has[i] = true
	}
	for i := 0; i < 3; i++ {
		if !has[i] {
			t.Errorf("ECB cluster %v missing change %d", ecb, i)
		}
	}
	if has[4] {
		t.Error("provider switch merged into the ECB cluster")
	}
}

func TestCutExtremes(t *testing.T) {
	changes := figure8Changes()
	root := AgglomeratePool(changes, Complete, nil, nil)
	// Threshold below every merge: all singletons.
	singles := root.Cut(-1)
	if len(singles) != len(changes) {
		t.Errorf("cut(-1) clusters = %d, want %d", len(singles), len(changes))
	}
	// Threshold above the root: one cluster with everything.
	all := root.Cut(math.MaxFloat64)
	if len(all) != 1 || len(all[0]) != len(changes) {
		t.Errorf("cut(inf) = %v", all)
	}
}

func TestSingleVsCompleteLinkage(t *testing.T) {
	// A chain a-b-c-d where consecutive distances are small but end-to-end
	// is large: single linkage merges the chain at a low height, complete
	// linkage does not.
	d := [][]float64{
		{0.0, 0.1, 0.5, 0.9},
		{0.1, 0.0, 0.1, 0.5},
		{0.5, 0.1, 0.0, 0.1},
		{0.9, 0.5, 0.1, 0.0},
	}
	single := AgglomerateMatrix(d, Single)
	complete := AgglomerateMatrix(d, Complete)
	if single.Height >= complete.Height {
		t.Errorf("single root height %v should be below complete %v",
			single.Height, complete.Height)
	}
	if math.Abs(single.Height-0.1) > 1e-12 {
		t.Errorf("single linkage root height = %v, want 0.1 (chaining)", single.Height)
	}
	if math.Abs(complete.Height-0.9) > 1e-12 {
		t.Errorf("complete linkage root height = %v, want 0.9", complete.Height)
	}
}

func TestAverageLinkage(t *testing.T) {
	d := [][]float64{
		{0, 0.2, 1.0},
		{0.2, 0, 0.6},
		{1.0, 0.6, 0},
	}
	root := AgglomerateMatrix(d, Average)
	// First merge {0,1} at 0.2; then cluster to 2 at (1.0+0.6)/2 = 0.8.
	if math.Abs(root.Height-0.8) > 1e-12 {
		t.Errorf("UPGMA root height = %v, want 0.8", root.Height)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	if AgglomeratePool(nil, Complete, nil, nil) != nil {
		t.Error("empty input should give nil dendrogram")
	}
	one := []change.UsageChange{mkChange("AES", "AES/GCM")}
	root := AgglomeratePool(one, Complete, nil, nil)
	if root == nil || !root.IsLeaf() || root.Item != 0 {
		t.Errorf("singleton root = %+v", root)
	}
	if got := root.Cut(0.5); len(got) != 1 || got[0][0] != 0 {
		t.Errorf("singleton cut = %v", got)
	}
}

func TestItemsCoverAllLeaves(t *testing.T) {
	changes := figure8Changes()
	root := AgglomeratePool(changes, Complete, nil, nil)
	items := root.Items()
	if len(items) != len(changes) {
		t.Fatalf("items = %v", items)
	}
	seen := map[int]bool{}
	for _, i := range items {
		if seen[i] {
			t.Errorf("duplicate leaf %d", i)
		}
		seen[i] = true
	}
}

func TestDeterminism(t *testing.T) {
	changes := figure8Changes()
	r1 := Render(AgglomeratePool(changes, Complete, nil, nil), func(i int) string { return changes[i].Key() })
	for k := 0; k < 5; k++ {
		r2 := Render(AgglomeratePool(changes, Complete, nil, nil), func(i int) string { return changes[i].Key() })
		if r1 != r2 {
			t.Fatal("clustering not deterministic")
		}
	}
}

func TestRenderShape(t *testing.T) {
	changes := figure8Changes()
	out := Render(AgglomeratePool(changes, Complete, nil, nil), func(i int) string {
		return changes[i].String()
	})
	if !strings.Contains(out, "└─") || !strings.Contains(out, "[h=") {
		t.Errorf("render missing tree glyphs:\n%s", out)
	}
	// Every leaf label appears.
	if strings.Count(out, "AES/ECB") < 2 {
		t.Errorf("leaf labels missing:\n%s", out)
	}
}

// Property: monotonicity of merge heights along root-to-leaf paths for
// complete and average linkage (heights never decrease upward).
func TestQuickMonotoneHeights(t *testing.T) {
	f := func(seed []uint8) bool {
		n := len(seed)%6 + 2
		d := make([][]float64, n)
		for i := range d {
			d[i] = make([]float64, n)
		}
		k := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := 0.1
				if len(seed) > 0 {
					v = float64(seed[k%len(seed)]%100)/100 + 0.01
				}
				k++
				d[i][j], d[j][i] = v, v
			}
		}
		root := AgglomerateMatrix(d, Complete)
		ok := true
		var walk func(*Node)
		walk = func(x *Node) {
			if x == nil || x.IsLeaf() {
				return
			}
			for _, ch := range []*Node{x.Left, x.Right} {
				if !ch.IsLeaf() && ch.Height > x.Height+1e-12 {
					ok = false
				}
			}
			walk(x.Left)
			walk(x.Right)
		}
		walk(root)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAgglomerate100(b *testing.B) {
	var changes []change.UsageChange
	modes := []string{"AES", "AES/ECB", "DES", "AES/CBC", "AES/GCM", "RSA"}
	for i := 0; i < 100; i++ {
		changes = append(changes, mkChange(modes[i%len(modes)], modes[(i+1)%len(modes)]))
	}
	d := DistMatrixPool(changes, nil, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AgglomerateMatrix(d, Complete)
	}
}

package cluster

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/change"
	"repro/internal/distcache"
	"repro/internal/parallel"
	"repro/internal/usage"
)

// genChanges builds n distinct usage changes with a varied, collision-rich
// distance structure: many pairs tie, so the suite actually exercises the
// row-major tie-break of the min-pair scan, not just distinct minima.
func genChanges(n int) []change.UsageChange {
	algs := []string{"AES/ECB", "AES/CBC", "AES/GCM", "DES", "RC4", "AES", "DESede/ECB"}
	extras := []string{"", "arg3:IvParameterSpec", "arg2:SecureRandom"}
	out := make([]change.UsageChange, n)
	for i := range out {
		from := algs[i%len(algs)]
		to := algs[(i+3)%len(algs)]
		c := change.UsageChange{Class: "Cipher"}
		c.Removed = []usage.Path{{"Cipher", "getInstance", `arg1:"` + from + `"`}}
		c.Added = []usage.Path{{"Cipher", "getInstance", `arg1:"` + to + `"`}}
		if e := extras[i%len(extras)]; e != "" {
			c.Added = append(c.Added, usage.Path{"Cipher", "init", e})
		}
		out[i] = c
	}
	return out
}

// dendroFingerprint serializes a dendrogram completely: nesting (merge
// structure), heights, and leaf order. Two identical fingerprints mean the
// same merges happened in the same order at the same heights.
func dendroFingerprint(n *Node) string {
	var sb strings.Builder
	var walk func(*Node)
	walk = func(x *Node) {
		if x == nil {
			sb.WriteString("nil")
			return
		}
		if x.IsLeaf() {
			fmt.Fprintf(&sb, "%d", x.Item)
			return
		}
		fmt.Fprintf(&sb, "(h=%.17g ", x.Height)
		walk(x.Left)
		sb.WriteString(" ")
		walk(x.Right)
		sb.WriteString(")")
	}
	walk(n)
	return sb.String()
}

// TestDeterminismDistMatrixPool asserts every matrix cell is bitwise equal
// to the serial matrix at several worker counts, at a size above the
// parallel threshold.
func TestDeterminismDistMatrixPool(t *testing.T) {
	changes := genChanges(80)
	want := DistMatrixPool(changes, nil, nil)
	for _, w := range []int{1, 2, 8} {
		got := DistMatrixPool(changes, nil, parallel.New(w, nil))
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("workers=%d: d[%d][%d] = %v, want %v", w, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

// TestDeterminismAgglomeratePool asserts the dendrogram — shape, merge
// order, and heights — is identical to the serial clustering at several
// worker counts, for every linkage. n=80 exceeds minParallelScan, so the
// early merge iterations take the chunked scan-and-reduce path.
func TestDeterminismAgglomeratePool(t *testing.T) {
	changes := genChanges(80)
	if len(changes) < minParallelScan {
		t.Fatalf("test corpus too small to exercise the parallel scan path")
	}
	for _, linkage := range []Linkage{Complete, Single, Average} {
		want := dendroFingerprint(AgglomeratePool(changes, linkage, nil, nil))
		for _, w := range []int{1, 2, 8} {
			got := dendroFingerprint(AgglomeratePool(changes, linkage, nil, parallel.New(w, nil)))
			if got != want {
				t.Errorf("linkage=%v workers=%d: dendrogram differs from serial\n got: %.120s\nwant: %.120s",
					linkage, w, got, want)
			}
		}
	}
}

// TestDeterminismDistMatrixEngine asserts the memoized engine's matrix is
// bitwise equal to the uncached serial matrix at several worker counts.
// genChanges repeats with period 21, so the 80-change corpus contains
// duplicate changes and the representative fan-out path is exercised, not
// just the cache hits.
func TestDeterminismDistMatrixEngine(t *testing.T) {
	changes := genChanges(80)
	want := DistMatrixPool(changes, nil, nil)
	for _, w := range []int{1, 2, 8} {
		got := DistMatrixEngine(changes, nil, parallel.New(w, nil), distcache.New(nil))
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("workers=%d: d[%d][%d] = %v, want %v", w, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

// TestDeterminismAgglomerateEngine asserts the memoized engine's dendrogram
// is identical to the uncached reference, for every linkage and several
// worker counts: the cache changes how often the kernels run, never what
// they return.
func TestDeterminismAgglomerateEngine(t *testing.T) {
	changes := genChanges(80)
	for _, linkage := range []Linkage{Complete, Single, Average} {
		want := dendroFingerprint(AgglomeratePool(changes, linkage, nil, nil))
		for _, w := range []int{1, 2, 8} {
			got := dendroFingerprint(AgglomerateEngine(changes, linkage, nil, parallel.New(w, nil), distcache.New(nil)))
			if got != want {
				t.Errorf("linkage=%v workers=%d: cached dendrogram differs from uncached\n got: %.120s\nwant: %.120s",
					linkage, w, got, want)
			}
		}
	}
}

// TestDeterminismEngineReuse asserts a warm engine (reused across matrices,
// as the pipeline does per class) still reproduces the cold uncached matrix.
func TestDeterminismEngineReuse(t *testing.T) {
	eng := distcache.New(nil)
	for _, n := range []int{10, 40, 80} {
		changes := genChanges(n)
		want := DistMatrixPool(changes, nil, nil)
		got := DistMatrixEngine(changes, nil, nil, eng)
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("n=%d: d[%d][%d] = %v, want %v", n, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

// TestDeterminismRenderAcrossWorkers asserts the user-facing rendering is
// byte-identical — the property the CLIs rely on.
func TestDeterminismRenderAcrossWorkers(t *testing.T) {
	changes := genChanges(70)
	label := func(i int) string { return fmt.Sprintf("c%d", i) }
	want := Render(AgglomeratePool(changes, Complete, nil, nil), label)
	for _, w := range []int{2, 8} {
		got := Render(AgglomeratePool(changes, Complete, nil, parallel.New(w, nil)), label)
		if got != want {
			t.Errorf("workers=%d: rendering differs from serial", w)
		}
	}
}

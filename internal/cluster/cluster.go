// Package cluster implements the agglomerative hierarchical clustering of
// the paper's §4.3: usage changes are leaves, the distance metric is
// usageDist, and clusters merge bottom-up under a configurable linkage
// (complete linkage in the paper; single linkage is provided for the
// ablation benchmarks). The resulting dendrogram is what the analyst
// inspects to elicit security rules (Figure 8).
package cluster

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/change"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/textdist"
)

// Parallelization thresholds: below these sizes the chunked fan-out costs
// more than the loop it splits, so the serial path runs regardless of the
// pool's worker count. Output is identical either way (the parallel paths
// are deterministic), so the cutoffs are pure tuning knobs.
const (
	// minParallelMatrixRows gates row-chunked distance-matrix construction.
	minParallelMatrixRows = 8
	// minParallelScan gates the chunked min-pair scan and row updates of
	// one agglomeration step (an O(active²) and O(active) loop of cheap
	// float compares; only large fronts amortize the fan-out).
	minParallelScan = 64
)

// Linkage selects how inter-cluster distance is computed.
type Linkage int

// Supported linkages.
const (
	// Complete linkage: clusterDist(X, Y) = max usageDist over pairs.
	Complete Linkage = iota
	// Single linkage: min over pairs (chains clusters; ablation only).
	Single
	// Average linkage (UPGMA).
	Average
)

// Node is a dendrogram node. Leaves carry Item >= 0 (index into the input
// slice); internal nodes carry the merge Height (the linkage distance at
// which their children merged).
type Node struct {
	Item        int // leaf index, -1 for internal nodes
	Left, Right *Node
	Height      float64
	size        int
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.Item >= 0 }

// Size returns the number of leaves under the node.
func (n *Node) Size() int { return n.size }

// Items returns the leaf indices under the node in left-to-right order.
func (n *Node) Items() []int {
	var out []int
	var walk func(*Node)
	walk = func(x *Node) {
		if x == nil {
			return
		}
		if x.IsLeaf() {
			out = append(out, x.Item)
			return
		}
		walk(x.Left)
		walk(x.Right)
	}
	walk(n)
	return out
}

// DistMatrixPool computes the symmetric usageDist matrix over usage changes
// on a worker pool, counting every pairwise UsageDist evaluation into reg
// (nil reg is a no-op). It is the uncached reference for DistMatrixEngine.
// The strict upper triangle is split into row chunks balanced by pair count (row i owns
// n-1-i pairs) and computed concurrently. Each pair (i, j) is owned by
// exactly one chunk, which writes both d[i][j] and d[j][i], so chunks
// never touch the same cell and the result is identical to the serial
// matrix at any worker count. A nil or one-worker pool runs serially.
func DistMatrixPool(changes []change.UsageChange, reg *obs.Registry, p *parallel.Pool) [][]float64 {
	n := len(changes)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	fillRows := func(r parallel.Range) {
		for i := r.Lo; i < r.Hi; i++ {
			for j := i + 1; j < n; j++ {
				dist := textdist.UsageDist(
					changes[i].Removed, changes[i].Added,
					changes[j].Removed, changes[j].Added)
				d[i][j] = dist
				d[j][i] = dist
			}
		}
	}
	if !p.Serial() && n >= minParallelMatrixRows {
		// More chunks than workers so a stray expensive row doesn't leave
		// the other workers idle at the tail.
		chunks := parallel.TriangleChunks(n, p.Workers()*4)
		p.ForEach(context.Background(), len(chunks), func(ci int) { fillRows(chunks[ci]) })
	} else {
		fillRows(parallel.Range{Lo: 0, Hi: n})
	}
	reg.Counter("cluster.dist_computations").Add(int64(n) * int64(n-1) / 2)
	return d
}

// AgglomeratePool builds the dendrogram over the given usage changes from
// the uncached DistMatrixPool matrix; both the distance matrix and the
// per-merge scans/updates run row-chunked, with distance computations and
// merge iterations counted into reg. It returns nil for empty input; a
// single change yields a lone leaf. The dendrogram is identical at any
// worker count (see AgglomerateMatrixPool).
func AgglomeratePool(changes []change.UsageChange, linkage Linkage, reg *obs.Registry, p *parallel.Pool) *Node {
	return AgglomerateMatrixPool(DistMatrixPool(changes, reg, p), linkage, reg, p)
}

// AgglomerateMatrix clusters from a precomputed distance matrix, serially
// and without telemetry. Ties break deterministically on the smallest
// (i, j) pair.
func AgglomerateMatrix(dist [][]float64, linkage Linkage) *Node {
	return AgglomerateMatrixPool(dist, linkage, nil, nil)
}

// minCand is one chunk's best merge candidate: the smallest distance seen,
// tie-broken on the smallest (i, j) in row-major order — the same rule the
// serial scan applies, which is what makes the parallel reduction exact.
type minCand struct {
	best   float64
	bi, bj int
}

// better reports whether c beats cur under the serial scan's ordering:
// strictly smaller distance wins; an equal distance never displaces an
// earlier (row-major smaller) pair.
func (c minCand) better(cur minCand) bool { return c.bi >= 0 && c.best < cur.best }

// scanRows finds the minimum active pair with i in [r.Lo, r.Hi), scanning
// in the serial loop's row-major order.
func scanRows(d [][]float64, active []bool, r parallel.Range) minCand {
	n := len(d)
	c := minCand{best: math.MaxFloat64, bi: -1, bj: -1}
	for i := r.Lo; i < r.Hi; i++ {
		if !active[i] {
			continue
		}
		for j := i + 1; j < n; j++ {
			if !active[j] {
				continue
			}
			if d[i][j] < c.best {
				c.best = d[i][j]
				c.bi, c.bj = i, j
			}
		}
	}
	return c
}

// AgglomerateMatrixPool is AgglomerateMatrix over a worker pool, with
// merge iterations counted into reg. Each
// merge iteration splits the candidate-pair scan and the Lance-Williams
// row update into row chunks. Determinism: every chunk applies the serial
// scan's strict-< tie-break, chunk results are reduced in row order (an
// equal minimum never displaces an earlier chunk's candidate), and the row
// update writes disjoint cells per k — so the merge order, heights, and
// dendrogram shape are byte-identical to the serial algorithm at any
// worker count. A nil or one-worker pool (or a small active front) runs
// the serial loops unchanged.
func AgglomerateMatrixPool(dist [][]float64, linkage Linkage, reg *obs.Registry, p *parallel.Pool) *Node {
	n := len(dist)
	if n == 0 {
		return nil
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = &Node{Item: i, size: 1}
	}
	// Working copy of the distance matrix between active clusters.
	d := make([][]float64, n)
	for i := range d {
		d[i] = append([]float64{}, dist[i]...)
	}
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	par := !p.Serial() && n >= minParallelScan
	ctx := context.Background()
	remaining := n
	for remaining > 1 {
		// Find the closest active pair: chunked local minima reduced in row
		// order, or the plain serial scan below the parallel threshold.
		cand := minCand{best: math.MaxFloat64, bi: -1, bj: -1}
		if par && remaining >= minParallelScan {
			chunks := parallel.TriangleChunks(n, p.Workers()*4)
			for _, c := range parallel.Map(p, ctx, len(chunks), func(ci int) minCand {
				return scanRows(d, active, chunks[ci])
			}) {
				if c.better(cand) {
					cand = c
				}
			}
		} else {
			cand = scanRows(d, active, parallel.Range{Lo: 0, Hi: n})
		}
		bi, bj, best := cand.bi, cand.bj, cand.best
		merged := &Node{Item: -1, Left: nodes[bi], Right: nodes[bj],
			Height: best, size: nodes[bi].size + nodes[bj].size}
		// Lance-Williams update into slot bi; retire bj. Every k writes only
		// d[k][bi] and d[bi][k] — disjoint cells across k — so the chunked
		// update is race-free and order-independent.
		update := func(r parallel.Range) {
			for k := r.Lo; k < r.Hi; k++ {
				if !active[k] || k == bi || k == bj {
					continue
				}
				var nd float64
				switch linkage {
				case Complete:
					nd = math.Max(d[k][bi], d[k][bj])
				case Single:
					nd = math.Min(d[k][bi], d[k][bj])
				case Average:
					si := float64(nodes[bi].size)
					sj := float64(nodes[bj].size)
					nd = (si*d[k][bi] + sj*d[k][bj]) / (si + sj)
				}
				d[k][bi] = nd
				d[bi][k] = nd
			}
		}
		if par && remaining >= minParallelScan {
			chunks := parallel.Chunks(n, p.Workers()*2)
			p.ForEach(ctx, len(chunks), func(ci int) { update(chunks[ci]) })
		} else {
			update(parallel.Range{Lo: 0, Hi: n})
		}
		nodes[bi] = merged
		active[bj] = false
		remaining--
		reg.Counter("cluster.merges").Inc()
	}
	for i := 0; i < n; i++ {
		if active[i] {
			return nodes[i]
		}
	}
	return nil
}

// Cut slices the dendrogram at a height threshold: every maximal subtree
// whose merge height is <= threshold becomes one cluster. Clusters are
// returned largest-first (ties by smallest member index).
func (n *Node) Cut(threshold float64) [][]int {
	if n == nil {
		return nil
	}
	var clusters [][]int
	var walk func(*Node)
	walk = func(x *Node) {
		if x.IsLeaf() || x.Height <= threshold {
			clusters = append(clusters, x.Items())
			return
		}
		walk(x.Left)
		walk(x.Right)
	}
	walk(n)
	sort.SliceStable(clusters, func(i, j int) bool {
		if len(clusters[i]) != len(clusters[j]) {
			return len(clusters[i]) > len(clusters[j])
		}
		return clusters[i][0] < clusters[j][0]
	})
	return clusters
}

// Render draws an ASCII dendrogram with one leaf per line, in the style of
// the paper's Figure 8. labelFn supplies the leaf captions.
func Render(root *Node, labelFn func(i int) string) string {
	if root == nil {
		return ""
	}
	var sb strings.Builder
	var walk func(n *Node, prefix string, isLast bool)
	walk = func(n *Node, prefix string, isLast bool) {
		connector := "├─"
		childPrefix := prefix + "│ "
		if isLast {
			connector = "└─"
			childPrefix = prefix + "  "
		}
		if n.IsLeaf() {
			fmt.Fprintf(&sb, "%s%s %s\n", prefix, connector, labelFn(n.Item))
			return
		}
		fmt.Fprintf(&sb, "%s%s [h=%.3f]\n", prefix, connector, n.Height)
		walk(n.Left, childPrefix, false)
		walk(n.Right, childPrefix, true)
	}
	if root.IsLeaf() {
		return labelFn(root.Item) + "\n"
	}
	fmt.Fprintf(&sb, "[h=%.3f]\n", root.Height)
	walk(root.Left, "", false)
	walk(root.Right, "", true)
	return sb.String()
}

package cluster

import (
	"context"

	"repro/internal/change"
	"repro/internal/distcache"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// internedChange is one usage change with both feature sets interned.
type internedChange struct {
	rem, add []distcache.PathRef
}

// DistMatrixEngine is DistMatrixPool routed through a memoized distance
// engine. On top of the engine's label- and path-level caches it adds
// matrix-level deduplication: changes are fingerprinted (order-sensitive, see
// distcache.AppendFingerprint), one representative per distinct fingerprint
// enters the pairwise loop, and representative rows fan out to duplicate
// slots. Duplicates are byte-identical inputs, so the fan-out copies exactly
// the values the full loop would have produced (identical-pair distances are
// exactly 0.0: every summand of the assignment objective is a non-negative
// float and the zero matching is optimal). eng must be non-nil.
func DistMatrixEngine(changes []change.UsageChange, reg *obs.Registry, p *parallel.Pool, eng *distcache.Engine) [][]float64 {
	n := len(changes)
	ic := make([]internedChange, n)
	repOf := make([]int, n) // slot → representative index
	var reps []int          // representative index → slot of first occurrence
	seen := map[string]int{}
	var fp []byte
	for i, c := range changes {
		ic[i] = internedChange{rem: eng.InternPaths(c.Removed), add: eng.InternPaths(c.Added)}
		fp = distcache.AppendFingerprint(fp[:0], ic[i].rem, ic[i].add)
		r, ok := seen[string(fp)]
		if !ok {
			r = len(reps)
			seen[string(fp)] = r
			reps = append(reps, i)
		}
		repOf[i] = r
	}
	m := len(reps)
	rd := make([][]float64, m)
	for i := range rd {
		rd[i] = make([]float64, m)
	}
	fillRows := func(r parallel.Range) {
		for i := r.Lo; i < r.Hi; i++ {
			a := ic[reps[i]]
			for j := i + 1; j < m; j++ {
				b := ic[reps[j]]
				dist := eng.UsageDistRefs(a.rem, a.add, b.rem, b.add)
				rd[i][j] = dist
				rd[j][i] = dist
			}
		}
	}
	if !p.Serial() && m >= minParallelMatrixRows {
		chunks := parallel.TriangleChunks(m, p.Workers()*4)
		p.ForEach(context.Background(), len(chunks), func(ci int) { fillRows(chunks[ci]) })
	} else {
		fillRows(parallel.Range{Lo: 0, Hi: m})
	}
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		ri := repOf[i]
		for j := range d[i] {
			if j != i {
				d[i][j] = rd[ri][repOf[j]]
			}
		}
	}
	reg.Counter("cluster.dist_computations").Add(int64(m) * int64(m-1) / 2)
	reg.Counter("cache.matrix.pairs_total").Add(int64(n) * int64(n-1) / 2)
	reg.Counter("cache.matrix.pairs_computed").Add(int64(m) * int64(m-1) / 2)
	reg.Counter("cache.matrix.duplicate_slots").Add(int64(n - m))
	return d
}

// AgglomerateEngine is AgglomeratePool with the distance matrix routed
// through a memoized engine. The merge phase is untouched — it consumes a
// matrix that is byte-identical to DistMatrixPool's — so the dendrogram is
// identical to AgglomeratePool's at any worker count.
func AgglomerateEngine(changes []change.UsageChange, linkage Linkage, reg *obs.Registry, p *parallel.Pool, eng *distcache.Engine) *Node {
	return AgglomerateMatrixPool(DistMatrixEngine(changes, reg, p, eng), linkage, reg, p)
}

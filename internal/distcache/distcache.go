// Package distcache is the memoized distance engine behind the clustering
// hot path (paper §4.3). The quadratic distance matrix bottoms out in
// Levenshtein comparisons over a small, heavily repeated label vocabulary —
// abstracted usage changes reuse the same `arg1:"AES/CBC"`-style labels
// thousands of times — so the engine deduplicates that work at three
// levels:
//
//   - Label interning: every path-element label is canonicalized into an
//     intern table once, carrying its ID, the pre-decoded payload runes,
//     and the memoized paper-unit length (LabelLen). Label equality becomes
//     a pointer compare and the per-comparison []rune conversion of the
//     naive path disappears.
//   - Memoized kernels: concurrency-safe sharded caches keyed on interned
//     ID pairs memoize the label-payload edit distance and the full path
//     distance. The kernels mirror the textdist formulas expression by
//     expression, so cached values are bit-identical to the uncached path.
//   - The banded early-exit Levenshtein itself lives in textdist (the
//     uncached reference kernels share it); the engine only adds the
//     memoization layers on top.
//
// Exactness: the engine never approximates. Caches store exact kernel
// results; eviction (a full shard reset once a shard exceeds its cap) only
// costs recomputation, never precision. Intern IDs depend on first-touch
// order and therefore on scheduling, but IDs only feed cache keys and
// equality checks — no numeric result depends on them — so concurrent runs
// stay deterministic.
package distcache

import (
	"sync"

	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/textdist"
	"repro/internal/usage"
)

const (
	// nShards spreads cache keys over independently locked maps so pool
	// workers filling a distance matrix rarely contend. Must be a power of
	// two.
	nShards = 64
	// defaultShardCap bounds one shard's entry count; on overflow the shard
	// is reset (counted under cache.evictions). ~2M entries total at the
	// default — far above any per-class clustering run, so eviction is a
	// memory backstop, not a steady state.
	defaultShardCap = 1 << 15
)

// Label is one interned path-element label.
type Label struct {
	// ID is the dense intern identity (first-touch order).
	ID int32
	// Str is the canonical label string.
	Str string
	// Len is the label's length in paper units, memoized at intern time so
	// PathDist inner loops never recompute it (LabelLen used to be
	// re-derived — rune count included — on every comparison).
	Len int

	prefix  string // argument prefix when the label carries a string constant
	payload []rune // pre-decoded payload runes (string-constant labels only)
	isStr   bool
}

// pathRec is one interned feature path: its identity plus the interned
// labels, so prefix scans compare pointers instead of strings.
type pathRec struct {
	id     int32
	labels []*Label
}

// PathRef is a handle to an interned path, produced by InternPaths and
// consumed by the *Refs distance kernels.
type PathRef = *pathRec

// lazyCounter registers its obs counter on first use, so constructing an
// Engine never materializes cache.* metrics — a pipeline that ends up not
// clustering leaves the -v summary and -metrics snapshot untouched.
type lazyCounter struct {
	once sync.Once
	c    *obs.Counter
}

func (l *lazyCounter) add(reg *obs.Registry, name string, n int64) {
	l.once.Do(func() { l.c = reg.Counter(name) })
	l.c.Add(n)
}

// shard is one lock-striped slice of a pair cache.
type shard[V any] struct {
	mu sync.RWMutex
	m  map[uint64]V
}

// pairCache memoizes a symmetric function of two intern IDs.
type pairCache[V any] struct {
	shards [nShards]shard[V]
	cap    int
}

// pairKey packs two intern IDs order-independently (the kernels are
// symmetric, so (a,b) and (b,a) share one entry).
func pairKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// shardOf mixes the key so consecutive IDs spread across shards.
func shardOf(k uint64) int {
	k *= 0x9E3779B97F4A7C15
	return int(k >> 58 & (nShards - 1))
}

func (c *pairCache[V]) get(k uint64) (V, bool) {
	s := &c.shards[shardOf(k)]
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	return v, ok
}

// put stores v, resetting the shard first when it is full; it returns the
// number of entries evicted (0 almost always).
func (c *pairCache[V]) put(k uint64, v V) int {
	s := &c.shards[shardOf(k)]
	s.mu.Lock()
	defer s.mu.Unlock()
	evicted := 0
	if s.m == nil {
		s.m = make(map[uint64]V)
	} else if len(s.m) >= c.cap {
		evicted = len(s.m)
		s.m = make(map[uint64]V, c.cap/4)
	}
	s.m[k] = v
	return evicted
}

// Engine is the memoized distance engine. All methods are safe for
// concurrent use.
type Engine struct {
	reg *obs.Registry

	mu     sync.RWMutex
	labels map[string]*Label
	paths  map[string]*pathRec

	labelDists pairCache[int]
	pathDists  pairCache[float64]

	labelHits, labelMisses lazyCounter
	pathHits, pathMisses   lazyCounter
	evictions              lazyCounter
	// resets counts shard resets (one bump per cap-triggered wipe), next to
	// cache.evictions' per-entry tally: evictions says how much was dropped,
	// resets says how often the cap was actually hit.
	resets                lazyCounter
	labelCount, pathCount lazyCounter
}

// New returns an engine recording cache telemetry into reg (nil reg
// disables telemetry but not caching).
func New(reg *obs.Registry) *Engine { return newWithCap(reg, defaultShardCap) }

// newWithCap is New with a custom shard capacity (eviction tests shrink it).
func newWithCap(reg *obs.Registry, shardCap int) *Engine {
	e := &Engine{
		reg:    reg,
		labels: map[string]*Label{},
		paths:  map[string]*pathRec{},
	}
	e.labelDists.cap = shardCap
	e.pathDists.cap = shardCap
	return e
}

// Intern canonicalizes a label, decoding its payload and memoizing its
// paper-unit length exactly once per distinct label string.
func (e *Engine) Intern(label string) *Label {
	e.mu.RLock()
	l, ok := e.labels[label]
	e.mu.RUnlock()
	if ok {
		return l
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if l, ok := e.labels[label]; ok {
		return l
	}
	l = &Label{ID: int32(len(e.labels)), Str: label, Len: 1}
	if prefix, payload, ok := labelPayload(label); ok {
		l.isStr = true
		l.prefix = prefix
		l.payload = []rune(payload)
		l.Len = len(l.payload) + 1
	}
	e.labels[label] = l
	e.labelCount.add(e.reg, "cache.labels.interned", 1)
	return l
}

// labelPayload mirrors textdist's parse of `argN:"..."` labels (prefix,
// quoted payload, validity).
func labelPayload(l string) (prefix, payload string, isString bool) {
	for i := 0; i+1 < len(l); i++ {
		if l[i] == ':' && l[i+1] == '"' {
			if i+2 > len(l)-1 || l[len(l)-1] != '"' {
				return "", "", false
			}
			return l[:i], l[i+2 : len(l)-1], true
		}
	}
	return "", "", false
}

// internPath canonicalizes one path, interning every element label.
func (e *Engine) internPath(p usage.Path, keyBuf []byte) (*pathRec, []byte) {
	keyBuf = p.AppendKey(keyBuf[:0])
	e.mu.RLock()
	r, ok := e.paths[string(keyBuf)] // no-alloc map lookup
	e.mu.RUnlock()
	if ok {
		return r, keyBuf
	}
	labels := make([]*Label, len(p))
	for i, el := range p {
		labels[i] = e.Intern(el)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if r, ok := e.paths[string(keyBuf)]; ok {
		return r, keyBuf
	}
	r = &pathRec{id: int32(len(e.paths)), labels: labels}
	e.paths[string(keyBuf)] = r
	e.pathCount.add(e.reg, "cache.paths.interned", 1)
	return r, keyBuf
}

// InternPaths interns a feature set, returning handles for the *Refs
// kernels. Callers batching many distance queries (the distance matrix)
// intern each change's paths once up front.
func (e *Engine) InternPaths(ps []usage.Path) []PathRef {
	out := make([]PathRef, len(ps))
	var buf []byte
	for i, p := range ps {
		out[i], buf = e.internPath(p, buf)
	}
	return out
}

// AppendFingerprint appends an order-sensitive identity of an interned usage
// change — the removed refs in order, then the added refs in order — to dst
// and returns the extended slice. Two changes share a fingerprint iff their
// path sequences are identical element for element, which means the distance
// kernels see byte-identical inputs for them: the distance matrix can compute
// one representative per fingerprint and fan the row out to duplicates
// without perturbing a single bit. (Deliberately NOT the sorted change.Key()
// signature: a permuted path order would feed the assignment solver a
// permuted cost matrix, and only identical inputs guarantee identical IEEE
// results.)
func AppendFingerprint(dst []byte, rem, add []PathRef) []byte {
	appendID := func(dst []byte, id int32) []byte {
		return append(dst, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	dst = appendID(dst, int32(len(rem)))
	for _, r := range rem {
		dst = appendID(dst, r.id)
	}
	for _, r := range add {
		dst = appendID(dst, r.id)
	}
	return dst
}

// labelLev returns the memoized payload edit distance between two interned
// string-constant labels (callers guarantee la != lb, both string-valued,
// same argument prefix).
func (e *Engine) labelLev(la, lb *Label) int {
	k := pairKey(la.ID, lb.ID)
	if d, ok := e.labelDists.get(k); ok {
		e.labelHits.add(e.reg, "cache.label_dist.hits", 1)
		return d
	}
	e.labelMisses.add(e.reg, "cache.label_dist.misses", 1)
	d := textdist.Levenshtein(la.payload, lb.payload)
	if ev := e.labelDists.put(k, d); ev > 0 {
		e.evictions.add(e.reg, "cache.evictions", int64(ev))
		e.resets.add(e.reg, "cache.eviction.resets", 1)
	}
	return d
}

// lsrLabels mirrors textdist.LSR over interned labels: same expressions,
// same IEEE operation order, so the result is bit-identical.
func (e *Engine) lsrLabels(la, lb *Label) float64 {
	if la == lb {
		return 1
	}
	if la.isStr && lb.isStr && la.prefix == lb.prefix {
		return 1 - float64(e.labelLev(la, lb))/float64(max(la.Len, lb.Len))
	}
	return 0
}

// pathDistRefs mirrors textdist.PathDist over interned paths, memoizing the
// result per ID pair.
func (e *Engine) pathDistRefs(a, b PathRef) float64 {
	if a == b {
		return 0
	}
	k := pairKey(a.id, b.id)
	if d, ok := e.pathDists.get(k); ok {
		e.pathHits.add(e.reg, "cache.path_dist.hits", 1)
		return d
	}
	e.pathMisses.add(e.reg, "cache.path_dist.misses", 1)
	n := min(len(a.labels), len(b.labels))
	j := 0
	for j < n && a.labels[j] == b.labels[j] {
		j++
	}
	var d float64
	mx := max(len(a.labels), len(b.labels))
	if mx > 0 {
		lsr := 0.0
		if j < len(a.labels) && j < len(b.labels) {
			lsr = e.lsrLabels(a.labels[j], b.labels[j])
		}
		d = 1 - (float64(j)+lsr)/float64(mx)
	}
	if ev := e.pathDists.put(k, d); ev > 0 {
		e.evictions.add(e.reg, "cache.evictions", int64(ev))
		e.resets.add(e.reg, "cache.eviction.resets", 1)
	}
	return d
}

// pathsDistRefs mirrors textdist.PathsDist: minimum-cost assignment over
// the cached path distances, unmatched paths costing 1.
func (e *Engine) pathsDistRefs(f1, f2 []PathRef) float64 {
	return match.MinCostSum(len(f1), len(f2), func(i, j int) float64 {
		return e.pathDistRefs(f1[i], f2[j])
	}, 1)
}

// UsageDistRefs is textdist.UsageDist over interned feature sets.
func (e *Engine) UsageDistRefs(rem1, add1, rem2, add2 []PathRef) float64 {
	return (e.pathsDistRefs(rem1, rem2) + e.pathsDistRefs(add1, add2)) / 2
}

// ---------------------------------------------------------------------------
// Uninterned convenience API.
// ---------------------------------------------------------------------------

// LabelDist is the memoized textdist.LabelDist.
func (e *Engine) LabelDist(a, b string) int {
	la, lb := e.Intern(a), e.Intern(b)
	if la == lb {
		return 0
	}
	if la.isStr && lb.isStr && la.prefix == lb.prefix {
		return e.labelLev(la, lb)
	}
	return max(la.Len, lb.Len)
}

// LSR is the memoized textdist.LSR.
func (e *Engine) LSR(a, b string) float64 {
	return e.lsrLabels(e.Intern(a), e.Intern(b))
}

// PathDist is the memoized textdist.PathDist.
func (e *Engine) PathDist(p1, p2 usage.Path) float64 {
	var buf []byte
	a, buf := e.internPath(p1, buf)
	b, _ := e.internPath(p2, buf)
	return e.pathDistRefs(a, b)
}

// PathsDist is the memoized textdist.PathsDist.
func (e *Engine) PathsDist(f1, f2 []usage.Path) float64 {
	return e.pathsDistRefs(e.InternPaths(f1), e.InternPaths(f2))
}

// UsageDist is the memoized textdist.UsageDist.
func (e *Engine) UsageDist(rem1, add1, rem2, add2 []usage.Path) float64 {
	return e.UsageDistRefs(e.InternPaths(rem1), e.InternPaths(add1),
		e.InternPaths(rem2), e.InternPaths(add2))
}

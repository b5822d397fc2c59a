// Package usage builds the rooted directed acyclic graphs of the paper's
// §3.4 from abstract usages, and provides the node-set distance (§3.5) used
// to pair DAGs between program versions.
//
// Node identity follows the paper's Figure 2 arithmetic: the root is
// identified by the object's type, method nodes by their declaring class
// and name, and argument nodes by (index, abstract-value label) — object
// arguments label by their type. Two calls to the same method with
// different arguments therefore share the method node, and the argument
// nodes fan out beneath it, which is what makes the structure a DAG.
package usage

import (
	"slices"
	"strconv"
	"strings"

	"repro/internal/absdom"
	"repro/internal/analysis"
	"repro/internal/match"
)

// DefaultDepth is the expansion bound n of the paper (§3.4: "we set n=5").
const DefaultDepth = 5

// Graph is a rooted DAG over content-identified nodes. Nodes are numbered
// in creation order (the root is 0); keys, labels and kids are indexed by
// that number, and kids lists each node's children in insertion order.
// A key is looked up by scanning keys until the graph reaches
// indexThreshold nodes; from then on ids maps each key to its number.
type Graph struct {
	// Root is the key of the root node ("T|<type>").
	Root string
	// Type is the API class of the root object.
	Type string
	// Obj is the abstract object the graph was built for (nil for padding
	// graphs used during pairing).
	Obj *absdom.AObj

	ids    map[string]int32 // nil below indexThreshold nodes
	keys   []string
	labels []string // path-element label of each node
	kids   [][]int32
}

// indexThreshold is the node count from which a graph keeps its key → node
// map. Paper-scale graphs have 3–14 nodes, where scanning the keys costs
// less than building and hashing into a map.
const indexThreshold = 16

// NewRootOnly returns the padding graph G = ({r}, ∅, r) whose root is
// labeled with the type t (paper §3.5, pairing versions with unequal DAG
// counts).
func NewRootOnly(typ string) *Graph { return newGraph(typ, 1) }

// newGraph returns a root-only graph with room for size nodes.
func newGraph(typ string, size int) *Graph {
	g := &Graph{
		Root:   "T|" + typ,
		Type:   typ,
		keys:   make([]string, 0, size),
		labels: make([]string, 0, size),
		kids:   make([][]int32, 0, size),
	}
	g.addNode(g.Root, typ)
	return g
}

// addNode appends a node with a key not yet in the graph and returns its
// number.
func (g *Graph) addNode(key, label string) int32 {
	n := int32(len(g.keys))
	g.keys = append(g.keys, key)
	g.labels = append(g.labels, label)
	g.kids = append(g.kids, nil)
	switch {
	case g.ids != nil:
		g.ids[key] = n
	case len(g.keys) == indexThreshold:
		g.ids = make(map[string]int32, 2*indexThreshold)
		for i, k := range g.keys {
			g.ids[k] = int32(i)
		}
	}
	return n
}

// node returns the number of the node with the given key.
func (g *Graph) node(key string) (int32, bool) {
	if g.ids != nil {
		n, ok := g.ids[key]
		return n, ok
	}
	for i, k := range g.keys {
		if k == key {
			return int32(i), true
		}
	}
	return 0, false
}

// nodeBytes is node for a key held in a buffer; it does not allocate.
func (g *Graph) nodeBytes(key []byte) (int32, bool) {
	if g.ids != nil {
		n, ok := g.ids[string(key)]
		return n, ok
	}
	for i, k := range g.keys {
		if k == string(key) {
			return int32(i), true
		}
	}
	return 0, false
}

// addEdge appends the edge from → to unless it exists or would close a
// cycle (paper §3.4 step 2). A node created in the same step (fresh) has
// no children yet, so it cannot reach from and the cycle check is skipped.
func (g *Graph) addEdge(from, to int32, fresh bool) {
	for _, c := range g.kids[from] {
		if c == to {
			return
		}
	}
	if !fresh && g.reaches(to, from) {
		return
	}
	g.kids[from] = append(g.kids[from], to)
}

// reaches reports whether a path from → ... → to exists.
func (g *Graph) reaches(from, to int32) bool {
	if from == to {
		return true
	}
	seen := make([]bool, len(g.keys))
	stack := []int32{from}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == to {
			return true
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		stack = append(stack, g.kids[n]...)
	}
	return false
}

// NodeCount returns the number of nodes.
func (g *Graph) NodeCount() int { return len(g.keys) }

// NodeSet returns a fresh set of the node keys.
func (g *Graph) NodeSet() map[string]bool {
	out := make(map[string]bool, len(g.keys))
	for _, k := range g.keys {
		out[k] = true
	}
	return out
}

// Children returns the ordered child keys of a node.
func (g *Graph) Children(key string) []string {
	n, ok := g.node(key)
	if !ok || len(g.kids[n]) == 0 {
		return nil
	}
	out := make([]string, len(g.kids[n]))
	for i, c := range g.kids[n] {
		out[i] = g.keys[c]
	}
	return out
}

// Label returns the path-element label of a node key.
func (g *Graph) Label(key string) string {
	if n, ok := g.node(key); ok {
		return g.labels[n]
	}
	return ""
}

// SameShape reports whether two graphs have the same node keys, the same
// label per key and the same child set per node. Child order may differ;
// such graphs have equal path sets.
func SameShape(g1, g2 *Graph) bool {
	if len(g1.keys) != len(g2.keys) {
		return false
	}
	var small [64]int32
	to2 := small[:0] // node number in g1 → node number in g2
	if len(g1.keys) > len(small) {
		to2 = make([]int32, 0, len(g1.keys))
	}
	for n1, k := range g1.keys {
		n2, ok := g2.node(k)
		if !ok || g1.labels[n1] != g2.labels[n2] || len(g1.kids[n1]) != len(g2.kids[n2]) {
			return false
		}
		to2 = append(to2, n2)
	}
	for n1, kids := range g1.kids {
		kids2 := g2.kids[to2[n1]]
	next:
		for _, c := range kids {
			for _, c2 := range kids2 {
				if c2 == to2[c] {
					continue next
				}
			}
			return false
		}
	}
	return true
}

// Build constructs the usage DAG for abstract object obj from the analysis
// result, expanding object-valued arguments breadth-first to maxDepth.
func Build(res *analysis.Result, obj *absdom.AObj, maxDepth int) *Graph {
	if maxDepth <= 0 {
		maxDepth = DefaultDepth
	}
	g := newGraph(obj.Type, 8)
	g.Obj = obj

	type work struct {
		node  int32
		obj   *absdom.AObj
		depth int
		chain []int // object IDs on the expansion chain
	}
	var key []byte // node key of the current lookup, reused
	queue := []work{{node: 0, obj: obj, depth: 0, chain: []int{obj.ID}}}
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		if w.depth+1 > maxDepth {
			continue
		}
		for _, ev := range res.Uses[w.obj] {
			key = append(append(append(append(key[:0], "M|"...), ev.Sig.Class...), '.'), ev.Sig.Name...)
			m, ok := g.nodeBytes(key)
			if !ok {
				m = g.addNode(string(key), ev.Sig.Name)
			}
			g.addEdge(w.node, m, !ok)
			if w.depth+2 > maxDepth {
				continue
			}
			for i, a := range ev.Args {
				val := argValueLabel(a)
				key = strconv.AppendInt(append(key[:0], "A|"...), int64(i+1), 10)
				key = append(append(key, '|'), val...)
				n, ok := g.nodeBytes(key)
				if !ok { // label e.g. `arg1:"AES"` or `arg3:IvParameterSpec`
					n = g.addNode(string(key), "arg"+strconv.Itoa(i+1)+":"+val)
				}
				g.addEdge(m, n, !ok)
				// Recursively expand known abstract objects (not ⊤obj).
				if a.Kind == absdom.KObj && !slices.Contains(w.chain, a.Obj.ID) {
					chain := append(slices.Clip(w.chain), a.Obj.ID)
					queue = append(queue, work{node: n, obj: a.Obj,
						depth: w.depth + 2, chain: chain})
				}
			}
		}
	}
	return g
}

// BuildAll constructs the DAGs for all abstract objects of the given type.
func BuildAll(res *analysis.Result, typ string, maxDepth int) []*Graph {
	objs := res.ObjsOfType(typ)
	if len(objs) == 0 {
		return nil
	}
	out := make([]*Graph, len(objs))
	for i, o := range objs {
		out[i] = Build(res, o, maxDepth)
	}
	return out
}

// argValueLabel renders the identity part of an argument node: object
// arguments identify by type, everything else by its abstract-value label.
func argValueLabel(a absdom.Value) string {
	switch a.Kind {
	case absdom.KObj:
		return a.Obj.Type
	case absdom.KTopObj:
		if a.Type == "" {
			return "⊤obj"
		}
		return a.Type
	default:
		return a.Label()
	}
}

// ---------------------------------------------------------------------------
// Paths
// ---------------------------------------------------------------------------

// Path is a root-originating label sequence, e.g.
// ["Cipher", "getInstance", `arg1:"AES"`].
type Path []string

// String joins the path with " → " arrows for display.
func (p Path) String() string { return strings.Join(p, " → ") }

// Key returns a canonical identity string.
func (p Path) Key() string { return strings.Join(p, "\x00") }

// AppendKey appends the canonical identity of p (the same NUL-separated
// scheme as Key) to dst and returns the extended slice. Interners and
// fingerprinting loops use it with a reused buffer so building a lookup key
// does not allocate per path.
func (p Path) AppendKey(dst []byte) []byte {
	for i, el := range p {
		if i > 0 {
			dst = append(dst, 0)
		}
		dst = append(dst, el...)
	}
	return dst
}

// Equal reports element-wise equality.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// IsPrefixOf reports whether p is a (non-strict) prefix of q.
func (p Path) IsPrefixOf(q Path) bool {
	if len(p) > len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Paths enumerates every root-originating path of the graph (to every node,
// not only maximal ones), deduplicated, in deterministic order: depth-first
// from the root, children in insertion order, each path at its first visit.
func (g *Graph) Paths() []Path {
	var out []Path
	seen := map[string]struct{}{}
	var cur Path   // labels from the root to the visited node
	var key []byte // cur.AppendKey, grown and cut along the walk
	var walk func(n int32)
	walk = func(n int32) {
		mark := len(key)
		if len(cur) > 0 {
			key = append(key, 0)
		}
		key = append(key, g.labels[n]...)
		cur = append(cur, g.labels[n])
		if _, dup := seen[string(key)]; !dup {
			seen[string(key)] = struct{}{}
			out = append(out, slices.Clone(cur))
		}
		for _, c := range g.kids[n] {
			walk(c)
		}
		cur = cur[:len(cur)-1]
		key = key[:mark]
	}
	walk(0)
	return out
}

// ---------------------------------------------------------------------------
// Distance and pairing (paper §3.5)
// ---------------------------------------------------------------------------

// Dist is the intersection-over-union node-set distance between two DAGs:
// dist(G1, G2) = 1 − |N1 ∩ N2| / |N1 ∪ N2|.
func Dist(g1, g2 *Graph) float64 {
	inter := 0
	for _, k := range g1.keys {
		if _, ok := g2.node(k); ok {
			inter++
		}
	}
	union := len(g1.keys) + len(g2.keys) - inter
	if union == 0 {
		return 0
	}
	return 1 - float64(inter)/float64(union)
}

// Pair matches the DAGs of the old version with those of the new version,
// minimizing the summed distance (maximum matching, paper §3.5). Version
// sets of unequal size are padded with root-only graphs. The result pairs
// are returned in old-graph order (padding first where the old side is
// smaller).
type PairResult struct {
	Old *Graph // root-only padding when the usage was added
	New *Graph // root-only padding when the usage was removed
}

// Pair computes the minimum-distance bijection between old and new DAGs.
// One graph against at most one pairs without a cost matrix: the only
// bijection is the minimum.
func Pair(old, new []*Graph, typ string) []PairResult {
	switch max(len(old), len(new)) {
	case 0:
		return nil
	case 1:
		return []PairResult{{Old: only(old, typ), New: only(new, typ)}}
	}
	return pairAssigned(old, new, typ)
}

// only returns the one graph of gs, or root-only padding when gs is empty.
func only(gs []*Graph, typ string) *Graph {
	if len(gs) == 1 {
		return gs[0]
	}
	return NewRootOnly(typ)
}

// pairAssigned is Pair through the cost matrix and the assignment solver.
func pairAssigned(old, new []*Graph, typ string) []PairResult {
	n := max(len(old), len(new))
	padded := func(gs []*Graph) []*Graph {
		out := append([]*Graph{}, gs...)
		for len(out) < n {
			out = append(out, NewRootOnly(typ))
		}
		return out
	}
	po, pn := padded(old), padded(new)
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			cost[i][j] = Dist(po[i], pn[j])
		}
	}
	out := make([]PairResult, n)
	for i, j := range match.Assign(cost) {
		out[i] = PairResult{Old: po[i], New: pn[j]}
	}
	return out
}

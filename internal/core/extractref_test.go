package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/absdom"
	"repro/internal/analysis"
	"repro/internal/change"
	"repro/internal/match"
	"repro/internal/usage"
)

// The reference extraction: the map-of-maps usage DAG, path listing and
// diff that usage.Graph and change.Diff replaced. Nodes live in string
// maps, every edge insertion runs the cycle check, and Diff lists and
// joins every path of both graphs. TestDifferentialExtraction holds the
// index-based code to this one's output, byte for byte.

type refGraph struct {
	root   string
	nodes  map[string]bool
	labels map[string]string   // node key → path-element label
	edges  map[string][]string // parent key → ordered child keys
	edgeIn map[string]map[string]bool
}

func refRootOnly(typ string) *refGraph {
	g := &refGraph{
		root:   "T|" + typ,
		nodes:  map[string]bool{},
		labels: map[string]string{},
		edges:  map[string][]string{},
		edgeIn: map[string]map[string]bool{},
	}
	g.addNode(g.root, typ)
	return g
}

func (g *refGraph) addNode(key, label string) {
	if !g.nodes[key] {
		g.nodes[key] = true
		g.labels[key] = label
	}
}

func (g *refGraph) addEdge(from, to string) {
	in := g.edgeIn[from]
	if in == nil {
		in = map[string]bool{}
		g.edgeIn[from] = in
	}
	if in[to] {
		return
	}
	if g.reaches(to, from) {
		return // would introduce a cycle
	}
	in[to] = true
	g.edges[from] = append(g.edges[from], to)
}

func (g *refGraph) reaches(from, to string) bool {
	if from == to {
		return true
	}
	seen := map[string]bool{}
	stack := []string{from}
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
		stack = append(stack, g.edges[n]...)
	}
	return false
}

func refBuild(res *analysis.Result, obj *absdom.AObj, maxDepth int) *refGraph {
	if maxDepth <= 0 {
		maxDepth = usage.DefaultDepth
	}
	g := refRootOnly(obj.Type)
	type work struct {
		nodeKey string
		obj     *absdom.AObj
		depth   int
		chain   map[int]bool
	}
	queue := []work{{nodeKey: g.root, obj: obj, depth: 0, chain: map[int]bool{obj.ID: true}}}
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		if w.depth+1 > maxDepth {
			continue
		}
		for _, ev := range res.Uses[w.obj] {
			mKey := "M|" + ev.Sig.Class + "." + ev.Sig.Name
			g.addNode(mKey, ev.Sig.Name)
			g.addEdge(w.nodeKey, mKey)
			if w.depth+2 > maxDepth {
				continue
			}
			for i, a := range ev.Args {
				val := refArgValueLabel(a)
				aKey := "A|" + fmt.Sprint(i+1) + "|" + val
				g.addNode(aKey, fmt.Sprintf("arg%d:%s", i+1, val))
				g.addEdge(mKey, aKey)
				if a.Kind == absdom.KObj && !w.chain[a.Obj.ID] {
					chain := map[int]bool{}
					for id := range w.chain {
						chain[id] = true
					}
					chain[a.Obj.ID] = true
					queue = append(queue, work{nodeKey: aKey, obj: a.Obj,
						depth: w.depth + 2, chain: chain})
				}
			}
		}
	}
	return g
}

func refBuildAll(res *analysis.Result, typ string, maxDepth int) []*refGraph {
	var out []*refGraph
	for _, o := range res.ObjsOfType(typ) {
		out = append(out, refBuild(res, o, maxDepth))
	}
	return out
}

func refArgValueLabel(a absdom.Value) string {
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

func (g *refGraph) paths() []usage.Path {
	var out []usage.Path
	seen := map[string]bool{}
	var walk func(key string, cur usage.Path)
	walk = func(key string, cur usage.Path) {
		next := append(append(usage.Path{}, cur...), g.labels[key])
		if k := next.Key(); !seen[k] {
			seen[k] = true
			out = append(out, next)
		}
		for _, c := range g.edges[key] {
			walk(c, next)
		}
	}
	walk(g.root, nil)
	return out
}

func refDist(g1, g2 *refGraph) float64 {
	inter := 0
	for k := range g1.nodes {
		if g2.nodes[k] {
			inter++
		}
	}
	union := len(g1.nodes) + len(g2.nodes) - inter
	if union == 0 {
		return 0
	}
	return 1 - float64(inter)/float64(union)
}

func refPair(old, new []*refGraph, typ string) [][2]*refGraph {
	n := max(len(old), len(new))
	if n == 0 {
		return nil
	}
	padded := func(gs []*refGraph) []*refGraph {
		out := append([]*refGraph{}, gs...)
		for len(out) < n {
			out = append(out, refRootOnly(typ))
		}
		return out
	}
	po, pn := padded(old), padded(new)
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			cost[i][j] = refDist(po[i], pn[j])
		}
	}
	out := make([][2]*refGraph, n)
	for i, j := range match.Assign(cost) {
		out[i] = [2]*refGraph{po[i], pn[j]}
	}
	return out
}

func refDiff(g1, g2 *refGraph) (removed, added []usage.Path) {
	p1, p2 := g1.paths(), g2.paths()
	set1 := map[string]bool{}
	for _, p := range p1 {
		set1[p.Key()] = true
	}
	set2 := map[string]bool{}
	for _, p := range p2 {
		set2[p.Key()] = true
	}
	var only1, only2 []usage.Path
	for _, p := range p1 {
		if !set2[p.Key()] {
			only1 = append(only1, p)
		}
	}
	for _, p := range p2 {
		if !set1[p.Key()] {
			only2 = append(only2, p)
		}
	}
	return change.Shortest(only1), change.Shortest(only2)
}

func refExtract(oldRes, newRes *analysis.Result, class string, depth int, meta change.Meta) []change.UsageChange {
	pairs := refPair(refBuildAll(oldRes, class, depth), refBuildAll(newRes, class, depth), class)
	out := make([]change.UsageChange, 0, len(pairs))
	for _, pr := range pairs {
		rem, add := refDiff(pr[0], pr[1])
		out = append(out, change.UsageChange{Class: class, Removed: rem, Added: add, Meta: meta})
	}
	return out
}

func (g *refGraph) dot(name string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", name)
	sb.WriteString("  rankdir=TB;\n  node [fontname=\"Helvetica\"];\n")
	ids := map[string]string{}
	keys := make([]string, 0, len(g.nodes))
	for k := range g.nodes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		id := fmt.Sprintf("n%d", i)
		ids[k] = id
		shape := "plaintext"
		switch {
		case strings.HasPrefix(k, "T|"):
			shape = "doublecircle"
		case strings.HasPrefix(k, "M|"):
			shape = "box"
		}
		fmt.Fprintf(&sb, "  %s [label=%q, shape=%s];\n", id, g.labels[k], shape)
	}
	for _, from := range keys {
		for _, to := range g.edges[from] {
			fmt.Fprintf(&sb, "  %s -> %s;\n", ids[from], ids[to])
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

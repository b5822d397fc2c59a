package usage

import (
	"fmt"
	"sort"
	"strings"
)

// DOT renders the usage DAG in Graphviz dot format, in the visual style of
// the paper's Figure 2(b)/(c): the root carries the object's type, method
// nodes are boxes, argument nodes are plain labels.
func (g *Graph) DOT(name string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", name)
	sb.WriteString("  rankdir=TB;\n  node [fontname=\"Helvetica\"];\n")
	// Nodes print as n0, n1, ... in key order.
	order := make([]int32, len(g.keys))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool { return g.keys[order[i]] < g.keys[order[j]] })
	id := make([]int, len(g.keys))
	for i, n := range order {
		id[n] = i
		k := g.keys[n]
		shape := "plaintext"
		switch {
		case strings.HasPrefix(k, "T|"):
			shape = "doublecircle"
		case strings.HasPrefix(k, "M|"):
			shape = "box"
		}
		fmt.Fprintf(&sb, "  n%d [label=%q, shape=%s];\n", i, g.labels[n], shape)
	}
	for _, from := range order {
		for _, to := range g.kids[from] {
			fmt.Fprintf(&sb, "  n%d -> n%d;\n", id[from], id[to])
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// Package change derives usage changes from paired usage DAGs (paper §3.5)
// and implements the filtering pipeline of §4.2 that distills semantic
// security fixes out of tens of thousands of syntactic code changes.
package change

import (
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/usage"
)

// Meta records the provenance of a usage change (which commit of which
// project produced it).
type Meta struct {
	Project string
	Commit  string
	File    string
	Message string
}

// UsageChange is the paper's Diff(G1, G2) = (F−, F+): the shortest feature
// paths removed from the old version and added to the new version, for one
// paired object of the target class.
type UsageChange struct {
	Class   string
	Removed []usage.Path // F−
	Added   []usage.Path // F+
	Meta    Meta
}

// IsSame reports the fsame condition: both F− and F+ empty (a refactoring
// or a change not touching the target class).
func (c *UsageChange) IsSame() bool { return len(c.Removed) == 0 && len(c.Added) == 0 }

// IsAddOnly reports the fadd condition: nothing removed (a new API usage
// was introduced rather than fixed).
func (c *UsageChange) IsAddOnly() bool { return len(c.Removed) == 0 && len(c.Added) > 0 }

// IsRemoveOnly reports the frem condition: nothing added (an API usage was
// deleted).
func (c *UsageChange) IsRemoveOnly() bool { return len(c.Added) == 0 && len(c.Removed) > 0 }

// Key returns a canonical identity for duplicate detection (fdup): the
// sorted F− and F+ path sets.
func (c *UsageChange) Key() string {
	render := func(ps []usage.Path) string {
		keys := make([]string, len(ps))
		for i, p := range ps {
			keys[i] = p.Key()
		}
		sort.Strings(keys)
		return strings.Join(keys, "\x01")
	}
	return c.Class + "\x02-" + render(c.Removed) + "\x02+" + render(c.Added)
}

// String renders the change in the style of Figure 2(d).
func (c *UsageChange) String() string {
	var sb strings.Builder
	for _, p := range c.Removed {
		sb.WriteString("- " + strings.Join(p, " ") + "\n")
	}
	for _, p := range c.Added {
		sb.WriteString("+ " + strings.Join(p, " ") + "\n")
	}
	return sb.String()
}

// Shortest returns the prefix-minimal subset of paths: p is kept iff no
// other path in the set is a strict prefix of p (paper §3.5).
func Shortest(paths []usage.Path) []usage.Path {
	var out []usage.Path
	for i, p := range paths {
		minimal := true
		for j, q := range paths {
			if i == j {
				continue
			}
			if len(q) < len(p) && q.IsPrefixOf(p) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, p)
		}
	}
	return out
}

// Diff computes the usage change between two DAGs:
// F− = Shortest(Paths(G1) \ Paths(G2)), F+ = Shortest(Paths(G2) \ Paths(G1)).
// Graphs of the same shape have equal path sets, so Diff returns nil, nil
// for them without listing paths.
func Diff(g1, g2 *usage.Graph) (removed, added []usage.Path) {
	if usage.SameShape(g1, g2) {
		return nil, nil
	}
	p1, p2 := g1.Paths(), g2.Paths()
	k1, k2 := pathKeys(p1), pathKeys(p2)
	return Shortest(onlyIn(p1, k1, k2)), Shortest(onlyIn(p2, k2, k1))
}

// pathKeys returns the Key of each path.
func pathKeys(ps []usage.Path) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Key()
	}
	return out
}

// onlyIn returns, in order, the paths of ps (with keys keys) whose key is
// not in other.
func onlyIn(ps []usage.Path, keys, other []string) []usage.Path {
	drop := make(map[string]bool, len(other))
	for _, k := range other {
		drop[k] = true
	}
	var out []usage.Path
	for i, p := range ps {
		if !drop[keys[i]] {
			out = append(out, p)
		}
	}
	return out
}

// Extract derives all usage changes of one target class between two program
// versions: build the DAGs of both versions, pair them by minimum summed
// distance, and diff each pair (Figure 4).
func Extract(oldRes, newRes *analysis.Result, class string, depth int, meta Meta) []UsageChange {
	return ExtractGraphs(usage.BuildAll(oldRes, class, depth), usage.BuildAll(newRes, class, depth), class, meta)
}

// ExtractGraphs is Extract over DAGs already built: oldGs and newGs are
// usage.BuildAll of the two versions for class. It only reads the graphs,
// so a version's DAGs may be shared by every change that carries it.
func ExtractGraphs(oldGs, newGs []*usage.Graph, class string, meta Meta) []UsageChange {
	pairs := usage.Pair(oldGs, newGs, class)
	out := make([]UsageChange, 0, len(pairs))
	for _, pr := range pairs {
		rem, add := Diff(pr.Old, pr.New)
		out = append(out, UsageChange{Class: class, Removed: rem, Added: add, Meta: meta})
	}
	return out
}

// ---------------------------------------------------------------------------
// Filtering (paper §4.2)
// ---------------------------------------------------------------------------

// FilterStats reports the number of usage changes remaining after each
// filter stage, in the paper's order (Figure 6 columns).
type FilterStats struct {
	Total     int // before filtering
	AfterSame int // after fsame
	AfterAdd  int // after fadd
	AfterRem  int // after frem
	AfterDup  int // after fdup
}

// Filter applies the four filters in order — fsame, fadd, frem, fdup — and
// returns the surviving semantic usage changes plus per-stage counts.
func Filter(changes []UsageChange) ([]UsageChange, FilterStats) {
	stats := FilterStats{Total: len(changes)}
	var stage []UsageChange
	for _, c := range changes {
		if !c.IsSame() {
			stage = append(stage, c)
		}
	}
	stats.AfterSame = len(stage)

	var stage2 []UsageChange
	for _, c := range stage {
		if !c.IsAddOnly() {
			stage2 = append(stage2, c)
		}
	}
	stats.AfterAdd = len(stage2)

	var stage3 []UsageChange
	for _, c := range stage2 {
		if !c.IsRemoveOnly() {
			stage3 = append(stage3, c)
		}
	}
	stats.AfterRem = len(stage3)

	seen := map[string]bool{}
	var out []UsageChange
	for _, c := range stage3 {
		k := c.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, c)
	}
	stats.AfterDup = len(out)
	return out, stats
}

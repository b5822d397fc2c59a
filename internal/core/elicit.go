package core

import (
	"sort"

	"repro/internal/change"
	"repro/internal/cluster"
	"repro/internal/cryptoapi"
	"repro/internal/distcache"
	"repro/internal/rules"
	"repro/internal/usage"
)

// ElicitedRule is the output of the automated elicitation step: a cluster
// of similar semantic usage changes, the direction the majority of commits
// move in (fix vs bug), and the rule suggested from the cluster's
// representative change.
type ElicitedRule struct {
	Class     string
	Members   []change.UsageChange
	Support   int // total commits behind the cluster (before fdup)
	Reversals int // commits applying the reverse (buggy) direction
	Direction rules.ChangeType
	Rule      *rules.Rule
}

// ElicitRules mechanizes the paper's final, manual step (§2 Step 3 and
// §6.3): cluster the surviving usage changes per class (with an automatic
// silhouette-based cut), discard clusters whose reverse direction has more
// commit support (these *introduce* problems — the paper notes they "are
// easy to filter out, even automatically, because there are fewer commits
// in clusters that introduce problems than in clusters that fix them"),
// and emit an auto-suggested rule per surviving cluster.
func (e *Evaluation) ElicitRules() []ElicitedRule {
	var out []ElicitedRule
	for _, class := range cryptoapi.TargetClasses {
		out = append(out, e.elicitClass(class)...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		return out[i].Class < out[j].Class
	})
	return out
}

func (e *Evaluation) elicitClass(class string) []ElicitedRule {
	survivors := e.classResult(class).Survivors
	if len(survivors) == 0 {
		return nil
	}
	// Commit support per change signature, counted before deduplication
	// (fdup hides how often a fix recurs, but recurrence is the direction
	// signal).
	support := e.changeMultiplicity(class)

	var clusters [][]int
	if len(survivors) == 1 {
		clusters = [][]int{{0}}
	} else {
		d := cluster.DistMatrixEngine(survivors, nil, nil, e.DiffCode.engine)
		root := cluster.AgglomerateMatrix(d, cluster.Complete)
		clusters, _ = cluster.CutAuto(root, d)
	}

	var pending []ElicitedRule
	for _, cl := range clusters {
		er := ElicitedRule{Class: class, Direction: rules.SecurityFix}
		// Member-level direction vote: a change whose reverse has more
		// commit support is the buggy direction of its family and is
		// dropped; a cluster left without majority-fix members is a
		// false-positive cluster and is discarded entirely.
		repSupport := -1
		var rep change.UsageChange
		for _, i := range cl {
			c := survivors[i]
			fixN, revN := support[c.Key()], support[swapKey(c)]
			// Keep only strict-majority fix directions; a tie carries no
			// signal and emitting both directions would be contradictory.
			if revN >= fixN && revN > 0 {
				er.Reversals += fixN // this member is itself a reversal
				continue
			}
			er.Members = append(er.Members, c)
			er.Support += fixN
			er.Reversals += revN
			if fixN > repSupport {
				repSupport = fixN
				rep = c
			}
		}
		if len(er.Members) == 0 {
			continue // automatic false-positive removal
		}
		er.Rule = rules.Suggest(rep)
		pending = append(pending, er)
	}
	return dropReversedClusters(pending, e.DiffCode.engine)
}

// dropReversedClusters implements the paper's cluster-level direction
// comparison with a fuzzy reverse test: if reversing a cluster's changes
// lands close (in usage distance) to another cluster with strictly more
// commit support, the smaller cluster is the buggy direction and is
// dropped. This catches families the exact-signature vote misses, e.g. a
// CBC→ECB regression whose fix counterpart uses a different padding.
func dropReversedClusters(clusters []ElicitedRule, eng *distcache.Engine) []ElicitedRule {
	const reverseThreshold = 0.35
	var out []ElicitedRule
	for i, a := range clusters {
		reversed := false
		for j, b := range clusters {
			if i == j || b.Support <= a.Support {
				continue
			}
			if minSwapDist(eng, a, b) < reverseThreshold {
				reversed = true
				a.Reversals += b.Support
				break
			}
		}
		if !reversed {
			out = append(out, a)
		}
	}
	return out
}

// minSwapDist is the smallest usage distance between any member of a with
// its (F−, F+) swapped and any member of b.
func minSwapDist(eng *distcache.Engine, a, b ElicitedRule) float64 {
	best := 2.0
	for _, ma := range a.Members {
		for _, mb := range b.Members {
			d := eng.UsageDist(ma.Added, ma.Removed, mb.Removed, mb.Added)
			if d < best {
				best = d
			}
		}
	}
	return best
}

// changeMultiplicity counts, per usage-change signature, how many distinct
// commits produced it (the pre-fdup view; a commit touching several objects
// of the class identically still counts once).
func (e *Evaluation) changeMultiplicity(class string) map[string]int {
	counts := map[string]int{}
	for _, row := range e.table(class).rows {
		perCommit := map[string]bool{}
		for _, c := range row {
			if c.IsSame() || c.IsAddOnly() || c.IsRemoveOnly() {
				continue
			}
			perCommit[c.Key()] = true
		}
		for k := range perCommit {
			counts[k]++
		}
	}
	return counts
}

// swapKey is the signature of the reverse change (F− and F+ exchanged).
func swapKey(c change.UsageChange) string {
	rev := change.UsageChange{
		Class:   c.Class,
		Removed: append([]usage.Path{}, c.Added...),
		Added:   append([]usage.Path{}, c.Removed...),
	}
	return rev.Key()
}

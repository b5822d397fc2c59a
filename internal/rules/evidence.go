package rules

import (
	"sort"

	"repro/internal/absdom"
	"repro/internal/analysis"
	"repro/internal/ruledsl"
)

// Evidence pinpoints, per witnessing object, which recorded usage events a
// rule actually matched on and which argument positions were decisive. The
// witness reconstruction uses it to start traces at the right sink call and
// the right sink arguments instead of dumping every event of the object.

// EventMatch identifies one matched usage event of an object: EventIndex
// indexes into res.Uses[obj], and Args lists the argument positions the
// rule found decisive (the values whose provenance a witness trace
// follows); empty means the call itself is the evidence (R4's
// getInstanceStrong).
type EventMatch = ruledsl.EventMatch

// EvidenceFn locates the events of one object that satisfy a clause.
type EvidenceFn func(res *analysis.Result, obj *absdom.AObj, ctx Context) []EventMatch

// Evidence maps each witnessing object of the violation to the events that
// made it match. Compiled clauses report exact matches through Find;
// suggested rules, whose clauses carry only a predicate, fall back to every
// event of the object with its constant arguments marked. The result is
// deterministic: matches are ordered by event index with sorted,
// deduplicated argument lists.
func (v Violation) Evidence(res *analysis.Result, ctx Context) map[*absdom.AObj][]EventMatch {
	out := make(map[*absdom.AObj][]EventMatch, len(v.Objs))
	for _, obj := range v.Objs {
		var matches []EventMatch
		for _, c := range v.Rule.Clauses {
			if c.Find != nil && !c.Negated && c.Class == obj.Type {
				matches = append(matches, c.Find(res, obj, ctx)...)
			}
		}
		if len(matches) == 0 {
			matches = fallbackEvidence(res, obj)
		}
		out[obj] = dedupeMatches(matches)
	}
	return out
}

// fallbackEvidence marks every event of the object, flagging its constant
// arguments — the best generic guess for suggested rules, whose
// path-containment predicate is opaque.
func fallbackEvidence(res *analysis.Result, obj *absdom.AObj) []EventMatch {
	evs := res.Uses[obj]
	matches := make([]EventMatch, 0, len(evs))
	for i, ev := range evs {
		var args []int
		for j, a := range ev.Args {
			if a.IsConst() {
				args = append(args, j)
			}
		}
		matches = append(matches, EventMatch{EventIndex: i, Args: args})
	}
	return matches
}

// dedupeMatches merges matches of the same event (several clauses can hit
// the same call) and canonicalizes ordering.
func dedupeMatches(matches []EventMatch) []EventMatch {
	if len(matches) == 0 {
		return nil
	}
	byEvent := map[int][]int{}
	for _, m := range matches {
		byEvent[m.EventIndex] = append(byEvent[m.EventIndex], m.Args...)
	}
	idxs := make([]int, 0, len(byEvent))
	for i := range byEvent {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	out := make([]EventMatch, 0, len(idxs))
	for _, i := range idxs {
		args := byEvent[i]
		sort.Ints(args)
		uniq := args[:0]
		for _, a := range args {
			if len(uniq) == 0 || uniq[len(uniq)-1] != a {
				uniq = append(uniq, a)
			}
		}
		out = append(out, EventMatch{EventIndex: i, Args: uniq})
	}
	return out
}

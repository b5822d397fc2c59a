package report

import (
	"sort"

	"repro/internal/absdom"
	"repro/internal/analysis"
	"repro/internal/rules"
)

// SortViolations returns the violations ordered by source location:
// (file, line, rule ID), with ties broken by allocation-site ID. Location
// is the first witnessing object's allocation site; its file comes from the
// object's recorded events (objects carry no file themselves). The input
// slice is not modified — the checker's stable rule-set ordering is part
// of the plain CLI surface, so only the location-first (-why) output path
// sorts.
func SortViolations(vs []rules.Violation, res *analysis.Result) []rules.Violation {
	out := make([]rules.Violation, len(vs))
	copy(out, vs)
	sort.SliceStable(out, func(i, j int) bool {
		fi, li, oi := violationLoc(out[i], res)
		fj, lj, oj := violationLoc(out[j], res)
		if fi != fj {
			return fi < fj
		}
		if li != lj {
			return li < lj
		}
		if out[i].Rule.ID != out[j].Rule.ID {
			return out[i].Rule.ID < out[j].Rule.ID
		}
		return oi < oj
	})
	return out
}

// violationLoc derives the sort key of a violation from its first witness.
func violationLoc(v rules.Violation, res *analysis.Result) (file string, line, objID int) {
	if len(v.Objs) == 0 {
		return "", 0, 0
	}
	o := v.Objs[0]
	return objFile(o, res), o.Site.Line, o.ID
}

// objFile recovers the source file of an abstract object from its events
// ("" when the object recorded none with a position).
func objFile(o *absdom.AObj, res *analysis.Result) string {
	for _, ev := range res.Uses[o] {
		if ev.File != "" {
			return ev.File
		}
	}
	return ""
}

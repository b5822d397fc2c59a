package rulelint

import (
	"os"

	"repro/internal/obs"
	"repro/internal/ruledsl"
	"repro/internal/rules"
)

// Loading is the compile → lint → register pipeline behind the -rules flag
// and the server's hot reload: read the pack files, lint everything as one
// universe against the built-ins, and merge the survivors into the active
// rule set. I/O failures are returned as errors (there is nothing to
// report against); everything semantic lands in the Report, so callers —
// CLI gate and server reload alike — decide what error findings mean.

// LoadResult is the outcome of loading a set of rule packs.
type LoadResult struct {
	// Packs are the parsed packs, in argument order.
	Packs []*ruledsl.Pack
	// Report carries the lint findings across all packs.
	Report *Report
	// Active is the merged rule set: the built-ins followed by every
	// cleanly compiled pack rule whose ID is free. Nil when no packs were
	// given — callers keep their default rule set, byte-identical.
	Active []*rules.Rule
	// Added counts the pack rules that made it into Active.
	Added int
}

// Load reads, parses, and lints rule pack files. The built-in universe is
// the 13 elicited rules; the CL1–CL5 aliases reserve their IDs but do not
// join the subsumption universe (they duplicate R-rule triggers by
// construction). Only I/O failures return an error.
func Load(paths []string) (*LoadResult, error) {
	packs := make([]*ruledsl.Pack, 0, len(paths))
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		packs = append(packs, ruledsl.ParsePack(path, string(b)))
	}
	return LoadParsed(packs), nil
}

// LoadParsed lints already-parsed packs and merges the active set; it is
// Load without the file system (tests and embedded packs).
func LoadParsed(packs []*ruledsl.Pack) *LoadResult {
	res := &LoadResult{
		Packs:  packs,
		Report: Lint(packs, Options{Builtins: rules.All(), Reserved: rules.CryptoLint()}),
	}
	if len(packs) > 0 {
		res.Active = MergeActive(rules.All(), rules.CryptoLint(), packs)
		res.Added = len(res.Active) - len(rules.All())
	}
	return res
}

// MergeActive merges pack rules into the built-in set with deterministic
// collision resolution: built-in (and reserved) IDs always win, and across
// packs the first definition of an ID wins. Rules that failed to compile
// are skipped — under -rules-lax this is how a defective pack loads "under
// protest": its broken rules drop out, the rest register.
func MergeActive(builtins, reserved []*rules.Rule, packs []*ruledsl.Pack) []*rules.Rule {
	out := make([]*rules.Rule, 0, len(builtins))
	seen := make(map[string]bool, len(builtins)+len(reserved))
	for _, b := range builtins {
		out = append(out, b)
		seen[b.ID] = true
	}
	for _, r := range reserved {
		seen[r.ID] = true
	}
	for _, p := range packs {
		for i := range p.Rules {
			pr := &p.Rules[i]
			if pr.Syntax == nil || seen[pr.ID] {
				continue
			}
			seen[pr.ID] = true
			out = append(out, rules.Compile(pr.ID, pr.Description, pr.Syntax))
		}
	}
	return out
}

// Observe folds the load into telemetry: the rulelint.* finding counters
// plus the rulepack.* registration counters.
func (r *LoadResult) Observe(reg *obs.Registry) {
	if reg == nil {
		return
	}
	r.Report.Fold(reg)
	reg.Counter("rulepack.packs").Add(int64(len(r.Packs)))
	reg.Counter("rulepack.rules").Add(int64(r.Report.Rules))
	reg.Counter("rulepack.registered").Add(int64(r.Added))
}

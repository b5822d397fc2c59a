package cliutil

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/obs"
	"repro/internal/rulelint"
	"repro/internal/rules"
)

// The -rules / -rules-lax pair is the uniform rule-pack surface of every
// CLI: each -rules names a pack file (repeatable), and loading is a
// mandatory gate — packs are compiled and linted against the built-in
// rules, and error-level findings abort the tool with exit status 2
// before any analysis runs. -rules-lax downgrades the gate: findings
// still print, but the cleanly compiled rules load (built-ins win ID
// collisions deterministically). Without -rules nothing changes: the
// active set stays the built-in default and every output byte matches a
// build without pack support.

// ruleListValue adapts a repeatable -rules flag to the flag package.
type ruleListValue struct{ paths *[]string }

func (r ruleListValue) String() string {
	if r.paths == nil {
		return ""
	}
	return strings.Join(*r.paths, ",")
}

func (r ruleListValue) Set(s string) error {
	if s == "" {
		return fmt.Errorf("empty rule pack path")
	}
	*r.paths = append(*r.paths, s)
	return nil
}

// RulePacks returns the -rules pack paths in flag order.
func (s *Standard) RulePacks() []string { return *s.rulePacks }

// RulesLax reports whether -rules-lax downgraded the lint gate.
func (s *Standard) RulesLax() bool { return *s.rulesLax }

// ActiveRules runs the rule-pack gate for the tool: load every -rules
// pack, lint the lot against the built-in rules, fold the rulelint.* and
// rulepack.* telemetry into reg, and return the merged active rule set.
// Findings print to stderr; error-level findings are fatal (exit 2)
// unless -rules-lax. With no -rules flags the return is nil — callers
// keep their default rule set and their output stays byte-identical.
func (s *Standard) ActiveRules(reg *obs.Registry) []*rules.Rule {
	paths := s.RulePacks()
	if len(paths) == 0 {
		return nil
	}
	res, err := rulelint.Load(paths)
	if err != nil {
		UsageError(s.tool, "loading rule packs: %v", err)
		return nil
	}
	res.Observe(reg)
	if res.Report.HasFindings() {
		fmt.Fprint(os.Stderr, res.Report.Render())
	}
	if res.Report.HasErrors() && !s.RulesLax() {
		fmt.Fprintf(os.Stderr, "%s: rule pack validation failed (%d error(s)); fix the pack or pass -rules-lax to load what compiles\n",
			s.tool, res.Report.Errors())
		osExit(2)
		return nil
	}
	return res.Active
}

// Package rulelint is a semantic analyzer for compiled rule packs. User
// rule packs are untrusted input: a typo'd method name or a contradictory
// constraint produces a rule that silently checks nothing. rulelint
// validates every rule against the internal/cryptoapi model and against
// the other rules in scope, in four passes:
//
//  1. API conformance — call atoms must name a known class/method with a
//     modeled arity, and argument constraints must be type-compatible
//     with the modeled parameter ("did you mean" suggestions via
//     textdist).
//  2. Satisfiability — per-clause constraint conjunctions that can never
//     hold (contradictory equalities, empty numeric ranges, prefix tests
//     excluding all modeled algorithm strings), via a small abstract
//     constraint evaluator over the base domains. A clause whose DNF
//     expansion exceeds a fixed bound is not expanded (RL205).
//  3. Subsumption/overlap — pairwise trigger implication across
//     built-ins and loaded packs, plus duplicate rule-ID collisions.
//  4. Dead constraints — constraints on variables no call atom binds.
//
// Diagnostics carry stable RLxxx codes, error/warn severity, and
// pack-absolute line:col positions, and render as text or JSON.
package rulelint

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
)

// Severity of a finding. Errors block rule registration; warnings load
// under protest (and fail CI for the shipped packs).
type Severity string

// The two severities.
const (
	SevError Severity = "error"
	SevWarn  Severity = "warn"
)

// Diagnostic codes. Codes are stable across releases: tooling may match
// on them, so numbers are never reused.
const (
	CodeParse        = "RL001" // formula does not parse/compile
	CodeMalformed    = "RL002" // structurally malformed pack line
	CodeIDCollision  = "RL010" // rule id collides with built-in or pack rule
	CodeUnknownClass = "RL101" // clause names an unmodeled class
	CodeUnknownMeth  = "RL102" // call atom names an unmodeled method
	CodeWrongArity   = "RL103" // no overload with the atom's arity
	CodeTypeMismatch = "RL104" // constraint type-incompatible with parameter
	CodeContradict   = "RL201" // contradictory constraint conjunction
	CodeEmptyRange   = "RL202" // empty numeric range
	CodeBadPrefix    = "RL203" // prefix excludes all modeled algorithm strings
	CodeDeadBranch   = "RL204" // unsatisfiable disjunct
	CodeDNFBound     = "RL205" // too many disjuncts to check satisfiability
	CodeDuplicate    = "RL301" // duplicate of another rule
	CodeSubsumed     = "RL302" // trigger implies another rule's
	CodeUnboundVar   = "RL401" // constraint on a variable no atom binds
	CodeDeadLiteral  = "RL402" // literal arg pattern no parameter can match
)

// Diag is one finding, positioned against the pack source.
type Diag struct {
	Code     string   `json:"code"`
	Severity Severity `json:"severity"`
	Pack     string   `json:"pack,omitempty"`
	RuleID   string   `json:"rule,omitempty"`
	Line     int      `json:"line,omitempty"`
	Col      int      `json:"col,omitempty"`
	Msg      string   `json:"msg"`
}

// String renders the conventional compiler-diagnostic form:
//
//	pack.rules:4:31: error RL102: rule P101: unknown method "getInstnce"
func (d Diag) String() string {
	var b strings.Builder
	if d.Pack != "" {
		fmt.Fprintf(&b, "%s:", d.Pack)
	}
	if d.Line > 0 {
		fmt.Fprintf(&b, "%d:", d.Line)
		if d.Col > 0 {
			fmt.Fprintf(&b, "%d:", d.Col)
		}
	}
	if b.Len() > 0 {
		b.WriteByte(' ')
	}
	fmt.Fprintf(&b, "%s %s: ", d.Severity, d.Code)
	if d.RuleID != "" {
		fmt.Fprintf(&b, "rule %s: ", d.RuleID)
	}
	b.WriteString(d.Msg)
	return b.String()
}

// Report is the result of linting a set of packs.
type Report struct {
	Packs int    `json:"packs"`
	Rules int    `json:"rules"`
	Diags []Diag `json:"diagnostics"`
}

// Errors counts error-level findings.
func (r *Report) Errors() int { return r.count(SevError) }

// Warnings counts warn-level findings.
func (r *Report) Warnings() int { return r.count(SevWarn) }

func (r *Report) count(s Severity) int {
	n := 0
	for _, d := range r.Diags {
		if d.Severity == s {
			n++
		}
	}
	return n
}

// HasErrors reports whether any finding is error-level.
func (r *Report) HasErrors() bool { return r.Errors() > 0 }

// HasFindings reports whether anything at all was found.
func (r *Report) HasFindings() bool { return len(r.Diags) > 0 }

// Render produces the text form: one diagnostic per line followed by a
// summary line. Deterministic: diagnostics are sorted.
func (r *Report) Render() string {
	var b strings.Builder
	for _, d := range r.Diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "rulelint: %d pack(s), %d rule(s): %d error(s), %d warning(s)\n",
		r.Packs, r.Rules, r.Errors(), r.Warnings())
	return b.String()
}

// JSON renders the report as indented JSON.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Fold records the report into rulelint.* telemetry counters.
func (r *Report) Fold(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("rulelint.packs").Add(int64(r.Packs))
	reg.Counter("rulelint.rules").Add(int64(r.Rules))
	reg.Counter("rulelint.findings").Add(int64(len(r.Diags)))
	reg.Counter("rulelint.errors").Add(int64(r.Errors()))
	reg.Counter("rulelint.warnings").Add(int64(r.Warnings()))
	for _, d := range r.Diags {
		reg.Counter("rulelint.findings." + d.Code).Inc()
	}
}

// sortDiags orders findings for deterministic output: by pack, position,
// code, then message.
func (r *Report) sortDiags() {
	sort.Slice(r.Diags, func(i, j int) bool {
		a, b := r.Diags[i], r.Diags[j]
		if a.Pack != b.Pack {
			return a.Pack < b.Pack
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Msg < b.Msg
	})
}

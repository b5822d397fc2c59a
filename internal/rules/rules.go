// Package rules implements the security-rule language of the paper's §6.3 —
// rules of the form t : φ where φ is a formula over a set of
// (method, abstract state) pairs — together with the registry of the 13
// elicited rules R1–R13 (Figure 9), the five CryptoLint reference rules
// CL1–CL5 used for the fix/bug classification of Figure 7, and the
// automatic rule suggestion of §6.3. The CryptoChecker evaluation of
// Figure 10 is the Check entry point.
package rules

import (
	"context"
	"fmt"

	"repro/internal/absdom"
	"repro/internal/analysis"
	"repro/internal/parallel"
	"repro/internal/ruledsl"
	"repro/internal/trace"
)

// Context carries the project facts rules read (R6: the Android
// minSdkVersion and whether the Linux-PRNG fix is installed).
type Context = ruledsl.Context

// ObjPred is a predicate over one abstract object's usages.
type ObjPred func(res *analysis.Result, obj *absdom.AObj, ctx Context) bool

// Clause is one conjunct of a rule: an existential (or, when Negated, a
// negated existential) over abstract objects of a class.
type Clause struct {
	Class   string
	Negated bool
	Pred    ObjPred
	// Find, when set, locates the events (and argument positions) the
	// predicate matched on, for witness-trace evidence. A compiled clause
	// derives Pred and Find from one Program, so Find is non-empty exactly
	// when Pred holds; clauses without one (suggested rules) get fallback
	// evidence. Negated clauses never produce evidence.
	Find EvidenceFn
}

// Rule is a security rule t : φ (possibly composite, conjoining clauses
// over distinct objects, like R13).
type Rule struct {
	ID          string
	Description string
	// Formula is the rule's source in the rule DSL, which its clauses run;
	// every surface that shows a rule prints it. For a suggested rule it
	// renders the path-containment predicate the closure tests.
	Formula string
	// Syntax is the parsed Formula; nil for suggested rules.
	Syntax  *ruledsl.Syntax
	Clauses []Clause
	// androidOnly gates applicability on an Android project: the formula
	// tests MIN_SDK_VERSION (R6).
	androidOnly bool
}

// Compile builds the executable rule of a parsed formula: each clause's
// Pred and Find run the clause's compiled Program.
func Compile(id, description string, syn *ruledsl.Syntax) *Rule {
	r := &Rule{ID: id, Description: description, Formula: syn.Source, Syntax: syn, androidOnly: syn.AndroidOnly()}
	for _, c := range syn.Clauses {
		p := ruledsl.Compile(c.Formula)
		r.Clauses = append(r.Clauses, Clause{
			Class:   c.Class,
			Negated: c.Negated,
			Pred: func(res *analysis.Result, obj *absdom.AObj, ctx Context) bool {
				return p.Holds(res.Uses[obj], ctx)
			},
			Find: func(res *analysis.Result, obj *absdom.AObj, ctx Context) []EventMatch {
				return p.Evidence(res.Uses[obj], ctx)
			},
		})
	}
	return r
}

// Parse compiles a textual rule. The id and description annotate the
// result; the source text is the rule's Formula. Parse never panics: rule
// sources reach it from user-supplied packs, so even a parser bug on
// pathological input comes back as an error.
func Parse(id, description, src string) (*Rule, error) {
	syn, err := ruledsl.ParseSyntax(src)
	if err != nil {
		return nil, fmt.Errorf("rule %s: %w", id, err)
	}
	return Compile(id, description, syn), nil
}

// ParseFile compiles an "id | description | formula" rules file, failing
// on the first defect (ruledsl.ParseFile).
func ParseFile(content string) ([]*Rule, error) {
	prs, err := ruledsl.ParseFile(content)
	if err != nil {
		return nil, err
	}
	out := make([]*Rule, len(prs))
	for i, pr := range prs {
		out[i] = Compile(pr.ID, pr.Description, pr.Syntax)
	}
	return out, nil
}

// clauseMatch reports whether some object of the clause's class satisfies
// the predicate, and returns the witnesses.
func clauseMatch(c Clause, res *analysis.Result, ctx Context) []*absdom.AObj {
	var hits []*absdom.AObj
	for _, o := range res.Objs {
		if o.Type == c.Class && (c.Pred == nil || c.Pred(res, o, ctx)) {
			hits = append(hits, o)
		}
	}
	return hits
}

// Applicable reports whether the rule is applicable to the program: for a
// simple rule, an object of its class exists; for a composite rule, every
// positive clause matches (the negated clause decides Matches, not
// applicability — this is the reading under which the paper's Figure 10
// reports 8 applicable projects for R13).
func (r *Rule) Applicable(res *analysis.Result, ctx Context) bool {
	if r.androidOnly && !ctx.Android {
		return false
	}
	var positive []Clause
	for _, c := range r.Clauses {
		if !c.Negated {
			positive = append(positive, c)
		}
	}
	for _, c := range positive {
		if len(positive) == 1 {
			return len(res.ObjsOfType(c.Class)) > 0
		}
		if len(clauseMatch(c, res, ctx)) == 0 {
			return false
		}
	}
	return len(positive) > 1
}

// Matches reports whether the program violates the rule, returning the
// witnessing objects of the positive clauses.
func (r *Rule) Matches(res *analysis.Result, ctx Context) (bool, []*absdom.AObj) {
	if r.androidOnly && !ctx.Android {
		return false, nil
	}
	var witnesses []*absdom.AObj
	for _, c := range r.Clauses {
		hits := clauseMatch(c, res, ctx)
		if c.Negated {
			if len(hits) > 0 {
				return false, nil
			}
			continue
		}
		if len(hits) == 0 {
			return false, nil
		}
		witnesses = append(witnesses, hits...)
	}
	return true, witnesses
}

// Violation is one matched rule with its witnesses.
type Violation struct {
	Rule *Rule
	Objs []*absdom.AObj
}

// CheckPoolCtx runs a rule set over a program (CryptoChecker) on a worker
// pool: each rule evaluates concurrently (Matches only reads the analysis
// result), and the matches fan back in by rule index, so the violation list
// keeps the stable rule-set order at any worker count. A nil or one-worker
// pool is the exact serial path. Under a traced tctx the evaluation runs as
// a "rules" child span with one "rule[i]" span per rule carrying the rule
// ID, ordered by rule-set index. Rule evaluation is never canceled mid-set;
// only the span propagates from tctx.
func CheckPoolCtx(tctx context.Context, res *analysis.Result, ctx Context, ruleSet []*Rule, p *parallel.Pool) []Violation {
	rctx, rsp := trace.Start(tctx, "rules")
	defer rsp.End()
	type outcome struct {
		ok   bool
		objs []*absdom.AObj
	}
	outcomes := parallel.MapCtx(p, trace.Detach(rctx), "rule", len(ruleSet), func(c context.Context, i int) outcome {
		trace.FromContext(c).SetAttr("id", ruleSet[i].ID)
		ok, objs := ruleSet[i].Matches(res, ctx)
		return outcome{ok: ok, objs: objs}
	})
	var out []Violation
	for i, o := range outcomes {
		if o.ok {
			out = append(out, Violation{Rule: ruleSet[i], Objs: o.objs})
		}
	}
	return out
}

// ChangeType classifies a code change against one rule (paper §6.2).
type ChangeType int

// Classification outcomes.
const (
	// NonSemantic: the rule triggers identically in both versions.
	NonSemantic ChangeType = iota
	// SecurityFix: the rule triggers in the old version only.
	SecurityFix
	// BuggyChange: the rule triggers in the new version only.
	BuggyChange
)

// String renders the classification.
func (t ChangeType) String() string {
	switch t {
	case SecurityFix:
		return "fix"
	case BuggyChange:
		return "bug"
	default:
		return "none"
	}
}

// Classify compares rule triggering across the two versions of a change.
func Classify(r *Rule, oldRes, newRes *analysis.Result, ctx Context) ChangeType {
	oldM, _ := r.Matches(oldRes, ctx)
	newM, _ := r.Matches(newRes, ctx)
	switch {
	case oldM && !newM:
		return SecurityFix
	case !oldM && newM:
		return BuggyChange
	default:
		return NonSemantic
	}
}

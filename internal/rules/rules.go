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
	"strings"

	"repro/internal/absdom"
	"repro/internal/analysis"
	"repro/internal/cryptoapi"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// Context carries project-level facts that some rules depend on. For rule
// R6 these are the Android minSdkVersion and whether the Linux-PRNG fix
// (the SecureRandom workaround described in the Android advisory) is
// installed.
type Context struct {
	Android       bool
	MinSDKVersion int
	HasLPRNG      bool
}

// ObjPred is a predicate over one abstract object's usages.
type ObjPred func(res *analysis.Result, obj *absdom.AObj, ctx Context) bool

// Clause is one conjunct of a rule: an existential (or, when Negated, a
// negated existential) over abstract objects of a class.
type Clause struct {
	Class   string
	Negated bool
	Pred    ObjPred
	// Find, when set, locates the events (and argument positions) the
	// predicate matched on, for witness-trace evidence. It must accept
	// exactly the events Pred accepts, which is why the built-in clauses
	// derive both from one declaration; clauses without one (DSL and
	// suggested rules) get fallback evidence. Negated clauses never
	// produce evidence.
	Find EvidenceFn
}

// Rule is a security rule t : φ (possibly composite, conjoining clauses
// over distinct objects, like R13).
type Rule struct {
	ID          string
	Description string
	Formula     string // rendering of φ in the paper's notation
	Ref         string // documentation reference
	Clauses     []Clause
	// ApplicableCtx further gates applicability on project context (R6).
	ApplicableCtx func(ctx Context) bool
}

// clauseMatch reports whether some object of the clause's class satisfies
// the predicate, and returns the witnesses.
func clauseMatch(c Clause, res *analysis.Result, ctx Context) []*absdom.AObj {
	var hits []*absdom.AObj
	for _, o := range res.ObjsOfType(c.Class) {
		if c.Pred == nil || c.Pred(res, o, ctx) {
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
	if r.ApplicableCtx != nil && !r.ApplicableCtx(ctx) {
		return false
	}
	positives := 0
	for _, c := range r.Clauses {
		if c.Negated {
			continue
		}
		positives++
	}
	if positives > 1 {
		for _, c := range r.Clauses {
			if c.Negated {
				continue
			}
			if len(clauseMatch(c, res, ctx)) == 0 {
				return false
			}
		}
		return true
	}
	for _, c := range r.Clauses {
		if c.Negated {
			continue
		}
		if len(res.ObjsOfType(c.Class)) > 0 {
			return true
		}
	}
	return false
}

// Matches reports whether the program violates the rule, returning the
// witnessing objects of the positive clauses.
func (r *Rule) Matches(res *analysis.Result, ctx Context) (bool, []*absdom.AObj) {
	if r.ApplicableCtx != nil && !r.ApplicableCtx(ctx) {
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

// ---------------------------------------------------------------------------
// Predicate helpers
// ---------------------------------------------------------------------------

func argStr(ev *analysis.Event, i int) (string, bool) {
	if i >= len(ev.Args) {
		return "", false
	}
	a := ev.Args[i]
	if a.Kind == absdom.KStrConst {
		return a.Payload, true
	}
	return "", false
}

func argIntLess(ev *analysis.Event, i int, bound int64) bool {
	if i >= len(ev.Args) {
		return false
	}
	a := ev.Args[i]
	if a.Kind != absdom.KIntConst {
		return false
	}
	var n int64
	var neg bool
	s := a.Payload
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
		n = n*10 + int64(r-'0')
	}
	if neg {
		n = -n
	}
	return n < bound
}

// argIsConstData reports whether argument i is a compile-time constant
// (byte/int/string array constants, or a numeric constant for long seeds) —
// the X ≠ ⊤byte[] condition of rules R9–R12.
func argIsConstData(ev *analysis.Event, i int) bool {
	if i >= len(ev.Args) {
		return false
	}
	switch ev.Args[i].Kind {
	case absdom.KConstByteArr, absdom.KIntArrConst, absdom.KStrArrConst,
		absdom.KIntConst, absdom.KStrConst:
		return true
	}
	return false
}

func normalizeAlg(s string) string {
	return strings.ToUpper(strings.TrimSpace(s))
}

// isWeakDigest matches SHA-1 and MD5-family digests.
func isWeakDigest(alg string) bool {
	return cryptoapi.WeakDigests[normalizeAlg(alg)]
}

// isECBTransformation reports whether the transformation string runs a
// block cipher in (possibly implicit) ECB mode — rule R7 / CL1.
func isECBTransformation(s string) bool {
	return cryptoapi.ParseTransformation(s).EffectiveMode() == "ECB"
}

package ruledsl

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/absdom"
	"repro/internal/analysis"
	"repro/internal/rules"
)

// Parse compiles a textual rule into an executable rules.Rule: ParseSyntax
// followed by compile. The id and description annotate the result; the
// source text is preserved as the rule's Formula. Parse never panics: rule
// sources reach it from user-supplied packs (cryptochecker -rules, the
// server's hot reload), so even a parser bug on pathological input comes
// back as an error.
func Parse(id, description, src string) (*rules.Rule, error) {
	s, err := ParseSyntax(src)
	if err != nil {
		return nil, fmt.Errorf("rule %s: %w", id, err)
	}
	return compile(id, description, s), nil
}

// compile turns a parsed rule into an executable rules.Rule whose clause
// predicates evaluate the syntax tree.
func compile(id, description string, s *Syntax) *rules.Rule {
	r := &rules.Rule{ID: id, Description: description, Formula: s.Source}
	for _, c := range s.Clauses {
		r.Clauses = append(r.Clauses, rules.Clause{
			Class:   c.Class,
			Negated: c.Negated,
			Pred:    compileFormula(c.Formula),
		})
	}
	return r
}

// bindings maps rule variables to the abstract values they matched.
type bindings map[string]absdom.Value

func (b bindings) with(name string, v absdom.Value) bindings {
	nb := make(bindings, len(b)+1)
	for k, val := range b {
		nb[k] = val
	}
	nb[name] = v
	return nb
}

// compileFormula builds an object predicate that searches for a satisfying
// assignment of events to call atoms (continuation-passing backtracking;
// rule formulas are tiny, so this is cheap).
func compileFormula(f Formula) rules.ObjPred {
	return func(res *analysis.Result, obj *absdom.AObj, ctx rules.Context) bool {
		events := res.Uses[obj]
		return eval(f, events, ctx, bindings{}, func(bindings) bool { return true })
	}
}

func eval(f Formula, events []analysis.Event, ctx rules.Context, env bindings, k func(bindings) bool) bool {
	switch x := f.(type) {
	case AndExpr:
		return evalSeq(x.Kids, events, ctx, env, k)
	case OrExpr:
		for _, kid := range x.Kids {
			if eval(kid, events, ctx, env, k) {
				return true
			}
		}
		return false
	case NotExpr:
		// Negation is evaluated against the current environment; bindings
		// made inside do not escape.
		if eval(x.Kid, events, ctx, env, func(bindings) bool { return true }) {
			return false
		}
		return k(env)
	case CallAtom:
		for _, ev := range events {
			if ev.Sig.Name != x.Method {
				continue
			}
			if x.HasArgs && len(ev.Args) != len(x.Args) {
				continue
			}
			env2, ok := matchArgs(x.Args, ev.Args, env)
			if !ok {
				continue
			}
			if k(env2) {
				return true
			}
		}
		return false
	case CmpAtom:
		v, bound := env[x.Var]
		if !bound {
			return false
		}
		if !compare(v, x.Op, x.Value) {
			return false
		}
		return k(env)
	case StartsAtom:
		v, bound := env[x.Var]
		if !bound {
			return false
		}
		if v.Kind != absdom.KStrConst ||
			!strings.HasPrefix(norm(v.Payload), norm(x.Value)) {
			return false
		}
		return k(env)
	case CtxAtom:
		ok := false
		switch x.Name {
		case "LPRNG":
			ok = ctx.HasLPRNG
		case "ANDROID":
			ok = ctx.Android
		case "MIN_SDK_VERSION":
			ok = compareInts(int64(ctx.MinSDKVersion), x.Op, x.Num) && ctx.Android
		}
		if !ok {
			return false
		}
		return k(env)
	}
	return false
}

func evalSeq(kids []Formula, events []analysis.Event, ctx rules.Context, env bindings, k func(bindings) bool) bool {
	if len(kids) == 0 {
		return k(env)
	}
	return eval(kids[0], events, ctx, env, func(env2 bindings) bool {
		return evalSeq(kids[1:], events, ctx, env2, k)
	})
}

func matchArgs(pats []ArgPattern, args []absdom.Value, env bindings) (bindings, bool) {
	for i, p := range pats {
		switch p.Kind {
		case ArgAny:
		case ArgVar:
			if prev, bound := env[p.Name]; bound {
				if !prev.Equal(args[i]) {
					return nil, false
				}
			} else {
				env = env.with(p.Name, args[i])
			}
		case ArgLit:
			if !literalEq(args[i], p.Name) {
				return nil, false
			}
		}
	}
	return env, true
}

// norm canonicalizes algorithm-ish literals for comparison: upper-case with
// dashes removed, so the paper's SHA-1PRNG matches the JCA's "SHA1PRNG" and
// SHA-1 matches both "SHA-1" and "SHA1".
func norm(s string) string {
	return strings.ReplaceAll(strings.ToUpper(s), "-", "")
}

// isTopLiteral recognizes the ⊤-notation literals of Figure 3.
func isTopLiteral(lit string) bool {
	return strings.HasPrefix(lit, "⊤")
}

// literalEq tests an abstract value against a literal token.
func literalEq(v absdom.Value, lit string) bool {
	if isTopLiteral(lit) {
		return v.IsTop()
	}
	switch v.Kind {
	case absdom.KStrConst, absdom.KIntConst, absdom.KBoolConst:
		return norm(v.Payload) == norm(lit)
	}
	return false
}

// compare implements variable comparisons. Equality uses literalEq;
// inequality against a ⊤-literal means "is a compile-time constant" (the
// X ≠ ⊤byte[] reading of rules R9–R12); inequality against a value literal
// holds unless the value is provably that constant (matching the paper's
// checker, which flags unknown values too); numeric comparisons require a
// provable integer constant.
func compare(v absdom.Value, op CmpOp, lit string) bool {
	switch op {
	case OpEq:
		return literalEq(v, lit)
	case OpNe:
		if isTopLiteral(lit) {
			return v.IsConst()
		}
		return !literalEq(v, lit)
	case OpLt, OpLe, OpGt, OpGe:
		if v.Kind != absdom.KIntConst {
			return false
		}
		n, err := strconv.ParseInt(v.Payload, 0, 64)
		if err != nil {
			return false
		}
		m, err := strconv.ParseInt(lit, 0, 64)
		if err != nil {
			return false
		}
		return compareInts(n, op, m)
	}
	return false
}

func compareInts(n int64, op CmpOp, m int64) bool {
	switch op {
	case OpEq:
		return n == m
	case OpNe:
		return n != m
	case OpLt:
		return n < m
	case OpLe:
		return n <= m
	case OpGt:
		return n > m
	case OpGe:
		return n >= m
	}
	return false
}

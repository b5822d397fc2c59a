package rulelint

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cryptoapi"
	"repro/internal/ruledsl"
	"repro/internal/rules"
	"repro/internal/textdist"
)

// Options configures a lint run.
type Options struct {
	// Builtins is the active built-in rule universe: the target of
	// ID-collision checks and part of the subsumption universe. Usually
	// rules.All().
	Builtins []*rules.Rule
	// Reserved holds additional rules whose IDs a pack may not claim but
	// which stay out of the subsumption universe — the CL1–CL5 aliases,
	// which duplicate R-rule triggers by construction and would otherwise
	// double every subsumption finding.
	Reserved []*rules.Rule
}

// Lint analyzes rule packs. Diagnostics are anchored at pack rules only —
// built-ins are trusted context, never findings.
func Lint(packs []*ruledsl.Pack, opts Options) *Report {
	rep := &Report{Packs: len(packs)}
	l := &linter{rep: rep}

	// Structural and per-rule passes.
	for _, p := range packs {
		for _, le := range p.LineErrs {
			rep.Diags = append(rep.Diags, Diag{
				Code: CodeMalformed, Severity: SevError,
				Pack: p.Name, Line: le.Line, Msg: le.Msg,
			})
		}
		for i := range p.Rules {
			pr := &p.Rules[i]
			rep.Rules++
			if pr.Err != nil {
				rep.Diags = append(rep.Diags, l.parseDiag(p, pr))
				continue
			}
			l.lintRule(p, pr)
		}
	}

	// Cross-rule passes: ID collisions, then subsumption/overlap.
	uni := universe(packs, opts.Builtins)
	l.lintCollisions(uni, opts.Reserved)
	l.lintSubsumption(uni)

	rep.sortDiags()
	return rep
}

type linter struct {
	rep *Report
}

// add appends a finding positioned at a formula-relative Pos of a pack
// rule, translating it to a pack-absolute line:col.
func (l *linter) add(p *ruledsl.Pack, pr *ruledsl.PackRule, pos ruledsl.Pos, code string, sev Severity, format string, args ...any) {
	line, col := packPos(pr, pos)
	l.rep.Diags = append(l.rep.Diags, Diag{
		Code: code, Severity: sev, Pack: p.Name, RuleID: pr.ID,
		Line: line, Col: col, Msg: fmt.Sprintf(format, args...),
	})
}

// packPos translates a position within a rule formula into the pack file:
// formulas are single-line, so the pack line is the rule's and the column
// shifts by where the formula starts.
func packPos(pr *ruledsl.PackRule, pos ruledsl.Pos) (line, col int) {
	if pos.Line <= 1 {
		return pr.Line, pr.FormulaCol + pos.Col - 1
	}
	return pr.Line + pos.Line - 1, pos.Col
}

// parseDiag converts a PackRule parse/compile error into an RL001 finding
// at the offending token.
func (l *linter) parseDiag(p *ruledsl.Pack, pr *ruledsl.PackRule) Diag {
	d := Diag{
		Code: CodeParse, Severity: SevError, Pack: p.Name, RuleID: pr.ID,
		Line: pr.Line, Col: pr.FormulaCol,
		Msg: pr.Err.Error(),
	}
	var pe *ruledsl.ParseError
	if errors.As(pr.Err, &pe) {
		d.Line, d.Col = packPos(pr, ruledsl.Pos{Line: pe.Line, Col: pe.Col})
		d.Msg = pe.Msg
	}
	return d
}

// ---------------------------------------------------------------------------
// Pass 1+4: API conformance and dead constraints, per rule
// ---------------------------------------------------------------------------

// varInfo accumulates what the rule does with one variable across all its
// clauses: the modeled parameter types it binds at, and the constraints
// applied to it.
type varInfo struct {
	bindTypes map[string]bool // modeled param types at ArgVar positions
	bindPos   ruledsl.Pos     // first binding site
	cmps      []ruledsl.CmpAtom
	tests     []ruledsl.TestAtom
}

func (l *linter) lintRule(p *ruledsl.Pack, pr *ruledsl.PackRule) {
	vars := map[string]*varInfo{}
	varOf := func(name string) *varInfo {
		vi := vars[name]
		if vi == nil {
			vi = &varInfo{bindTypes: map[string]bool{}}
			vars[name] = vi
		}
		return vi
	}

	for _, cl := range pr.Syntax.Clauses {
		classKnown := l.checkClass(p, pr, cl)
		ruledsl.Walk(cl.Formula, func(f ruledsl.Formula) {
			switch a := f.(type) {
			case ruledsl.CallAtom:
				l.checkCall(p, pr, cl, a, classKnown, varOf)
			case ruledsl.CmpAtom:
				varOf(a.Var).cmps = append(varOf(a.Var).cmps, a)
			case ruledsl.TestAtom:
				varOf(a.Var).tests = append(varOf(a.Var).tests, a)
			}
		})
	}

	// Pass 4: constraints on variables no call atom binds, and constraint
	// kinds no binding position can produce.
	names := make([]string, 0, len(vars))
	for name := range vars {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		l.checkVar(p, pr, name, vars[name])
	}

	// Pass 2: satisfiability of the rule's positive trigger.
	l.lintSat(p, pr)
}

// checkClass validates the clause's class name; returns whether it is
// modeled (method checks are skipped for unknown classes).
func (l *linter) checkClass(p *ruledsl.Pack, pr *ruledsl.PackRule, cl ruledsl.ClauseSyntax) bool {
	if cryptoapi.IsAPIClass(cl.Class) {
		return true
	}
	msg := fmt.Sprintf("unknown API class %q", cl.Class)
	if s := suggest(cl.Class, cryptoapi.AllClasses()); s != "" {
		msg += fmt.Sprintf(" (did you mean %q?)", s)
	}
	l.add(p, pr, cl.Pos, CodeUnknownClass, SevError, "%s", msg)
	return false
}

// checkCall validates one call atom against the modeled API and records
// variable bindings.
func (l *linter) checkCall(p *ruledsl.Pack, pr *ruledsl.PackRule, cl ruledsl.ClauseSyntax, a ruledsl.CallAtom, classKnown bool, varOf func(string) *varInfo) {
	if !classKnown {
		return
	}
	var named []cryptoapi.MethodSig
	for _, m := range cryptoapi.MethodsOf(cl.Class) {
		if m.Name == a.Method {
			named = append(named, m)
		}
	}
	if len(named) == 0 {
		msg := fmt.Sprintf("class %s has no modeled method %q", cl.Class, a.Method)
		var names []string
		seen := map[string]bool{}
		for _, m := range cryptoapi.MethodsOf(cl.Class) {
			if !seen[m.Name] {
				seen[m.Name] = true
				names = append(names, m.Name)
			}
		}
		if s := suggest(a.Method, names); s != "" {
			msg += fmt.Sprintf(" (did you mean %q?)", s)
		}
		l.add(p, pr, a.Pos, CodeUnknownMeth, SevError, "%s", msg)
		return
	}
	if !a.HasArgs {
		return // bare atom matches any overload
	}
	// Every overload the atom's arity (or, with a trailing …, minimum
	// arity) admits.
	var sigs []cryptoapi.MethodSig
	for _, m := range named {
		if a.Accepts(len(m.Params)) {
			sigs = append(sigs, m)
		}
	}
	if len(sigs) == 0 {
		arities := make([]string, 0, len(named))
		seen := map[int]bool{}
		for _, m := range named {
			if !seen[len(m.Params)] {
				seen[len(m.Params)] = true
				arities = append(arities, fmt.Sprint(len(m.Params)))
			}
		}
		sort.Strings(arities)
		want := fmt.Sprintf("no %d-argument overload", len(a.Args))
		if a.Rest {
			want = fmt.Sprintf("no overload of %d or more arguments", len(a.Args))
		}
		l.add(p, pr, a.Pos, CodeWrongArity, SevError,
			"%s.%s has %s (modeled arities: %s)",
			cl.Class, a.Method, want, strings.Join(arities, ", "))
		return
	}
	for i, ap := range a.Args {
		types := map[string]bool{}
		for _, m := range sigs {
			types[m.Params[i]] = true
		}
		switch ap.Kind {
		case ruledsl.ArgVar:
			vi := varOf(ap.Name)
			if len(vi.bindTypes) == 0 {
				vi.bindPos = ap.Pos
			}
			for t := range types {
				vi.bindTypes[t] = true
			}
		case ruledsl.ArgLit:
			if !anyType(types, func(t string) bool { return literalMatchesType(ap.Name, t) }) {
				l.add(p, pr, ap.Pos, CodeDeadLiteral, SevWarn,
					"literal %q can never match parameter %d of %s.%s (type %s)",
					ap.Name, i+1, cl.Class, a.Method, typeList(types))
			}
		}
	}
}

// checkVar applies pass-4 dead-constraint detection and the pass-1
// constraint/parameter type-compatibility check for one variable.
func (l *linter) checkVar(p *ruledsl.Pack, pr *ruledsl.PackRule, name string, vi *varInfo) {
	if len(vi.cmps) == 0 && len(vi.tests) == 0 {
		return // pure binding, nothing to check
	}
	if len(vi.bindTypes) == 0 {
		pos := firstConstraintPos(vi)
		l.add(p, pr, pos, CodeUnboundVar, SevError,
			"variable %s is constrained but never bound by a call atom", name)
		return
	}
	for _, c := range vi.cmps {
		if c.Quoted {
			c.Value = strconv.Quote(c.Value) // render as written
		}
		if c.Op.IsOrdered() {
			if c.Quoted || !isNumericLiteral(c.Value) {
				l.add(p, pr, c.Pos, CodeTypeMismatch, SevError,
					"ordered comparison %s%s%s against non-numeric literal", name, c.Op, c.Value)
				continue
			}
			if !anyType(vi.bindTypes, isNumericParam) {
				l.add(p, pr, c.Pos, CodeTypeMismatch, SevError,
					"numeric comparison %s%s%s but %s only binds at %s parameters",
					name, c.Op, c.Value, name, typeList(vi.bindTypes))
			}
			continue
		}
		// Equality/inequality: a ⊤-literal tests constancy and fits any
		// type; numeric literals fit numeric parameters and Strings
		// (algorithm strings can be numerals); symbolic int constants fit
		// int parameters. A plain string literal can only ever equal a
		// String-typed constant.
		if ruledsl.IsTopLit(c.Value) {
			continue
		}
		ok := anyType(vi.bindTypes, func(t string) bool {
			return literalMatchesType(c.Value, t)
		})
		if c.Quoted {
			ok = anyType(vi.bindTypes, isStringParam) // exact: a string constant
		}
		if !ok {
			l.add(p, pr, c.Pos, CodeTypeMismatch, SevError,
				"constraint %s%s%s can never hold: %s only binds at %s parameters",
				name, c.Op, c.Value, name, typeList(vi.bindTypes))
		}
	}
	// Every named test holds only on a string constant.
	for _, t := range vi.tests {
		if !anyType(vi.bindTypes, isStringParam) {
			l.add(p, pr, t.Pos, CodeTypeMismatch, SevError,
				"%s but %s only binds at %s parameters",
				renderTest(t), name, typeList(vi.bindTypes))
		}
	}
}

// renderTest renders a named test as written, e.g. startsWith(X,Hmac).
func renderTest(t ruledsl.TestAtom) string {
	if t.Arg == "" {
		return fmt.Sprintf("%s(%s)", t.Name, t.Var)
	}
	return fmt.Sprintf("%s(%s,%s)", t.Name, t.Var, t.Arg)
}

func firstConstraintPos(vi *varInfo) ruledsl.Pos {
	pos := ruledsl.Pos{Line: 1 << 30}
	for _, c := range vi.cmps {
		if less(c.Pos, pos) {
			pos = c.Pos
		}
	}
	for _, t := range vi.tests {
		if less(t.Pos, pos) {
			pos = t.Pos
		}
	}
	return pos
}

func less(a, b ruledsl.Pos) bool {
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Col < b.Col
}

// literalMatchesType reports whether a rule literal could equal a
// constant of the modeled parameter type.
func literalMatchesType(lit, paramType string) bool {
	if ruledsl.IsTopLit(lit) {
		return true
	}
	if isNumericLiteral(lit) {
		// Numbers compare against int-like params and algorithm strings.
		return isNumericParam(paramType) || isStringParam(paramType)
	}
	if cryptoapi.IsSymbolicIntConstant(lit) {
		return isNumericParam(paramType) || isStringParam(paramType)
	}
	return isStringParam(paramType)
}

func isNumericParam(t string) bool { return t == "int" || t == "long" }
func isStringParam(t string) bool  { return t == "String" }

func isNumericLiteral(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

func anyType(types map[string]bool, pred func(string) bool) bool {
	for t := range types {
		if pred(t) {
			return true
		}
	}
	return false
}

func typeList(types map[string]bool) string {
	out := make([]string, 0, len(types))
	for t := range types {
		out = append(out, t)
	}
	sort.Strings(out)
	return strings.Join(out, "/")
}

// suggest returns the nearest candidate within an edit distance budget —
// the "did you mean" half of pass 1.
func suggest(got string, candidates []string) string {
	best, bestDist := "", 4
	for _, c := range candidates {
		if c == got {
			continue
		}
		d := textdist.Levenshtein([]rune(got), []rune(c))
		if d < bestDist {
			best, bestDist = c, d
		}
	}
	if bestDist > 3 || bestDist >= len([]rune(got)) {
		return ""
	}
	return best
}

package rulelint

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cryptoapi"
	"repro/internal/ruledsl"
	"repro/internal/rules"
)

// Pass 3: duplicate-ID collisions and trigger subsumption across the
// active universe (built-ins plus all loaded packs). Findings anchor at
// pack rules — built-ins are context; for pack/pack pairs the
// later-defined rule is the finding site.

// ruleAt identifies one rule in the universe.
type ruleAt struct {
	id     string
	origin string // "built-in" or pack name
	pack   *ruledsl.Pack
	pr     *ruledsl.PackRule // nil for built-ins
	syntax *ruledsl.Syntax
}

func (r ruleAt) describe() string {
	if r.pr == nil {
		return fmt.Sprintf("built-in rule %s", r.id)
	}
	return fmt.Sprintf("rule %s (%s line %d)", r.id, r.origin, r.pr.Line)
}

// universe flattens built-ins and pack rules in definition order. Built-ins
// are compiled from the same DSL, so their Syntax is the trigger they run.
func universe(packs []*ruledsl.Pack, builtins []*rules.Rule) []ruleAt {
	var out []ruleAt
	for _, b := range builtins {
		out = append(out, ruleAt{id: b.ID, origin: "built-in", syntax: b.Syntax})
	}
	for _, p := range packs {
		for i := range p.Rules {
			pr := &p.Rules[i]
			out = append(out, ruleAt{id: pr.ID, origin: p.Name, pack: p, pr: pr, syntax: pr.Syntax})
		}
	}
	return out
}

// lintCollisions reports RL010 for every rule whose ID an earlier rule
// (built-in, reserved alias, or pack) already claimed.
func (l *linter) lintCollisions(uni []ruleAt, reserved []*rules.Rule) {
	first := map[string]ruleAt{}
	for _, r := range reserved {
		first[r.ID] = ruleAt{id: r.ID, origin: "built-in"}
	}
	for _, ra := range uni {
		prev, taken := first[ra.id]
		if !taken {
			first[ra.id] = ra
			continue
		}
		if ra.pr == nil {
			continue // built-ins never collide with each other
		}
		l.add(ra.pack, ra.pr, ruledsl.Pos{Line: 1, Col: 1}, CodeIDCollision, SevError,
			"rule id %s collides with %s", ra.id, prev.describe())
	}
}

// lintSubsumption reports RL301/RL302 for pack rules whose trigger
// duplicates or implies another rule's in the universe.
func (l *linter) lintSubsumption(uni []ruleAt) {
	trig := make([]trigger, len(uni))
	for i, r := range uni {
		if r.syntax != nil {
			trig[i] = newTrigger(r.syntax)
		}
	}
	for i, a := range uni {
		if a.pr == nil || a.syntax == nil {
			continue // findings only anchor at parseable pack rules
		}
		for j, b := range uni {
			if i == j || b.syntax == nil || a.id == b.id {
				continue // same rule, or collision already reported
			}
			if b.pr != nil && j > i {
				continue // pack/pack pairs report at the later rule only
			}
			ab, ba, decided := compare(trig[i], trig[j])
			switch {
			case !decided:
				// Too large to compare within the budget: no finding.
			case ab && ba:
				l.add(a.pack, a.pr, a.syntax.Clauses[0].Pos, CodeDuplicate, SevWarn,
					"duplicate of %s: identical trigger", b.describe())
			case ab:
				l.add(a.pack, a.pr, a.syntax.Clauses[0].Pos, CodeSubsumed, SevWarn,
					"every match of this rule is already matched by %s", b.describe())
			case ba:
				l.add(a.pack, a.pr, a.syntax.Clauses[0].Pos, CodeSubsumed, SevWarn,
					"this rule shadows %s: every match of that rule also matches this one", b.describe())
			}
		}
	}
}

// impliesBudget bounds the implies steps spent on one rule pair, both
// directions together. Structural implication between an n-arm and an
// m-arm formula can take n·m steps; past the budget the pair gets no
// finding (a false negative, never a false positive).
const impliesBudget = 1 << 16

// compare decides whether trigger a implies b and b implies a. decided is
// false when the step budget ran out before both answers were known.
func compare(a, b trigger) (ab, ba, decided bool) {
	p := prover{left: impliesBudget}
	ab = p.ruleImplies(a, b)
	ba = p.ruleImplies(b, a)
	return ab, ba, p.left >= 0
}

// trigger is a rule's clauses with their formulas canonicalised.
type trigger []clause

type clause struct {
	class   string
	negated bool
	f       *cform
}

func newTrigger(s *ruledsl.Syntax) trigger {
	t := make(trigger, len(s.Clauses))
	for i, c := range s.Clauses {
		t[i] = clause{class: c.Class, negated: c.Negated, f: newCform(c.Formula)}
	}
	return t
}

// cform is a formula node together with its canonical string (canonAtom,
// canonKids), computed once per node; kids are the operands of a
// conjunction or disjunction.
type cform struct {
	f     ruledsl.Formula
	canon string
	kids  []*cform
}

func newCform(f ruledsl.Formula) *cform {
	c := &cform{f: f}
	switch x := f.(type) {
	case ruledsl.AndExpr:
		c.kids, c.canon = canonKids("and", x.Kids)
	case ruledsl.OrExpr:
		c.kids, c.canon = canonKids("or", x.Kids)
	case ruledsl.NotExpr:
		c.canon = "not(" + newCform(x.Kid).canon + ")"
	default:
		c.canon = canonAtom(f)
	}
	return c
}

// prover decides implications, spending one step of its budget per
// implies call; once the budget is spent every answer is false.
type prover struct{ left int }

// ruleImplies reports whether rule A's trigger implies rule B's: whenever
// A matches, B matches. Conservative and syntactic but for named tests,
// which are decided on the spellings an equality admits (spellings) —
// false negatives are fine (no finding), false positives are not.
func (p *prover) ruleImplies(a, b trigger) bool {
	for _, bc := range b {
		ok := false
		for _, ac := range a {
			if ac.negated != bc.negated || ac.class != bc.class {
				continue
			}
			if !bc.negated && p.implies(ac.f, bc.f) {
				ok = true
				break
			}
			// ¬f_a ⇒ ¬f_b iff f_b ⇒ f_a.
			if bc.negated && p.implies(bc.f, ac.f) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// implies reports a ⇒ b for clause formulas, by structural rules:
// conjunctions are stronger than their parts, disjunctions weaker, plus
// atom-level implication for calls, comparisons, and prefixes.
func (p *prover) implies(a, b *cform) bool {
	if p.left--; p.left < 0 {
		return false
	}
	if a.canon == b.canon {
		return true
	}
	switch b.f.(type) {
	case ruledsl.OrExpr:
		for _, k := range b.kids {
			if p.implies(a, k) {
				return true
			}
		}
	case ruledsl.AndExpr:
		all := true
		for _, k := range b.kids {
			if !p.implies(a, k) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	switch a.f.(type) {
	case ruledsl.AndExpr:
		for _, k := range a.kids {
			if p.implies(k, b) {
				return true
			}
		}
	case ruledsl.OrExpr:
		all := len(a.kids) > 0
		for _, k := range a.kids {
			if !p.implies(k, b) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return atomImplies(a.f, b.f)
}

// atomImplies covers implication between single atoms.
func atomImplies(a, b ruledsl.Formula) bool {
	switch bb := b.(type) {
	case ruledsl.CallAtom:
		aa, ok := a.(ruledsl.CallAtom)
		if !ok || aa.Method != bb.Method {
			return false
		}
		if !bb.HasArgs {
			return true // constrained call implies bare call
		}
		// b's arities must admit every arity a's do: with a trailing …, b
		// admits a's exact arity or any longer one.
		if !aa.HasArgs || len(aa.Args) < len(bb.Args) ||
			(!bb.Rest && (aa.Rest || len(aa.Args) != len(bb.Args))) {
			return false
		}
		for i := range bb.Args {
			bp, ap := bb.Args[i], aa.Args[i]
			switch bp.Kind {
			case ruledsl.ArgAny:
				// matches anything
			case ruledsl.ArgVar:
				if ap.Kind != ruledsl.ArgVar || ap.Name != bp.Name {
					return false
				}
			case ruledsl.ArgLit:
				if ap.Kind != ruledsl.ArgLit ||
					ruledsl.NormLiteral(ap.Name) != ruledsl.NormLiteral(bp.Name) {
					return false
				}
			}
		}
		return true
	case ruledsl.CmpAtom:
		aa, ok := a.(ruledsl.CmpAtom)
		if !ok || aa.Var != bb.Var || aa.Quoted || bb.Quoted {
			return false // exact (quoted) comparisons only imply themselves
		}
		return cmpImplies(aa, bb)
	case ruledsl.TestAtom:
		switch aa := a.(type) {
		case ruledsl.TestAtom:
			if aa.Var != bb.Var {
				return false
			}
			// Every named test holds only on a string constant, and a
			// longer startsWith prefix implies a shorter one.
			return bb.Name == "str" || (aa.Name == "startsWith" && bb.Name == "startsWith" &&
				strings.HasPrefix(ruledsl.NormLiteral(aa.Arg), ruledsl.NormLiteral(bb.Arg)))
		case ruledsl.CmpAtom:
			ss := spellings(aa)
			if aa.Var != bb.Var || aa.Op != ruledsl.OpEq || len(ss) == 0 {
				return false
			}
			if bb.Name == "startsWith" && !aa.Quoted {
				// Both drop dashes: X=lit implies startsWith(X,p) exactly
				// when lit starts with p.
				return strings.HasPrefix(ruledsl.NormLiteral(aa.Value), ruledsl.NormLiteral(bb.Arg))
			}
			for _, s := range ss {
				if !bb.HoldsOn(s) {
					return false
				}
			}
			return true
		}
	}
	return false
}

// spellings lists the string constants an equality X=lit is taken to hold
// on when deciding which named tests it implies. A quoted literal is its
// text. An unquoted one is the literal as written and every modeled
// algorithm string equal to it under the comparison's normalisation, so
// X=SHA-1 spells "SHA-1" and "SHA1", each in upper and lower case: that
// catches a test that reads case (ecb reads the mode as written). Other
// dash placements ("S-HA1") are left out: they name no algorithm the JCA
// accepts. A ⊤, numeric or boolean literal also matches non-string
// constants, which no named test accepts, so it has no spellings.
func spellings(c ruledsl.CmpAtom) []string {
	switch {
	case c.Quoted:
		return []string{c.Value}
	case ruledsl.IsTopLit(c.Value), c.Value == "" || strings.ContainsAny(c.Value[:1], "+-0123456789"),
		strings.EqualFold(c.Value, "true"), strings.EqualFold(c.Value, "false"):
		return nil
	}
	var out []string
	for _, s := range append(cryptoapi.KnownStringsEqual(c.Value), c.Value) {
		out = append(out, strings.ToUpper(s), strings.ToLower(s))
	}
	return out
}

// cmpImplies decides a ⇒ b for two comparisons on the same variable.
func cmpImplies(a, b ruledsl.CmpAtom) bool {
	an, aNum := parseNum(a.Value)
	bn, bNum := parseNum(b.Value)
	if a.Op == ruledsl.OpEq {
		switch b.Op {
		case ruledsl.OpNe:
			return ruledsl.NormLiteral(a.Value) != ruledsl.NormLiteral(b.Value) &&
				!ruledsl.IsTopLit(a.Value) && !ruledsl.IsTopLit(b.Value)
		case ruledsl.OpLt:
			return aNum && bNum && an < bn
		case ruledsl.OpLe:
			return aNum && bNum && an <= bn
		case ruledsl.OpGt:
			return aNum && bNum && an > bn
		case ruledsl.OpGe:
			return aNum && bNum && an >= bn
		}
		return false
	}
	if !aNum || !bNum {
		return false
	}
	// Normalize to inclusive bounds: X<n ≡ X≤n-1, X>n ≡ X≥n+1.
	switch {
	case (a.Op == ruledsl.OpLt || a.Op == ruledsl.OpLe) &&
		(b.Op == ruledsl.OpLt || b.Op == ruledsl.OpLe):
		aHi, bHi := an, bn
		if a.Op == ruledsl.OpLt {
			aHi--
		}
		if b.Op == ruledsl.OpLt {
			bHi--
		}
		return aHi <= bHi
	case (a.Op == ruledsl.OpGt || a.Op == ruledsl.OpGe) &&
		(b.Op == ruledsl.OpGt || b.Op == ruledsl.OpGe):
		aLo, bLo := an, bn
		if a.Op == ruledsl.OpGt {
			aLo++
		}
		if b.Op == ruledsl.OpGt {
			bLo++
		}
		return aLo >= bLo
	}
	return false
}

func parseNum(s string) (int64, bool) {
	n, err := strconv.ParseInt(s, 10, 64)
	return n, err == nil
}

// canonAtom renders an atom to a canonical string with normalized
// literals; canonKids renders a conjunction or disjunction with sorted
// operands. Equal canons ⇒ equivalent formulas (the converse does not
// hold, which is fine for a conservative check).
func canonAtom(f ruledsl.Formula) string {
	switch x := f.(type) {
	case ruledsl.CallAtom:
		if !x.HasArgs {
			return "call(" + x.Method + ")"
		}
		parts := make([]string, len(x.Args))
		for i, a := range x.Args {
			switch a.Kind {
			case ruledsl.ArgAny:
				parts[i] = "_"
			case ruledsl.ArgVar:
				parts[i] = "$" + a.Name
			case ruledsl.ArgLit:
				parts[i] = "'" + ruledsl.NormLiteral(a.Name)
			}
		}
		if x.Rest {
			parts = append(parts, "…")
		}
		return "call(" + x.Method + ";" + strings.Join(parts, ",") + ")"
	case ruledsl.CmpAtom:
		if x.Quoted {
			return "cmp(" + x.Var + ";" + x.Op.String() + ";" + strconv.Quote(x.Value) + ")"
		}
		return "cmp(" + x.Var + ";" + x.Op.String() + ";" + ruledsl.NormLiteral(x.Value) + ")"
	case ruledsl.TestAtom:
		return "test(" + x.Name + ";" + x.Var + ";" + strings.ToUpper(x.Arg) + ")"
	case ruledsl.CtxAtom:
		if x.HasOp {
			return fmt.Sprintf("ctx(%s;%s;%d)", x.Name, x.Op, x.Num)
		}
		return "ctx(" + x.Name + ")"
	}
	return "?"
}

func canonKids(op string, kids []ruledsl.Formula) ([]*cform, string) {
	cs := make([]*cform, len(kids))
	parts := make([]string, len(kids))
	for i, k := range kids {
		cs[i] = newCform(k)
		parts[i] = cs[i].canon
	}
	sort.Strings(parts)
	return cs, op + "(" + strings.Join(parts, ",") + ")"
}

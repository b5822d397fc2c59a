package rulelint

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cryptoapi"
	"repro/internal/ruledsl"
)

// Pass 2: satisfiability. Each clause formula is expanded to disjunctive
// normal form over its comparison/startsWith literals (call and context
// atoms are abstracted to ⊤ — satisfiability of the constraint part is
// what is decidable statically). Each disjunct's conjunction is fed to an
// abstract evaluator that tracks, per variable, the base-domain facts the
// constraints pin: an exact string/symbol, excluded values, a numeric
// interval, and required prefixes. An empty meet is a contradiction.
//
// The expansion is exponential in the worst case — each (X=A ∨ X=B)
// conjunct doubles the disjuncts — so it stops at maxDNF: past that, the
// clause gets one RL205 warning instead of a satisfiability verdict.

// maxDNF bounds one clause's expansion, counted as disjuncts plus the
// literals in them. A formula whose expansion is linear in its size costs
// at most two units per atom (a disjunction of X=lit arms: one disjunct and
// one literal each), so everything up to 32k atoms — a 10k-arm disjunction
// included — is fully checked.
const maxDNF = 1 << 16

// cLit is one constraint literal of a DNF disjunct: a comparison or a
// named test.
type cLit struct {
	isTest  bool
	negated bool // only for named tests under ¬
	v       ruledsl.CmpAtom
	t       ruledsl.TestAtom
}

func (c cLit) String() string {
	switch {
	case c.isTest && c.negated:
		return "¬" + renderTest(c.t)
	case c.isTest:
		return renderTest(c.t)
	case c.v.Quoted:
		return fmt.Sprintf("%s%s%q", c.v.Var, c.v.Op, c.v.Value)
	}
	return fmt.Sprintf("%s%s%s", c.v.Var, c.v.Op, c.v.Value)
}

// lintSat runs the satisfiability pass over one rule.
func (l *linter) lintSat(p *ruledsl.Pack, pr *ruledsl.PackRule) {
	for _, cl := range pr.Syntax.Clauses {
		if cl.Negated {
			continue // the trigger is the positive part
		}
		// RL203: prefix tests no modeled algorithm string can pass are
		// suspicious whatever the rest of the formula does.
		ruledsl.Walk(cl.Formula, func(f ruledsl.Formula) {
			t, ok := f.(ruledsl.TestAtom)
			if ok && t.Name == "startsWith" && !cryptoapi.SomeKnownStringHasPrefix(t.Arg) {
				l.add(p, pr, t.Pos, CodeBadPrefix, SevWarn,
					"prefix %q matches no modeled algorithm string", t.Arg)
			}
		})

		disjuncts, ok := dnf(cl.Formula, false)
		if !ok {
			l.add(p, pr, cl.Pos, CodeDNFBound, SevWarn,
				"clause %s has too many disjuncts to check satisfiability (over %d)", cl.Class, maxDNF)
			continue
		}
		if len(disjuncts) == 0 {
			continue
		}
		type deadDisjunct struct {
			conj   []cLit
			reason satReason
		}
		var dead []deadDisjunct
		for _, conj := range disjuncts {
			if r := unsat(conj); r.why != "" {
				dead = append(dead, deadDisjunct{conj, r})
			}
		}
		if len(dead) == len(disjuncts) {
			// Whole clause unsatisfiable: error. Empty numeric ranges get
			// their own code — they are overwhelmingly threshold typos.
			r := dead[0].reason
			code := CodeContradict
			if r.emptyRange {
				code = CodeEmptyRange
			}
			l.add(p, pr, r.pos, code, SevError,
				"clause %s can never match: %s", cl.Class, r.why)
			continue
		}
		for _, d := range dead {
			l.add(p, pr, d.reason.pos, CodeDeadBranch, SevWarn,
				"disjunct {%s} can never match: %s", renderConj(d.conj), d.reason.why)
		}
	}
}

func renderConj(conj []cLit) string {
	parts := make([]string, len(conj))
	for i, c := range conj {
		parts[i] = c.String()
	}
	return strings.Join(parts, " ∧ ")
}

// dnf expands a formula into disjuncts of constraint literals, or reports
// false when the expansion would exceed maxDNF. Call and context atoms
// contribute no constraints (they are ⊤ for this analysis); negation
// distributes by De Morgan and flips comparison operators.
func dnf(f ruledsl.Formula, neg bool) ([][]cLit, bool) {
	switch x := f.(type) {
	case ruledsl.AndExpr:
		if neg { // ¬(a ∧ b) = ¬a ∨ ¬b
			return union(x.Kids, true)
		}
		return product(x.Kids, false)
	case ruledsl.OrExpr:
		if neg { // ¬(a ∨ b) = ¬a ∧ ¬b
			return product(x.Kids, true)
		}
		return union(x.Kids, false)
	case ruledsl.NotExpr:
		return dnf(x.Kid, !neg)
	case ruledsl.CmpAtom:
		if neg {
			x = negateCmp(x)
		}
		return [][]cLit{{{v: x}}}, true
	case ruledsl.TestAtom:
		return [][]cLit{{{isTest: true, negated: neg, t: x}}}, true
	}
	// CallAtom, CtxAtom, nil: unconstrained.
	return [][]cLit{{}}, true
}

// union is the disjunction of the kids' expansions.
func union(kids []ruledsl.Formula, neg bool) ([][]cLit, bool) {
	var out [][]cLit
	size := 0
	for _, k := range kids {
		d, ok := dnf(k, neg)
		if !ok {
			return nil, false
		}
		if size += len(d) + literals(d); size > maxDNF {
			return nil, false
		}
		out = append(out, d...)
	}
	return out, true
}

// product is the conjunction of the kids' expansions: one disjunct per
// choice of a disjunct from every kid, the last kid varying fastest. Its
// size is checked before any of it is built, and each disjunct is built
// once, so a long conjunction of atoms expands in linear time.
func product(kids []ruledsl.Formula, neg bool) ([][]cLit, bool) {
	ds := make([][][]cLit, len(kids))
	n, lits := 1, 0
	for i, k := range kids {
		d, ok := dnf(k, neg)
		if !ok {
			return nil, false
		}
		n, lits = n*len(d), lits*len(d)+literals(d)*n
		if n+lits > maxDNF {
			return nil, false
		}
		ds[i] = d
	}
	out := make([][]cLit, 0, n)
	pick := make([]int, len(ds))
	for {
		conj := []cLit{}
		for i, d := range ds {
			conj = append(conj, d[pick[i]]...)
		}
		out = append(out, conj)
		i := len(ds) - 1
		for ; i >= 0; i-- {
			if pick[i]++; pick[i] < len(ds[i]) {
				break
			}
			pick[i] = 0
		}
		if i < 0 {
			return out, true
		}
	}
}

// literals counts the constraint literals of an expansion.
func literals(d [][]cLit) int {
	n := 0
	for _, conj := range d {
		n += len(conj)
	}
	return n
}

func negateCmp(c ruledsl.CmpAtom) ruledsl.CmpAtom {
	switch c.Op {
	case ruledsl.OpEq:
		c.Op = ruledsl.OpNe
	case ruledsl.OpNe:
		c.Op = ruledsl.OpEq
	case ruledsl.OpLt:
		c.Op = ruledsl.OpGe
	case ruledsl.OpLe:
		c.Op = ruledsl.OpGt
	case ruledsl.OpGt:
		c.Op = ruledsl.OpLe
	case ruledsl.OpGe:
		c.Op = ruledsl.OpLt
	}
	return c
}

// satReason explains why a conjunction is unsatisfiable.
type satReason struct {
	why        string
	pos        ruledsl.Pos
	emptyRange bool
}

// varFacts is the abstract value of one variable under a conjunction: the
// meet of everything the constraints assert, over the base domains the
// interpreter uses (string/symbol constants and integer constants).
type varFacts struct {
	eq       string // normalized pinned value, "" if unpinned
	eqRaw    string
	eqPos    ruledsl.Pos
	ne       map[string]bool // normalized excluded values
	lo, hi   int64           // inclusive numeric interval
	loSet    bool
	hiSet    bool
	rangePos ruledsl.Pos
	prefixes []ruledsl.TestAtom // startsWith
	// A named test holds only on a string constant (strAt is the first),
	// which neither ¬str(X) nor X=⊤T admits.
	strAt  *ruledsl.TestAtom
	notStr *ruledsl.TestAtom
	topAt  *ruledsl.CmpAtom
}

// unsat evaluates a conjunction of constraint literals, returning a
// non-empty reason when the meet is empty.
func unsat(conj []cLit) satReason {
	vars := map[string]*varFacts{}
	get := func(name string) *varFacts {
		vf := vars[name]
		if vf == nil {
			vf = &varFacts{lo: math.MinInt64, hi: math.MaxInt64, ne: map[string]bool{}}
			vars[name] = vf
		}
		return vf
	}

	for _, c := range conj {
		if c.isTest {
			t, vf := c.t, get(c.t.Var)
			switch {
			case !c.negated && t.Name == "startsWith":
				vf.prefixes = append(vf.prefixes, t)
			case c.negated && t.Name == "str" && vf.notStr == nil:
				vf.notStr = &t
			}
			if !c.negated && vf.strAt == nil {
				vf.strAt = &t
			}
			continue // negated tests exclude sets we do not track
		}
		a := c.v
		if ruledsl.IsTopLit(a.Value) && !a.Quoted {
			if a.Op == ruledsl.OpEq && get(a.Var).topAt == nil {
				get(a.Var).topAt = &a
			}
			continue // constancy tests never conflict with each other
		}
		if a.Quoted && a.Op != ruledsl.OpEq {
			continue // X≠"v" excludes one exact spelling only
		}
		// X="v" implies X=v: an exact match is a normalised one.
		vf := get(a.Var)
		nv := cryptoapi.Canon(a.Value)
		switch a.Op {
		case ruledsl.OpEq:
			if vf.eq != "" && vf.eq != nv {
				return satReason{
					why: fmt.Sprintf("%s=%s contradicts %s=%s", a.Var, a.Value, a.Var, vf.eqRaw),
					pos: a.Pos,
				}
			}
			vf.eq, vf.eqRaw, vf.eqPos = nv, a.Value, a.Pos
		case ruledsl.OpNe:
			vf.ne[nv] = true
		default: // ordered
			n, err := strconv.ParseInt(a.Value, 10, 64)
			if err != nil {
				continue // RL104 already reported non-numeric ordered cmp
			}
			switch a.Op {
			case ruledsl.OpLt:
				vf.narrowHi(n-1, a.Pos)
			case ruledsl.OpLe:
				vf.narrowHi(n, a.Pos)
			case ruledsl.OpGt:
				vf.narrowLo(n+1, a.Pos)
			case ruledsl.OpGe:
				vf.narrowLo(n, a.Pos)
			}
		}
	}

	names := make([]string, 0, len(vars))
	for name := range vars {
		names = append(names, name)
	}
	sort.Strings(names) // the first conflict reported is the same every run
	for _, name := range names {
		vf := vars[name]
		if r := vf.stringConflict(name); r.why != "" {
			return r
		}
		if vf.lo > vf.hi {
			return satReason{
				why:        fmt.Sprintf("numeric range for %s is empty (%s)", name, vf.rangeString(name)),
				pos:        vf.rangePos,
				emptyRange: true,
			}
		}
		if vf.eq == "" {
			continue
		}
		if vf.ne[vf.eq] {
			return satReason{
				why: fmt.Sprintf("%s=%s contradicts %s≠%s", name, vf.eqRaw, name, vf.eqRaw),
				pos: vf.eqPos,
			}
		}
		if n, err := strconv.ParseInt(vf.eqRaw, 10, 64); err == nil {
			if (vf.loSet && n < vf.lo) || (vf.hiSet && n > vf.hi) {
				return satReason{
					why: fmt.Sprintf("%s=%s is outside the range %s", name, vf.eqRaw, vf.rangeString(name)),
					pos: vf.eqPos,
				}
			}
		} else if vf.loSet || vf.hiSet {
			// Ordered constraints require an integer constant at eval
			// time; pinning the variable to a non-numeric value while
			// also range-constraining it can never both hold.
			return satReason{
				why: fmt.Sprintf("%s=%s cannot satisfy the numeric constraint %s", name, vf.eqRaw, vf.rangeString(name)),
				pos: vf.eqPos,
			}
		}
		for _, s := range vf.prefixes {
			if !strings.HasPrefix(vf.eq, cryptoapi.Canon(s.Arg)) {
				return satReason{
					why: fmt.Sprintf("%s=%s does not start with %q", name, vf.eqRaw, s.Arg),
					pos: s.Pos,
				}
			}
		}
	}
	return satReason{}
}

// stringConflict reports a named test that contradicts the variable's
// other facts: it needs a string constant, which no ⊤ value, no ¬str and no
// integer range admits.
func (vf *varFacts) stringConflict(name string) satReason {
	var other string
	var pos ruledsl.Pos
	switch t := vf.strAt; {
	case t == nil:
		return satReason{}
	case vf.notStr != nil:
		other, pos = fmt.Sprintf("¬str(%s)", name), vf.notStr.Pos
	case vf.topAt != nil:
		other, pos = fmt.Sprintf("%s=%s", name, vf.topAt.Value), vf.topAt.Pos
	case vf.loSet || vf.hiSet:
		other, pos = fmt.Sprintf("%s is range-constrained (%s)", name, vf.rangeString(name)), t.Pos
	default:
		return satReason{}
	}
	return satReason{why: fmt.Sprintf("%s needs a string constant but %s", renderTest(*vf.strAt), other), pos: pos}
}

func (vf *varFacts) narrowHi(n int64, pos ruledsl.Pos) {
	if n < vf.hi {
		vf.hi = n
		vf.hiSet = true
		vf.rangePos = pos
	} else if !vf.hiSet {
		vf.hiSet = true
		if vf.rangePos == (ruledsl.Pos{}) {
			vf.rangePos = pos
		}
	}
}

func (vf *varFacts) narrowLo(n int64, pos ruledsl.Pos) {
	if n > vf.lo {
		vf.lo = n
		vf.loSet = true
		vf.rangePos = pos
	} else if !vf.loSet {
		vf.loSet = true
		if vf.rangePos == (ruledsl.Pos{}) {
			vf.rangePos = pos
		}
	}
}

func (vf *varFacts) rangeString(name string) string {
	switch {
	case vf.loSet && vf.hiSet:
		return fmt.Sprintf("%d ≤ %s ≤ %d", vf.lo, name, vf.hi)
	case vf.loSet:
		return fmt.Sprintf("%s ≥ %d", name, vf.lo)
	case vf.hiSet:
		return fmt.Sprintf("%s ≤ %d", name, vf.hi)
	}
	return "unconstrained"
}

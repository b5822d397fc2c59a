package ruledsl

import (
	"strconv"
	"strings"

	"repro/internal/absdom"
	"repro/internal/analysis"
	"repro/internal/cryptoapi"
)

// Context carries the project facts rule formulas read: whether the project
// is an Android app, its minSdkVersion, and whether the Linux-PRNG fix (the
// SecureRandom workaround of the Android advisory) is installed.
type Context struct {
	Android       bool
	MinSDKVersion int
	HasLPRNG      bool
}

// EventMatch identifies one usage event a clause formula matched on.
type EventMatch struct {
	// EventIndex indexes into the object's events.
	EventIndex int
	// Args lists the decisive argument positions: literal patterns, and
	// variables that a constraint outside any negation tests on the same
	// conjunctive path. Empty means the call itself is the evidence.
	Args []int
}

// maxVars bounds the variables of one formula: one upper-case letter,
// optionally primed.
const maxVars = 52

// Program is one compiled clause formula. Variables are resolved to slots
// and literals normalised once, so evaluating a Program allocates nothing;
// Holds and Evidence run the same search.
type Program struct {
	root *node
}

type nodeKind uint8

const (
	nOr nodeKind = iota
	nNot
	nCall
	nTest
	nCtx
)

// node is one compiled formula node. Conjunctions compile away: each node
// holds its successor, the node to satisfy next once it holds (nil: the
// formula, or a negated subformula, is satisfied), so the search needs no
// stack of pending conjuncts.
type node struct {
	kind nodeKind
	succ *node
	kids []*node // nOr: the alternatives; nNot: the negated subformula
	// nCall: the atom, its compiled argument patterns, and the positions
	// that can be evidence when it matches: every literal and variable.
	call  CallAtom
	args  []argSlot
	evPos []int
	// nTest: a comparison or named test of one slot.
	slot int
	test func(v *absdom.Value) bool
	// nCtx
	ctx CtxAtom
}

// argSlot is one compiled argument pattern: a variable's slot, or a
// literal's equality test.
type argSlot struct {
	kind ArgPatKind
	slot int
	lit  func(v *absdom.Value) bool
}

// Compile turns a clause formula into a Program. A formula ParseSyntax
// accepted always compiles.
func Compile(f Formula) *Program {
	c := compiler{slots: map[string]int{}}
	return &Program{root: c.node(f, nil)}
}

// compiler resolves a formula's variables to slots.
type compiler struct {
	slots map[string]int
}

func (c *compiler) slot(name string) int {
	s, ok := c.slots[name]
	if !ok {
		s = len(c.slots)
		c.slots[name] = s
	}
	return s
}

// node compiles f to be followed by succ.
func (c *compiler) node(f Formula, succ *node) *node {
	switch x := f.(type) {
	case AndExpr:
		for i := len(x.Kids) - 1; i >= 0; i-- {
			succ = c.node(x.Kids[i], succ)
		}
		return succ
	case OrExpr:
		n := &node{kind: nOr}
		for _, k := range x.Kids {
			n.kids = append(n.kids, c.node(k, succ))
		}
		return n
	case NotExpr:
		return &node{kind: nNot, succ: succ, kids: []*node{c.node(x.Kid, nil)}}
	case CallAtom:
		n := &node{kind: nCall, succ: succ, call: x}
		for i, a := range x.Args {
			as := argSlot{kind: a.Kind}
			switch a.Kind {
			case ArgVar:
				as.slot = c.slot(a.Name)
			case ArgLit:
				as.lit = cmpTest(CmpAtom{Op: OpEq, Value: a.Name})
			}
			if a.Kind != ArgAny {
				n.evPos = append(n.evPos, i)
			}
			n.args = append(n.args, as)
		}
		return n
	case CmpAtom:
		return &node{kind: nTest, succ: succ, slot: c.slot(x.Var), test: cmpTest(x)}
	case TestAtom:
		return &node{kind: nTest, succ: succ, slot: c.slot(x.Var), test: testAtoms[x.Name].compile(x.Arg)}
	case CtxAtom:
		return &node{kind: nCtx, succ: succ, ctx: x}
	}
	return &node{kind: nOr} // unreachable for parsed formulas: never holds
}

// cmpTest compiles a comparison. Equality against a ⊤-literal holds on any
// ⊤ value, against any other literal on a string, integer or boolean
// constant of the literal's canonical form (cryptoapi.Canon), and against a
// quoted literal on exactly that string; X≠⊤T holds on constant data; any
// other inequality holds unless X is provably the literal; an ordered
// comparison needs an integer constant.
func cmpTest(x CmpAtom) func(v *absdom.Value) bool {
	lit, top := cryptoapi.Canon(x.Value), !x.Quoted && isTopLiteral(x.Value)
	eq := func(v *absdom.Value) bool {
		switch {
		case top:
			return v.IsTop()
		case x.Quoted:
			return v.Kind == absdom.KStrConst && v.Payload == x.Value
		}
		k := v.Kind
		return (k == absdom.KStrConst || k == absdom.KIntConst || k == absdom.KBoolConst) &&
			cryptoapi.MatchCanon(v.Payload, lit, false)
	}
	switch {
	case x.Op == OpEq:
		return eq
	case x.Op == OpNe && top:
		return isConstData
	case x.Op == OpNe:
		return func(v *absdom.Value) bool { return !eq(v) }
	}
	m, ok := parseInt(x.Value)
	return func(v *absdom.Value) bool {
		if !ok || x.Quoted || v.Kind != absdom.KIntConst {
			return false
		}
		n, isInt := parseInt(v.Payload)
		return isInt && compareInts(n, x.Op, m)
	}
}

// Holds reports whether some assignment of the object's events to the
// formula's call atoms satisfies it.
func (p *Program) Holds(events []analysis.Event, ctx Context) bool {
	var e evaluator // assigned field by field: a composite literal is built and copied
	e.events, e.ctx = events, ctx
	return e.sat(p.root)
}

// Evidence lists the events of every satisfying assignment, each with its
// decisive argument positions, in the order the search finds them. Events a
// negated subformula inspects are never evidence, so a formula that holds
// without matching any call (¬getInstanceStrong) has none; otherwise
// Evidence is non-empty exactly when Holds is true.
func (p *Program) Evidence(events []analysis.Event, ctx Context) []EventMatch {
	e := evaluator{events: events, ctx: ctx, ev: &evidence{}}
	e.sat(p.root)
	return e.ev.out
}

// evaluator searches for satisfying assignments by backtracking: a call
// atom binds the variables of its argument patterns to one event's
// arguments at a time and the search goes on at its successor; bindings
// are undone on the way back. An evaluator lives on its caller's stack.
type evaluator struct {
	events []analysis.Event
	ctx    Context
	vals   [maxVars]*absdom.Value
	ev     *evidence // set in evidence mode
}

// evidence is the evaluator's state in evidence mode, where every
// satisfying assignment is recorded and the search goes on: path holds the
// call atoms matched so far and tested the slots a test on the path
// checked. A negated subformula is searched without it.
type evidence struct {
	path   []step
	tested uint64
	out    []EventMatch
}

// step is one call atom of a path and the event it matched.
type step struct {
	n  *node
	ev int
}

// decisive lists the positions of the call's literals and of its
// variables whose slots are set in tested.
func (n *node) decisive(tested uint64) []int {
	var out []int
	for _, i := range n.evPos {
		if a := n.args[i]; a.kind != ArgVar || tested&(1<<a.slot) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// stop reports whether the search is done at its first satisfying
// assignment: always when deciding Holds, and in evidence mode once
// maxEvidence matches are recorded, so a formula whose calls match in very
// many combinations does not enumerate them all.
func (e *evaluator) stop() bool { return e.ev == nil || len(e.ev.out) >= maxEvidence }

const maxEvidence = 1 << 12

// sat reports whether the formula holds from n on.
func (e *evaluator) sat(n *node) bool {
	if n == nil {
		if e.ev != nil { // record the calls of this satisfying assignment
			for _, s := range e.ev.path {
				e.ev.out = append(e.ev.out, EventMatch{EventIndex: s.ev, Args: s.n.decisive(e.ev.tested)})
			}
		}
		return true
	}
	switch n.kind {
	case nOr:
		found := false
		for _, kid := range n.kids {
			if e.sat(kid) {
				if found = true; e.stop() {
					return true
				}
			}
		}
		return found
	case nNot:
		// The negated formula is decided alone; bindings made inside do
		// not escape, and nothing inside it is evidence.
		ev := e.ev
		e.ev = nil
		holds := e.sat(n.kids[0])
		e.ev = ev
		return !holds && e.sat(n.succ)
	case nCall:
		found := false
		for i := range e.events {
			ev := &e.events[i]
			if ev.Sig.Name != n.call.Method || !n.call.Accepts(len(ev.Args)) {
				continue
			}
			if e.bind(n, ev.Args, i) {
				if found = true; e.stop() {
					return true
				}
			}
		}
		return found
	case nTest:
		v := e.vals[n.slot]
		if v == nil || !n.test(v) {
			return false
		}
		if e.ev == nil {
			return e.sat(n.succ)
		}
		tested := e.ev.tested
		e.ev.tested |= 1 << n.slot
		ok := e.sat(n.succ)
		e.ev.tested = tested
		return ok
	case nCtx:
		return n.ctx.holds(e.ctx) && e.sat(n.succ)
	}
	return false
}

// bind matches one event's arguments against a call atom's patterns, binds
// the unbound variables, and goes on at the atom's successor.
func (e *evaluator) bind(n *node, args []absdom.Value, ev int) bool {
	var bound uint64 // slots this call binds
	ok := true
	for j, a := range n.args {
		switch a.kind {
		case ArgVar:
			if prev := e.vals[a.slot]; prev != nil {
				ok = prev.Equal(args[j])
			} else {
				e.vals[a.slot] = &args[j]
				bound |= 1 << a.slot
			}
		case ArgLit:
			ok = a.lit(&args[j])
		}
		if !ok {
			break
		}
	}
	if ok && e.ev != nil {
		e.ev.path = append(e.ev.path, step{n: n, ev: ev})
		ok = e.sat(n.succ)
		e.ev.path = e.ev.path[:len(e.ev.path)-1]
	} else if ok {
		ok = e.sat(n.succ)
	}
	for s := 0; bound != 0; s++ {
		if bound&(1<<s) != 0 {
			e.vals[s] = nil
			bound &^= 1 << s
		}
	}
	return ok
}

func (a CtxAtom) holds(ctx Context) bool {
	switch a.Name {
	case "LPRNG":
		return ctx.HasLPRNG
	case "ANDROID":
		return ctx.Android
	case "MIN_SDK_VERSION":
		return compareInts(int64(ctx.MinSDKVersion), a.Op, a.Num)
	}
	return false
}

// testAtom is one named test: compile builds its check for the test's
// literal.
type testAtom struct {
	withArg bool
	compile func(lit string) func(v *absdom.Value) bool
}

// strTest builds a testAtom that takes no literal.
func strTest(f func(s string) bool) testAtom {
	return testAtom{compile: func(string) func(*absdom.Value) bool {
		return func(v *absdom.Value) bool { return v.Kind == absdom.KStrConst && f(v.Payload) }
	}}
}

// litTest builds a testAtom that reads a string constant together with the
// canonical form of its literal.
func litTest(f func(s, canon string) bool) testAtom {
	return testAtom{withArg: true, compile: func(lit string) func(*absdom.Value) bool {
		lit = cryptoapi.Canon(lit)
		return func(v *absdom.Value) bool { return v.Kind == absdom.KStrConst && f(v.Payload, lit) }
	}}
}

// testAtoms are the named tests of the language: the ones an equality
// cannot state. Each holds only on a string constant and reads it in
// canonical form (cryptoapi.Canon), the form comparisons use.
var testAtoms = map[string]testAtom{
	// str(X): X is a string constant.
	"str": strTest(func(string) bool { return true }),
	// startsWith(X, L): X starts with L.
	"startsWith": litTest(func(s, canon string) bool { return cryptoapi.MatchCanon(s, canon, true) }),
	// alg(X, L): the algorithm of transformation X (before the first '/')
	// is L.
	"alg": litTest(func(s, canon string) bool {
		return cryptoapi.MatchCanon(cryptoapi.ParseTransformation(s).Algorithm, canon, false)
	}),
	// ecb(X): transformation X runs a block cipher in ECB mode, named or
	// by the JCA default.
	"ecb": strTest(func(s string) bool { return cryptoapi.ParseTransformation(s).IsECB() }),
}

// HoldsOn reports whether the named test holds on the string constant s.
// Exported for rulelint, which decides implications between atoms with it.
func (a TestAtom) HoldsOn(s string) bool {
	t, ok := testAtoms[a.Name]
	v := absdom.StrConst(s)
	return ok && t.compile(a.Arg)(&v)
}

// isConstData reports whether v is constant data — a constant array,
// integer or string: the X ≠ ⊤T reading of rules R9–R12.
func isConstData(v *absdom.Value) bool {
	switch v.Kind {
	case absdom.KConstByteArr, absdom.KIntArrConst, absdom.KStrArrConst,
		absdom.KIntConst, absdom.KStrConst:
		return true
	}
	return false
}

// isTopLiteral recognizes the ⊤-notation literals of Figure 3.
func isTopLiteral(lit string) bool {
	return strings.HasPrefix(lit, "⊤")
}

// parseInt reads an integer literal the way Go (and, but for suffixes,
// Java) writes it: decimal, or 0x/0o/0b/0-prefixed, with underscores.
func parseInt(s string) (int64, bool) {
	if digits := strings.TrimLeft(s, "+-"); digits == "" || digits[0] < '0' || digits[0] > '9' {
		return 0, false // not a number (a symbolic constant): skip strconv's error
	}
	n, err := strconv.ParseInt(s, 0, 64)
	return n, err == nil
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

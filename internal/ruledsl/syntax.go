package ruledsl

import "fmt"

// Pos locates a token within a rule source: the byte offset plus the
// 1-based line:col it renders as. Rule formulas are usually one line, so
// Line is almost always 1 and Col is the interesting coordinate; pack
// loaders translate formula-relative positions into pack-absolute ones.
type Pos struct {
	Offset int `json:"offset"`
	Line   int `json:"line"`
	Col    int `json:"col"`
}

// ParseError is a lexer/parser error carrying the offending token's
// position, rendered as "line L:C: message" — position-accurate for
// editors and for rulelint diagnostics.
type ParseError struct {
	Offset    int
	Line, Col int
	Msg       string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("line %d:%d: %s", e.Line, e.Col, e.Msg)
}

// perr builds a ParseError at a token position.
func perr(at Pos, format string, args ...any) *ParseError {
	return &ParseError{Offset: at.Offset, Line: at.Line, Col: at.Col, Msg: fmt.Sprintf(format, args...)}
}

// Syntax is the parsed form of one rule: its clause list with every atom
// position-annotated. It is the one parse tree of the rule language:
// Compile turns each clause formula into a Program and rulelint analyzes
// it.
type Syntax struct {
	Source  string
	Clauses []ClauseSyntax
}

// ClauseSyntax is one Class:formula conjunct.
type ClauseSyntax struct {
	Class   string
	Pos     Pos // position of the class identifier
	Negated bool
	Formula Formula
}

// Formula is a node of a clause formula tree.
type Formula interface{ formulaTag() }

// AndExpr is a conjunction of formulas.
type AndExpr struct{ Kids []Formula }

// OrExpr is a disjunction of formulas.
type OrExpr struct{ Kids []Formula }

// NotExpr is a negated formula.
type NotExpr struct{ Kid Formula }

// CallAtom matches a usage event by method name; Args constrain arity and
// argument values when HasArgs is set. With Rest (a trailing …) the event
// may carry further arguments after the ones Args constrain.
type CallAtom struct {
	Method  string
	Pos     Pos
	HasArgs bool
	Args    []ArgPattern
	Rest    bool
}

// Accepts reports whether an event of the given arity can match the atom.
func (a CallAtom) Accepts(arity int) bool {
	return !a.HasArgs || arity == len(a.Args) || (a.Rest && arity > len(a.Args))
}

// ArgPatKind classifies one argument pattern.
type ArgPatKind int

// The three argument-pattern shapes.
const (
	ArgAny ArgPatKind = iota // _
	ArgVar                   // X — binds the argument's abstract value
	ArgLit                   // literal constant, e.g. AES or 1000
)

// ArgPattern is one argument pattern of a call atom.
type ArgPattern struct {
	Kind ArgPatKind
	Name string // variable name or literal text
	Pos  Pos
}

// CmpOp is a comparison operator of the rule language.
type CmpOp int

// The six comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

func (op CmpOp) String() string {
	return [...]string{"=", "≠", "<", "≤", ">", "≥"}[op]
}

// IsOrdered reports whether the operator is a numeric ordering (<, ≤, >, ≥)
// rather than an (in)equality.
func (op CmpOp) IsOrdered() bool { return op >= OpLt }

// CmpAtom compares a bound variable against a literal. A Quoted literal
// ("BC") compares exactly, case included, and only ever equals a string
// constant.
type CmpAtom struct {
	Var    string
	Op     CmpOp
	Value  string
	Quoted bool
	Pos    Pos
}

// TestAtom is a named test of one variable's value, e.g. ecb(X) or
// startsWith(X, AES/CBC); Arg is the literal of the tests that take one.
type TestAtom struct {
	Name string
	Var  string
	Arg  string
	Pos  Pos
}

// CtxAtom tests project context: LPRNG, ANDROID, or a MIN_SDK_VERSION
// comparison (HasOp distinguishes the bare flags). MIN_SDK_VERSION is an
// Android attribute: a rule that tests it applies to Android projects only
// (Syntax.AndroidOnly).
type CtxAtom struct {
	Name  string
	Op    CmpOp
	Num   int64
	HasOp bool
	Pos   Pos
}

func (AndExpr) formulaTag()  {}
func (OrExpr) formulaTag()   {}
func (NotExpr) formulaTag()  {}
func (CallAtom) formulaTag() {}
func (CmpAtom) formulaTag()  {}
func (TestAtom) formulaTag() {}
func (CtxAtom) formulaTag()  {}

// AndroidOnly reports whether the rule tests MIN_SDK_VERSION anywhere, which
// makes it applicable to Android projects only.
func (s *Syntax) AndroidOnly() bool {
	found := false
	for _, c := range s.Clauses {
		Walk(c.Formula, func(f Formula) {
			if a, ok := f.(CtxAtom); ok && a.Name == "MIN_SDK_VERSION" {
				found = true
			}
		})
	}
	return found
}

// Walk visits every node of a formula tree, atoms included, parents
// before their kids.
func Walk(f Formula, visit func(Formula)) {
	if f == nil {
		return
	}
	visit(f)
	switch x := f.(type) {
	case AndExpr:
		for _, k := range x.Kids {
			Walk(k, visit)
		}
	case OrExpr:
		for _, k := range x.Kids {
			Walk(k, visit)
		}
	case NotExpr:
		Walk(x.Kid, visit)
	}
}

// ParseSyntax parses a rule source into its syntax tree — the one parse
// tree of the rule language, which Compile turns into Programs and rulelint
// analyzes.
// Errors are *ParseError values positioned at the offending token.
func ParseSyntax(src string) (s *Syntax, err error) {
	defer func() {
		if p := recover(); p != nil {
			s, err = nil, fmt.Errorf("internal error parsing rule: %v", p)
		}
	}()
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	clauses, err := parseRule(toks)
	if err != nil {
		return nil, err
	}
	return &Syntax{Source: src, Clauses: clauses}, nil
}

// IsTopLit reports whether the literal uses the ⊤-notation of Figure 3
// (⊤byte[], ⊤int, ...), which tests constancy rather than a value.
func IsTopLit(lit string) bool { return isTopLiteral(lit) }

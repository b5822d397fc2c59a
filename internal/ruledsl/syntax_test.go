package ruledsl

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestParseErrorRendering pins the rendered line:col form of parse
// errors — the contract rulelint diagnostics and CLI messages rely on.
func TestParseErrorRendering(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"Cipher : getInstance(X) ∧ X=", "line 1:29: expected literal, found EOF"},
		{"Cipher : getInstance(X) & X=AES", "line 1:25: single '&'"},
		{"Cipher : getInstance(X) | X=AES", "line 1:25: single '|'"},
		{"Cipher ; getInstance(X)", "line 1:8: unexpected character ';'"},
		{"Cipher : getInstance(X) X=AES", "line 1:25: trailing input starting at \"X\""},
		{"Cipher :\n  getInstance(X) ∧\n  X=$", "line 3:5: unexpected character '$'"},
	}
	for _, c := range cases {
		_, err := ParseSyntax(c.src)
		if err == nil {
			t.Errorf("ParseSyntax(%q): want error, got none", c.src)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("ParseSyntax(%q) error = %q, want %q", c.src, err.Error(), c.want)
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("ParseSyntax(%q): error is not a *ParseError", c.src)
		}
		// The pack loader wraps the same error with the rule id (pack
		// lines hold one-line formulas).
		if strings.Contains(c.src, "\n") {
			continue
		}
		err = ParsePack("p.rules", "T1 | test | "+c.src).Rules[0].Err
		if err == nil || err.Error() != "rule T1: "+c.want {
			t.Errorf("ParsePack(%q) error = %v, want %q", c.src, err, "rule T1: "+c.want)
		}
	}
}

// TestSyntaxPositions checks the line:col the lexer records for every
// atom against a rune count over the source: columns count runes, so the
// multi-byte ∧/¬ advance by one, and a newline starts column 1 again.
func TestSyntaxPositions(t *testing.T) {
	for _, src := range []string{
		"Cipher : ¬init ∧ getInstance(X) ∧ X=AES",
		"Cipher :\n  getInstance(X) ∧\n  X=AES",
		"Cipher\n:\ncd(X,_,AES) ∧ ¬startsWith(X,A) ∧\n¬(Mac : e)",
		"\n\nCipher :\n\n¬ANDROID ∨ MIN_SDK_VERSION≥16",
	} {
		syn, err := ParseSyntax(src)
		if err != nil {
			t.Fatalf("ParseSyntax(%q): %v", src, err)
		}
		var positions []Pos
		for _, c := range syn.Clauses {
			positions = append(positions, c.Pos)
			Walk(c.Formula, func(f Formula) {
				switch a := f.(type) {
				case CallAtom:
					positions = append(positions, a.Pos)
					for _, arg := range a.Args {
						positions = append(positions, arg.Pos)
					}
				case CmpAtom:
					positions = append(positions, a.Pos)
				case TestAtom:
					positions = append(positions, a.Pos)
				case CtxAtom:
					positions = append(positions, a.Pos)
				}
			})
		}
		for _, p := range positions {
			line, col := 1, 1
			for _, r := range src[:p.Offset] {
				if r == '\n' {
					line, col = line+1, 1
				} else {
					col++
				}
			}
			if p.Line != line || p.Col != col {
				t.Errorf("%q: token at offset %d is %d:%d, want %d:%d", src, p.Offset, p.Line, p.Col, line, col)
			}
		}
	}
	syn, err := ParseSyntax("Cipher : ¬init ∧\n getInstance(X)")
	if err != nil {
		t.Fatal(err)
	}
	and := syn.Clauses[0].Formula.(AndExpr)
	if p := and.Kids[0].(NotExpr).Kid.(CallAtom).Pos; p.Line != 1 || p.Col != 11 {
		t.Errorf("init at %d:%d, want 1:11", p.Line, p.Col)
	}
	if p := and.Kids[1].(CallAtom).Pos; p.Line != 2 || p.Col != 2 {
		t.Errorf("getInstance at %d:%d, want 2:2", p.Line, p.Col)
	}
}

// TestNestingCap pins the parser's depth limit: a formula nested exactly
// maxNesting levels deep in parentheses and ¬ parses, one level more is a
// ParseError rather than a stack overflow.
func TestNestingCap(t *testing.T) {
	for _, open := range []string{"(", "¬", "¬("} {
		levels := utf8.RuneCountInString(open)
		deep := func(n int) string {
			return "Cipher : " + strings.Repeat(open, n) + "init" + strings.Repeat(")", strings.Count(open, "(")*n)
		}
		if _, err := ParseSyntax(deep(maxNesting / levels)); err != nil {
			t.Errorf("%q×%d: %v", open, maxNesting/levels, err)
		}
		_, err := ParseSyntax(deep(maxNesting/levels + 1))
		var pe *ParseError
		if !errors.As(err, &pe) || !strings.Contains(pe.Msg, "nested deeper than") {
			t.Errorf("%q×%d: err = %v, want a nesting ParseError", open, maxNesting/levels+1, err)
		}
	}
	// A parenthesised clause is one level of its formula.
	clause := "(Cipher : " + strings.Repeat("(", maxNesting) + "init" + strings.Repeat(")", maxNesting+1)
	if _, err := ParseSyntax(clause); err == nil || !strings.Contains(err.Error(), "nested deeper than") {
		t.Errorf("parenthesised clause over the cap: err = %v", err)
	}
}

func TestParseSyntaxShape(t *testing.T) {
	syn, err := ParseSyntax("(Cipher : getInstance(X) ∧ startsWith(X,AES)) ∧ ¬(Mac : init(_,1000) ∨ MIN_SDK_VERSION<19)")
	if err != nil {
		t.Fatal(err)
	}
	if len(syn.Clauses) != 2 {
		t.Fatalf("want 2 clauses, got %d", len(syn.Clauses))
	}
	c0 := syn.Clauses[0]
	if c0.Class != "Cipher" || c0.Negated || c0.Pos.Col != 2 {
		t.Errorf("clause 0 = %+v", c0)
	}
	and, ok := c0.Formula.(AndExpr)
	if !ok || len(and.Kids) != 2 {
		t.Fatalf("clause 0 formula = %#v", c0.Formula)
	}
	call, ok := and.Kids[0].(CallAtom)
	if !ok || call.Method != "getInstance" || !call.HasArgs || len(call.Args) != 1 {
		t.Fatalf("first atom = %#v", and.Kids[0])
	}
	if call.Args[0].Kind != ArgVar || call.Args[0].Name != "X" {
		t.Errorf("arg = %+v", call.Args[0])
	}
	sw, ok := and.Kids[1].(TestAtom)
	if !ok || sw.Name != "startsWith" || sw.Var != "X" || sw.Arg != "AES" {
		t.Fatalf("second atom = %#v", and.Kids[1])
	}
	c1 := syn.Clauses[1]
	if c1.Class != "Mac" || !c1.Negated {
		t.Errorf("clause 1 = %+v", c1)
	}
	or, ok := c1.Formula.(OrExpr)
	if !ok || len(or.Kids) != 2 {
		t.Fatalf("clause 1 formula = %#v", c1.Formula)
	}
	initCall, ok := or.Kids[0].(CallAtom)
	if !ok || initCall.Method != "init" ||
		!reflect.DeepEqual([]ArgPatKind{initCall.Args[0].Kind, initCall.Args[1].Kind}, []ArgPatKind{ArgAny, ArgLit}) {
		t.Fatalf("init atom = %#v", or.Kids[0])
	}
	ctx, ok := or.Kids[1].(CtxAtom)
	if !ok || ctx.Name != "MIN_SDK_VERSION" || !ctx.HasOp || ctx.Op != OpLt || ctx.Num != 19 {
		t.Fatalf("ctx atom = %#v", or.Kids[1])
	}
}

func TestParsePackTolerant(t *testing.T) {
	pack := ParsePack("p.rules", `# header
T1 | first | Cipher : getInstance(X) ∧ X=DES
broken line without pipes
T2 | bad formula | Cipher : getInstance(X) ∧ X=
T1 | duplicate id | Mac : getInstance(X)
`)
	if len(pack.LineErrs) != 1 || pack.LineErrs[0].Line != 3 {
		t.Fatalf("LineErrs = %+v", pack.LineErrs)
	}
	if len(pack.Rules) != 3 {
		t.Fatalf("want 3 rules (duplicates kept), got %d", len(pack.Rules))
	}
	if pack.Rules[0].Err != nil || pack.Rules[0].Syntax == nil {
		t.Errorf("rule 0 should parse: %+v", pack.Rules[0])
	}
	if pack.Rules[0].Line != 2 {
		t.Errorf("rule 0 line = %d, want 2", pack.Rules[0].Line)
	}
	if pack.Rules[1].Err == nil {
		t.Error("rule 1 should fail to parse")
	}
	if pack.Rules[2].ID != "T1" || pack.Rules[2].Line != 5 {
		t.Errorf("rule 2 = %+v", pack.Rules[2])
	}
	if got := pack.Rules[0].FormulaCol; got != 14 {
		t.Errorf("rule 0 FormulaCol = %d, want 14", got)
	}
}

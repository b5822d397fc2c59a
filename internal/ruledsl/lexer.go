// Package ruledsl is the security-rule language of the paper's Figure 9:
// textual rules such as
//
//	MessageDigest : getInstance(X, …) ∧ weakDigest(X)
//	PBEKeySpec : <init>(_, _, X, …) ∧ X<1000
//	Cipher : getInstance(_) ∨ getInstance(_, X) ∧ X≠"BC"
//	(Cipher : getInstance(X) ∧ startsWith(X,AES/CBC)) ∧ ¬(Mac : getInstance(Z) ∧ startsWith(Z,Hmac))
//
// are parsed into a position-annotated Syntax tree, and each clause formula
// compiles into a Program that evaluates over one abstract object's usage
// events. The grammar:
//
//	rule      = clause { "∧" clause }
//	clause    = [ "¬" ] "(" simple ")" | simple
//	simple    = Class ":" formula
//	formula   = or
//	or        = and { "∨" and }
//	and       = unary { "∧" unary }
//	unary     = "¬" unary | "(" or ")" | atom
//	atom      = call | comparison | test | contextFlag
//	call      = method [ "(" [ argpat { "," argpat } [ "," "…" ] | "…" ] ")" ]
//	argpat    = "_" | Var | literal
//	comparison= Var ("=" | "≠" | "<" | "≤" | ">" | "≥") ( literal | "\"" text "\"" )
//	test      = ("str" | "ecb" | "weakDigest") "(" Var ")"
//	          | ("startsWith" | "name" | "prefix" | "alg") "(" Var "," literal ")"
//
// Variables are single-letter uppercase identifiers (X, Y, Z). A call
// without arguments matches any arity; a trailing … admits further
// arguments. Literals compare upper-cased with dashes removed (SHA-1 equals
// "sha1"); a quoted literal compares exactly; X≠⊤T holds when X is constant
// data (a constant array, integer or string). The named tests hold only on
// a string constant: str(X) on any, startsWith(X, L) when it starts with L
// in the form literals compare in; name, prefix and alg compare its name
// (for alg, the algorithm before the first '/') upper-cased with surrounding
// space trimmed, ecb(X) holds when the transformation runs a block cipher
// in ECB mode, named or by default, and weakDigest(X) when it names a
// collision-broken digest. Test names are reserved: no method atom takes
// one. ASCII fallbacks are accepted for the logical
// operators: "&&" or "and" for ∧, "||" or "or" for ∨, "!" or "not" for ¬,
// "!=" for ≠, "<=" for ≤, ">=" for ≥ and "..." for …. Context flags are
// LPRNG, ANDROID, and MIN_SDK_VERSION (the last in comparisons); a rule
// that tests MIN_SDK_VERSION applies to Android projects only. Parentheses,
// ¬ and parenthesised clauses nest at most 256 levels deep.
//
// A rule is parsed once: Compile turns its clause formulas into Programs,
// and rulelint analyzes the same tree.
package ruledsl

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokKind int

const (
	tEOF      tokKind = iota
	tIdent            // method/class names, literals like AES/CBC or SHA-1
	tVar              // single uppercase letter
	tWildcard         // _
	tLParen
	tRParen
	tComma
	tColon
	tAnd  // ∧
	tOr   // ∨
	tNot  // ¬
	tEq   // =
	tNe   // ≠
	tLt   // <
	tLe   // ≤
	tGt   // >
	tGe   // ≥
	tRest // … — further arguments may follow
	tStr  // "quoted" literal, compared exactly
)

type token struct {
	kind tokKind
	text string
	pos  Pos
}

func (t token) String() string {
	if t.text != "" {
		return fmt.Sprintf("%q", t.text)
	}
	return [...]string{"EOF", "ident", "var", "_", "(", ")", ",", ":",
		"∧", "∨", "¬", "=", "≠", "<", "≤", ">", "≥", "…", "string"}[t.kind]
}

// lex tokenizes a rule string, recording each token's line:col as it
// scans. Columns count runes, so ∧/∨/¬ advance by one. Literal tokens are
// maximal runs of characters that are not whitespace, delimiters, or
// operators — this admits transformation strings (AES/CBC/PKCS5Padding),
// algorithm names with dashes (SHA-1), and the ⊤-notation (⊤byte[]).
func lex(src string) ([]token, error) {
	var toks []token
	i, line, col := 0, 1, 1
	at := func() Pos { return Pos{Offset: i, Line: line, Col: col} }
	// advance consumes n bytes of the current line.
	advance := func(n int) {
		col += utf8.RuneCountInString(src[i : i+n])
		i += n
	}
	emit := func(k tokKind, text string, n int) {
		toks = append(toks, token{kind: k, text: text, pos: at()})
		advance(n)
	}
	for i < len(src) {
		r, w := utf8.DecodeRuneInString(src[i:])
		switch {
		case r == '\n':
			i++
			line, col = line+1, 1
		case r == ' ' || r == '\t':
			advance(w)
		case r == '(':
			emit(tLParen, "", w)
		case r == ')':
			emit(tRParen, "", w)
		case r == ',':
			emit(tComma, "", w)
		case r == ':':
			emit(tColon, "", w)
		case r == '∧':
			emit(tAnd, "", w)
		case r == '∨':
			emit(tOr, "", w)
		case r == '¬':
			emit(tNot, "", w)
		case r == '!':
			if strings.HasPrefix(src[i:], "!=") {
				emit(tNe, "", 2)
			} else {
				emit(tNot, "", w)
			}
		case r == '&':
			if !strings.HasPrefix(src[i:], "&&") {
				return nil, perr(at(), "single '&'")
			}
			emit(tAnd, "", 2)
		case r == '|':
			if !strings.HasPrefix(src[i:], "||") {
				return nil, perr(at(), "single '|'")
			}
			emit(tOr, "", 2)
		case r == '=':
			emit(tEq, "", w)
		case r == '≠':
			emit(tNe, "", w)
		case r == '≤':
			emit(tLe, "", w)
		case r == '≥':
			emit(tGe, "", w)
		case r == '…':
			emit(tRest, "", w)
		case r == '"':
			end := strings.IndexAny(src[i+w:], "\"\n")
			if end < 0 || src[i+w+end] != '"' {
				return nil, perr(at(), "unterminated string")
			}
			emit(tStr, src[i+w:i+w+end], w+end+1)
		case r == '<':
			// "<=" or "<init>" or plain "<".
			if strings.HasPrefix(src[i:], "<=") {
				emit(tLe, "", 2)
			} else if strings.HasPrefix(src[i:], "<init>") {
				emit(tIdent, "<init>", len("<init>"))
			} else {
				emit(tLt, "", w)
			}
		case r == '>':
			if strings.HasPrefix(src[i:], ">=") {
				emit(tGe, "", 2)
			} else {
				emit(tGt, "", w)
			}
		default:
			j := i
			for j < len(src) {
				r2, w2 := utf8.DecodeRuneInString(src[j:])
				if !isLiteralRune(r2) {
					break
				}
				j += w2
			}
			if j == i {
				return nil, perr(at(), "unexpected character %q", r)
			}
			text := src[i:j]
			switch {
			case text == "_":
				emit(tWildcard, "", j-i)
			case text == "...":
				emit(tRest, "", j-i)
			case text == "and":
				emit(tAnd, "", j-i)
			case text == "or":
				emit(tOr, "", j-i)
			case text == "not":
				emit(tNot, "", j-i)
			case isVarName(text):
				emit(tVar, text, j-i)
			default:
				emit(tIdent, text, j-i)
			}
		}
	}
	emit(tEOF, "", 0)
	return toks, nil
}

// isLiteralRune admits the characters literals are made of: letters,
// digits, and the punctuation appearing in transformation strings, digest
// names, and ⊤-notation.
func isLiteralRune(r rune) bool {
	switch r {
	case '/', '-', '.', '[', ']', '_', '⊤', '\'':
		return true
	}
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// isVarName reports whether the token is a rule variable: one uppercase
// letter, optionally primed (X, Y, Z, X').
func isVarName(s string) bool {
	if len(s) == 0 {
		return false
	}
	if len(s) == 1 {
		return s[0] >= 'A' && s[0] <= 'Z'
	}
	return len(s) == 2 && s[0] >= 'A' && s[0] <= 'Z' && s[1] == '\''
}

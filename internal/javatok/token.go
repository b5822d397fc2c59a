// Package javatok implements a tokenizer for the subset of Java that the
// DiffCode analyzer consumes. It is position-aware, skips comments and
// whitespace, decodes escape sequences (including \uXXXX) in string and
// char literals only — a \u escape outside a literal is not decoded — and
// is tolerant of partial programs: malformed input produces an Illegal
// token rather than aborting the scan.
//
// Tokens are compact: a Token is 32 bytes, with 32-bit positions, so an
// input must stay under 2 GiB (javaparser.Parse rejects larger sources).
// The lexer dispatches on a table of byte classes, so identifiers, numbers
// and operators are scanned without decoding a rune, and token texts are
// substrings of the source wherever the source spells them verbatim.
package javatok

import "fmt"

// Kind classifies a lexical token.
type Kind int32

// Token kinds. Operators and separators each have a dedicated kind so the
// parser can switch on them without string comparisons.
const (
	EOF Kind = iota
	Illegal

	Ident
	Keyword

	IntLit    // 123, 0x1F, 0b101, 017, 1_000
	LongLit   // 123L
	FloatLit  // 1.5f
	DoubleLit // 1.5, 1e9
	CharLit   // 'a', '\n'
	StringLit // "abc"

	// Separators.
	LParen   // (
	RParen   // )
	LBrace   // {
	RBrace   // }
	LBracket // [
	RBracket // ]
	Semi     // ;
	Comma    // ,
	Dot      // .
	Ellipsis // ...
	At       // @
	ColonCln // ::

	// Operators.
	Assign     // =
	Gt         // >
	Lt         // <
	Not        // !
	Tilde      // ~
	Question   // ?
	Colon      // :
	Arrow      // ->
	Eq         // ==
	Le         // <=
	Ge         // >=
	Ne         // !=
	AndAnd     // &&
	OrOr       // ||
	Inc        // ++
	Dec        // --
	Plus       // +
	Minus      // -
	Star       // *
	Slash      // /
	And        // &
	Or         // |
	Caret      // ^
	Percent    // %
	Shl        // <<
	Shr        // >>
	Ushr       // >>>
	PlusEq     // +=
	MinusEq    // -=
	StarEq     // *=
	SlashEq    // /=
	AndEq      // &=
	OrEq       // |=
	CaretEq    // ^=
	PercentEq  // %=
	ShlEq      // <<=
	ShrEq      // >>=
	UshrEq     // >>>=
	numOfKinds // sentinel; keep last
)

var kindNames = map[Kind]string{
	EOF: "EOF", Illegal: "Illegal", Ident: "Ident", Keyword: "Keyword",
	IntLit: "IntLit", LongLit: "LongLit", FloatLit: "FloatLit",
	DoubleLit: "DoubleLit", CharLit: "CharLit", StringLit: "StringLit",
	LParen: "(", RParen: ")", LBrace: "{", RBrace: "}",
	LBracket: "[", RBracket: "]", Semi: ";", Comma: ",", Dot: ".",
	Ellipsis: "...", At: "@", ColonCln: "::",
	Assign: "=", Gt: ">", Lt: "<", Not: "!", Tilde: "~",
	Question: "?", Colon: ":", Arrow: "->",
	Eq: "==", Le: "<=", Ge: ">=", Ne: "!=", AndAnd: "&&", OrOr: "||",
	Inc: "++", Dec: "--", Plus: "+", Minus: "-", Star: "*", Slash: "/",
	And: "&", Or: "|", Caret: "^", Percent: "%",
	Shl: "<<", Shr: ">>", Ushr: ">>>",
	PlusEq: "+=", MinusEq: "-=", StarEq: "*=", SlashEq: "/=",
	AndEq: "&=", OrEq: "|=", CaretEq: "^=", PercentEq: "%=",
	ShlEq: "<<=", ShrEq: ">>=", UshrEq: ">>>=",
}

// String returns a printable name for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Pos is a source position. Line and Col are 1-based; Offset is a 0-based
// byte offset into the input. The fields are 32-bit, so a position is 12
// bytes and inputs are limited to under 2 GiB.
type Pos struct {
	Offset int32
	Line   int32
	Col    int32
}

// String renders the position as "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is a single lexical token. Text holds the token's source text; for
// string and char literals it is the decoded value (without quotes). The
// field order packs a token into 32 bytes.
type Token struct {
	Text string
	Pos  Pos
	Kind Kind
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case Ident, Keyword, IntLit, LongLit, FloatLit, DoubleLit:
		return fmt.Sprintf("%s(%s)", t.Kind, t.Text)
	case StringLit:
		return fmt.Sprintf("String(%q)", t.Text)
	case CharLit:
		return fmt.Sprintf("Char(%q)", t.Text)
	default:
		return t.Kind.String()
	}
}

// Is reports whether the token is the given keyword.
func (t Token) Is(kw string) bool { return t.Kind == Keyword && t.Text == kw }

// keywords is the Java keyword set (JLS §3.9) plus the three literal words,
// which the lexer also classifies as keywords for simplicity.
var keywords = map[string]bool{
	"abstract": true, "assert": true, "boolean": true, "break": true,
	"byte": true, "case": true, "catch": true, "char": true,
	"class": true, "const": true, "continue": true, "default": true,
	"do": true, "double": true, "else": true, "enum": true,
	"extends": true, "final": true, "finally": true, "float": true,
	"for": true, "goto": true, "if": true, "implements": true,
	"import": true, "instanceof": true, "int": true, "interface": true,
	"long": true, "native": true, "new": true, "package": true,
	"private": true, "protected": true, "public": true, "return": true,
	"short": true, "static": true, "strictfp": true, "super": true,
	"switch": true, "synchronized": true, "this": true, "throw": true,
	"throws": true, "transient": true, "try": true, "void": true,
	"volatile": true, "while": true,
	"true": true, "false": true, "null": true,
}

// keywordsByShape buckets the keywords by length and first letter, so a
// lookup compares against at most a few candidates instead of hashing s.
var keywordsByShape = func() (t [len("synchronized") + 1][26][]string) {
	for kw := range keywords {
		t[len(kw)][kw[0]-'a'] = append(t[len(kw)][kw[0]-'a'], kw)
	}
	return t
}()

// IsKeyword reports whether s is a Java keyword (or boolean/null literal).
func IsKeyword(s string) bool {
	if len(s) == 0 || len(s) >= len(keywordsByShape) || s[0]-'a' >= 26 {
		return false
	}
	for _, kw := range keywordsByShape[len(s)][s[0]-'a'] {
		if kw == s {
			return true
		}
	}
	return false
}

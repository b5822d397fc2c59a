package javatok

import (
	"strings"
	"testing"
	"testing/quick"
	"unicode"
	"unicode/utf8"
)

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestTokenizeSimpleClass(t *testing.T) {
	src := `class A { int x = 42; }`
	toks := Tokenize(src)
	want := []Kind{Keyword, Ident, LBrace, Keyword, Ident, Assign, IntLit, Semi, RBrace, EOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("token count = %d, want %d: %v", len(got), len(want), toks)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestKeywordVsIdent(t *testing.T) {
	toks := Tokenize("class classy if iffy new newer")
	wantKinds := []Kind{Keyword, Ident, Keyword, Ident, Keyword, Ident, EOF}
	for i, k := range wantKinds {
		if toks[i].Kind != k {
			t.Errorf("token %d (%q): kind = %v, want %v", i, toks[i].Text, toks[i].Kind, k)
		}
	}
}

func TestStringLiteralEscapes(t *testing.T) {
	cases := []struct{ src, want string }{
		{`"AES/CBC/PKCS5Padding"`, "AES/CBC/PKCS5Padding"},
		{`"a\nb"`, "a\nb"},
		{`"tab\there"`, "tab\there"},
		{`"quote\"inside"`, `quote"inside`},
		{`"back\\slash"`, `back\slash`},
		{`"ABC"`, "ABC"},
		{`"\101"`, "A"}, // octal
		{`""`, ""},
	}
	for _, c := range cases {
		toks := Tokenize(c.src)
		if toks[0].Kind != StringLit {
			t.Errorf("%s: kind = %v, want StringLit", c.src, toks[0].Kind)
			continue
		}
		if toks[0].Text != c.want {
			t.Errorf("%s: text = %q, want %q", c.src, toks[0].Text, c.want)
		}
	}
}

func TestUnterminatedString(t *testing.T) {
	toks := Tokenize("\"abc\nint x;")
	if toks[0].Kind != Illegal {
		t.Errorf("unterminated string: kind = %v, want Illegal", toks[0].Kind)
	}
	// Scanning continues after the bad literal.
	var sawInt bool
	for _, tok := range toks {
		if tok.Is("int") {
			sawInt = true
		}
	}
	if !sawInt {
		t.Error("lexer did not recover after unterminated string")
	}
}

func TestCharLiterals(t *testing.T) {
	cases := []struct{ src, want string }{
		{`'a'`, "a"},
		{`'\n'`, "\n"},
		{`'\''`, "'"},
		{`'\\'`, `\`},
		{`'A'`, "A"},
	}
	for _, c := range cases {
		toks := Tokenize(c.src)
		if toks[0].Kind != CharLit || toks[0].Text != c.want {
			t.Errorf("%s: got %v(%q), want CharLit(%q)", c.src, toks[0].Kind, toks[0].Text, c.want)
		}
	}
}

func TestNumberLiterals(t *testing.T) {
	cases := []struct {
		src  string
		kind Kind
		text string
	}{
		{"0", IntLit, "0"},
		{"42", IntLit, "42"},
		{"1_000_000", IntLit, "1000000"},
		{"0x1F", IntLit, "0x1F"},
		{"0b1010", IntLit, "0b1010"},
		{"123L", LongLit, "123"},
		{"1.5", DoubleLit, "1.5"},
		{"1.5f", FloatLit, "1.5"},
		{"2e10", DoubleLit, "2e10"},
		{"3.14d", DoubleLit, "3.14"},
		{"017", IntLit, "017"},
	}
	for _, c := range cases {
		toks := Tokenize(c.src)
		if toks[0].Kind != c.kind || toks[0].Text != c.text {
			t.Errorf("%s: got %v(%q), want %v(%q)", c.src, toks[0].Kind, toks[0].Text, c.kind, c.text)
		}
	}
}

func TestOperatorsLongestMatch(t *testing.T) {
	cases := []struct {
		src  string
		want []Kind
	}{
		{">>>=", []Kind{UshrEq, EOF}},
		{">>>", []Kind{Ushr, EOF}},
		{">>", []Kind{Shr, EOF}},
		{">=", []Kind{Ge, EOF}},
		{"->", []Kind{Arrow, EOF}},
		{"::", []Kind{ColonCln, EOF}},
		{"...", []Kind{Ellipsis, EOF}},
		{"a++ + ++b", []Kind{Ident, Inc, Plus, Inc, Ident, EOF}},
		{"x<<=2", []Kind{Ident, ShlEq, IntLit, EOF}},
	}
	for _, c := range cases {
		got := kinds(Tokenize(c.src))
		if len(got) != len(c.want) {
			t.Errorf("%q: got %v, want %v", c.src, got, c.want)
			continue
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%q token %d: got %v, want %v", c.src, i, got[i], c.want[i])
			}
		}
	}
}

func TestComments(t *testing.T) {
	src := `
// line comment with "string" and 'char'
/* block
   comment */ int /* inline */ x; /** javadoc */
`
	got := kinds(Tokenize(src))
	want := []Kind{Keyword, Ident, Semi, EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestUnterminatedBlockComment(t *testing.T) {
	toks := Tokenize("int x; /* never closed")
	if toks[len(toks)-1].Kind != EOF {
		t.Fatal("expected EOF termination")
	}
	if len(toks) != 4 { // int x ; EOF
		t.Errorf("got %d tokens: %v", len(toks), toks)
	}
}

func TestPositions(t *testing.T) {
	src := "int x;\n  y = 2;"
	toks := Tokenize(src)
	checks := []struct {
		idx       int
		line, col int32
	}{
		{0, 1, 1}, // int
		{1, 1, 5}, // x
		{2, 1, 6}, // ;
		{3, 2, 3}, // y
		{4, 2, 5}, // =
	}
	for _, c := range checks {
		p := toks[c.idx].Pos
		if p.Line != c.line || p.Col != c.col {
			t.Errorf("token %d (%s): pos = %d:%d, want %d:%d",
				c.idx, toks[c.idx], p.Line, p.Col, c.line, c.col)
		}
	}
}

func TestDollarAndUnderscoreIdents(t *testing.T) {
	toks := Tokenize("$var _x a$b x_1")
	for i := 0; i < 4; i++ {
		if toks[i].Kind != Ident {
			t.Errorf("token %d = %v, want Ident", i, toks[i])
		}
	}
}

func TestDotVsDoubleLiteral(t *testing.T) {
	// ".5" is a double; "a.b" is field access.
	toks := Tokenize(".5 a.b")
	if toks[0].Kind != DoubleLit {
		t.Errorf(".5: got %v, want DoubleLit", toks[0].Kind)
	}
	if toks[2].Kind != Dot {
		t.Errorf("a.b dot: got %v, want Dot", toks[2].Kind)
	}
}

func TestIllegalRune(t *testing.T) {
	toks := Tokenize("int x # y")
	var sawIllegal bool
	for _, tok := range toks {
		if tok.Kind == Illegal {
			sawIllegal = true
		}
	}
	if !sawIllegal {
		t.Error("expected an Illegal token for '#'")
	}
	if toks[len(toks)-1].Kind != EOF {
		t.Error("lexer did not reach EOF after illegal rune")
	}
}

// Property: tokenizing always terminates with exactly one EOF, and every
// token's offset is within bounds and non-decreasing.
func TestQuickTokenizeTotal(t *testing.T) {
	f := func(s string) bool {
		toks := Tokenize(s)
		if len(toks) == 0 || toks[len(toks)-1].Kind != EOF {
			return false
		}
		prev := int32(-1)
		for _, tok := range toks {
			if tok.Pos.Offset < prev || tok.Pos.Offset > int32(len(s)) {
				return false
			}
			prev = tok.Pos.Offset
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: identifiers made of letters survive a tokenize round trip.
func TestQuickIdentRoundTrip(t *testing.T) {
	f := func(words []string) bool {
		var clean []string
		for _, w := range words {
			w = strings.Map(func(r rune) rune {
				if r >= 'a' && r <= 'z' {
					return r
				}
				return -1
			}, w)
			if w != "" && !IsKeyword(w) {
				clean = append(clean, w)
			}
		}
		toks := Tokenize(strings.Join(clean, " "))
		if len(toks) != len(clean)+1 {
			return false
		}
		for i, w := range clean {
			if toks[i].Kind != Ident || toks[i].Text != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTokenize(b *testing.B) {
	src := strings.Repeat(`
class AESCipher {
    Cipher enc, dec;
    final String algorithm = "AES/CBC/PKCS5Padding";
    protected void setKeyAndIV(Secret key, String iv) throws Exception {
        byte[] ivBytes = Hex.decodeHex(iv.toCharArray());
        IvParameterSpec ivSpec = new IvParameterSpec(ivBytes);
        enc = Cipher.getInstance(algorithm);
        enc.init(Cipher.ENCRYPT_MODE, key, ivSpec);
    }
}
`, 20)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Tokenize(src)
	}
}

func TestKindAndTokenStrings(t *testing.T) {
	cases := []struct {
		tok  Token
		want string
	}{
		{Token{Kind: Ident, Text: "x"}, "Ident(x)"},
		{Token{Kind: Keyword, Text: "class"}, "Keyword(class)"},
		{Token{Kind: IntLit, Text: "42"}, "IntLit(42)"},
		{Token{Kind: StringLit, Text: "a\"b"}, `String("a\"b")`},
		{Token{Kind: CharLit, Text: "c"}, `Char("c")`},
		{Token{Kind: LBrace}, "{"},
		{Token{Kind: Ellipsis}, "..."},
		{Token{Kind: UshrEq}, ">>>="},
		{Token{Kind: EOF}, "EOF"},
	}
	for _, c := range cases {
		if got := c.tok.String(); got != c.want {
			t.Errorf("Token.String() = %q, want %q", got, c.want)
		}
	}
	if got := Kind(9999).String(); got != "Kind(9999)" {
		t.Errorf("unknown kind = %q", got)
	}
	if got := (Pos{Line: 3, Col: 7}).String(); got != "3:7" {
		t.Errorf("Pos.String() = %q", got)
	}
}

func TestUnicodeEscapesInStrings(t *testing.T) {
	toks := Tokenize("\"\\u0041B\"")
	if toks[0].Kind != StringLit || toks[0].Text != "AB" {
		t.Errorf("unicode escape: %v", toks[0])
	}
	// Multiple u's are legal: \uu0041.
	toks = Tokenize(`"\uu0043"`)
	if toks[0].Text != "C" {
		t.Errorf("multi-u escape: %v", toks[0])
	}
}

func TestIsKeywordTable(t *testing.T) {
	for _, kw := range []string{"class", "if", "true", "null", "instanceof", "strictfp"} {
		if !IsKeyword(kw) {
			t.Errorf("IsKeyword(%q) = false", kw)
		}
	}
	for _, id := range []string{"Class", "classes", "var", ""} {
		if IsKeyword(id) {
			t.Errorf("IsKeyword(%q) = true", id)
		}
	}
}

// refLexer is the original rune-at-a-time lexer: every rune goes through
// peek/advance and every text through a strings.Builder. It is kept as the
// reference the substring-based Lexer is differentially tested against.
type refLexer struct {
	src  string
	off  int
	line int
	col  int
}

func refTokenize(src string) []Token {
	lx := &refLexer{src: src, line: 1, col: 1}
	var toks []Token
	for {
		t := lx.next()
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks
		}
	}
}

func (lx *refLexer) pos() Pos {
	return Pos{Offset: int32(lx.off), Line: int32(lx.line), Col: int32(lx.col)}
}

func (lx *refLexer) peek() rune {
	if lx.off >= len(lx.src) {
		return -1
	}
	r, _ := utf8.DecodeRuneInString(lx.src[lx.off:])
	return r
}

func (lx *refLexer) peekAt(n int) rune {
	if lx.off+n >= len(lx.src) {
		return -1
	}
	return rune(lx.src[lx.off+n])
}

func (lx *refLexer) advance() rune {
	if lx.off >= len(lx.src) {
		return -1
	}
	r, w := utf8.DecodeRuneInString(lx.src[lx.off:])
	lx.off += w
	if r == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return r
}

func (lx *refLexer) skipSpaceAndComments() {
	for {
		r := lx.peek()
		switch {
		case r == ' ' || r == '\t' || r == '\r' || r == '\n' || r == '\f':
			lx.advance()
		case r == '/' && lx.peekAt(1) == '/':
			for lx.peek() != '\n' && lx.peek() != -1 {
				lx.advance()
			}
		case r == '/' && lx.peekAt(1) == '*':
			lx.advance()
			lx.advance()
			for {
				c := lx.advance()
				if c == -1 {
					return
				}
				if c == '*' && lx.peek() == '/' {
					lx.advance()
					break
				}
			}
		default:
			return
		}
	}
}

func refIsIdentStart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r)
}

func refIsIdentPart(r rune) bool {
	return refIsIdentStart(r) || unicode.IsDigit(r)
}

func refIsHexDigit(r rune) bool {
	return unicode.IsDigit(r) || (r >= 'a' && r <= 'f') || (r >= 'A' && r <= 'F')
}

func (lx *refLexer) next() Token {
	lx.skipSpaceAndComments()
	start := lx.pos()
	r := lx.peek()
	switch {
	case r == -1:
		return Token{Kind: EOF, Pos: start}
	case refIsIdentStart(r):
		return lx.scanIdent(start)
	case unicode.IsDigit(r):
		return lx.scanNumber(start)
	case r == '"':
		return lx.scanString(start)
	case r == '\'':
		return lx.scanChar(start)
	case r == '.' && unicode.IsDigit(lx.peekAt(1)):
		return lx.scanNumber(start)
	}
	return lx.scanOperator(start)
}

func (lx *refLexer) scanIdent(start Pos) Token {
	var sb strings.Builder
	for refIsIdentPart(lx.peek()) {
		sb.WriteRune(lx.advance())
	}
	text := sb.String()
	kind := Ident
	if keywords[text] {
		kind = Keyword
	}
	return Token{Kind: kind, Text: text, Pos: start}
}

func (lx *refLexer) scanNumber(start Pos) Token {
	var sb strings.Builder
	kind := IntLit
	isHex := false
	if lx.peek() == '0' && (lx.peekAt(1) == 'x' || lx.peekAt(1) == 'X') {
		isHex = true
		sb.WriteRune(lx.advance())
		sb.WriteRune(lx.advance())
		for refIsHexDigit(lx.peek()) || lx.peek() == '_' {
			sb.WriteRune(lx.advance())
		}
	} else if lx.peek() == '0' && (lx.peekAt(1) == 'b' || lx.peekAt(1) == 'B') {
		sb.WriteRune(lx.advance())
		sb.WriteRune(lx.advance())
		for lx.peek() == '0' || lx.peek() == '1' || lx.peek() == '_' {
			sb.WriteRune(lx.advance())
		}
	} else {
		for unicode.IsDigit(lx.peek()) || lx.peek() == '_' {
			sb.WriteRune(lx.advance())
		}
		if lx.peek() == '.' && unicode.IsDigit(lx.peekAt(1)) {
			kind = DoubleLit
			sb.WriteRune(lx.advance())
			for unicode.IsDigit(lx.peek()) || lx.peek() == '_' {
				sb.WriteRune(lx.advance())
			}
		}
		if lx.peek() == 'e' || lx.peek() == 'E' {
			if unicode.IsDigit(lx.peekAt(1)) ||
				((lx.peekAt(1) == '+' || lx.peekAt(1) == '-') && unicode.IsDigit(lx.peekAt(2))) {
				kind = DoubleLit
				sb.WriteRune(lx.advance())
				if lx.peek() == '+' || lx.peek() == '-' {
					sb.WriteRune(lx.advance())
				}
				for unicode.IsDigit(lx.peek()) {
					sb.WriteRune(lx.advance())
				}
			}
		}
	}
	switch lx.peek() {
	case 'l', 'L':
		if !isHex || kind == IntLit {
			lx.advance()
			kind = LongLit
		}
	case 'f', 'F':
		if !isHex {
			lx.advance()
			kind = FloatLit
		}
	case 'd', 'D':
		if !isHex {
			lx.advance()
			kind = DoubleLit
		}
	}
	text := strings.ReplaceAll(sb.String(), "_", "")
	return Token{Kind: kind, Text: text, Pos: start}
}

func (lx *refLexer) scanEscape() rune {
	c := lx.advance()
	switch c {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case 'b':
		return '\b'
	case 'f':
		return '\f'
	case '0', '1', '2', '3', '4', '5', '6', '7':
		v := c - '0'
		for i := 0; i < 2 && lx.peek() >= '0' && lx.peek() <= '7'; i++ {
			v = v*8 + (lx.advance() - '0')
		}
		return v
	case 'u':
		for lx.peek() == 'u' {
			lx.advance()
		}
		var v rune
		for i := 0; i < 4 && refIsHexDigit(lx.peek()); i++ {
			d := lx.advance()
			switch {
			case d >= '0' && d <= '9':
				v = v*16 + (d - '0')
			case d >= 'a' && d <= 'f':
				v = v*16 + (d - 'a' + 10)
			default:
				v = v*16 + (d - 'A' + 10)
			}
		}
		return v
	default:
		return c
	}
}

func (lx *refLexer) scanString(start Pos) Token {
	lx.advance()
	var sb strings.Builder
	for {
		c := lx.peek()
		if c == -1 || c == '\n' {
			return Token{Kind: Illegal, Text: sb.String(), Pos: start}
		}
		lx.advance()
		if c == '"' {
			return Token{Kind: StringLit, Text: sb.String(), Pos: start}
		}
		if c == '\\' {
			sb.WriteRune(lx.scanEscape())
			continue
		}
		sb.WriteRune(c)
	}
}

func (lx *refLexer) scanChar(start Pos) Token {
	lx.advance()
	c := lx.peek()
	if c == -1 || c == '\n' {
		return Token{Kind: Illegal, Pos: start}
	}
	lx.advance()
	if c == '\\' {
		c = lx.scanEscape()
	}
	if lx.peek() == '\'' {
		lx.advance()
		return Token{Kind: CharLit, Text: string(c), Pos: start}
	}
	for lx.peek() != '\'' && lx.peek() != '\n' && lx.peek() != -1 {
		lx.advance()
	}
	if lx.peek() == '\'' {
		lx.advance()
	}
	return Token{Kind: Illegal, Text: string(c), Pos: start}
}

// scanOperator tries every opTable entry in order, longest first.
func (lx *refLexer) scanOperator(start Pos) Token {
	rest := lx.src[lx.off:]
	for _, op := range opTable {
		if strings.HasPrefix(rest, op.text) {
			for range op.text {
				lx.advance()
			}
			return Token{Kind: op.kind, Text: op.text, Pos: start}
		}
	}
	r := lx.advance()
	return Token{Kind: Illegal, Text: string(r), Pos: start}
}

// tokenizeSeeds cover what the substring and byte-level fast paths must get
// exactly right. The committed corpus under testdata/fuzz/FuzzTokenize adds
// the FuzzParse seeds of the javaparser package.
var tokenizeSeeds = []string{
	// Non-ASCII identifiers, digits and whitespace, mixed with ASCII.
	"class Ünïcödé { int café = 1; String 名前 = \"値\"; }",
	"int x = 1; int ٣ = ١٢٣; double d = 1.٣;",
	"$a_b9 _ __ a$ ǅx ⅠⅡ a b c",
	// Unicode escapes are decoded in literals only, never in identifiers.
	`String s = "A\uu0042é"; char c = 'A'; int ab = 0;`,
	`"\u12" "\uXYZ" '\u' "\777\08\1a"`,
	// Unterminated literals and comments.
	"\"abc\nint x;",
	"\"abc",
	"'a",
	"'ab' 'abc\n'",
	"''",
	"int x; /* never closed",
	"/*/ x */ y // tail",
	"a /** doc */ b /* ü\n ö */ c // ß",
	// Invalid UTF-8 in code, comments and literals.
	"class \x00\xff { }",
	"\"\xff\xfe\" '\xff' // \xc3\n/* \xe2\x82 */ x\xc3(",
	"a\xe2\x82b \xef\xbf\xbd",
	// Numbers.
	"1_000 1__0_ 0x1F_FF 0XABL 0b1010 0B1_0L 017 .5 5. 1e9 1E+9 2e-3f 1.5d 3.14D 0x1.8p1",
	"0x 0b 0b2 1e 1e+ 1.e3 12_L 0xFFf 0x1d 1..2 1.2.3",
	// Operators and separators, including every longest-match split.
	">>>= >>> >>= >> >= > <<= << <= < ... .. . :: : -> -- -= - ++ += + == = != ! && & || | ^= ^ %= % *= * /= / ~ ? @ # \\ `",
	"a>>>=b<<=c>>d->e::f",
}

// FuzzTokenize asserts that Tokenize yields exactly the reference lexer's
// (Kind, Text, Pos) stream for any input.
func FuzzTokenize(f *testing.F) {
	for _, s := range tokenizeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		got, want := Tokenize(src), refTokenize(src)
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Fatalf("token %d: got %v %q @%+v, want %v %q @%+v", i,
					got[i].Kind, got[i].Text, got[i].Pos, want[i].Kind, want[i].Text, want[i].Pos)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("got %d tokens, want %d", len(got), len(want))
		}
	})
}

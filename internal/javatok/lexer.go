package javatok

import (
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Lexer scans Java source text into tokens. It never fails: unexpected
// characters yield Illegal tokens and scanning continues, which lets the
// parser recover on partial programs.
//
// Identifier, keyword and number texts, and string literals without escapes,
// are substrings of the source rather than copies, so scanning allocates
// nothing per token in the common case. A token's Text therefore keeps the
// source string alive for as long as the token (or an AST built from it)
// is reachable.
type Lexer struct {
	src  string
	off  int // current byte offset
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Tokenize scans all of src and returns the token stream, terminated by an
// EOF token.
func Tokenize(src string) []Token {
	return AppendTokens(make([]Token, 0, len(src)/5+1), src)
}

// AppendTokens scans all of src and appends its token stream, terminated by
// an EOF token, to dst. It lets a caller reuse one token buffer across
// inputs. A full buffer grows to the token count that the density scanned
// so far projects for all of src, plus an eighth, and at least doubles: a
// large dense source then costs a grow or two, not append's long run of
// 1.25x steps (five times the final buffer in all).
func AppendTokens(dst []Token, src string) []Token {
	lx := NewLexer(src)
	for {
		t := lx.Next()
		if len(dst) == cap(dst) {
			n := len(dst) + 1
			proj := int(float64(n) * float64(len(src)+1) / float64(lx.off+1))
			dst = slices.Grow(dst, max(proj+proj/8, 2*n)-len(dst))
		}
		dst = append(dst, t)
		if t.Kind == EOF {
			return dst
		}
	}
}

func (lx *Lexer) pos() Pos {
	return Pos{Offset: int32(lx.off), Line: int32(lx.line), Col: int32(lx.col)}
}

// peek returns the rune at the current offset without consuming it.
func (lx *Lexer) peek() rune {
	if lx.off >= len(lx.src) {
		return -1
	}
	r, _ := utf8.DecodeRuneInString(lx.src[lx.off:])
	return r
}

// peekAt returns the rune n bytes ahead (only valid for ASCII lookahead).
func (lx *Lexer) peekAt(n int) rune {
	if lx.off+n >= len(lx.src) {
		return -1
	}
	return rune(lx.src[lx.off+n])
}

// advance consumes one rune, maintaining line/col bookkeeping.
func (lx *Lexer) advance() rune {
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

// advanceTo consumes every rune up to byte offset end, with the line/col
// bookkeeping of that many advance calls. Invalid UTF-8 counts one column
// per byte, as advance does.
func (lx *Lexer) advanceTo(end int) {
	seg := lx.src[lx.off:end]
	if nl := strings.LastIndexByte(seg, '\n'); nl >= 0 {
		lx.line += strings.Count(seg, "\n")
		lx.col = 1
		seg = seg[nl+1:]
	}
	lx.col += utf8.RuneCountInString(seg)
	lx.off = end
}

func (lx *Lexer) skipSpaceAndComments() {
	src := lx.src
	for lx.off < len(src) {
		switch src[lx.off] {
		case ' ', '\t', '\r', '\f':
			// Spaces come in runs: consume the whole run at once.
			j := lx.off + 1
			for j < len(src) && (src[j] == ' ' || src[j] == '\t') {
				j++
			}
			lx.col += j - lx.off
			lx.off = j
		case '\n':
			// A line break and the next line's indentation.
			j := lx.off + 1
			for j < len(src) && (src[j] == ' ' || src[j] == '\t') {
				j++
			}
			lx.line++
			lx.col = j - lx.off
			lx.off = j
		case '/':
			switch lx.peekAt(1) {
			case '/':
				end := len(src)
				if nl := strings.IndexByte(src[lx.off:], '\n'); nl >= 0 {
					end = lx.off + nl
				}
				lx.advanceTo(end)
			case '*':
				end := len(src)
				if cl := strings.Index(src[lx.off+2:], "*/"); cl >= 0 {
					end = lx.off + 2 + cl + 2
				}
				lx.advanceTo(end)
			default:
				return
			}
		default:
			return
		}
	}
}

func isIdentStart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return isIdentStart(r) || unicode.IsDigit(r)
}

// asciiIdentPart marks the ASCII bytes isIdentPart accepts.
var asciiIdentPart = func() (t [utf8.RuneSelf]bool) {
	for c := range t {
		t[c] = isIdentPart(rune(c))
	}
	return t
}()

// Byte classes of a token's first byte, for Next's dispatch.
const (
	classOther uint8 = iota // quotes, '.', non-ASCII and the rest: the general path
	classIdent              // an ASCII identifier start: a letter, '_' or '$'
	classDigit              // an ASCII digit
	classOp                 // the first byte of an operator or separator other than '.'
)

// byteClass classifies every byte value, so the common tokens are
// dispatched without decoding a rune or consulting the Unicode tables.
var byteClass = func() (t [256]uint8) {
	for c := range utf8.RuneSelf {
		switch {
		case isIdentStart(rune(c)):
			t[c] = classIdent
		case c >= '0' && c <= '9':
			t[c] = classDigit
		case c != '.' && len(opsByFirst[c]) > 0:
			t[c] = classOp
		}
	}
	return t
}()

// Next scans and returns the next token.
func (lx *Lexer) Next() Token {
	lx.skipSpaceAndComments()
	start := lx.pos()
	if lx.off >= len(lx.src) {
		return Token{Kind: EOF, Pos: start}
	}
	switch byteClass[lx.src[lx.off]] {
	case classIdent:
		return lx.scanIdent(start)
	case classDigit:
		return lx.scanNumber(start)
	case classOp:
		return lx.scanOperator(start)
	}
	r := lx.peek()
	switch {
	case isIdentStart(r):
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

func (lx *Lexer) scanIdent(start Pos) Token {
	src := lx.src
	i, runes := lx.off, 0
	for i < len(src) {
		if c := src[i]; c < utf8.RuneSelf {
			if !asciiIdentPart[c] {
				break
			}
			i++
			runes++
			continue
		}
		r, w := utf8.DecodeRuneInString(src[i:])
		if !isIdentPart(r) {
			break
		}
		i += w
		runes++
	}
	text := src[lx.off:i]
	lx.off = i
	lx.col += runes
	kind := Ident
	if IsKeyword(text) {
		kind = Keyword
	}
	return Token{Kind: kind, Text: text, Pos: start}
}

func (lx *Lexer) scanNumber(start Pos) Token {
	kind := IntLit
	isHex := false
	if lx.peek() == '0' && (lx.peekAt(1) == 'x' || lx.peekAt(1) == 'X') {
		isHex = true
		lx.advance()
		lx.advance()
		for isHexDigit(lx.peek()) || lx.peek() == '_' {
			lx.advance()
		}
	} else if lx.peek() == '0' && (lx.peekAt(1) == 'b' || lx.peekAt(1) == 'B') {
		lx.advance()
		lx.advance()
		for lx.peek() == '0' || lx.peek() == '1' || lx.peek() == '_' {
			lx.advance()
		}
	} else {
		for unicode.IsDigit(lx.peek()) || lx.peek() == '_' {
			lx.advance()
		}
		if lx.peek() == '.' && unicode.IsDigit(lx.peekAt(1)) {
			kind = DoubleLit
			lx.advance()
			for unicode.IsDigit(lx.peek()) || lx.peek() == '_' {
				lx.advance()
			}
		}
		if lx.peek() == 'e' || lx.peek() == 'E' {
			if unicode.IsDigit(lx.peekAt(1)) ||
				((lx.peekAt(1) == '+' || lx.peekAt(1) == '-') && unicode.IsDigit(lx.peekAt(2))) {
				kind = DoubleLit
				lx.advance()
				if lx.peek() == '+' || lx.peek() == '-' {
					lx.advance()
				}
				for unicode.IsDigit(lx.peek()) {
					lx.advance()
				}
			}
		}
	}
	// The text is everything consumed so far; suffixes are not part of it.
	// ReplaceAll returns text itself when it has no '_'.
	text := strings.ReplaceAll(lx.src[int(start.Offset):lx.off], "_", "")
	// Suffixes.
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
	return Token{Kind: kind, Text: text, Pos: start}
}

func isHexDigit(r rune) bool {
	return unicode.IsDigit(r) || (r >= 'a' && r <= 'f') || (r >= 'A' && r <= 'F')
}

// scanEscape decodes one escape sequence after the backslash has been
// consumed, returning the decoded rune.
func (lx *Lexer) scanEscape() rune {
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
		for i := 0; i < 4 && isHexDigit(lx.peek()); i++ {
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
		return c // \\, \', \", and anything unknown maps to itself
	}
}

func (lx *Lexer) scanString(start Pos) Token {
	// Fast path: a closed literal with no escapes and valid UTF-8 decodes
	// to exactly its source bytes.
	body := lx.src[lx.off+1:]
	ascii := true
	for end := 0; end < len(body); end++ {
		c := body[end]
		if c == '"' {
			if ascii || utf8.ValidString(body[:end]) {
				lx.advanceTo(lx.off + 1 + end + 1)
				return Token{Kind: StringLit, Text: body[:end], Pos: start}
			}
			break
		}
		if c == '\\' || c == '\n' {
			break
		}
		ascii = ascii && c < utf8.RuneSelf
	}
	lx.advance() // opening quote
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

func (lx *Lexer) scanChar(start Pos) Token {
	lx.advance() // opening quote
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
	// Unterminated char literal: consume up to the closing quote or EOL.
	for lx.peek() != '\'' && lx.peek() != '\n' && lx.peek() != -1 {
		lx.advance()
	}
	if lx.peek() == '\'' {
		lx.advance()
	}
	return Token{Kind: Illegal, Text: string(c), Pos: start}
}

type opEntry struct {
	text string
	kind Kind
}

// opTable maps operator spellings to kinds, tried longest-first.
var opTable = []opEntry{
	{">>>=", UshrEq},
	{">>>", Ushr}, {"<<=", ShlEq}, {">>=", ShrEq}, {"...", Ellipsis},
	{"==", Eq}, {"<=", Le}, {">=", Ge}, {"!=", Ne},
	{"&&", AndAnd}, {"||", OrOr}, {"++", Inc}, {"--", Dec},
	{"+=", PlusEq}, {"-=", MinusEq}, {"*=", StarEq}, {"/=", SlashEq},
	{"&=", AndEq}, {"|=", OrEq}, {"^=", CaretEq}, {"%=", PercentEq},
	{"<<", Shl}, {">>", Shr}, {"->", Arrow}, {"::", ColonCln},
	{"(", LParen}, {")", RParen}, {"{", LBrace}, {"}", RBrace},
	{"[", LBracket}, {"]", RBracket}, {";", Semi}, {",", Comma},
	{".", Dot}, {"@", At}, {"=", Assign}, {">", Gt}, {"<", Lt},
	{"!", Not}, {"~", Tilde}, {"?", Question}, {":", Colon},
	{"+", Plus}, {"-", Minus}, {"*", Star}, {"/", Slash},
	{"&", And}, {"|", Or}, {"^", Caret}, {"%", Percent},
}

// opsByFirst buckets opTable by first byte, keeping the table's
// longest-first order inside each bucket. Every operator's first byte is
// itself an operator, so a bucket ends with its one-byte operator.
var opsByFirst = func() (t [utf8.RuneSelf][]opEntry) {
	for _, op := range opTable {
		t[op.text[0]] = append(t[op.text[0]], op)
	}
	return t
}()

// opSeconds holds, for each first byte, the second bytes of the longer
// operators in its bucket: a byte outside the set ends the operator after
// one byte, with no prefix comparisons.
var opSeconds = func() (t [utf8.RuneSelf]string) {
	for _, op := range opTable {
		if len(op.text) > 1 && !strings.Contains(t[op.text[0]], op.text[1:2]) {
			t[op.text[0]] += op.text[1:2]
		}
	}
	return t
}()

func (lx *Lexer) scanOperator(start Pos) Token {
	rest := lx.src[lx.off:]
	if c := rest[0]; c < utf8.RuneSelf && len(opsByFirst[c]) > 0 {
		ops := opsByFirst[c]
		op := ops[len(ops)-1]
		if len(rest) > 1 && strings.IndexByte(opSeconds[c], rest[1]) >= 0 {
			for _, o := range ops {
				if strings.HasPrefix(rest, o.text) {
					op = o
					break
				}
			}
		}
		// Operators are ASCII: one column per byte.
		lx.off += len(op.text)
		lx.col += len(op.text)
		return Token{Kind: op.kind, Text: op.text, Pos: start}
	}
	r := lx.advance()
	return Token{Kind: Illegal, Text: string(r), Pos: start}
}

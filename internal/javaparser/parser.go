// Package javaparser implements a recursive-descent parser for the Java
// subset consumed by the DiffCode analyzer. The parser is error-tolerant at
// member and statement granularity: a syntax error inside a method body skips
// to the next synchronization point and parsing continues, so partial
// programs and code snippets (the common case when mining commits, paper
// §5.1) still yield a usable AST for the parts that parse.
package javaparser

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/javaast"
	"repro/internal/javatok"
)

// Error describes one recovered syntax error.
type Error struct {
	Pos javatok.Pos
	Msg string
}

func (e Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Result is the outcome of parsing one compilation unit.
type Result struct {
	Unit   *javaast.CompilationUnit
	Errors []Error // recovered syntax errors, in source order
}

// Parse parses Java source text. It always returns a non-nil unit; syntax
// errors are recovered and reported in Result.Errors. Positions are 32-bit,
// so a source of 2 GiB or more is not parsed: its result is an empty unit
// and one Error.
func Parse(src string) Result {
	if len(src) > math.MaxInt32 {
		start := javatok.Pos{Line: 1, Col: 1}
		return Result{
			Unit:   &javaast.CompilationUnit{P: start},
			Errors: []Error{{Pos: start, Msg: fmt.Sprintf("source of %d bytes exceeds the 2 GiB limit", len(src))}},
		}
	}
	p := parsers.Get().(*parser)
	p.src = src
	p.toks = javatok.AppendTokens(p.toks[:0], src)
	// Only a parenthesized lambda needs the pairing, and a file without an
	// arrow has none.
	p.parens = p.parens[:0]
	if slices.ContainsFunc(p.toks, func(t javatok.Token) bool { return t.Kind == javatok.Arrow }) {
		p.parens = pairParens(p.parens, p.toks)
	}
	res := Result{Unit: p.parseCompilationUnit(), Errors: p.errors}
	// The AST holds token texts (strings), never the buffers themselves, so
	// the parser and its buffers can be reused once they no longer
	// reference src.
	clear(p.toks)
	clear(p.undo[:cap(p.undo)])
	clear(p.stmts[:cap(p.stmts)])
	clear(p.mods[:cap(p.mods)])
	p.src, p.i, p.depth, p.halted, p.errors = "", 0, 0, false, nil
	p.undo, p.stmts = p.undo[:0], p.stmts[:0]
	if cap(p.toks) <= maxPooledTokens {
		p.toks = p.toks[:0]
		parsers.Put(p)
	}
	return res
}

// parsers recycles parsers, with their token, paren-pairing and undo
// buffers and their node slabs, across Parse calls.
var parsers = sync.Pool{New: func() any { return new(parser) }}

// maxPooledTokens caps the buffers kept for reuse, so one huge input does
// not pin its token buffer (32 bytes per token) in the pool.
const maxPooledTokens = 1 << 16

// pairParens returns, for each '(' of toks, the index of its matching ')',
// or -1 when a ';', '{' or EOF comes first: the tokens at which a
// lookahead for the ')' gives up. Entries of other tokens are unspecified.
// It is one stack pass, with the stack threaded through the result itself
// (an open paren's entry links to the paren open below it), and it reuses
// buf's memory.
func pairParens(buf []int32, toks []javatok.Token) []int32 {
	parens := slices.Grow(buf[:0], len(toks))[:len(toks)]
	top := int32(-1)
	for i, t := range toks {
		switch t.Kind {
		case javatok.LParen:
			parens[i], top = top, int32(i)
		case javatok.RParen:
			if top >= 0 {
				open := top
				top, parens[open] = parens[open], int32(i)
			}
		case javatok.Semi, javatok.LBrace, javatok.EOF:
			for top >= 0 {
				open := top
				top, parens[open] = parens[open], -1
			}
		}
	}
	return parens
}

// parseError is the panic payload used for error recovery.
type parseError struct {
	pos javatok.Pos
	msg string
}

type parser struct {
	src    string
	toks   []javatok.Token
	parens []int32 // pairParens of toks; empty when toks hold no '->'

	i      int
	depth  int  // nesting levels entered; see enter
	halted bool // nesting passed maxDepth: the parse is unwinding
	errors []Error
	undo   []savedTok     // tokens expectGt overwrote, oldest first
	stmts  []javaast.Stmt // statements of the blocks being parsed; see parseBlock
	mods   []string       // scratch for parseModifiers

	// Slabs of the commonest nodes. They carry over from file to file, so
	// one chunk may hold nodes of several ASTs.
	names    slab[javaast.Name]
	literals slab[javaast.Literal]
	binaries slab[javaast.Binary]
	calls    slab[javaast.Call]
	fields   slab[javaast.FieldAccess]
	types    slab[javaast.TypeRef]
	locals   slab[javaast.LocalVarDecl]
	exprs    slab[javaast.ExprStmt]
}

// slabChunk is the number of nodes a slab allocates at once.
const slabChunk = 64

// slab hands out nodes of one type from chunks of slabChunk nodes: one
// allocation per chunk instead of one per node. A node handed out is never
// handed out again; while it is reachable, it keeps its whole chunk alive.
type slab[T any] []T

// alloc returns a node of s holding v.
func alloc[T any](s *slab[T], v T) *T {
	if len(*s) == 0 {
		*s = make([]T, slabChunk)
	}
	n := &(*s)[0]
	*s = (*s)[1:]
	*n = v
	return n
}

// maxDepth caps how deeply the parser nests. The levels enter counts are
// statements (blocks included), expressions (parenthesized ones included),
// unary and cast operands, conditional else-branches, array initializers,
// type declarations and type arguments. A level costs at most about 2 KB
// of goroutine stack, so the cap bounds any parse's stack at about 8 MB.
// The deepest input of the generated corpora and the fuzz corpus, mutated
// or not, nests 225 levels.
const maxDepth = 4096

// enter counts one more nesting level, and ends the parse past maxDepth,
// so that deep input yields an Error instead of exhausting the goroutine
// stack. The caller decrements p.depth on its way out; a recovered syntax
// error restores the depth of its recovery point (a mark, or the depth it
// saved).
func (p *parser) enter() {
	p.depth++
	if p.depth > maxDepth {
		p.tooDeep()
	}
}

// maxErrors caps the syntax errors one parse records. Recovery records one
// per broken member or statement, so without the cap a source of junk costs
// an Error every few bytes. The most any source of the parse golden
// records is 20.
const maxErrors = 1000

func (p *parser) tooDeep() { p.halt(fmt.Sprintf("nesting deeper than %d levels", maxDepth)) }

// halt ends the parse: no speculation or recovery point recovers the
// failure (each returns at once when p.halted is set), so one panic unwinds
// to parseCompilationUnit, which records msg as the last error.
func (p *parser) halt(msg string) {
	p.halted = true
	p.fail(msg)
}

func (p *parser) cur() javatok.Token  { return p.toks[p.i] }
func (p *parser) peek() javatok.Token { return p.at(1) }

func (p *parser) at(n int) javatok.Token {
	if p.i+n >= len(p.toks) {
		return p.toks[len(p.toks)-1] // EOF
	}
	return p.toks[p.i+n]
}

func (p *parser) advance() javatok.Token {
	t := p.toks[p.i]
	if t.Kind != javatok.EOF {
		p.i++
	}
	return t
}

func (p *parser) accept(k javatok.Kind) bool {
	if p.cur().Kind == k {
		p.advance()
		return true
	}
	return false
}

func (p *parser) acceptKw(kw string) bool {
	if p.cur().Is(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(k javatok.Kind) javatok.Token {
	if p.cur().Kind != k {
		p.fail(fmt.Sprintf("expected %v, found %v", k, p.cur()))
	}
	return p.advance()
}

func (p *parser) expectKw(kw string) {
	if !p.cur().Is(kw) {
		p.fail(fmt.Sprintf("expected %q, found %v", kw, p.cur()))
	}
	p.advance()
}

func (p *parser) fail(msg string) {
	panic(parseError{pos: p.cur().Pos, msg: msg})
}

// record keeps the error a recovery point recovered from, and halts the
// parse once maxErrors are kept.
func (p *parser) record(pe parseError) {
	p.errors = append(p.errors, Error{Pos: pe.pos, Msg: pe.msg})
	if len(p.errors) == maxErrors {
		p.halt(fmt.Sprintf("more than %d syntax errors", maxErrors))
	}
}

// expectGt consumes a single '>' in a type-argument context, splitting shift
// tokens (>>, >>>) that the lexer produced for adjacent angle brackets.
func (p *parser) expectGt() {
	t := p.cur()
	var rest javatok.Token // what remains of t after its first '>'
	switch t.Kind {
	case javatok.Gt:
		p.advance()
		return
	case javatok.Shr:
		rest = javatok.Token{Kind: javatok.Gt, Text: ">"}
	case javatok.Ushr:
		rest = javatok.Token{Kind: javatok.Shr, Text: ">>"}
	case javatok.Ge:
		rest = javatok.Token{Kind: javatok.Assign, Text: "="}
	default:
		p.fail(fmt.Sprintf("expected '>', found %v", t))
	}
	rest.Pos = javatok.Pos{Offset: t.Pos.Offset + 1, Line: t.Pos.Line, Col: t.Pos.Col + 1}
	p.undo = append(p.undo, savedTok{idx: p.i, tok: t})
	p.toks[p.i] = rest
}

// mark/restore implement speculative parsing. The token splits expectGt
// performs are valid only along the committed path, so each one is logged
// in p.undo and restore replays the log backwards to the mark, however far
// the failed attempt read.
type mark struct {
	i     int
	depth int
	errs  int
	undo  int // length of p.undo at the mark
}

type savedTok struct {
	idx int
	tok javatok.Token
}

// speculate runs f and returns its result, or the zero value when f fails
// with a syntax error. A halted parse is not recovered. The caller restores
// a mark when it needs the cursor back.
func speculate[T any](p *parser, f func() T) (v T) {
	defer func() {
		if p.halted {
			return
		}
		if r := recover(); r != nil {
			if _, ok := r.(parseError); !ok {
				panic(r)
			}
		}
	}()
	return f()
}

func (p *parser) mark() mark {
	return mark{i: p.i, depth: p.depth, errs: len(p.errors), undo: len(p.undo)}
}

func (p *parser) restore(m mark) {
	for j := len(p.undo) - 1; j >= m.undo; j-- {
		p.toks[p.undo[j].idx] = p.undo[j].tok
	}
	p.undo = p.undo[:m.undo]
	p.i, p.depth = m.i, m.depth
	p.errors = p.errors[:m.errs]
}

// ---------------------------------------------------------------------------
// Compilation unit
// ---------------------------------------------------------------------------

// The return value is named so the recovery path below yields the partial
// unit instead of nil (Parse promises a non-nil unit for any input).
func (p *parser) parseCompilationUnit() (cu *javaast.CompilationUnit) {
	cu = &javaast.CompilationUnit{P: p.cur().Pos}
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := r.(parseError); ok {
				p.errors = append(p.errors, Error{Pos: pe.pos, Msg: pe.msg})
				return
			}
			panic(r)
		}
	}()
	p.skipAnnotations()
	if p.cur().Is("package") {
		p.advance()
		cu.Package = p.parseQualifiedName()
		p.accept(javatok.Semi)
	}
	for p.cur().Is("import") {
		cu.Imports = append(cu.Imports, p.parseImport())
	}
	for p.cur().Kind != javatok.EOF {
		start := p.i
		t := p.parseTopLevelType()
		if t != nil {
			cu.Types = append(cu.Types, t)
		}
		if p.i == start {
			p.advance() // ensure progress on garbage
		}
	}
	return cu
}

func (p *parser) parseImport() *javaast.Import {
	im := &javaast.Import{P: p.cur().Pos}
	p.expectKw("import")
	im.Static = p.acceptKw("static")
	from := p.i
	p.expect(javatok.Ident)
	to := p.i
	for p.cur().Kind == javatok.Dot {
		p.advance()
		if p.cur().Kind == javatok.Star {
			p.advance()
			im.Wildcard = true
			break
		}
		p.expect(javatok.Ident)
		to = p.i
	}
	im.Path = p.dotted(from, to)
	p.accept(javatok.Semi)
	return im
}

func (p *parser) parseQualifiedName() string {
	from := p.i
	p.expect(javatok.Ident)
	for p.cur().Kind == javatok.Dot && p.peek().Kind == javatok.Ident {
		p.advance()
		p.advance()
	}
	return p.dotted(from, p.i)
}

// dotted returns the name that toks[from:to], an identifier and then
// alternately a '.' and an identifier, spell. When the tokens lie back to
// back in the source, as in nearly every name, the name is that stretch of
// the source and costs no allocation; otherwise the identifiers are joined
// with dots.
func (p *parser) dotted(from, to int) string {
	toks := p.toks[from:to]
	n := 0
	for _, t := range toks {
		n += len(t.Text)
	}
	start := int(toks[0].Pos.Offset)
	if last := toks[len(toks)-1]; int(last.Pos.Offset)+len(last.Text)-start == n {
		return p.src[start : start+n]
	}
	var sb strings.Builder
	for i := 0; i < len(toks); i += 2 {
		if i > 0 {
			sb.WriteByte('.')
		}
		sb.WriteString(toks[i].Text)
	}
	return sb.String()
}

// parseTopLevelType parses one type declaration, recovering from errors by
// skipping to a balanced position.
func (p *parser) parseTopLevelType() (decl *javaast.TypeDecl) {
	depth := p.depth
	defer func() {
		if p.halted {
			return
		}
		if r := recover(); r != nil {
			pe, ok := r.(parseError)
			if !ok {
				panic(r)
			}
			p.depth = depth
			p.record(pe)
			p.skipToTopLevel()
			decl = nil
		}
	}()
	mods := p.parseModifiers()
	return p.parseTypeDecl(mods)
}

// skipToTopLevel advances past the current (possibly broken) declaration.
func (p *parser) skipToTopLevel() {
	depth := 0
	for {
		switch p.cur().Kind {
		case javatok.EOF:
			return
		case javatok.LBrace:
			depth++
		case javatok.RBrace:
			depth--
			if depth <= 0 {
				p.advance()
				return
			}
		case javatok.Keyword:
			if depth == 0 {
				switch p.cur().Text {
				case "class", "interface", "enum", "public", "final", "abstract":
					return
				}
			}
		}
		p.advance()
	}
}

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

var modifierWords = map[string]bool{
	"public": true, "protected": true, "private": true, "static": true,
	"final": true, "abstract": true, "native": true, "synchronized": true,
	"transient": true, "volatile": true, "strictfp": true, "default": true,
}

// parseModifiers parses a member's modifiers, returning nil for none. They
// collect on a scratch buffer, and the result is an exactly sized copy.
func (p *parser) parseModifiers() []string {
	p.mods = p.mods[:0]
	for {
		p.skipAnnotations()
		t := p.cur()
		if t.Kind == javatok.Keyword && modifierWords[t.Text] {
			// "default" opens a switch arm too, but no switch arm appears in
			// modifier position (declarations only).
			p.mods = append(p.mods, t.Text)
			p.advance()
			continue
		}
		if len(p.mods) == 0 {
			return nil
		}
		return slices.Clone(p.mods)
	}
}

// skipAnnotations consumes @Name or @Name(...) sequences.
func (p *parser) skipAnnotations() {
	for p.cur().Kind == javatok.At {
		p.advance()
		if p.cur().Is("interface") { // @interface declaration: leave the
			p.i-- // '@' for parseTypeDecl to reject cleanly
			return
		}
		p.parseQualifiedName()
		if p.cur().Kind == javatok.LParen {
			p.skipBalanced(javatok.LParen, javatok.RParen)
		}
	}
}

// skipBalanced consumes a balanced open..close token run.
func (p *parser) skipBalanced(open, close javatok.Kind) {
	p.expect(open)
	depth := 1
	for depth > 0 {
		switch p.cur().Kind {
		case javatok.EOF:
			p.fail("unbalanced " + open.String())
		case open:
			depth++
		case close:
			depth--
		}
		p.advance()
	}
}

// skipTypeParams consumes <...> honoring nesting; used for generic
// declarations and type arguments (both are erased).
func (p *parser) skipTypeParams() {
	if p.cur().Kind != javatok.Lt {
		return
	}
	p.advance()
	depth := 1
	for depth > 0 {
		switch p.cur().Kind {
		case javatok.EOF, javatok.Semi, javatok.LBrace:
			p.fail("unbalanced type parameters")
		case javatok.Lt:
			p.advance()
			depth++
			if p.depth+depth > maxDepth {
				p.tooDeep()
			}
		case javatok.Gt:
			p.advance()
			depth--
		case javatok.Shr:
			p.expectGt()
			depth--
		case javatok.Ushr:
			p.expectGt()
			depth--
		default:
			p.advance()
		}
	}
}

func (p *parser) parseTypeDecl(mods []string) *javaast.TypeDecl {
	p.enter()
	defer func() { p.depth-- }()
	t := &javaast.TypeDecl{Modifiers: mods, P: p.cur().Pos}
	// Annotation type declaration: @interface Name { ... } — parsed as an
	// interface with its member bodies skipped (the analyzer never needs
	// annotation elements).
	if p.cur().Kind == javatok.At && p.peek().Is("interface") {
		p.advance()
		p.advance()
		t.Kind = javaast.InterfaceKind
		t.Name = p.expect(javatok.Ident).Text
		p.skipBalanced(javatok.LBrace, javatok.RBrace)
		return t
	}
	switch {
	case p.acceptKw("class"):
		t.Kind = javaast.ClassKind
	case p.acceptKw("interface"):
		t.Kind = javaast.InterfaceKind
	case p.acceptKw("enum"):
		t.Kind = javaast.EnumKind
	default:
		p.fail(fmt.Sprintf("expected type declaration, found %v", p.cur()))
	}
	t.Name = p.expect(javatok.Ident).Text
	p.skipTypeParams()
	if p.acceptKw("extends") {
		t.Extends = p.parseType().Name
		p.skipTypeParams()
		for p.accept(javatok.Comma) { // interface extending several
			t.Implements = append(t.Implements, p.parseType().Name)
			p.skipTypeParams()
		}
	}
	if p.acceptKw("implements") {
		t.Implements = append(t.Implements, p.parseType().Name)
		p.skipTypeParams()
		for p.accept(javatok.Comma) {
			t.Implements = append(t.Implements, p.parseType().Name)
			p.skipTypeParams()
		}
	}
	p.expect(javatok.LBrace)
	if t.Kind == javaast.EnumKind {
		p.parseEnumConstants(t)
	}
	for p.cur().Kind != javatok.RBrace && p.cur().Kind != javatok.EOF {
		start := p.i
		p.parseMember(t)
		if p.i == start {
			p.advance()
		}
	}
	p.accept(javatok.RBrace)
	return t
}

func (p *parser) parseEnumConstants(t *javaast.TypeDecl) {
	for p.cur().Kind == javatok.Ident || p.cur().Kind == javatok.At {
		p.skipAnnotations()
		if p.cur().Kind != javatok.Ident {
			break
		}
		t.EnumConsts = append(t.EnumConsts, p.advance().Text)
		if p.cur().Kind == javatok.LParen {
			p.skipBalanced(javatok.LParen, javatok.RParen)
		}
		if p.cur().Kind == javatok.LBrace {
			p.skipBalanced(javatok.LBrace, javatok.RBrace)
		}
		if !p.accept(javatok.Comma) {
			break
		}
	}
	p.accept(javatok.Semi)
}

// parseMember parses one class member, recovering from syntax errors by
// skipping to the next member boundary.
func (p *parser) parseMember(t *javaast.TypeDecl) {
	depth := p.depth
	defer func() {
		if p.halted {
			return
		}
		if r := recover(); r != nil {
			pe, ok := r.(parseError)
			if !ok {
				panic(r)
			}
			p.depth = depth
			p.record(pe)
			p.skipToMemberBoundary()
		}
	}()
	if p.accept(javatok.Semi) {
		return
	}
	pos := p.cur().Pos
	mods := p.parseModifiers()

	// Initializer block (static or instance).
	if p.cur().Kind == javatok.LBrace {
		body := p.parseBlock()
		name := "<instance-init>"
		for _, m := range mods {
			if m == "static" {
				name = "<static-init>"
			}
		}
		t.Methods = append(t.Methods, &javaast.MethodDecl{
			Name: name, Modifiers: mods, Body: body, P: pos,
		})
		return
	}

	// Nested type (including nested @interface declarations).
	if p.cur().Is("class") || p.cur().Is("interface") || p.cur().Is("enum") ||
		(p.cur().Kind == javatok.At && p.peek().Is("interface")) {
		t.Nested = append(t.Nested, p.parseTypeDecl(mods))
		return
	}

	p.skipTypeParams() // generic method type parameters

	// Constructor: ClassName followed by '('.
	if p.cur().Kind == javatok.Ident && p.cur().Text == t.Name &&
		p.peek().Kind == javatok.LParen {
		m := &javaast.MethodDecl{Name: t.Name, Modifiers: mods,
			IsConstructor: true, P: pos}
		p.advance()
		m.Params = p.parseParams()
		p.parseThrows(m)
		if p.cur().Kind == javatok.LBrace {
			m.Body = p.parseBlock()
		} else {
			p.accept(javatok.Semi)
		}
		t.Methods = append(t.Methods, m)
		return
	}

	typ := p.parseTypeOrVoid()
	name := p.expect(javatok.Ident).Text

	if p.cur().Kind == javatok.LParen {
		m := &javaast.MethodDecl{Name: name, Modifiers: mods,
			ReturnType: alloc(&p.types, typ), P: pos}
		m.Params = p.parseParams()
		// Trailing array dims on the method: int m()[] — rare, fold into
		// return type.
		for p.cur().Kind == javatok.LBracket && p.peek().Kind == javatok.RBracket {
			p.advance()
			p.advance()
			m.ReturnType.Dims++
		}
		p.parseThrows(m)
		if p.cur().Kind == javatok.LBrace {
			m.Body = p.parseBlock()
		} else {
			p.accept(javatok.Semi)
		}
		t.Methods = append(t.Methods, m)
		return
	}

	// Field declaration, possibly with several declarators.
	for {
		f := &javaast.FieldDecl{Name: name, Modifiers: mods, P: pos}
		f.Type = alloc(&p.types, typ)
		for p.cur().Kind == javatok.LBracket && p.peek().Kind == javatok.RBracket {
			p.advance()
			p.advance()
			f.Type.Dims++
		}
		if p.accept(javatok.Assign) {
			f.Init = p.parseVarInit()
		}
		t.Fields = append(t.Fields, f)
		if !p.accept(javatok.Comma) {
			break
		}
		pos = p.cur().Pos
		name = p.expect(javatok.Ident).Text
	}
	p.accept(javatok.Semi)
}

// memberStartKeywords are sync points for member-level error recovery.
var memberStartKeywords = map[string]bool{
	"public": true, "private": true, "protected": true, "static": true,
	"final": true, "abstract": true, "void": true,
	"class": true, "interface": true, "enum": true,
}

func (p *parser) skipToMemberBoundary() {
	depth := 0
	for {
		t := p.cur()
		switch t.Kind {
		case javatok.EOF:
			return
		case javatok.LBrace:
			depth++
		case javatok.RBrace:
			if depth == 0 {
				return // let parseTypeDecl consume the class's closing brace
			}
			depth--
			if depth == 0 {
				p.advance()
				return
			}
		case javatok.Semi:
			if depth == 0 {
				p.advance()
				return
			}
		case javatok.Keyword:
			// A member-start keyword is a strong signal that the broken
			// member has ended. Tolerate one unbalanced '{' swallowed from
			// the broken member's would-be body.
			if depth <= 1 && memberStartKeywords[t.Text] {
				return
			}
		}
		p.advance()
	}
}

func (p *parser) parseThrows(m *javaast.MethodDecl) {
	if p.acceptKw("throws") {
		m.Throws = append(m.Throws, p.parseQualifiedName())
		for p.accept(javatok.Comma) {
			m.Throws = append(m.Throws, p.parseQualifiedName())
		}
	}
}

func (p *parser) parseParams() []*javaast.Param {
	p.expect(javatok.LParen)
	var params []*javaast.Param
	for p.cur().Kind != javatok.RParen && p.cur().Kind != javatok.EOF {
		p.skipAnnotations()
		p.acceptKw("final")
		p.skipAnnotations()
		prm := &javaast.Param{P: p.cur().Pos}
		prm.Type = p.parseTypeRef()
		if p.accept(javatok.Ellipsis) {
			prm.Variadic = true
			prm.Type.Dims++
		}
		prm.Name = p.expect(javatok.Ident).Text
		for p.cur().Kind == javatok.LBracket && p.peek().Kind == javatok.RBracket {
			p.advance()
			p.advance()
			prm.Type.Dims++
		}
		params = append(params, prm)
		if !p.accept(javatok.Comma) {
			break
		}
	}
	p.expect(javatok.RParen)
	return params
}

var primitiveTypes = map[string]bool{
	"boolean": true, "byte": true, "char": true, "short": true,
	"int": true, "long": true, "float": true, "double": true,
}

// parseTypeOrVoid parses a type reference or the void keyword.
func (p *parser) parseTypeOrVoid() javaast.TypeRef {
	if p.cur().Is("void") {
		return javaast.TypeRef{Name: "void", P: p.advance().Pos}
	}
	return p.parseType()
}

// parseTypeRef parses a type reference into a node.
func (p *parser) parseTypeRef() *javaast.TypeRef { return alloc(&p.types, p.parseType()) }

// parseType parses a (possibly qualified, possibly generic, possibly array)
// type reference. Generic arguments are skipped. The reference is returned
// by value, so a speculative parse that only probes for a type allocates
// nothing.
func (p *parser) parseType() javaast.TypeRef {
	t := javaast.TypeRef{P: p.cur().Pos}
	cur := p.cur()
	if cur.Kind == javatok.Keyword && primitiveTypes[cur.Text] {
		t.Name = cur.Text
		p.advance()
	} else if cur.Kind == javatok.Ident {
		t.Name = p.parseQualifiedNameGeneric()
	} else {
		p.fail(fmt.Sprintf("expected type, found %v", cur))
	}
	for p.cur().Kind == javatok.LBracket && p.peek().Kind == javatok.RBracket {
		p.advance()
		p.advance()
		t.Dims++
	}
	return t
}

// parseQualifiedNameGeneric parses a dotted name where each segment may carry
// type arguments (which are skipped): a.b.C<D>.E .
func (p *parser) parseQualifiedNameGeneric() string {
	first := p.expect(javatok.Ident).Text
	p.skipTypeParams()
	if p.cur().Kind != javatok.Dot || p.peek().Kind != javatok.Ident {
		return first // the common one-segment name: nothing to join
	}
	parts := []string{first}
	for p.cur().Kind == javatok.Dot && p.peek().Kind == javatok.Ident {
		p.advance()
		parts = append(parts, p.advance().Text)
		p.skipTypeParams()
	}
	return strings.Join(parts, ".")
}

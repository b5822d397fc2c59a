package javaparser

import (
	"fmt"
	"slices"

	"repro/internal/javaast"
	"repro/internal/javatok"
)

// parseBlock parses { stmts } with per-statement error recovery. The
// statements collect on p.stmts, a stack that nested blocks share, and the
// block keeps an exactly sized copy. No syntax error unwinds past the loop
// (parseStmtRecover recovers them all), so each block pops what it pushed.
func (p *parser) parseBlock() *javaast.Block {
	b := &javaast.Block{P: p.cur().Pos}
	p.expect(javatok.LBrace)
	base := len(p.stmts)
	for p.cur().Kind != javatok.RBrace && p.cur().Kind != javatok.EOF {
		start := p.i
		s := p.parseStmtRecover()
		if s != nil {
			p.stmts = append(p.stmts, s)
		}
		if p.i == start {
			p.advance()
		}
	}
	if len(p.stmts) > base {
		b.Stmts = slices.Clone(p.stmts[base:])
		clear(p.stmts[base:])
		p.stmts = p.stmts[:base]
	}
	p.accept(javatok.RBrace)
	return b
}

// parseStmtRecover parses one statement, skipping to the next ';' or
// balanced '}' on error.
func (p *parser) parseStmtRecover() (s javaast.Stmt) {
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
			p.skipToStmtBoundary()
			s = nil
		}
	}()
	p.enter()
	s = p.parseStmt()
	p.depth--
	return s
}

func (p *parser) skipToStmtBoundary() {
	depth := 0
	for {
		switch p.cur().Kind {
		case javatok.EOF:
			return
		case javatok.Semi:
			if depth == 0 {
				p.advance()
				return
			}
		case javatok.LBrace:
			depth++
		case javatok.RBrace:
			if depth == 0 {
				return
			}
			depth--
			if depth == 0 {
				p.advance()
				return
			}
		}
		p.advance()
	}
}

// parseStmt parses one statement. It returns nil for a local class, which
// is parsed and dropped.
func (p *parser) parseStmt() javaast.Stmt {
	t := p.cur()
	pos := t.Pos
	switch t.Kind {
	case javatok.LBrace:
		return p.parseBlock()
	case javatok.Semi:
		p.advance()
		return &javaast.EmptyStmt{P: pos}
	case javatok.Ident:
		if p.peek().Kind == javatok.Colon && p.at(2).Kind != javatok.Colon {
			label := p.advance().Text
			p.advance() // ':'
			inner := p.parseStmtRecover()
			return &javaast.LabeledStmt{Label: label, Stmt: inner, P: pos}
		}
	case javatok.Keyword:
		switch t.Text {
		case "if":
			return p.parseIf()
		case "while":
			return p.parseWhile()
		case "do":
			return p.parseDo()
		case "for":
			return p.parseFor()
		case "return":
			p.advance()
			var x javaast.Expr
			if p.cur().Kind != javatok.Semi {
				x = p.parseExpr()
			}
			p.accept(javatok.Semi)
			return &javaast.ReturnStmt{X: x, P: pos}
		case "throw":
			p.advance()
			x := p.parseExpr()
			p.accept(javatok.Semi)
			return &javaast.ThrowStmt{X: x, P: pos}
		case "try":
			return p.parseTry()
		case "switch":
			return p.parseSwitch()
		case "break", "continue":
			p.advance()
			label := ""
			if p.cur().Kind == javatok.Ident {
				label = p.advance().Text
			}
			p.accept(javatok.Semi)
			if t.Text == "break" {
				return &javaast.BreakStmt{Label: label, P: pos}
			}
			return &javaast.ContinueStmt{Label: label, P: pos}
		case "synchronized":
			p.advance()
			p.expect(javatok.LParen)
			lock := p.parseExpr()
			p.expect(javatok.RParen)
			return &javaast.SyncStmt{Lock: lock, Body: p.parseBlock(), P: pos}
		case "assert":
			p.advance()
			cond := p.parseExpr()
			var msg javaast.Expr
			if p.accept(javatok.Colon) {
				msg = p.parseExpr()
			}
			p.accept(javatok.Semi)
			return &javaast.AssertStmt{Cond: cond, Msg: msg, P: pos}
		case "class", "interface", "enum":
			// Local class: parse and drop (the analyzer does not track them).
			p.parseTypeDecl(nil)
			return nil
		case "final":
			p.advance()
			return p.parseLocalDecl(pos)
		}
	}

	// Local variable declaration vs expression statement: speculate.
	if p.looksLikeLocalDecl() {
		return p.parseLocalDecl(pos)
	}
	x := p.parseExpr()
	p.accept(javatok.Semi)
	return alloc(&p.exprs, javaast.ExprStmt{X: x, P: pos})
}

// looksLikeLocalDecl reports whether the upcoming tokens parse as
// "Type Ident" — the start of a local declaration. Speculative; restores the
// cursor either way.
func (p *parser) looksLikeLocalDecl() bool {
	t := p.cur()
	if t.Kind == javatok.Keyword && primitiveTypes[t.Text] {
		return true
	}
	if t.Kind != javatok.Ident {
		return false
	}
	if p.peek().Kind == javatok.Ident {
		return true // "Name name": the probe would read just the one type name
	}
	m := p.mark()
	ok := speculate(p, p.typeThenIdent)
	p.restore(m)
	return ok
}

// typeThenIdent reports whether a type and then an identifier come next,
// leaving the cursor after the type.
func (p *parser) typeThenIdent() bool {
	p.parseType()
	return p.cur().Kind == javatok.Ident
}

// parseLocalDecl parses a local variable declaration and its ';'. One
// declarator is returned as is; several ("int a, b;") are wrapped in a
// synthetic block, so that the declaration is still one statement.
func (p *parser) parseLocalDecl(pos javatok.Pos) javaast.Stmt {
	typ := p.parseType()
	d := p.parseDeclarator(typ, pos)
	if !p.accept(javatok.Comma) {
		p.accept(javatok.Semi)
		return d
	}
	stmts := []javaast.Stmt{d}
	for {
		stmts = append(stmts, p.parseDeclarator(typ, pos))
		if !p.accept(javatok.Comma) {
			break
		}
	}
	p.accept(javatok.Semi)
	return &javaast.Block{Stmts: stmts, P: pos}
}

// parseDeclarator parses one declarator of a local declaration of type typ:
// a name, trailing array dimensions and an optional initializer.
func (p *parser) parseDeclarator(typ javaast.TypeRef, pos javatok.Pos) *javaast.LocalVarDecl {
	name := p.expect(javatok.Ident).Text
	for p.cur().Kind == javatok.LBracket && p.peek().Kind == javatok.RBracket {
		p.advance()
		p.advance()
		typ.Dims++
	}
	d := alloc(&p.locals, javaast.LocalVarDecl{Name: name, Type: alloc(&p.types, typ), P: pos})
	if p.accept(javatok.Assign) {
		d.Init = p.parseVarInit()
	}
	return d
}

// parseVarInit parses a variable initializer: an expression or an array
// initializer { ... }.
func (p *parser) parseVarInit() javaast.Expr {
	if p.cur().Kind == javatok.LBrace {
		return p.parseArrayInit()
	}
	return p.parseExpr()
}

func (p *parser) parseArrayInit() javaast.Expr {
	p.enter()
	ai := &javaast.ArrayInit{P: p.cur().Pos}
	p.expect(javatok.LBrace)
	for p.cur().Kind != javatok.RBrace && p.cur().Kind != javatok.EOF {
		ai.Elems = append(ai.Elems, p.parseVarInit())
		if !p.accept(javatok.Comma) {
			break
		}
	}
	p.expect(javatok.RBrace)
	p.depth--
	return ai
}

func (p *parser) parseIf() javaast.Stmt {
	pos := p.cur().Pos
	p.expectKw("if")
	p.expect(javatok.LParen)
	cond := p.parseExpr()
	p.expect(javatok.RParen)
	then := p.parseStmtRecover()
	var els javaast.Stmt
	if p.acceptKw("else") {
		els = p.parseStmtRecover()
	}
	return &javaast.IfStmt{Cond: cond, Then: then, Else: els, P: pos}
}

func (p *parser) parseWhile() javaast.Stmt {
	pos := p.cur().Pos
	p.expectKw("while")
	p.expect(javatok.LParen)
	cond := p.parseExpr()
	p.expect(javatok.RParen)
	return &javaast.WhileStmt{Cond: cond, Body: p.parseStmtRecover(), P: pos}
}

func (p *parser) parseDo() javaast.Stmt {
	pos := p.cur().Pos
	p.expectKw("do")
	body := p.parseStmtRecover()
	p.expectKw("while")
	p.expect(javatok.LParen)
	cond := p.parseExpr()
	p.expect(javatok.RParen)
	p.accept(javatok.Semi)
	return &javaast.DoStmt{Body: body, Cond: cond, P: pos}
}

func (p *parser) parseFor() javaast.Stmt {
	pos := p.cur().Pos
	p.expectKw("for")
	p.expect(javatok.LParen)

	// Enhanced for: [final] Type Ident : expr
	m := p.mark()
	if fe := p.tryParseForEach(pos); fe != nil {
		return fe
	}
	p.restore(m)

	f := &javaast.ForStmt{P: pos}
	if p.cur().Kind != javatok.Semi {
		p.acceptKw("final")
		if p.looksLikeLocalDecl() {
			switch d := p.parseLocalDecl(p.cur().Pos).(type) { // consumes ';'
			case *javaast.Block:
				f.Init = d.Stmts
			default:
				f.Init = []javaast.Stmt{d}
			}
		} else {
			f.Init = append(f.Init, &javaast.ExprStmt{X: p.parseExpr(), P: p.cur().Pos})
			for p.accept(javatok.Comma) {
				f.Init = append(f.Init, &javaast.ExprStmt{X: p.parseExpr(), P: p.cur().Pos})
			}
			p.expect(javatok.Semi)
		}
	} else {
		p.advance()
	}
	if p.cur().Kind != javatok.Semi {
		f.Cond = p.parseExpr()
	}
	p.expect(javatok.Semi)
	for p.cur().Kind != javatok.RParen && p.cur().Kind != javatok.EOF {
		f.Post = append(f.Post, p.parseExpr())
		if !p.accept(javatok.Comma) {
			break
		}
	}
	p.expect(javatok.RParen)
	f.Body = p.parseStmtRecover()
	return f
}

// tryParseForEach speculatively parses the header of an enhanced for loop,
// returning nil (without consuming input on failure is the caller's job via
// restore) when the header is not "Type Ident :".
func (p *parser) tryParseForEach(pos javatok.Pos) javaast.Stmt {
	return speculate(p, func() javaast.Stmt {
		p.acceptKw("final")
		typ := p.parseType()
		if p.cur().Kind != javatok.Ident {
			return nil
		}
		name := p.advance().Text
		if !p.accept(javatok.Colon) {
			return nil
		}
		iter := p.parseExpr()
		p.expect(javatok.RParen)
		v := alloc(&p.locals, javaast.LocalVarDecl{Name: name, Type: alloc(&p.types, typ), P: pos})
		return &javaast.ForEachStmt{Var: v, Expr: iter, Body: p.parseStmtRecover(), P: pos}
	})
}

func (p *parser) parseTry() javaast.Stmt {
	pos := p.cur().Pos
	p.expectKw("try")
	t := &javaast.TryStmt{P: pos}
	if p.cur().Kind == javatok.LParen {
		p.advance()
		for p.cur().Kind != javatok.RParen && p.cur().Kind != javatok.EOF {
			p.acceptKw("final")
			rpos := p.cur().Pos
			typ := p.parseTypeRef()
			name := p.expect(javatok.Ident).Text
			r := &javaast.LocalVarDecl{Name: name, Type: typ, P: rpos}
			if p.accept(javatok.Assign) {
				r.Init = p.parseExpr()
			}
			t.Resources = append(t.Resources, r)
			if !p.accept(javatok.Semi) {
				break
			}
		}
		p.expect(javatok.RParen)
	}
	t.Body = p.parseBlock()
	for p.cur().Is("catch") {
		c := &javaast.CatchClause{P: p.cur().Pos}
		p.advance()
		p.expect(javatok.LParen)
		p.acceptKw("final")
		prm := &javaast.Param{P: p.cur().Pos}
		prm.Type = p.parseTypeRef()
		for p.accept(javatok.Or) { // multi-catch: A | B e
			c.Types = append(c.Types, p.parseType().Name)
		}
		if p.cur().Kind == javatok.Ident {
			prm.Name = p.advance().Text
		}
		c.Param = prm
		p.expect(javatok.RParen)
		c.Body = p.parseBlock()
		t.Catches = append(t.Catches, c)
	}
	if p.acceptKw("finally") {
		t.Finally = p.parseBlock()
	}
	if t.Body == nil {
		p.fail("try without body")
	}
	return t
}

func (p *parser) parseSwitch() javaast.Stmt {
	pos := p.cur().Pos
	p.expectKw("switch")
	p.expect(javatok.LParen)
	tag := p.parseExpr()
	p.expect(javatok.RParen)
	s := &javaast.SwitchStmt{Tag: tag, P: pos}
	p.expect(javatok.LBrace)
	var cur *javaast.SwitchCase
	for p.cur().Kind != javatok.RBrace && p.cur().Kind != javatok.EOF {
		switch {
		case p.cur().Is("case"):
			cpos := p.cur().Pos
			p.advance()
			v := p.parseExpr()
			p.expect(javatok.Colon)
			if cur == nil || len(cur.Body) > 0 {
				cur = &javaast.SwitchCase{P: cpos}
				s.Cases = append(s.Cases, cur)
			}
			cur.Values = append(cur.Values, v)
		case p.cur().Is("default"):
			cpos := p.cur().Pos
			p.advance()
			p.expect(javatok.Colon)
			cur = &javaast.SwitchCase{P: cpos}
			s.Cases = append(s.Cases, cur)
		default:
			if cur == nil {
				p.fail(fmt.Sprintf("statement outside case in switch: %v", p.cur()))
			}
			start := p.i
			if st := p.parseStmtRecover(); st != nil {
				cur.Body = append(cur.Body, st)
			}
			if p.i == start {
				p.advance()
			}
		}
	}
	p.accept(javatok.RBrace)
	return s
}

package javaparser

import (
	"fmt"

	"repro/internal/javaast"
	"repro/internal/javatok"
)

// parseExpr parses a full expression (assignment level). Each expression
// is one nesting level (see enter).
func (p *parser) parseExpr() javaast.Expr {
	p.enter()
	// Lambda detection: "x ->" or "(a, b) ->" or "() ->".
	if lam := p.tryParseLambda(); lam != nil {
		p.depth--
		return lam
	}
	left := p.parseCondExpr()
	switch p.cur().Kind {
	case javatok.Assign, javatok.PlusEq, javatok.MinusEq, javatok.StarEq,
		javatok.SlashEq, javatok.AndEq, javatok.OrEq, javatok.CaretEq,
		javatok.PercentEq, javatok.ShlEq, javatok.ShrEq, javatok.UshrEq:
		op := p.advance()
		right := p.parseExpr()
		left = &javaast.Assign{Op: op.Text, L: left, R: right, P: op.Pos}
	}
	p.depth--
	return left
}

// tryParseLambda detects and parses lambda expressions; returns nil when the
// upcoming tokens are not a lambda.
func (p *parser) tryParseLambda() javaast.Expr {
	pos := p.cur().Pos
	// Ident ->
	if p.cur().Kind == javatok.Ident && p.peek().Kind == javatok.Arrow {
		name := p.advance().Text
		p.advance()
		return p.finishLambda(pos, []string{name})
	}
	// ( [params] ) ->  — look for the arrow after the balanced paren run
	// (pairParens found its end once for the whole file).
	if p.cur().Kind != javatok.LParen || len(p.parens) == 0 {
		return nil
	}
	j := int(p.parens[p.i])
	if j < 0 || j+1 >= len(p.toks) || p.toks[j+1].Kind != javatok.Arrow {
		return nil
	}
	// Commit: consume params (identifiers, possibly typed — types skipped).
	p.advance() // '('
	var params []string
	for p.cur().Kind != javatok.RParen && p.cur().Kind != javatok.EOF {
		p.acceptKw("final")
		// Typed parameter: Type Ident — speculative type skip.
		if p.cur().Kind == javatok.Ident && p.peek().Kind != javatok.Comma &&
			p.peek().Kind != javatok.RParen {
			m := p.mark()
			if !speculate(p, p.typeThenIdent) {
				p.restore(m)
			}
		} else if p.cur().Kind == javatok.Keyword && primitiveTypes[p.cur().Text] {
			p.parseType()
		}
		if p.cur().Kind == javatok.Ident {
			params = append(params, p.advance().Text)
		}
		if !p.accept(javatok.Comma) {
			break
		}
	}
	p.expect(javatok.RParen)
	p.expect(javatok.Arrow)
	return p.finishLambda(pos, params)
}

func (p *parser) finishLambda(pos javatok.Pos, params []string) javaast.Expr {
	lam := &javaast.Lambda{Params: params, P: pos}
	if p.cur().Kind == javatok.LBrace {
		lam.Body = p.parseBlock()
	} else {
		lam.Body = p.parseExpr()
	}
	return lam
}

func (p *parser) parseCondExpr() javaast.Expr {
	cond := p.parseBinaryExpr(0)
	if p.cur().Kind == javatok.Question {
		pos := p.advance().Pos
		t := p.parseExpr()
		p.expect(javatok.Colon)
		p.enter()
		f := p.parseCondExpr()
		p.depth--
		return &javaast.Cond{C: cond, T: t, F: f, P: pos}
	}
	return cond
}

// binPrec is the precedence of each binary operator kind, higher binding
// tighter; 0 for every other kind.
var binPrec = [...]int{
	javatok.OrOr:   1,
	javatok.AndAnd: 2,
	javatok.Or:     3,
	javatok.Caret:  4,
	javatok.And:    5,
	javatok.Eq:     6, javatok.Ne: 6,
	javatok.Lt: 7, javatok.Gt: 7, javatok.Le: 7, javatok.Ge: 7,
	javatok.Shl: 8, javatok.Shr: 8, javatok.Ushr: 8,
	javatok.Plus: 9, javatok.Minus: 9,
	javatok.Star: 10, javatok.Slash: 10, javatok.Percent: 10,
}

const relPrec = 7 // precedence tier of relational operators / instanceof

func (p *parser) parseBinaryExpr(minPrec int) javaast.Expr {
	left := p.parseUnary()
	for {
		if p.cur().Is("instanceof") && relPrec >= minPrec {
			pos := p.advance().Pos
			typ := p.parseTypeRef()
			// Java 16 pattern variable: "x instanceof T v" — accept & drop.
			if p.cur().Kind == javatok.Ident {
				p.advance()
			}
			left = &javaast.InstanceOf{X: left, Type: typ, P: pos}
			continue
		}
		prec := 0
		if k := p.cur().Kind; int(k) < len(binPrec) {
			prec = binPrec[k]
		}
		if prec == 0 || prec < minPrec {
			return left
		}
		op := p.advance()
		right := p.parseBinaryExpr(prec + 1)
		left = alloc(&p.binaries, javaast.Binary{Op: op.Text, L: left, R: right, P: op.Pos})
	}
}

func (p *parser) parseUnary() javaast.Expr {
	t := p.cur()
	switch t.Kind {
	case javatok.Plus, javatok.Minus, javatok.Not, javatok.Tilde, javatok.Inc, javatok.Dec:
		p.advance()
		p.enter()
		x := p.parseUnary()
		p.depth--
		return &javaast.Unary{Op: t.Text, X: x, P: t.Pos}
	case javatok.LParen:
		if c := p.tryParseCast(); c != nil {
			return c
		}
	}
	return p.parsePostfix()
}

// tryParseCast speculatively parses "(Type) unary" casts, returning nil when
// the parenthesized run is an ordinary expression.
func (p *parser) tryParseCast() javaast.Expr {
	// Only an identifier or a primitive keyword can start the type. Any other
	// token after '(' is no cast, and the speculation would only format an
	// error and panic to find that out.
	if nt := p.peek(); nt.Kind != javatok.Ident && (nt.Kind != javatok.Keyword || !primitiveTypes[nt.Text]) {
		return nil
	}
	m := p.mark()
	pos := p.cur().Pos
	c := speculate(p, func() javaast.Expr {
		p.expect(javatok.LParen)
		isPrimitive := p.cur().Kind == javatok.Keyword && primitiveTypes[p.cur().Text]
		typ := p.parseType()
		if p.cur().Kind != javatok.RParen {
			return nil
		}
		p.advance()
		// A cast must be followed by something that can start an operand.
		// For non-primitive casts, reject operators that make "(name) - x"
		// ambiguous (it is subtraction, not a cast).
		nt := p.cur()
		castable := false
		switch nt.Kind {
		case javatok.Ident, javatok.IntLit, javatok.LongLit, javatok.FloatLit,
			javatok.DoubleLit, javatok.CharLit, javatok.StringLit,
			javatok.LParen, javatok.Not, javatok.Tilde:
			castable = true
		case javatok.Keyword:
			castable = nt.Text == "this" || nt.Text == "new" ||
				nt.Text == "super" || nt.Text == "true" ||
				nt.Text == "false" || nt.Text == "null"
		case javatok.Plus, javatok.Minus:
			castable = isPrimitive
		}
		if !castable {
			return nil
		}
		p.enter()
		x := p.parseUnary()
		p.depth--
		return &javaast.Cast{Type: alloc(&p.types, typ), X: x, P: pos}
	})
	if c == nil {
		p.restore(m)
	}
	return c
}

func (p *parser) parsePostfix() javaast.Expr {
	x := p.parsePrimary()
	for {
		switch p.cur().Kind {
		case javatok.Dot:
			// .name, .name(args), .class, .this, .new Type(...)
			p.advance()
			switch {
			case p.cur().Is("class"):
				p.advance()
				x = &javaast.ClassLit{Type: &javaast.TypeRef{Name: javaast.ExprString(x)}, P: x.Pos()}
			case p.cur().Is("this"):
				p.advance()
				x = &javaast.This{P: x.Pos()}
			case p.cur().Is("new"):
				// Qualified inner-class creation: treat as unqualified new.
				x = p.parseNew()
			default:
				if p.cur().Kind == javatok.Lt {
					p.skipTypeParams() // explicit generic method call: x.<T>m()
				}
				name := p.expect(javatok.Ident).Text
				if p.cur().Kind == javatok.LParen {
					args := p.parseArgs()
					x = alloc(&p.calls, javaast.Call{Recv: x, Name: name, Args: args, P: x.Pos()})
				} else {
					x = alloc(&p.fields, javaast.FieldAccess{X: x, Name: name, P: x.Pos()})
				}
			}
		case javatok.LBracket:
			if p.peek().Kind == javatok.RBracket {
				// "Type[].class" style — consume dims and continue.
				p.advance()
				p.advance()
				continue
			}
			p.advance()
			idx := p.parseExpr()
			p.expect(javatok.RBracket)
			x = &javaast.Index{X: x, I: idx, P: x.Pos()}
		case javatok.Inc, javatok.Dec:
			op := p.advance()
			x = &javaast.Unary{Op: op.Text, X: x, Postfix: true, P: op.Pos}
		case javatok.ColonCln:
			p.advance()
			var name string
			if p.cur().Is("new") {
				p.advance()
				name = "new"
			} else {
				name = p.expect(javatok.Ident).Text
			}
			x = &javaast.MethodRef{Recv: x, Name: name, P: x.Pos()}
		default:
			return x
		}
	}
}

func (p *parser) parseArgs() []javaast.Expr {
	p.expect(javatok.LParen)
	var args []javaast.Expr
	for p.cur().Kind != javatok.RParen && p.cur().Kind != javatok.EOF {
		args = append(args, p.parseExpr())
		if !p.accept(javatok.Comma) {
			break
		}
	}
	p.expect(javatok.RParen)
	return args
}

// literalKinds maps each literal token kind to its AST literal kind.
var literalKinds = [...]javaast.LitKind{
	javatok.IntLit: javaast.IntLit, javatok.LongLit: javaast.LongLit,
	javatok.FloatLit: javaast.FloatLit, javatok.DoubleLit: javaast.DoubleLit,
	javatok.CharLit: javaast.CharLit, javatok.StringLit: javaast.StringLit,
}

func (p *parser) parsePrimary() javaast.Expr {
	t := p.cur()
	pos := t.Pos
	switch t.Kind {
	case javatok.IntLit, javatok.LongLit, javatok.FloatLit, javatok.DoubleLit,
		javatok.CharLit, javatok.StringLit:
		p.advance()
		return alloc(&p.literals, javaast.Literal{Kind: literalKinds[t.Kind], Value: t.Text, P: pos})
	case javatok.LParen:
		p.advance()
		x := p.parseExpr()
		p.expect(javatok.RParen)
		return x
	case javatok.Ident:
		name := p.advance().Text
		if p.cur().Kind == javatok.LParen {
			return alloc(&p.calls, javaast.Call{Name: name, Args: p.parseArgs(), P: pos})
		}
		return alloc(&p.names, javaast.Name{Ident: name, P: pos})
	case javatok.Keyword:
		switch t.Text {
		case "true", "false":
			p.advance()
			return alloc(&p.literals, javaast.Literal{Kind: javaast.BoolLit, Value: t.Text, P: pos})
		case "null":
			p.advance()
			return alloc(&p.literals, javaast.Literal{Kind: javaast.NullLit, Value: "null", P: pos})
		case "this":
			p.advance()
			if p.cur().Kind == javatok.LParen {
				return &javaast.Call{Recv: &javaast.This{P: pos}, Name: "<init>",
					Args: p.parseArgs(), P: pos}
			}
			return &javaast.This{P: pos}
		case "super":
			p.advance()
			if p.cur().Kind == javatok.LParen {
				return &javaast.Call{Recv: &javaast.Super{P: pos}, Name: "<init>",
					Args: p.parseArgs(), P: pos}
			}
			return &javaast.Super{P: pos}
		case "new":
			return p.parseNew()
		case "void":
			// void.class
			p.advance()
			if p.accept(javatok.Dot) {
				p.expectKw("class")
			}
			return &javaast.ClassLit{Type: &javaast.TypeRef{Name: "void", P: pos}, P: pos}
		default:
			if primitiveTypes[t.Text] {
				// int.class, int[].class
				typ := p.parseTypeRef()
				if p.accept(javatok.Dot) {
					p.expectKw("class")
				}
				return &javaast.ClassLit{Type: typ, P: pos}
			}
		}
	}
	p.fail(fmt.Sprintf("unexpected token %v in expression", t))
	return nil
}

func (p *parser) parseNew() javaast.Expr {
	pos := p.cur().Pos
	p.expectKw("new")
	typ := p.parseTypeRefNoDims()
	// Array creation.
	if p.cur().Kind == javatok.LBracket {
		na := &javaast.NewArray{Type: typ, P: pos}
		for p.cur().Kind == javatok.LBracket {
			p.advance()
			if p.cur().Kind == javatok.RBracket {
				p.advance()
				continue
			}
			na.Lens = append(na.Lens, p.parseExpr())
			p.expect(javatok.RBracket)
		}
		if p.cur().Kind == javatok.LBrace {
			init := p.parseArrayInit().(*javaast.ArrayInit)
			na.Elems = init.Elems
			na.HasInit = true
		}
		return na
	}
	n := &javaast.New{Type: typ, P: pos}
	if p.cur().Kind == javatok.LParen {
		n.Args = p.parseArgs()
	}
	if p.cur().Kind == javatok.LBrace {
		// Anonymous class body: parse members into a synthetic decl.
		body := &javaast.TypeDecl{Name: typ.Base() + "$anon", P: p.cur().Pos}
		p.expect(javatok.LBrace)
		for p.cur().Kind != javatok.RBrace && p.cur().Kind != javatok.EOF {
			start := p.i
			p.parseMember(body)
			if p.i == start {
				p.advance()
			}
		}
		p.accept(javatok.RBrace)
		n.Body = body
	}
	return n
}

// parseTypeRefNoDims parses a type reference without consuming trailing []
// pairs (array-new handles brackets itself).
func (p *parser) parseTypeRefNoDims() *javaast.TypeRef {
	cur := p.cur()
	if cur.Kind == javatok.Keyword && primitiveTypes[cur.Text] {
		p.advance()
		return alloc(&p.types, javaast.TypeRef{Name: cur.Text, P: cur.Pos})
	}
	if cur.Kind != javatok.Ident {
		p.fail(fmt.Sprintf("expected type after new, found %v", cur))
	}
	return alloc(&p.types, javaast.TypeRef{Name: p.parseQualifiedNameGeneric(), P: cur.Pos})
}

package ruledsl

// maxNesting caps how deep parentheses, ¬ and parenthesised clauses may
// nest in one formula. Real rules nest a few levels; the cap keeps the
// recursive-descent parser (and every tree walk after it) off the stack
// limit on hostile input.
const maxNesting = 256

type parser struct {
	toks  []token
	i     int
	depth int
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) expect(k tokKind) (token, error) {
	if p.cur().kind != k {
		return token{}, perr(p.cur().pos, "expected %v, found %v", token{kind: k}, p.cur())
	}
	return p.next(), nil
}

// nest enters one nesting level opened by t; the caller leaves it with
// p.depth--.
func (p *parser) nest(t token) error {
	p.depth++
	if p.depth > maxNesting {
		return perr(t.pos, "formula nested deeper than %d levels", maxNesting)
	}
	return nil
}

// parseRule parses the top level: clause { ∧ clause }.
func parseRule(toks []token) ([]ClauseSyntax, error) {
	p := &parser{toks: toks}
	var clauses []ClauseSyntax
	for {
		c, err := p.parseClause()
		if err != nil {
			return nil, err
		}
		clauses = append(clauses, c)
		if p.cur().kind != tAnd {
			break
		}
		p.next()
	}
	if p.cur().kind != tEOF {
		return nil, perr(p.cur().pos, "trailing input starting at %v", p.cur())
	}
	return clauses, nil
}

func (p *parser) parseClause() (ClauseSyntax, error) {
	negated := false
	if p.cur().kind == tNot {
		negated = true
		p.next()
		if _, err := p.expect(tLParen); err != nil {
			return ClauseSyntax{}, err
		}
	} else if p.cur().kind == tLParen && p.toks[p.i+1].kind == tIdent && p.toks[p.i+2].kind == tColon {
		// A parenthesized clause "(Class : ...)".
		p.next()
	} else {
		return p.parseSimpleClause()
	}
	if err := p.nest(p.toks[p.i-1]); err != nil {
		return ClauseSyntax{}, err
	}
	c, err := p.parseSimpleClause()
	if err != nil {
		return ClauseSyntax{}, err
	}
	p.depth--
	if _, err := p.expect(tRParen); err != nil {
		return ClauseSyntax{}, err
	}
	c.Negated = negated
	return c, nil
}

func (p *parser) parseSimpleClause() (ClauseSyntax, error) {
	cls, err := p.expect(tIdent)
	if err != nil {
		return ClauseSyntax{}, err
	}
	if _, err := p.expect(tColon); err != nil {
		return ClauseSyntax{}, err
	}
	f, err := p.parseOr()
	if err != nil {
		return ClauseSyntax{}, err
	}
	return ClauseSyntax{Class: cls.text, Pos: cls.pos, Formula: f}, nil
}

func (p *parser) parseOr() (Formula, error) {
	first, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	kids := []Formula{first}
	for p.cur().kind == tOr {
		p.next()
		n, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		kids = append(kids, n)
	}
	if len(kids) == 1 {
		return first, nil
	}
	return OrExpr{Kids: kids}, nil
}

func (p *parser) parseAnd() (Formula, error) {
	first, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	kids := []Formula{first}
	for p.cur().kind == tAnd {
		// The top-level rule conjunction also uses ∧; a following
		// "( Ident :" or "¬( Ident :" belongs to the next clause.
		if p.clauseFollows() {
			break
		}
		p.next()
		n, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		kids = append(kids, n)
	}
	if len(kids) == 1 {
		return first, nil
	}
	return AndExpr{Kids: kids}, nil
}

// clauseFollows reports whether the ∧ at the cursor starts a new
// Class:formula clause rather than continuing the current formula.
func (p *parser) clauseFollows() bool {
	j := p.i + 1 // token after ∧
	if j >= len(p.toks) {
		return false
	}
	if p.toks[j].kind == tNot {
		j++
	}
	if j < len(p.toks) && p.toks[j].kind == tLParen {
		j++
	}
	return j+1 < len(p.toks) && p.toks[j].kind == tIdent && p.toks[j+1].kind == tColon
}

func (p *parser) parseUnary() (Formula, error) {
	switch p.cur().kind {
	case tNot:
		if err := p.nest(p.next()); err != nil {
			return nil, err
		}
		kid, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		p.depth--
		return NotExpr{Kid: kid}, nil
	case tLParen:
		if err := p.nest(p.next()); err != nil {
			return nil, err
		}
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		p.depth--
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		return inner, nil
	}
	return p.parseAtom()
}

func (p *parser) parseAtom() (Formula, error) {
	switch p.cur().kind {
	case tVar:
		v := p.next()
		op, err := p.parseCmpOp("expected comparison after variable %s", v.text)
		if err != nil {
			return nil, err
		}
		if t := p.cur(); t.kind == tStr {
			p.next()
			return CmpAtom{Var: v.text, Op: op, Value: t.text, Quoted: true, Pos: v.pos}, nil
		}
		val, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		return CmpAtom{Var: v.text, Op: op, Value: val, Pos: v.pos}, nil
	case tIdent:
		id := p.next()
		if t, ok := testAtoms[id.text]; ok {
			return p.parseTest(id, t.withArg)
		}
		switch id.text {
		case "LPRNG", "ANDROID", "HAS_LPRNG":
			name := id.text
			if name == "HAS_LPRNG" {
				name = "LPRNG"
			}
			return CtxAtom{Name: name, Pos: id.pos}, nil
		case "MIN_SDK_VERSION":
			op, err := p.parseCmpOp("expected comparison after MIN_SDK_VERSION")
			if err != nil {
				return nil, err
			}
			val, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			var num int64
			for _, r := range val {
				if r < '0' || r > '9' {
					return nil, perr(id.pos, "MIN_SDK_VERSION compared to non-number %q", val)
				}
				num = num*10 + int64(r-'0')
			}
			return CtxAtom{Name: "MIN_SDK_VERSION", Op: op, Num: num, HasOp: true, Pos: id.pos}, nil
		}
		// Method call atom.
		call := CallAtom{Method: id.text, Pos: id.pos}
		if p.cur().kind == tLParen {
			p.next()
			call.HasArgs = true
			for p.cur().kind != tRParen {
				t := p.cur()
				if t.kind == tRest {
					// A trailing … admits further arguments.
					call.Rest = true
					p.next()
					break
				}
				switch t.kind {
				case tWildcard:
					call.Args = append(call.Args, ArgPattern{Kind: ArgAny, Pos: t.pos})
				case tVar:
					call.Args = append(call.Args, ArgPattern{Kind: ArgVar, Name: t.text, Pos: t.pos})
				case tIdent:
					call.Args = append(call.Args, ArgPattern{Kind: ArgLit, Name: t.text, Pos: t.pos})
				default:
					return nil, perr(t.pos, "bad argument pattern %v", t)
				}
				p.next()
				if p.cur().kind != tComma {
					break
				}
				p.next()
			}
			if _, err := p.expect(tRParen); err != nil {
				return nil, err
			}
		}
		return call, nil
	}
	return nil, perr(p.cur().pos, "unexpected %v in formula", p.cur())
}

// parseTest parses the argument list of a named test: (Var) or, for the
// tests that take a literal, (Var, literal).
func (p *parser) parseTest(id token, withArg bool) (Formula, error) {
	if _, err := p.expect(tLParen); err != nil {
		return nil, err
	}
	v, err := p.expect(tVar)
	if err != nil {
		return nil, err
	}
	atom := TestAtom{Name: id.text, Var: v.text, Pos: id.pos}
	if withArg {
		if _, err := p.expect(tComma); err != nil {
			return nil, err
		}
		if atom.Arg, err = p.parseLiteral(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tRParen); err != nil {
		return nil, err
	}
	return atom, nil
}

// parseCmpOp consumes a comparison operator, or fails with the given
// message at the current token.
func (p *parser) parseCmpOp(format string, args ...any) (CmpOp, error) {
	op, ok := cmpOps[p.cur().kind]
	if !ok {
		return 0, perr(p.cur().pos, format, args...)
	}
	p.next()
	return op, nil
}

var cmpOps = map[tokKind]CmpOp{tEq: OpEq, tNe: OpNe, tLt: OpLt, tLe: OpLe, tGt: OpGt, tGe: OpGe}

func (p *parser) parseLiteral() (string, error) {
	t := p.cur()
	if t.kind != tIdent && t.kind != tVar {
		return "", perr(t.pos, "expected literal, found %v", t)
	}
	p.next()
	return t.text, nil
}

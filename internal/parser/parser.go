package parser

import (
	"strconv"

	"repro/internal/ast"
)

// Unit is the result of parsing a source text: the rules (clauses with a
// non-empty body), the ground facts, and the queries it contains, in source
// order.
type Unit struct {
	// Rules are the program rules (clauses with at least one body literal).
	Rules []ast.Rule
	// Facts are ground clauses with an empty body. They belong in the
	// database, not the program (Section 1.1 of the paper).
	Facts []ast.Atom
	// Queries are the ?- goals in the source.
	Queries []ast.Query
}

// Program returns the rules of the unit as an *ast.Program.
func (u *Unit) Program() *ast.Program { return ast.NewProgram(u.Rules...) }

// parser consumes a token stream.
type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token          { return p.toks[p.pos] }
func (p *parser) advance()            { p.pos++ }
func (p *parser) at(k tokenKind) bool { return p.cur().kind == k }

func (p *parser) expect(k tokenKind) (token, error) {
	t := p.cur()
	if t.kind != k {
		return t, errTok(t, "expected %s, found %s %q", k, t.kind, t.text)
	}
	p.advance()
	return t, nil
}

// Parse parses a full source text containing rules, facts and queries.
func Parse(src string) (*Unit, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	unit := &Unit{}
	for !p.at(tokEOF) {
		if p.at(tokQuery) {
			p.advance()
			atom, err := p.parseAtom()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokDot); err != nil {
				return nil, err
			}
			unit.Queries = append(unit.Queries, ast.NewQuery(atom))
			continue
		}
		rule, err := p.parseClause()
		if err != nil {
			return nil, err
		}
		if rule.IsFact() {
			if !ast.IsGroundAtom(rule.Head) {
				return nil, errAt(rule.Pos.Line, rule.Pos.Col, "fact %s is not ground (well-formedness condition WF)", rule.Head)
			}
			unit.Facts = append(unit.Facts, rule.Head)
		} else {
			unit.Rules = append(unit.Rules, rule)
		}
	}
	return unit, nil
}

// ParseProgram parses a source text that must contain only rules and returns
// them as a program. Facts and queries in the source are rejected.
func ParseProgram(src string) (*ast.Program, error) {
	unit, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(unit.Facts) > 0 {
		f := unit.Facts[0]
		return nil, errAt(f.Pos.Line, f.Pos.Col, "source contains %d fact(s); facts belong in the database", len(unit.Facts))
	}
	if len(unit.Queries) > 0 {
		q := unit.Queries[0].Atom
		return nil, errAt(q.Pos.Line, q.Pos.Col, "source contains %d query(ies); pass the query separately", len(unit.Queries))
	}
	return unit.Program(), nil
}

// ParseAtom parses a single atom, with no trailing '.'.
func ParseAtom(src string) (ast.Atom, error) {
	toks, err := lexAll(src)
	if err != nil {
		return ast.Atom{}, err
	}
	p := &parser{toks: toks}
	a, err := p.parseAtom()
	if err != nil {
		return ast.Atom{}, err
	}
	if !p.at(tokEOF) {
		return ast.Atom{}, errTok(p.cur(), "trailing input after atom")
	}
	return a, nil
}

// ParseQuery parses a query of the form "?- atom." or just "atom".
func ParseQuery(src string) (ast.Query, error) {
	toks, err := lexAll(src)
	if err != nil {
		return ast.Query{}, err
	}
	p := &parser{toks: toks}
	if p.at(tokQuery) {
		p.advance()
	}
	a, err := p.parseAtom()
	if err != nil {
		return ast.Query{}, err
	}
	if p.at(tokDot) {
		p.advance()
	}
	if !p.at(tokEOF) {
		return ast.Query{}, errTok(p.cur(), "trailing input after query")
	}
	q := ast.NewQuery(a)
	if err := q.Validate(); err != nil {
		return ast.Query{}, errAt(a.Pos.Line, a.Pos.Col, "%v", err)
	}
	return q, nil
}

// ParseTerm parses a single term.
func ParseTerm(src string) (ast.Term, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	t, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF) {
		return nil, errTok(p.cur(), "trailing input after term")
	}
	return t, nil
}

// MustParseProgram is ParseProgram that panics on error; intended for tests
// and example programs embedded in source code.
func MustParseProgram(src string) *ast.Program {
	p, err := ParseProgram(src)
	if err != nil {
		panic(err)
	}
	return p
}

// MustParseQuery is ParseQuery that panics on error.
func MustParseQuery(src string) ast.Query {
	q, err := ParseQuery(src)
	if err != nil {
		panic(err)
	}
	return q
}

// MustParse is Parse that panics on error.
func MustParse(src string) *Unit {
	u, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return u
}

// parseClause parses "head." or "head :- body.". Body literals may be
// negated with a leading '!'; heads may not (negation in a head has no
// Horn-clause reading).
func (p *parser) parseClause() (ast.Rule, error) {
	head, err := p.parseAtom()
	if err != nil {
		return ast.Rule{}, err
	}
	if p.at(tokDot) {
		p.advance()
		return ast.Rule{Head: head, Pos: head.Pos}, nil
	}
	if _, err := p.expect(tokImplies); err != nil {
		return ast.Rule{}, err
	}
	var body []ast.Atom
	for {
		negated := false
		if p.at(tokBang) {
			p.advance()
			negated = true
		}
		a, err := p.parseAtom()
		if err != nil {
			return ast.Rule{}, err
		}
		a.Negated = negated
		body = append(body, a)
		if p.at(tokComma) {
			p.advance()
			continue
		}
		break
	}
	if _, err := p.expect(tokDot); err != nil {
		return ast.Rule{}, err
	}
	return ast.Rule{Head: head, Body: body, Pos: head.Pos}, nil
}

// parseAtom parses "pred" or "pred(t1, ..., tn)", recording the position of
// the predicate name and of each top-level argument.
func (p *parser) parseAtom() (ast.Atom, error) {
	name, err := p.expect(tokIdent)
	if err != nil {
		return ast.Atom{}, err
	}
	pos := ast.Pos{Line: name.line, Col: name.col}
	if !p.at(tokLParen) {
		a := ast.NewAtom(name.text)
		a.Pos = pos
		return a, nil
	}
	p.advance()
	var args []ast.Term
	var argPos []ast.Pos
	if !p.at(tokRParen) {
		for {
			start := p.cur()
			t, err := p.parseTerm()
			if err != nil {
				return ast.Atom{}, err
			}
			args = append(args, t)
			argPos = append(argPos, ast.Pos{Line: start.line, Col: start.col})
			if p.at(tokComma) {
				p.advance()
				continue
			}
			break
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return ast.Atom{}, err
	}
	a := ast.NewAtom(name.text, args...)
	a.Pos = pos
	a.ArgPos = argPos
	return a, nil
}

// parseTerm parses a variable, constant, integer, list or compound term.
func (p *parser) parseTerm() (ast.Term, error) {
	t := p.cur()
	switch t.kind {
	case tokVariable:
		p.advance()
		return ast.V(t.text), nil
	case tokInt:
		p.advance()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, errTok(t, "invalid integer %q: %v", t.text, err)
		}
		return ast.I(v), nil
	case tokLBracket:
		return p.parseList()
	case tokIdent:
		p.advance()
		if !p.at(tokLParen) {
			return ast.S(t.text), nil
		}
		p.advance()
		var args []ast.Term
		if !p.at(tokRParen) {
			for {
				a, err := p.parseTerm()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if p.at(tokComma) {
					p.advance()
					continue
				}
				break
			}
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return ast.C(t.text, args...), nil
	default:
		return nil, errTok(t, "expected a term, found %s %q", t.kind, t.text)
	}
}

// parseList parses "[]", "[a, b, c]" or "[a, b | T]".
func (p *parser) parseList() (ast.Term, error) {
	if _, err := p.expect(tokLBracket); err != nil {
		return nil, err
	}
	if p.at(tokRBracket) {
		p.advance()
		return ast.Nil(), nil
	}
	var elems []ast.Term
	for {
		t, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		elems = append(elems, t)
		if p.at(tokComma) {
			p.advance()
			continue
		}
		break
	}
	tail := ast.Nil()
	if p.at(tokBar) {
		p.advance()
		t, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		tail = t
	}
	if _, err := p.expect(tokRBracket); err != nil {
		return nil, err
	}
	for i := len(elems) - 1; i >= 0; i-- {
		tail = ast.Cons(elems[i], tail)
	}
	return tail, nil
}

package sqlmini

import (
	"fmt"
	"strconv"

	"activerules/internal/storage"
)

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	pos  int
}

// ParseStatement parses a single SQL statement (trailing ';' permitted).
func ParseStatement(src string) (Statement, error) {
	return parse(src, func(p *parser) (Statement, error) {
		st, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		p.acceptPunct(";")
		if err := p.expectEOF(); err != nil {
			return nil, err
		}
		return st, nil
	})
}

// ParseStatements parses a ';'-separated sequence of statements, as used
// in rule actions.
func ParseStatements(src string) ([]Statement, error) {
	return parse(src, (*parser).statements)
}

func (p *parser) statements() ([]Statement, error) {
	var out []Statement
	for {
		for p.acceptPunct(";") {
		}
		if p.cur().kind == tokEOF {
			break
		}
		st, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
		if !p.acceptPunct(";") && p.cur().kind != tokEOF {
			return nil, p.errorf("expected ';' or end of input, found %s", p.cur())
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sql: empty statement list")
	}
	return out, nil
}

// ParseExpr parses a standalone predicate/expression, as used in rule
// conditions.
func ParseExpr(src string) (Expr, error) {
	return parse(src, func(p *parser) (Expr, error) {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectEOF(); err != nil {
			return nil, err
		}
		return e, nil
	})
}

// parse lexes src and parses its tokens with f.
func parse[T any](src string, f func(*parser) (T, error)) (T, error) {
	var l Lexer
	if err := l.Lex(src); err != nil {
		var zero T
		return zero, err
	}
	return f(&parser{toks: l.toks})
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) peek() token { return p.toks[min(p.pos+1, len(p.toks)-1)] }
func (p *parser) at(n int) token {
	return p.toks[min(p.pos+n, len(p.toks)-1)]
}
func (p *parser) advance() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sql: offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *parser) expectEOF() error {
	if p.cur().kind != tokEOF {
		return p.errorf("unexpected trailing input %s", p.cur())
	}
	return nil
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.cur().kind == tokKeyword && p.cur().text == kw {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %q, found %s", kw, p.cur())
	}
	return nil
}

func (p *parser) acceptPunct(s string) bool {
	if p.cur().kind == tokPunct && p.cur().text == s {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return p.errorf("expected %q, found %s", s, p.cur())
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	if p.cur().kind != tokIdent {
		return "", p.errorf("expected identifier, found %s", p.cur())
	}
	return p.advance().text, nil
}

// parseStatement dispatches on the leading keyword.
func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.cur().kind == tokKeyword && p.cur().text == "select":
		return p.parseSelect()
	case p.acceptKeyword("insert"):
		return p.parseInsert()
	case p.acceptKeyword("delete"):
		return p.parseDelete()
	case p.acceptKeyword("update"):
		return p.parseUpdate()
	case p.acceptKeyword("rollback"):
		return &Rollback{}, nil
	default:
		return nil, p.errorf("expected a statement, found %s", p.cur())
	}
}

func (p *parser) parseSelect() (*Select, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	s := &Select{Limit: -1}
	if p.cur().kind == tokIdent && p.cur().text == "distinct" {
		p.advance()
		s.Distinct = true
	}
	if p.acceptPunct("*") {
		s.Items = []SelectItem{{Expr: nil}}
	} else {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.Items = append(s.Items, SelectItem{Expr: e})
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if p.acceptKeyword("from") {
		for {
			tr, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			s.From = append(s.From, tr)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if p.acceptKeyword("where") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	// GROUP BY / HAVING / ORDER BY / LIMIT use contextual (non-reserved)
	// words so that "group", "order", "by", "asc", "desc", "having", and
	// "limit" remain legal column names elsewhere.
	if p.cur().kind == tokIdent && p.cur().text == "group" &&
		p.peek().kind == tokIdent && p.peek().text == "by" {
		p.advance()
		p.advance()
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.acceptPunct(",") {
				break
			}
		}
		if p.cur().kind == tokIdent && p.cur().text == "having" {
			p.advance()
			h, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.Having = h
		}
	}
	if p.cur().kind == tokIdent && p.cur().text == "order" &&
		p.peek().kind == tokIdent && p.peek().text == "by" {
		p.advance()
		p.advance()
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.cur().kind == tokIdent && (p.cur().text == "asc" || p.cur().text == "desc") {
				item.Desc = p.advance().text == "desc"
			}
			s.OrderBy = append(s.OrderBy, item)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if p.cur().kind == tokIdent && p.cur().text == "limit" && p.peek().kind == tokInt {
		p.advance()
		n, err := strconv.ParseInt(p.advance().text, 10, 32)
		if err != nil || n < 0 {
			return nil, p.errorf("bad limit")
		}
		s.Limit = int(n)
	}
	return s, nil
}

// parseTableName recognizes plain identifiers and the hyphenated
// transition-table names new-updated / old-updated (also accepted with an
// underscore as new_updated / old_updated).
func (p *parser) parseTableName() (string, error) {
	name, err := p.expectIdent()
	if err != nil {
		return "", err
	}
	if (name == "new" || name == "old") &&
		p.cur().kind == tokPunct && p.cur().text == "-" &&
		p.peek().kind == tokIdent && p.peek().text == "updated" {
		p.advance()
		p.advance()
		return name + "-updated", nil
	}
	if name == "new_updated" {
		return "new-updated", nil
	}
	if name == "old_updated" {
		return "old-updated", nil
	}
	return name, nil
}

func (p *parser) parseTableRef() (*TableRef, error) {
	name, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	tr := &TableRef{Name: name}
	if p.acceptKeyword("as") {
		alias, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		tr.Alias = alias
	} else if p.cur().kind == tokIdent && !p.startsClauseWord() {
		tr.Alias = p.advance().text
	}
	return tr, nil
}

// startsClauseWord reports whether the current token begins a GROUP BY,
// ORDER BY, or LIMIT clause rather than an implicit alias ("group",
// "order", and "limit" are contextual, not reserved).
func (p *parser) startsClauseWord() bool {
	if (p.cur().text == "order" || p.cur().text == "group") &&
		p.peek().kind == tokIdent && p.peek().text == "by" {
		return true
	}
	return p.cur().text == "limit" && p.peek().kind == tokInt
}

func (p *parser) parseInsert() (Statement, error) {
	if err := p.expectKeyword("into"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	if p.acceptPunct("(") {
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("values") {
		for {
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			var row []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if !p.acceptPunct(",") {
					break
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			ins.Rows = append(ins.Rows, row)
			if !p.acceptPunct(",") {
				break
			}
		}
		return ins, nil
	}
	if p.cur().kind == tokKeyword && p.cur().text == "select" {
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		ins.Query = q
		return ins, nil
	}
	return nil, p.errorf("expected VALUES or SELECT in insert, found %s", p.cur())
}

func (p *parser) parseDelete() (Statement, error) {
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	d := &Delete{Table: table}
	if p.acceptKeyword("where") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Where = w
	}
	return d, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	u := &Update{Table: table}
	if err := p.expectKeyword("set"); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if p.cur().kind != tokOp || p.cur().text != "=" {
			return nil, p.errorf("expected '=' in set clause, found %s", p.cur())
		}
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		u.Sets = append(u.Sets, SetClause{Column: col, Expr: e})
		if !p.acceptPunct(",") {
			break
		}
	}
	if p.acceptKeyword("where") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		u.Where = w
	}
	return u, nil
}

// Expression grammar, loosest to tightest: OR, AND, NOT, comparison /
// IS NULL / IN, additive, multiplicative, unary minus, primary.

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("and") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.cur().kind == tokKeyword && p.cur().text == "not" &&
		!(p.peek().kind == tokKeyword && p.peek().text == "exists") {
		p.advance()
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: UnaryNot, X: x}, nil
	}
	return p.parseComparison()
}

var compOps = map[string]BinaryOp{
	"=": OpEq, "<>": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// expr IS [NOT] NULL
	if p.acceptKeyword("is") {
		negate := p.acceptKeyword("not")
		if err := p.expectKeyword("null"); err != nil {
			return nil, err
		}
		return &IsNull{X: l, Negate: negate}, nil
	}
	// expr [NOT] IN ( ... )
	negate := false
	if p.cur().kind == tokKeyword && p.cur().text == "not" &&
		p.peek().kind == tokKeyword && p.peek().text == "in" {
		p.advance()
		negate = true
	}
	if p.acceptKeyword("in") {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		if p.cur().kind == tokKeyword && p.cur().text == "select" {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return &InSelect{X: l, Sub: sub, Negate: negate}, nil
		}
		var vals []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			vals = append(vals, e)
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &InList{X: l, Vals: vals, Negate: negate}, nil
	}
	if negate {
		return nil, p.errorf("expected 'in' after 'not'")
	}
	if p.cur().kind == tokOp {
		op, ok := compOps[p.cur().text]
		if !ok {
			return nil, p.errorf("unknown operator %s", p.cur())
		}
		p.advance()
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &Binary{Op: op, L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op BinaryOp
		switch {
		case p.curPunct("+"):
			op = OpAdd
		case p.curPunct("-"):
			op = OpSub
		default:
			return l, nil
		}
		p.advance()
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op BinaryOp
		switch {
		case p.curPunct("*"):
			op = OpMul
		case p.curPunct("/"):
			op = OpDiv
		case p.curPunct("%"):
			op = OpMod
		default:
			return l, nil
		}
		p.advance()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
}

func (p *parser) curPunct(s string) bool {
	return p.cur().kind == tokPunct && p.cur().text == s
}

func (p *parser) parseUnary() (Expr, error) {
	if p.curPunct("-") {
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: UnaryNeg, X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokInt:
		p.advance()
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer %q", t.text)
		}
		return &Literal{Val: storage.IntV(i)}, nil
	case tokFloat:
		p.advance()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errorf("bad float %q", t.text)
		}
		return &Literal{Val: storage.FloatV(f)}, nil
	case tokString:
		p.advance()
		return &Literal{Val: storage.StringV(t.text)}, nil
	case tokKeyword:
		switch t.text {
		case "null":
			p.advance()
			return &Literal{Val: storage.Null}, nil
		case "true":
			p.advance()
			return &Literal{Val: storage.BoolV(true)}, nil
		case "false":
			p.advance()
			return &Literal{Val: storage.BoolV(false)}, nil
		case "not": // "not exists (...)"
			if p.peek().kind == tokKeyword && p.peek().text == "exists" {
				p.advance()
				p.advance()
				sub, err := p.parseParenSelect()
				if err != nil {
					return nil, err
				}
				return &Exists{Sub: sub, Negate: true}, nil
			}
		case "exists":
			p.advance()
			sub, err := p.parseParenSelect()
			if err != nil {
				return nil, err
			}
			return &Exists{Sub: sub}, nil
		}
		return nil, p.errorf("unexpected keyword %s in expression", t)
	case tokIdent:
		// Aggregate call?
		if aggregates[t.text] && p.peek().kind == tokPunct && p.peek().text == "(" {
			fn := p.advance().text
			p.advance() // (
			var arg Expr
			if p.acceptPunct("*") {
				if fn != "count" {
					return nil, p.errorf("%s(*) is only valid for count", fn)
				}
			} else {
				var err error
				arg, err = p.parseExpr()
				if err != nil {
					return nil, err
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return &Aggregate{Func: fn, Arg: arg}, nil
		}
		return p.parseColRef()
	case tokPunct:
		if t.text == "(" {
			p.advance()
			if p.cur().kind == tokKeyword && p.cur().text == "select" {
				sub, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
				return &ScalarSubquery{Sub: sub}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errorf("unexpected %s in expression", t)
}

// parseColRef parses IDENT [ '.' IDENT ], recognizing the hyphenated
// transition-table qualifiers new-updated.c and old-updated.c.
func (p *parser) parseColRef() (Expr, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	// new-updated.c / old-updated.c: IDENT '-' IDENT '.' IDENT with the
	// middle identifier "updated".
	if (name == "new" || name == "old") &&
		p.curPunct("-") &&
		p.peek().kind == tokIdent && p.peek().text == "updated" &&
		p.at(2).kind == tokPunct && p.at(2).text == "." {
		p.advance() // -
		p.advance() // updated
		p.advance() // .
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &ColRef{Qualifier: name + "-updated", Column: col}, nil
	}
	if name == "new_updated" {
		name = "new-updated"
	}
	if name == "old_updated" {
		name = "old-updated"
	}
	if p.acceptPunct(".") {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &ColRef{Qualifier: name, Column: col}, nil
	}
	return &ColRef{Column: name}, nil
}

// parseParenSelect parses "( select ... )".
func (p *parser) parseParenSelect() (*Select, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	sub, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return sub, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

package parser

import (
	"fmt"
	"strconv"
	"strings"

	"sqlxnf/internal/types"
)

// Parser consumes tokens as it needs them and produces statements: the
// script is never held as a token slice, so a long multi-row INSERT costs
// its AST, not a token per byte or two on top.
type Parser struct {
	src string
	lex Lexer
	// la holds the current token and the lookahead read so far, n of them:
	// the grammar peeks at most two tokens ahead.
	la [3]Token
	n  int
	// err is the lexer's error. The token stream ends where it occurred,
	// and the entry points report it ahead of whatever the grammar made of
	// that end.
	err error
	// litSeq numbers the number/string literal tokens of the statement being
	// parsed, in source order (see Literal.Param). It resets per statement.
	litSeq int
}

// nextLit hands out the next literal ordinal (1-based).
func (p *Parser) nextLit() int {
	p.litSeq++
	return p.litSeq
}

func newParser(src string) *Parser {
	return &Parser{src: src, lex: Lexer{src: src}}
}

// fail returns the lexer's error if the token stream ended on one, else err.
func (p *Parser) fail(err error) error {
	if p.err != nil {
		return p.err
	}
	return err
}

// Parse parses a semicolon-separated script.
func Parse(src string) ([]Statement, error) {
	p := newParser(src)
	var out []Statement
	for {
		for p.matchOp(";") {
		}
		if p.cur().Kind == TokEOF {
			if p.err != nil {
				return nil, p.err
			}
			return out, nil
		}
		p.litSeq = 0
		st, err := p.parseStatement()
		if err != nil {
			return nil, p.fail(err)
		}
		out = append(out, st)
		if !p.matchOp(";") && p.cur().Kind != TokEOF {
			return nil, p.fail(p.errorf("expected ';' or end of input, found %s", p.cur()))
		}
	}
}

// ScriptStmt pairs a parsed statement with its source text.
type ScriptStmt struct {
	Stmt Statement
	Text string
}

// ParseScript parses a semicolon-separated script keeping per-statement
// source text (the engine logs DDL text and stores view bodies verbatim).
func ParseScript(src string) ([]ScriptStmt, error) {
	p := newParser(src)
	var out []ScriptStmt
	for {
		for p.matchOp(";") {
		}
		if p.cur().Kind == TokEOF {
			if p.err != nil {
				return nil, p.err
			}
			return out, nil
		}
		start := p.cur().Off
		p.litSeq = 0
		st, err := p.parseStatement()
		if err != nil {
			return nil, p.fail(err)
		}
		end := p.cur().Off
		if p.cur().Kind == TokEOF {
			end = len(src)
		}
		text := strings.TrimSpace(src[start:end])
		if cv, ok := st.(*CreateViewStmt); ok && cv.Text == "" {
			cv.Text = strings.TrimSpace(src[cv.BodyOff:end])
		}
		out = append(out, ScriptStmt{Stmt: st, Text: text})
		if !p.matchOp(";") && p.cur().Kind != TokEOF {
			return nil, p.fail(p.errorf("expected ';' or end of input, found %s", p.cur()))
		}
	}
}

// ParseOne parses exactly one statement.
func ParseOne(src string) (Statement, error) {
	stmts, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("parser: expected one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

// ParseExprString parses a standalone expression (used by tests).
func ParseExprString(src string) (Expr, error) {
	p := newParser(src)
	e, err := p.parseExpr()
	if err != nil {
		return nil, p.fail(err)
	}
	if p.cur().Kind != TokEOF {
		return nil, p.fail(p.errorf("trailing input after expression: %s", p.cur()))
	}
	if p.err != nil {
		return nil, p.err
	}
	return e, nil
}

// fill lexes until k tokens are buffered. The stream ends in an EOF token
// that every later read repeats; a lexer error ends it the same way.
func (p *Parser) fill(k int) {
	for ; p.n < k; p.n++ {
		if p.n > 0 && p.la[p.n-1].Kind == TokEOF {
			p.la[p.n] = p.la[p.n-1]
			continue
		}
		t, err := p.lex.Next()
		if err != nil {
			p.err = err
			t = Token{Kind: TokEOF, Off: len(p.src)}
		}
		p.la[p.n] = t
	}
}

func (p *Parser) cur() Token {
	p.fill(1)
	return p.la[0]
}

func (p *Parser) peek(n int) Token {
	p.fill(n + 1)
	return p.la[n]
}

func (p *Parser) advance() Token {
	t := p.cur()
	if t.Kind != TokEOF {
		p.n = copy(p.la[:], p.la[1:p.n])
	}
	return t
}

func (p *Parser) errorf(format string, args ...interface{}) error {
	return errorAt(p.src, p.cur().Off, format, args...)
}

func (p *Parser) isKeyword(kw string) bool {
	return p.cur().Kind == TokKeyword && p.cur().Text == kw
}

func (p *Parser) matchKeyword(kw string) bool {
	if p.isKeyword(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.matchKeyword(kw) {
		return p.errorf("expected %s, found %s", kw, p.cur())
	}
	return nil
}

func (p *Parser) isOp(op string) bool {
	return p.cur().Kind == TokOp && p.cur().Text == op
}

func (p *Parser) matchOp(op string) bool {
	if p.isOp(op) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expectOp(op string) error {
	if !p.matchOp(op) {
		return p.errorf("expected %q, found %s", op, p.cur())
	}
	return nil
}

// parseIdent accepts identifiers and non-reserved use of some keywords.
func (p *Parser) parseIdent() (string, error) {
	t := p.cur()
	if t.Kind == TokIdent {
		p.advance()
		return t.Text, nil
	}
	// Aggregate names may double as identifiers in column positions; keep
	// strict: only identifiers.
	return "", p.errorf("expected identifier, found %s", t)
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

func (p *Parser) parseStatement() (Statement, error) {
	t := p.cur()
	if t.Kind != TokKeyword {
		return nil, p.errorf("expected statement, found %s", t)
	}
	switch t.Text {
	case "CREATE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "SELECT":
		return p.parseSelect()
	case "OUT":
		return p.parseXNFQuery()
	case "BEGIN":
		p.advance()
		return &BeginStmt{}, nil
	case "COMMIT":
		p.advance()
		return &CommitStmt{}, nil
	case "ROLLBACK":
		p.advance()
		return &RollbackStmt{}, nil
	case "EXPLAIN":
		p.advance()
		analyze := p.matchKeyword("ANALYZE")
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Target: inner, Analyze: analyze}, nil
	case "ANALYZE":
		p.advance()
		st := &AnalyzeStmt{}
		if p.cur().Kind == TokIdent {
			st.Table = p.advance().Text
		}
		return st, nil
	case "CHECKPOINT":
		p.advance()
		return &CheckpointStmt{}, nil
	default:
		return nil, p.errorf("unexpected keyword %s at statement start", t.Text)
	}
}

func (p *Parser) parseCreate() (Statement, error) {
	p.advance() // CREATE
	switch {
	case p.matchKeyword("TABLE"):
		return p.parseCreateTable()
	case p.matchKeyword("UNIQUE"):
		if err := p.expectKeyword("INDEX"); err != nil {
			return nil, err
		}
		return p.parseCreateIndex(true)
	case p.matchKeyword("INDEX"):
		return p.parseCreateIndex(false)
	case p.matchKeyword("VIEW"):
		return p.parseCreateView()
	default:
		return nil, p.errorf("expected TABLE, INDEX, UNIQUE INDEX or VIEW after CREATE")
	}
}

func (p *Parser) parseCreateTable() (Statement, error) {
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	st := &CreateTableStmt{Name: name}
	for {
		if p.matchKeyword("PRIMARY") {
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			for {
				col, err := p.parseIdent()
				if err != nil {
					return nil, err
				}
				found := false
				for i := range st.Columns {
					if strings.EqualFold(st.Columns[i].Name, col) {
						st.Columns[i].PrimaryKey = true
						st.Columns[i].NotNull = true
						found = true
					}
				}
				if !found {
					return nil, p.errorf("PRIMARY KEY references unknown column %q", col)
				}
				if !p.matchOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
		} else {
			var cd ColumnDef
			if cd.Name, err = p.parseIdent(); err != nil {
				return nil, err
			}
			tt := p.cur()
			if tt.Kind != TokIdent && tt.Kind != TokKeyword {
				return nil, p.errorf("expected type name, found %s", tt)
			}
			cd.TypeName = tt.Text
			p.advance()
			// Optional length like VARCHAR(20): parsed and ignored.
			if p.matchOp("(") {
				if p.cur().Kind != TokNumber {
					return nil, p.errorf("expected length, found %s", p.cur())
				}
				p.advance()
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
			}
			for {
				if p.matchKeyword("NOT") {
					if err := p.expectKeyword("NULL"); err != nil {
						return nil, err
					}
					cd.NotNull = true
				} else if p.matchKeyword("PRIMARY") {
					if err := p.expectKeyword("KEY"); err != nil {
						return nil, err
					}
					cd.PrimaryKey = true
					cd.NotNull = true
				} else {
					break
				}
			}
			st.Columns = append(st.Columns, cd)
		}
		if !p.matchOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	if p.matchKeyword("CLUSTER") {
		if err := p.expectKeyword("FAMILY"); err != nil {
			return nil, err
		}
		if st.Family, err = p.parseIdent(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *Parser) parseCreateIndex(unique bool) (Statement, error) {
	st := &CreateIndexStmt{Unique: unique}
	var err error
	if st.Name, err = p.parseIdent(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	if st.Table, err = p.parseIdent(); err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		st.Columns = append(st.Columns, col)
		if !p.matchOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *Parser) parseCreateView() (Statement, error) {
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	st := &CreateViewStmt{Name: name, BodyOff: p.cur().Off}
	switch {
	case p.isKeyword("SELECT"):
		if st.Select, err = p.parseSelect(); err != nil {
			return nil, err
		}
	case p.isKeyword("OUT"):
		q, err := p.parseXNFQuery()
		if err != nil {
			return nil, err
		}
		st.XNF = q.(*XNFQuery)
	default:
		return nil, p.errorf("expected SELECT or OUT OF in view body, found %s", p.cur())
	}
	return st, nil
}

func (p *Parser) parseDrop() (Statement, error) {
	p.advance() // DROP
	var kind string
	switch {
	case p.matchKeyword("TABLE"):
		kind = "TABLE"
	case p.matchKeyword("INDEX"):
		kind = "INDEX"
	case p.matchKeyword("VIEW"):
		kind = "VIEW"
	default:
		return nil, p.errorf("expected TABLE, INDEX or VIEW after DROP")
	}
	name, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	return &DropStmt{Kind: kind, Name: name}, nil
}

func (p *Parser) parseInsert() (Statement, error) {
	p.advance() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	st := &InsertStmt{}
	var err error
	if st.Table, err = p.parseIdent(); err != nil {
		return nil, err
	}
	if p.isOp("(") {
		p.advance()
		for {
			col, err := p.parseIdent()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, col)
			if !p.matchOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	switch {
	case p.matchKeyword("VALUES"):
		for {
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			var row []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if !p.matchOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			st.Rows = append(st.Rows, row)
			if !p.matchOp(",") {
				break
			}
		}
	case p.isKeyword("SELECT"):
		if st.Select, err = p.parseSelect(); err != nil {
			return nil, err
		}
	default:
		return nil, p.errorf("expected VALUES or SELECT in INSERT")
	}
	return st, nil
}

func (p *Parser) parseUpdate() (Statement, error) {
	p.advance() // UPDATE
	st := &UpdateStmt{}
	var err error
	if st.Table, err = p.parseIdent(); err != nil {
		return nil, err
	}
	if p.cur().Kind == TokIdent {
		st.Alias = p.advance().Text
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		var a Assignment
		if a.Column, err = p.parseIdent(); err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		if a.Value, err = p.parseExpr(); err != nil {
			return nil, err
		}
		st.Set = append(st.Set, a)
		if !p.matchOp(",") {
			break
		}
	}
	if p.matchKeyword("WHERE") {
		if st.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	p.advance() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	st := &DeleteStmt{}
	var err error
	if st.Table, err = p.parseIdent(); err != nil {
		return nil, err
	}
	if p.cur().Kind == TokIdent {
		st.Alias = p.advance().Text
	}
	if p.matchKeyword("WHERE") {
		if st.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

func (p *Parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	st := &SelectStmt{}
	if p.matchKeyword("DISTINCT") {
		st.Distinct = true
	} else {
		p.matchKeyword("ALL")
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		st.Items = append(st.Items, item)
		if !p.matchOp(",") {
			break
		}
	}
	if p.matchKeyword("FROM") {
		for {
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			st.From = append(st.From, ref)
			// JOIN sugar: a JOIN b ON pred → extra From entry + Where conjunct.
			for {
				inner := p.matchKeyword("INNER")
				if !p.matchKeyword("JOIN") {
					if inner {
						return nil, p.errorf("expected JOIN after INNER")
					}
					break
				}
				jref, err := p.parseTableRef()
				if err != nil {
					return nil, err
				}
				st.From = append(st.From, jref)
				if err := p.expectKeyword("ON"); err != nil {
					return nil, err
				}
				pred, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				st.Where = conjoin(st.Where, pred)
			}
			if !p.matchOp(",") {
				break
			}
		}
	}
	if p.matchKeyword("WHERE") {
		pred, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = conjoin(st.Where, pred)
	}
	if p.matchKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, e)
			if !p.matchOp(",") {
				break
			}
		}
	}
	if p.matchKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Having = e
	}
	if p.matchKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.matchKeyword("DESC") {
				item.Desc = true
			} else {
				p.matchKeyword("ASC")
			}
			st.OrderBy = append(st.OrderBy, item)
			if !p.matchOp(",") {
				break
			}
		}
	}
	if p.matchKeyword("LIMIT") {
		if p.cur().Kind != TokNumber {
			return nil, p.errorf("expected number after LIMIT")
		}
		n, err := strconv.ParseInt(p.advance().Text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad LIMIT value: %v", err)
		}
		st.Limit = &n
	}
	return st, nil
}

// NumberValue converts a number token's text to a typed value exactly as the
// parser does: a '.' or exponent makes it a FLOAT, otherwise an INTEGER. The
// engine's literal extractor shares it so text-level parameter extraction and
// AST literals can never disagree on a value.
func NumberValue(text string) (types.Value, error) {
	if strings.ContainsAny(text, ".eE") {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return types.Null(), err
		}
		return types.NewFloat(f), nil
	}
	n, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return types.Null(), err
	}
	return types.NewInt(n), nil
}

func conjoin(a, b Expr) Expr {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &BinaryExpr{Op: "AND", L: a, R: b}
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	if p.matchOp("*") {
		return SelectItem{Star: true}, nil
	}
	// t.* pattern.
	if p.cur().Kind == TokIdent && p.peek(1).Kind == TokOp && p.peek(1).Text == "." &&
		p.peek(2).Kind == TokOp && p.peek(2).Text == "*" {
		q := p.advance().Text
		p.advance() // .
		p.advance() // *
		return SelectItem{Star: true, StarQualifier: q}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.matchKeyword("AS") {
		if item.Alias, err = p.parseIdent(); err != nil {
			return SelectItem{}, err
		}
	} else if p.cur().Kind == TokIdent {
		item.Alias = p.advance().Text
	}
	return item, nil
}

func (p *Parser) parseTableRef() (TableRef, error) {
	var ref TableRef
	if p.matchOp("(") {
		sub, err := p.parseSelect()
		if err != nil {
			return ref, err
		}
		if err := p.expectOp(")"); err != nil {
			return ref, err
		}
		ref.Sub = sub
		p.matchKeyword("AS")
		alias, err := p.parseIdent()
		if err != nil {
			return ref, p.errorf("derived table needs an alias")
		}
		ref.Alias = alias
		return ref, nil
	}
	name, err := p.parseIdent()
	if err != nil {
		return ref, err
	}
	ref.Table = name
	if p.matchKeyword("AS") {
		if ref.Alias, err = p.parseIdent(); err != nil {
			return ref, err
		}
	} else if p.cur().Kind == TokIdent {
		ref.Alias = p.advance().Text
	}
	return ref, nil
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)
// ---------------------------------------------------------------------------

func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.matchKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.matchKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.matchKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", E: e}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.matchKeyword("IS") {
		neg := p.matchKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{E: l, Negate: neg}, nil
	}
	// [NOT] IN / [NOT] BETWEEN / [NOT] LIKE
	neg := false
	if p.isKeyword("NOT") && (p.peek(1).Text == "IN" || p.peek(1).Text == "BETWEEN" || p.peek(1).Text == "LIKE") {
		p.advance()
		neg = true
	}
	if p.matchKeyword("IN") {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.matchOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &InExpr{E: l, List: list, Negate: neg}, nil
	}
	if p.matchKeyword("BETWEEN") {
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		rng := Expr(&BinaryExpr{Op: "AND",
			L: &BinaryExpr{Op: ">=", L: l, R: lo},
			R: &BinaryExpr{Op: "<=", L: l, R: hi}})
		if neg {
			rng = &UnaryExpr{Op: "NOT", E: rng}
		}
		return rng, nil
	}
	if p.matchKeyword("LIKE") {
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		like := Expr(&BinaryExpr{Op: "LIKE", L: l, R: r})
		if neg {
			like = &UnaryExpr{Op: "NOT", E: like}
		}
		return like, nil
	}
	for {
		op := ""
		if p.cur().Kind == TokOp {
			switch p.cur().Text {
			case "=", "<>", "!=", "<", "<=", ">", ">=":
				op = p.cur().Text
				if op == "!=" {
					op = "<>"
				}
			}
		}
		if op == "" {
			return l, nil
		}
		p.advance()
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *Parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		op := ""
		if p.cur().Kind == TokOp {
			switch p.cur().Text {
			case "+", "-", "||":
				op = p.cur().Text
			}
		}
		if op == "" {
			return l, nil
		}
		p.advance()
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op := ""
		if p.cur().Kind == TokOp {
			switch p.cur().Text {
			case "*", "/", "%":
				op = p.cur().Text
			}
		}
		if op == "" {
			return l, nil
		}
		p.advance()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.matchOp("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", E: e}, nil
	}
	if p.matchOp("+") {
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokNumber:
		p.advance()
		v, err := NumberValue(t.Text)
		if err != nil {
			return nil, p.errorf("bad number %q: %v", t.Text, err)
		}
		return &Literal{Val: v, Param: p.nextLit()}, nil
	case t.Kind == TokString:
		p.advance()
		return &Literal{Val: types.NewString(t.Text), Param: p.nextLit()}, nil
	case t.Kind == TokKeyword && t.Text == "NULL":
		p.advance()
		return &Literal{Val: types.Null()}, nil
	case t.Kind == TokKeyword && t.Text == "TRUE":
		p.advance()
		return &Literal{Val: types.NewBool(true)}, nil
	case t.Kind == TokKeyword && t.Text == "FALSE":
		p.advance()
		return &Literal{Val: types.NewBool(false)}, nil
	case t.Kind == TokKeyword && t.Text == "EXISTS":
		p.advance()
		return p.parseExistsTail(false)
	case t.Kind == TokKeyword && isAggregateName(t.Text):
		return p.parseFuncCall()
	case t.Kind == TokOp && t.Text == "(":
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.Kind == TokIdent:
		return p.parseIdentExpr()
	default:
		return nil, p.errorf("unexpected token %s in expression", t)
	}
}

func isAggregateName(s string) bool {
	switch s {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

func (p *Parser) parseFuncCall() (Expr, error) {
	name := p.advance().Text
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	f := &FuncExpr{Name: name}
	if p.matchOp("*") {
		f.Star = true
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return f, nil
	}
	if p.matchKeyword("DISTINCT") {
		f.Distinct = true
	}
	arg, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if pe, ok := arg.(*PathExpr); ok {
		f.PathArg = pe
	} else {
		f.Args = append(f.Args, arg)
		for p.matchOp(",") {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			f.Args = append(f.Args, a)
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return f, nil
}

// parseExistsTail handles EXISTS (SELECT ...) and EXISTS path-expression.
func (p *Parser) parseExistsTail(negate bool) (Expr, error) {
	if p.isOp("(") && p.peek(1).Kind == TokKeyword && p.peek(1).Text == "SELECT" {
		p.advance() // (
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &ExistsExpr{Sub: sub, Negate: negate}, nil
	}
	// Path form: anchor->step->...
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	pe, ok := e.(*PathExpr)
	if !ok {
		return nil, p.errorf("EXISTS requires a subquery or a path expression")
	}
	return &ExistsExpr{Path: pe, Negate: negate}, nil
}

// parseIdentExpr parses column refs and path expressions starting with an
// identifier.
func (p *Parser) parseIdentExpr() (Expr, error) {
	name := p.advance().Text
	var base Expr
	if p.matchOp(".") {
		col, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		base = &ColumnRef{Qualifier: name, Name: col}
	} else {
		base = &ColumnRef{Name: name}
	}
	if !p.isOp("->") {
		return base, nil
	}
	// Path expression: the anchor must be an unqualified name.
	cr := base.(*ColumnRef)
	if cr.Qualifier != "" {
		return nil, p.errorf("path expression anchor must be a plain name, not %s", cr)
	}
	pe := &PathExpr{Anchor: cr.Name}
	for p.matchOp("->") {
		step, err := p.parsePathStep()
		if err != nil {
			return nil, err
		}
		pe.Steps = append(pe.Steps, step)
	}
	return pe, nil
}

// parsePathStep parses one hop: name, or (Name var WHERE pred).
func (p *Parser) parsePathStep() (PathStep, error) {
	if p.matchOp("(") {
		var s PathStep
		var err error
		if s.Name, err = p.parseIdent(); err != nil {
			return s, err
		}
		if p.cur().Kind == TokIdent {
			s.Var = p.advance().Text
		}
		if p.matchKeyword("WHERE") {
			if s.Pred, err = p.parseExpr(); err != nil {
				return s, err
			}
		}
		if err := p.expectOp(")"); err != nil {
			return s, err
		}
		return s, nil
	}
	name, err := p.parseIdent()
	if err != nil {
		return PathStep{}, err
	}
	return PathStep{Name: name}, nil
}

// ---------------------------------------------------------------------------
// XNF composite object constructor
// ---------------------------------------------------------------------------

func (p *Parser) parseXNFQuery() (Statement, error) {
	if err := p.expectKeyword("OUT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("OF"); err != nil {
		return nil, err
	}
	q := &XNFQuery{}
	for {
		src, err := p.parseXNFSource()
		if err != nil {
			return nil, err
		}
		q.Sources = append(q.Sources, src)
		if !p.matchOp(",") {
			break
		}
	}
	if p.matchKeyword("WHERE") {
		for {
			r, err := p.parseXNFRestriction()
			if err != nil {
				return nil, err
			}
			q.Restrictions = append(q.Restrictions, r)
			if !p.matchOp(",") {
				break
			}
		}
	}
	switch {
	case p.matchKeyword("TAKE"):
		if p.matchOp("*") {
			q.TakeAll = true
			return q, nil
		}
		for {
			item, err := p.parseTakeItem()
			if err != nil {
				return nil, err
			}
			q.Take = append(q.Take, item)
			if !p.matchOp(",") {
				break
			}
		}
		return q, nil
	case p.matchKeyword("DELETE"):
		if err := p.expectOp("*"); err != nil {
			return nil, err
		}
		q.Delete = true
		return q, nil
	default:
		return nil, p.errorf("XNF query must end with TAKE or DELETE, found %s", p.cur())
	}
}

func (p *Parser) parseXNFSource() (XNFSource, error) {
	var s XNFSource
	name, err := p.parseIdent()
	if err != nil {
		return s, err
	}
	s.Name = name
	if !p.matchKeyword("AS") {
		s.ViewRef = true
		return s, nil
	}
	if p.matchOp("(") {
		switch {
		case p.isKeyword("SELECT"):
			if s.Select, err = p.parseSelect(); err != nil {
				return s, err
			}
		case p.isKeyword("RELATE"):
			rc, err := p.parseRelate()
			if err != nil {
				return s, err
			}
			s.Relate = rc
		default:
			return s, p.errorf("expected SELECT or RELATE after '(', found %s", p.cur())
		}
		if err := p.expectOp(")"); err != nil {
			return s, err
		}
		return s, nil
	}
	// Short notation: Xemp AS EMP.
	if s.TableName, err = p.parseIdent(); err != nil {
		return s, err
	}
	return s, nil
}

func (p *Parser) parseRelate() (*RelateClause, error) {
	if err := p.expectKeyword("RELATE"); err != nil {
		return nil, err
	}
	rc := &RelateClause{}
	var err error
	if rc.Parent, err = p.parseIdent(); err != nil {
		return nil, err
	}
	if p.matchKeyword("AS") {
		if rc.ParentRole, err = p.parseIdent(); err != nil {
			return nil, err
		}
	}
	if err := p.expectOp(","); err != nil {
		return nil, err
	}
	if rc.Child, err = p.parseIdent(); err != nil {
		return nil, err
	}
	if p.matchKeyword("AS") {
		if rc.ChildRole, err = p.parseIdent(); err != nil {
			return nil, err
		}
	}
	if p.matchKeyword("WITH") {
		if err := p.expectKeyword("ATTRIBUTES"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			attr := RelAttr{Expr: e}
			if p.matchKeyword("AS") {
				if attr.Name, err = p.parseIdent(); err != nil {
					return nil, err
				}
			} else if cr, ok := e.(*ColumnRef); ok {
				attr.Name = cr.Name
			} else {
				return nil, p.errorf("relationship attribute needs AS name")
			}
			rc.Attrs = append(rc.Attrs, attr)
			if !p.matchOp(",") {
				break
			}
		}
	}
	if p.matchKeyword("USING") {
		for {
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			rc.Using = append(rc.Using, ref)
			if !p.matchOp(",") {
				break
			}
		}
	}
	if p.matchKeyword("WHERE") {
		if rc.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return rc, nil
}

// parseXNFRestriction parses: target [var | (v1, v2)] SUCH THAT pred.
func (p *Parser) parseXNFRestriction() (XNFRestriction, error) {
	var r XNFRestriction
	var err error
	if r.Target, err = p.parseIdent(); err != nil {
		return r, err
	}
	if p.matchOp("(") {
		for {
			v, err := p.parseIdent()
			if err != nil {
				return r, err
			}
			r.Vars = append(r.Vars, v)
			if !p.matchOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return r, err
		}
	} else if p.cur().Kind == TokIdent {
		r.Vars = append(r.Vars, p.advance().Text)
	}
	if err := p.expectKeyword("SUCH"); err != nil {
		return r, err
	}
	if err := p.expectKeyword("THAT"); err != nil {
		return r, err
	}
	if r.Pred, err = p.parseExpr(); err != nil {
		return r, err
	}
	return r, nil
}

func (p *Parser) parseTakeItem() (TakeItem, error) {
	var item TakeItem
	var err error
	if item.Name, err = p.parseIdent(); err != nil {
		return item, err
	}
	if p.matchOp("(") {
		if p.matchOp("*") {
			item.AllCols = true
		} else {
			for {
				col, err := p.parseIdent()
				if err != nil {
					return item, err
				}
				item.Cols = append(item.Cols, col)
				if !p.matchOp(",") {
					break
				}
			}
		}
		if err := p.expectOp(")"); err != nil {
			return item, err
		}
		return item, nil
	}
	item.AllCols = true
	return item, nil
}

package parser

import (
	"strings"
	"testing"

	"sqlxnf/internal/types"
)

func mustParseOne(t *testing.T, src string) Statement {
	t.Helper()
	st, err := ParseOne(src)
	if err != nil {
		t.Fatalf("ParseOne(%q): %v", src, err)
	}
	return st
}

func TestLexerBasics(t *testing.T) {
	toks, err := Tokenize("SELECT a, b2 FROM t WHERE x >= 1.5 -- comment\nAND s = 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, tok := range toks {
		if tok.Kind == TokEOF {
			break
		}
		kinds = append(kinds, tok.Text)
	}
	want := []string{"SELECT", "a", ",", "b2", "FROM", "t", "WHERE", "x", ">=", "1.5", "AND", "s", "=", "it's"}
	if strings.Join(kinds, "|") != strings.Join(want, "|") {
		t.Errorf("tokens = %v", kinds)
	}
}

func TestLexerArrowAndQuotedIdent(t *testing.T) {
	toks, err := Tokenize(`d->employment->"ALL-DEPS"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Text != "->" || toks[3].Text != "->" {
		t.Errorf("arrows not lexed: %v", toks)
	}
	if toks[4].Kind != TokIdent || toks[4].Text != "ALL-DEPS" {
		t.Errorf("quoted ident = %+v", toks[4])
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := Tokenize("'unterminated"); err == nil {
		t.Error("unterminated string should fail")
	}
	if _, err := Tokenize(`"unterminated`); err == nil {
		t.Error("unterminated quoted ident should fail")
	}
	if _, err := Tokenize("a ? b"); err == nil {
		t.Error("stray character should fail")
	}
	if _, err := Tokenize("a\n  é #"); err == nil || !strings.Contains(err.Error(), "line 2 col 6") {
		t.Errorf("stray character error = %v, want it placed at line 2 col 6", err)
	}
}

func TestLexerBlockComment(t *testing.T) {
	toks, err := Tokenize("a /* hi \n there */ b")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 || toks[0].Text != "a" || toks[1].Text != "b" {
		t.Errorf("tokens = %v", toks)
	}
}

// TestLexerUTF8Identifiers: identifiers decode as UTF-8 runes, keywords
// fold ASCII case only, and bytes that are no valid UTF-8 letter are
// rejected rather than read as Latin-1.
func TestLexerUTF8Identifiers(t *testing.T) {
	for _, src := range []string{"prénom", "fête", "ſelect", "x_é2"} {
		toks, err := Tokenize(src)
		if err != nil {
			t.Errorf("%q: %v", src, err)
			continue
		}
		if len(toks) != 2 || toks[0].Kind != TokIdent || toks[0].Text != src {
			t.Errorf("%q lexed as %+v, want one identifier", src, toks)
		}
	}
	if _, err := Tokenize("a\xc3"); err == nil {
		t.Error("a lone UTF-8 lead byte must not lex as part of an identifier")
	}
	if _, err := Tokenize("\xc3"); err == nil {
		t.Error("a lone UTF-8 lead byte must not lex as an identifier")
	}
}

func TestParseCreateTable(t *testing.T) {
	st := mustParseOne(t, `CREATE TABLE DEPT (
		dno INT NOT NULL PRIMARY KEY,
		dname VARCHAR(20),
		budget FLOAT,
		dmgrno INT
	) CLUSTER FAMILY orgunit`).(*CreateTableStmt)
	if st.Name != "DEPT" || len(st.Columns) != 4 {
		t.Fatalf("stmt = %+v", st)
	}
	if !st.Columns[0].PrimaryKey || !st.Columns[0].NotNull {
		t.Error("pk flags missing")
	}
	if st.Family != "orgunit" {
		t.Errorf("family = %q", st.Family)
	}
	// Table-level PRIMARY KEY.
	st2 := mustParseOne(t, "CREATE TABLE T (a INT, b INT, PRIMARY KEY (a, b))").(*CreateTableStmt)
	if !st2.Columns[0].PrimaryKey || !st2.Columns[1].PrimaryKey {
		t.Error("table-level pk not applied")
	}
}

func TestParseCreateIndexAndDrop(t *testing.T) {
	st := mustParseOne(t, "CREATE UNIQUE INDEX emp_eno ON EMP (eno)").(*CreateIndexStmt)
	if !st.Unique || st.Table != "EMP" || st.Columns[0] != "eno" {
		t.Fatalf("stmt = %+v", st)
	}
	d := mustParseOne(t, "DROP VIEW ALL_DEPS").(*DropStmt)
	if d.Kind != "VIEW" || d.Name != "ALL_DEPS" {
		t.Fatalf("drop = %+v", d)
	}
}

func TestParseInsert(t *testing.T) {
	st := mustParseOne(t, "INSERT INTO DEPT (dno, dname) VALUES (1, 'toys'), (2, 'tools')").(*InsertStmt)
	if st.Table != "DEPT" || len(st.Rows) != 2 || len(st.Columns) != 2 {
		t.Fatalf("stmt = %+v", st)
	}
	lit := st.Rows[1][1].(*Literal)
	if lit.Val.Str() != "tools" {
		t.Error("literal wrong")
	}
	sel := mustParseOne(t, "INSERT INTO D2 SELECT * FROM DEPT").(*InsertStmt)
	if sel.Select == nil {
		t.Error("INSERT..SELECT not parsed")
	}
}

func TestParseUpdateDelete(t *testing.T) {
	u := mustParseOne(t, "UPDATE EMP e SET sal = sal * 1.1, bonus = NULL WHERE e.dno = 5").(*UpdateStmt)
	if u.Alias != "e" || len(u.Set) != 2 || u.Where == nil {
		t.Fatalf("update = %+v", u)
	}
	d := mustParseOne(t, "DELETE FROM EMP WHERE sal < 100").(*DeleteStmt)
	if d.Table != "EMP" || d.Where == nil {
		t.Fatalf("delete = %+v", d)
	}
}

func TestParseSelectFull(t *testing.T) {
	st := mustParseOne(t, `SELECT DISTINCT d.dno, COUNT(*) AS n, SUM(e.sal) total
		FROM DEPT d, EMP e
		WHERE d.dno = e.edno AND e.sal > 100
		GROUP BY d.dno HAVING COUNT(*) > 2
		ORDER BY n DESC, d.dno LIMIT 10`).(*SelectStmt)
	if !st.Distinct || len(st.Items) != 3 || len(st.From) != 2 {
		t.Fatalf("select = %+v", st)
	}
	if st.Items[1].Alias != "n" || st.Items[2].Alias != "total" {
		t.Error("aliases wrong")
	}
	if len(st.GroupBy) != 1 || st.Having == nil {
		t.Error("group/having wrong")
	}
	if len(st.OrderBy) != 2 || !st.OrderBy[0].Desc || st.OrderBy[1].Desc {
		t.Error("order wrong")
	}
	if st.Limit == nil || *st.Limit != 10 {
		t.Error("limit wrong")
	}
}

func TestParseJoinSugar(t *testing.T) {
	st := mustParseOne(t, "SELECT * FROM a JOIN b ON a.x = b.x INNER JOIN c ON b.y = c.y WHERE a.z = 1").(*SelectStmt)
	if len(st.From) != 3 {
		t.Fatalf("from = %+v", st.From)
	}
	// All three predicates conjoined.
	s := st.Where.String()
	for _, frag := range []string{"a.x = b.x", "b.y = c.y", "a.z = 1"} {
		if !strings.Contains(s, frag) {
			t.Errorf("where %q missing %q", s, frag)
		}
	}
}

func TestParseDerivedTable(t *testing.T) {
	st := mustParseOne(t, "SELECT * FROM (SELECT dno FROM DEPT) d WHERE d.dno > 1").(*SelectStmt)
	if st.From[0].Sub == nil || st.From[0].Alias != "d" {
		t.Fatalf("derived = %+v", st.From[0])
	}
	if _, err := ParseOne("SELECT * FROM (SELECT dno FROM DEPT)"); err == nil {
		t.Error("derived table without alias should fail")
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	e, err := ParseExprString("a + b * c - d")
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "((a + (b * c)) - d)" {
		t.Errorf("precedence: %s", e)
	}
	e, _ = ParseExprString("NOT a = 1 AND b = 2 OR c = 3")
	if e.String() != "(((NOT (a = 1)) AND (b = 2)) OR (c = 3))" {
		t.Errorf("boolean precedence: %s", e)
	}
	e, _ = ParseExprString("x BETWEEN 1 AND 5")
	if e.String() != "((x >= 1) AND (x <= 5))" {
		t.Errorf("between desugar: %s", e)
	}
	e, _ = ParseExprString("-x + 3")
	if e.String() != "((- x) + 3)" {
		t.Errorf("unary minus: %s", e)
	}
}

func TestParseInIsNull(t *testing.T) {
	e, _ := ParseExprString("x IN (1, 2, 3)")
	if _, ok := e.(*InExpr); !ok {
		t.Errorf("IN parse: %T", e)
	}
	e, _ = ParseExprString("x NOT IN (1)")
	if in, ok := e.(*InExpr); !ok || !in.Negate {
		t.Errorf("NOT IN parse: %s", e)
	}
	e, _ = ParseExprString("x IS NOT NULL")
	if n, ok := e.(*IsNullExpr); !ok || !n.Negate {
		t.Errorf("IS NOT NULL parse: %s", e)
	}
	e, _ = ParseExprString("NULL")
	if l, ok := e.(*Literal); !ok || !l.Val.IsNull() {
		t.Errorf("NULL literal parse: %s", e)
	}
}

func TestParseNumbers(t *testing.T) {
	e, _ := ParseExprString("1.5e3")
	if l := e.(*Literal); l.Val.Kind() != types.KindFloat || l.Val.Float() != 1500 {
		t.Errorf("float literal: %v", l.Val)
	}
	e, _ = ParseExprString("42")
	if l := e.(*Literal); l.Val.Kind() != types.KindInt || l.Val.Int() != 42 {
		t.Errorf("int literal: %v", l.Val)
	}
}

func TestParsePathExpressions(t *testing.T) {
	// Full form from the paper, §3.5.
	e, err := ParseExprString("d->employment->Xemp->projmanagement->Xproj")
	if err != nil {
		t.Fatal(err)
	}
	pe := e.(*PathExpr)
	if pe.Anchor != "d" || len(pe.Steps) != 4 {
		t.Fatalf("path = %+v", pe)
	}
	// Reduced form.
	e, _ = ParseExprString("d->employment->projmanagement")
	if len(e.(*PathExpr).Steps) != 2 {
		t.Error("reduced path steps")
	}
	// Qualified step.
	e, err = ParseExprString("d->employment->(Xemp e WHERE e.sal < 2000)->projmanagement->Xproj")
	if err != nil {
		t.Fatal(err)
	}
	pe = e.(*PathExpr)
	q := pe.Steps[1]
	if q.Name != "Xemp" || q.Var != "e" || q.Pred == nil {
		t.Fatalf("qualified step = %+v", q)
	}
	// COUNT over a path.
	e, _ = ParseExprString("COUNT(d->employment->projmanagement) > 2")
	be := e.(*BinaryExpr)
	f := be.L.(*FuncExpr)
	if f.PathArg == nil || f.Name != "COUNT" {
		t.Fatalf("count path = %+v", f)
	}
	// EXISTS over a path with qualified steps (paper example).
	e, err = ParseExprString(`EXISTS d->employment->(Xemp e WHERE e.descr = 'staff')->projmanagement->(Xproj p WHERE p.budget > d.budget)`)
	if err != nil {
		t.Fatal(err)
	}
	ex := e.(*ExistsExpr)
	if ex.Path == nil || len(ex.Path.Steps) != 4 {
		t.Fatalf("exists path = %+v", ex)
	}
}

func TestParseExistsSubquery(t *testing.T) {
	e, err := ParseExprString("EXISTS (SELECT 1 FROM EMP WHERE edno = dno)")
	if err != nil {
		t.Fatal(err)
	}
	ex := e.(*ExistsExpr)
	if ex.Sub == nil {
		t.Fatal("subquery missing")
	}
	e, _ = ParseExprString("NOT EXISTS (SELECT 1 FROM EMP)")
	if u, ok := e.(*UnaryExpr); !ok || u.Op != "NOT" {
		t.Errorf("NOT EXISTS: %s", e)
	}
}

func TestParseXNFIntroductoryExample(t *testing.T) {
	// The §3.1 introductory query, verbatim modulo identifier style.
	src := `OUT OF
		Xdept AS (SELECT * FROM DEPT WHERE loc = 'NY'),
		Xemp AS (SELECT * FROM EMP),
		Xproj AS (SELECT * FROM PROJ),
		employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno),
		ownership AS (RELATE Xdept, Xproj WHERE Xdept.dno = Xproj.pdno)
	TAKE *`
	q := mustParseOne(t, src).(*XNFQuery)
	if len(q.Sources) != 5 || !q.TakeAll || q.Delete {
		t.Fatalf("query = %+v", q)
	}
	if q.Sources[0].Select == nil {
		t.Error("Xdept should be a SELECT source")
	}
	emp := q.Sources[3]
	if emp.Relate == nil || emp.Relate.Parent != "Xdept" || emp.Relate.Child != "Xemp" {
		t.Fatalf("employment = %+v", emp.Relate)
	}
	if emp.Relate.Where == nil {
		t.Error("relate predicate missing")
	}
}

func TestParseXNFShortFormAndViewRef(t *testing.T) {
	q := mustParseOne(t, `OUT OF ALL_DEPS,
		membership AS (RELATE Xproj, Xemp
			WITH ATTRIBUTES ep.percentage
			USING EMPPROJ ep
			WHERE Xproj.pno = ep.eppno AND Xemp.eno = ep.epeno)
	TAKE *`).(*XNFQuery)
	if !q.Sources[0].ViewRef || q.Sources[0].Name != "ALL_DEPS" {
		t.Fatalf("view ref = %+v", q.Sources[0])
	}
	rc := q.Sources[1].Relate
	if len(rc.Attrs) != 1 || rc.Attrs[0].Name != "percentage" {
		t.Fatalf("attrs = %+v", rc.Attrs)
	}
	if len(rc.Using) != 1 || rc.Using[0].Table != "EMPPROJ" || rc.Using[0].Alias != "ep" {
		t.Fatalf("using = %+v", rc.Using)
	}
	// Short form.
	q2 := mustParseOne(t, "OUT OF Xemp AS EMP, Xdept AS DEPT TAKE *").(*XNFQuery)
	if q2.Sources[0].TableName != "EMP" {
		t.Fatalf("short form = %+v", q2.Sources[0])
	}
}

func TestParseXNFRestrictions(t *testing.T) {
	// Node restriction with variable.
	q := mustParseOne(t, "OUT OF ALL_DEPS WHERE Xemp e SUCH THAT e.sal < 2000 TAKE *").(*XNFQuery)
	r := q.Restrictions[0]
	if r.Target != "Xemp" || len(r.Vars) != 1 || r.Vars[0] != "e" {
		t.Fatalf("restriction = %+v", r)
	}
	// Edge restriction with pair.
	q = mustParseOne(t, "OUT OF ALL_DEPS WHERE employment (d, e) SUCH THAT e.sal < d.budget/100 TAKE *").(*XNFQuery)
	r = q.Restrictions[0]
	if r.Target != "employment" || len(r.Vars) != 2 {
		t.Fatalf("edge restriction = %+v", r)
	}
	// Unbound node restriction (paper Fig. 5 query).
	q = mustParseOne(t, `OUT OF EXT_ALL_DEPS_ORG WHERE Xdept SUCH THAT loc = 'NY'
		TAKE Xdept(*), employment, Xemp(*), projmanagement, membership(*), Xproj(*)`).(*XNFQuery)
	if len(q.Restrictions[0].Vars) != 0 {
		t.Error("unbound restriction should have no vars")
	}
	if len(q.Take) != 6 || q.TakeAll {
		t.Fatalf("take = %+v", q.Take)
	}
	if q.Take[1].Name != "employment" || !q.Take[1].AllCols {
		t.Errorf("bare take item = %+v", q.Take[1])
	}
}

func TestParseXNFProjectionAndDelete(t *testing.T) {
	q := mustParseOne(t, `OUT OF ALL_DEPS
		WHERE employment (d, e) SUCH THAT e.sal < 2000
		TAKE Xdept(*), Xemp(*), employment`).(*XNFQuery)
	if len(q.Take) != 3 {
		t.Fatalf("take = %+v", q.Take)
	}
	// CO-level DELETE (§3.7).
	q = mustParseOne(t, "OUT OF ALL_DEPS WHERE Xemp e SUCH THAT e.sal < 2000 DELETE *").(*XNFQuery)
	if !q.Delete {
		t.Fatal("delete flag missing")
	}
}

func TestParseXNFViewsOverViews(t *testing.T) {
	v := mustParseOne(t, `CREATE VIEW EXT_ALL_DEPS_ORG AS
		OUT OF ALL_DEPS_ORG,
			projmanagement AS (RELATE Xemp, Xproj WHERE Xemp.eno = Xproj.pmgrno)
		TAKE *`).(*CreateViewStmt)
	if v.XNF == nil || v.Select != nil {
		t.Fatal("view body should be XNF")
	}
	if v.XNF.Sources[0].Name != "ALL_DEPS_ORG" || !v.XNF.Sources[0].ViewRef {
		t.Fatalf("sources = %+v", v.XNF.Sources)
	}
	// SQL view too.
	v2 := mustParseOne(t, "CREATE VIEW RICH AS SELECT * FROM EMP WHERE sal > 100").(*CreateViewStmt)
	if v2.Select == nil {
		t.Fatal("sql view body missing")
	}
}

func TestParseRelateRoles(t *testing.T) {
	q := mustParseOne(t, `OUT OF Xemp AS EMP,
		manages AS (RELATE Xemp AS manager, Xemp AS reportsto WHERE manager.eno = reportsto.mgrno)
		TAKE *`).(*XNFQuery)
	rc := q.Sources[1].Relate
	if rc.ParentRole != "manager" || rc.ChildRole != "reportsto" {
		t.Fatalf("roles = %+v", rc)
	}
}

func TestParseCountPathInXNFQuery(t *testing.T) {
	// §3.5 query with COUNT over a path inside a node restriction.
	q := mustParseOne(t, `OUT OF EXT_ALL_DEPS_ORG
		WHERE Xdept d SUCH THAT COUNT(d->employment->projmanagement) > 2 AND d.budget > 1000000
		TAKE *`).(*XNFQuery)
	pred := q.Restrictions[0].Pred.(*BinaryExpr)
	if pred.Op != "AND" {
		t.Fatalf("pred = %s", pred)
	}
}

func TestParseTransactionsAndExplain(t *testing.T) {
	if _, ok := mustParseOne(t, "BEGIN").(*BeginStmt); !ok {
		t.Error("BEGIN")
	}
	if _, ok := mustParseOne(t, "COMMIT").(*CommitStmt); !ok {
		t.Error("COMMIT")
	}
	if _, ok := mustParseOne(t, "ROLLBACK").(*RollbackStmt); !ok {
		t.Error("ROLLBACK")
	}
	ex := mustParseOne(t, "EXPLAIN SELECT * FROM T").(*ExplainStmt)
	if _, ok := ex.Target.(*SelectStmt); !ok {
		t.Error("EXPLAIN target")
	}
}

func TestParseScript(t *testing.T) {
	stmts, err := Parse("CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements", len(stmts))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"SELECT",                        // missing items
		"SELECT * FROM",                 // missing table
		"CREATE TABLE t",                // missing columns
		"INSERT INTO t VALUES",          // missing row
		"OUT OF TAKE *",                 // missing sources... 'TAKE' is a keyword, can't be a source
		"OUT OF x AS (RELATE a) TAKE *", // relate needs two partners
		"OUT OF x AS EMP",               // missing TAKE/DELETE
		"SELECT * FROM t WHERE",         // missing predicate
		"UPDATE t SET",                  // missing assignment
		"DELETE t",                      // missing FROM
		"x -> 5",                        // bad path step... parsed as statement start: not keyword
	}
	for _, src := range bad {
		if _, err := ParseOne(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestStringRenderings(t *testing.T) {
	q := mustParseOne(t, "OUT OF ALL_DEPS WHERE Xemp e SUCH THAT e.sal < 1 TAKE Xdept").(*XNFQuery)
	if s := q.String(); !strings.Contains(s, "OUT OF ALL_DEPS") || !strings.Contains(s, "TAKE Xdept") {
		t.Errorf("XNFQuery.String = %q", s)
	}
	sel := mustParseOne(t, "SELECT a AS x FROM t u WHERE a = 1").(*SelectStmt)
	if s := sel.String(); !strings.Contains(s, "SELECT a AS x FROM t u WHERE") {
		t.Errorf("SelectStmt.String = %q", s)
	}
	e, _ := ParseExprString("d->employment->(Xemp e WHERE e.sal < 2000)")
	if s := e.String(); !strings.Contains(s, "d->employment->(Xemp e WHERE") {
		t.Errorf("PathExpr.String = %q", s)
	}
}

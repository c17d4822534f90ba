package engine

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"sqlxnf/internal/parser"
	"sqlxnf/internal/types"
)

// FuzzStmtKey holds the plan-cache key (planKey) to the parser on pairs of
// arbitrary statements:
//
//  1. Equal keys with equal binding counts — the fast path's hit
//     condition — mean ParseScript yields the same statements, apart from
//     the bound literal values (and identifier case, which the catalog
//     ignores). A key that merged two different statements would serve one
//     the other's plan.
//  2. Every parser Literal.Param ordinal k of a parameterized statement
//     satisfies binds[k-1] == the literal's value: the parser and the key
//     builder count the same literal tokens and both skip the LIMIT count,
//     so a binding always lands in its own slot.
//
// Run with `go test -fuzz FuzzStmtKey ./internal/engine` to explore; the
// seed corpus runs as part of every normal `go test`.
func FuzzStmtKey(f *testing.F) {
	seeds := [][2]string{
		// Differ only by the newline that ends a `--` comment.
		{"SELECT COUNT(*) FROM EMP --c\nWHERE sal > 1400", "SELECT COUNT(*) FROM EMP --c WHERE sal > 1400"},
		{"SELECT a FROM T --c\nWHERE b = 1", "SELECT a FROM T --c WHERE b = 1"},
		{"SELECT dname FROM DEPT WHERE dno = 7", "select dname from dept where dno=123"},
		{"select e.ename from EMP e where e.sal > 2500.5 and e.edno = 3", "SELECT e.ename FROM EMP e WHERE e.sal > 1 AND e.edno = 'x'"},
		{"SELECT * FROM T WHERE s = 'it''s a ''WHERE'' clause' AND n = -42", "SELECT * FROM T WHERE s = '' AND n = -1"},
		{"SELECT a FROM T WHERE b IN (1, 2e3, 'x', '') LIMIT 10", "SELECT a FROM T WHERE b IN (4, 5, 6, 7) LIMIT 10"},
		{"SELECT a FROM T WHERE b IN (1) LIMIT 10", "SELECT a FROM T WHERE b IN (1) LIMIT 11"},
		{"SELECT a FROM T WHERE b BETWEEN -1.5 AND 1.5e2", "SELECT a FROM T WHERE b BETWEEN 0 AND 1"},
		{"SELECT a, b FROM T WHERE c = '' AND d <> 'SELECT 1; DROP'", "SELECT a, b FROM T WHERE c = 'x' AND d <> 'y'"},
		{`SELECT x FROM "ALL_DEPS.Xemp" WHERE x = 1`, `SELECT x FROM ALL_DEPS.Xemp WHERE x = 1`},
		{`SELECT "a b" FROM T`, `SELECT a b FROM T`},
		{"SELECT a /* block 'X' */ FROM T WHERE b = 0", "SELECT a FROM T WHERE b = 9"},
		{"SELECT edno, COUNT(*) FROM EMP GROUP BY edno", "SELECT edno, COUNT(*) FROM EMP GROUP BY edno;"},
		{"SELECT a FROM T ORDER BY a DESC LIMIT 5", "select a from t order by a desc limit 5"},
		{"SELECT a FROM T WHERE b = 9223372036854775807", "SELECT a FROM T WHERE b = 99999999999999999999"},
		{"INSERT INTO T VALUES (1, 'one', 1.0)", "INSERT INTO T VALUES (2, 'two', 2.0)"},
		{"SELECT a FROM T WHERE b = ?", "SELECT a FROM T WHERE b = 1"},
		{"SELECT ſelect FROM T", "SELECT select FROM T"},
		{"SELECT 'unterminated", "'lone string'"},
		{"LIMIT LIMIT 5", "SELECT a FROM T; SELECT b FROM T WHERE c = 1"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		keyA, bindsA, _ := planKey(a)
		keyB, bindsB, _ := planKey(b)
		stA, errA := parser.ParseScript(a)
		stB, errB := parser.ParseScript(b)
		checkParamOrdinals(t, a, stA, bindsA)
		checkParamOrdinals(t, b, stB, bindsB)
		if keyA != keyB || len(bindsA) != len(bindsB) {
			return
		}
		if (errA == nil) != (errB == nil) {
			t.Fatalf("key %q: %q parses (err %v) but %q does not (err %v)", keyA, a, errA, b, errB)
		}
		if len(stA) != len(stB) {
			t.Fatalf("key %q: %q has %d statements, %q has %d", keyA, a, len(stA), b, len(stB))
		}
		for i := range stA {
			canonStmt(reflect.ValueOf(stA[i].Stmt))
			canonStmt(reflect.ValueOf(stB[i].Stmt))
			if !reflect.DeepEqual(stA[i].Stmt, stB[i].Stmt) {
				t.Fatalf("key %q merges different statements:\n  %q\n  %q", keyA, a, b)
			}
		}
	})
}

// checkParamOrdinals: every Literal.Param ordinal of a single parsed
// statement names the binding that holds its value.
func checkParamOrdinals(t *testing.T, src string, stmts []parser.ScriptStmt, binds []types.Value) {
	t.Helper()
	if len(binds) == 0 || len(stmts) != 1 {
		return // not parameterized; ordinals restart per statement of a script
	}
	walkAST(reflect.ValueOf(stmts[0].Stmt), func(v reflect.Value) {
		lit, ok := v.Addr().Interface().(*parser.Literal)
		if !ok || lit.Param == 0 {
			return
		}
		if lit.Param > len(binds) {
			t.Fatalf("%q: literal ordinal %d past %d bindings", src, lit.Param, len(binds))
		}
		if b := binds[lit.Param-1]; !types.Equal(b, lit.Val) || b.Kind() != lit.Val.Kind() {
			t.Fatalf("%q: literal %d = %v (%v), binding holds %v (%v)",
				src, lit.Param, lit.Val, lit.Val.Kind(), b, b.Kind())
		}
	})
}

// canonStmt rewrites a parsed statement in place to what its cache key
// pins: parameter values erased, names upper-cased in ASCII, and a view's
// body text and offset (raw source) dropped.
func canonStmt(v reflect.Value) {
	walkAST(v, func(v reflect.Value) {
		switch n := v.Addr().Interface().(type) {
		case *parser.Literal:
			if n.Param > 0 {
				n.Val = types.Null()
			}
		case *parser.CreateViewStmt:
			n.Text, n.BodyOff = "", 0
		case *string:
			up := []byte(*n)
			for i, c := range up {
				if 'a' <= c && c <= 'z' {
					up[i] = c - ('a' - 'A')
				}
			}
			*n = string(up)
		}
	})
}

// walkAST calls visit on every addressable struct and string reachable
// from v through pointers, interfaces, slices and exported fields.
func walkAST(v reflect.Value, visit func(reflect.Value)) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			walkAST(v.Elem(), visit)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			walkAST(v.Index(i), visit)
		}
	case reflect.Struct:
		if v.CanAddr() {
			visit(v)
		}
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				walkAST(v.Field(i), visit)
			}
		}
	case reflect.String:
		if v.CanAddr() {
			visit(v)
		}
	}
}

// FuzzRestrictionMatchesWhere holds XNF restrictions to SQL's WHERE: a
// scalar predicate p decoded from the input must keep the same rows in
//
//	OUT OF Xt AS T WHERE Xt t SUCH THAT p TAKE *
//	SELECT * FROM T t WHERE p
//
// or fail in both. Predicates are well typed and divide only by non-zero
// literals, so an error on one side alone is a disagreement, not an
// evaluation-order accident: SQL may test pushed-down conjuncts first.
//
// Run with `go test -fuzz FuzzRestrictionMatchesWhere ./internal/engine` to
// explore; the seed corpus runs as part of every normal `go test`.
func FuzzRestrictionMatchesWhere(f *testing.F) {
	for _, seed := range [][]byte{
		{7, 0, 0, 0},                         // (t.s LIKE 'a%')
		{7, 0, 1, 1},                         // (t.s NOT LIKE '%b_')
		{7, 0, 0, 7},                         // (t.s LIKE t.s)
		{7, 4, 0, 0},                         // (NULL LIKE 'a%')
		{2, 0, 0, 1, 2, 0, 0, 6, 0, 2, 0},    // ((t.a < t.k) AND (t.b IS NULL))
		{5, 0, 1, 1, 3, 0, 4, 0, 3, 0, 5},    // (t.a IN (NULL, t.k))
		{0, 1, 0, 2, 0, 3, 2, 0, 0, 5},       // ((t.b + (-(t.k / 2))) >= t.k)
		{3, 4, 6, 0, 1, 0, 0, 0, 0, 2, 0, 7}, // ((NOT (t.a IS NULL)) OR (t.b = (-t.k)))
		{4, 5, 2, 0, 2, 0, 2, 3, 0, 1, 0, 6}, // (NOT ((t.b / 2) IN (NULL, t.k, t.a)))
		{0, 2, 0, 1, 0, 4, 0},                // ((t.a / 2) > t.k)
		{8, 2},                               // NULL
		{1, 0, 2, 0, 1},                      // (t.s < t.s)
	} {
		f.Add(seed)
	}
	s := NewDefault().Session()
	s.MustExec("CREATE TABLE T (k INT NOT NULL, a INT, b FLOAT, s VARCHAR)")
	for k := 1; k <= 24; k++ {
		a, b, str := fmt.Sprint(k%7-2), fmt.Sprintf("%d.5", k%5), fmt.Sprintf("'%s'", fuzzStrings[k%len(fuzzStrings)])
		switch k % 6 {
		case 1:
			a = "NULL"
		case 2:
			b = "NULL"
		case 3:
			str = "NULL"
		}
		s.MustExec(fmt.Sprintf("INSERT INTO T VALUES (%d, %s, %s, %s)", k, a, b, str))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := (&predDecoder{data: data}).boolean(4)
		co, errX := s.Exec("OUT OF Xt AS T WHERE Xt t SUCH THAT " + p + " TAKE *")
		sel, errS := s.Exec("SELECT * FROM T t WHERE " + p)
		if (errX == nil) != (errS == nil) {
			t.Fatalf("%s: restriction err %v, WHERE err %v", p, errX, errS)
		}
		if errX != nil {
			return
		}
		var got, want []string
		for _, r := range co.CO.Node("Xt").Rows {
			got = append(got, r.String())
		}
		for _, r := range sel.Rows {
			want = append(want, r.String())
		}
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("%s:\nrestriction keeps %v\nWHERE keeps       %v", p, got, want)
		}
	})
}

var fuzzStrings = []string{"", "a", "ab", "abc", "b", "ba", "a_c", "%"}

// predDecoder turns bytes into a well-typed predicate over T t; it reads 0
// once the input runs out, so every input decodes.
type predDecoder struct {
	data []byte
	at   int
}

func (d *predDecoder) next(n int) int {
	if d.at >= len(d.data) {
		return 0
	}
	d.at++
	return int(d.data[d.at-1]) % n
}

func (d *predDecoder) boolean(depth int) string {
	if depth == 0 {
		return d.numeric(0) + " < " + d.numeric(0)
	}
	cmp := []string{"=", "<>", "<", "<=", ">", ">="}
	switch d.next(9) {
	case 0:
		return "(" + d.numeric(depth-1) + " " + cmp[d.next(len(cmp))] + " " + d.numeric(depth-1) + ")"
	case 1:
		return "(" + d.str() + " " + cmp[d.next(len(cmp))] + " " + d.str() + ")"
	case 2:
		return "(" + d.boolean(depth-1) + " AND " + d.boolean(depth-1) + ")"
	case 3:
		return "(" + d.boolean(depth-1) + " OR " + d.boolean(depth-1) + ")"
	case 4:
		return "(NOT " + d.boolean(depth-1) + ")"
	case 5:
		e := d.numeric(depth - 1)
		list := make([]string, 1+d.next(4))
		for i := range list {
			list[i] = d.numeric(0)
		}
		return "(" + e + []string{" IN (", " NOT IN ("}[d.next(2)] + strings.Join(list, ", ") + "))"
	case 6:
		e := d.numeric(depth - 1)
		if d.next(2) == 1 {
			e = d.str()
		}
		return "(" + e + []string{" IS NULL)", " IS NOT NULL)"}[d.next(2)]
	case 7:
		return "(" + d.str() + []string{" LIKE ", " NOT LIKE "}[d.next(2)] +
			[]string{"'a%'", "'%b_'", "'_'", "'%'", "''", "'a_c'", "NULL", "t.s"}[d.next(8)] + ")"
	default:
		return []string{"TRUE", "FALSE", "NULL"}[d.next(3)]
	}
}

func (d *predDecoder) numeric(depth int) string {
	leaves := []string{"t.k", "t.a", "t.b", "NULL", "0", "3", "-2", "1.5"}
	if depth == 0 {
		return leaves[d.next(len(leaves))]
	}
	switch d.next(4) {
	case 1:
		return "(" + d.numeric(depth-1) + []string{" + ", " - ", " * "}[d.next(3)] + d.numeric(depth-1) + ")"
	case 2:
		return "(" + d.numeric(depth-1) + " / " + []string{"2", "-3", "0.5"}[d.next(3)] + ")"
	case 3:
		return "(-" + d.numeric(depth-1) + ")"
	default:
		return leaves[d.next(len(leaves))]
	}
}

func (d *predDecoder) str() string {
	return []string{"t.s", "'a'", "'ab'", "''", "NULL"}[d.next(5)]
}

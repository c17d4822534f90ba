package engine

import (
	"reflect"
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

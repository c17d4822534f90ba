package parser_test

import (
	"testing"

	"sqlxnf/internal/parser"
	"sqlxnf/internal/workload"
)

// lexShapes are the statement shapes the benchmark workloads send, plus the
// composite-object TAKEs of the company and design databases.
func lexShapes() []string {
	return []string{
		"SELECT eno, ename, descr, edno FROM EMP WHERE eno = 1234",
		"SELECT eno, sal FROM EMP WHERE edno = 17",
		"SELECT d.dname, e.eno, e.sal FROM DEPT d, EMP e WHERE d.dno = e.edno AND d.dno = 17",
		"SELECT descr, COUNT(*), SUM(sal) FROM EMP WHERE sal > 2000 GROUP BY descr",
		"SELECT e.descr, COUNT(*), SUM(e.sal) FROM EMP e, SKILLS s WHERE e.eno = s.esno AND e.sal > 2000 GROUP BY e.descr",
		"SELECT eno, sal FROM EMP WHERE sal < 3000 ORDER BY sal DESC LIMIT 10",
		"SELECT eno, ename, sal FROM EMP WHERE eno >= 100 AND eno < 1100",
		"UPDATE EMP SET sal = 2500 WHERE eno = 42",
		"UPDATE EMP SET descr = 'c1-7' WHERE eno = 42",
		"INSERT INTO SKILLS VALUES (9001, 'skill-12', 42)",
		"DELETE FROM SKILLS WHERE sno = 9001",
		"BEGIN; UPDATE EMP SET sal = sal - 5 WHERE eno = 1; UPDATE EMP SET sal = sal + 5 WHERE eno = 2; COMMIT",
		workload.CompanyCOQuery(workload.CompanyConfig{}, 3),
		workload.CompanyCOQuery(workload.CompanyConfig{LinkTable: true}, 3),
		workload.WorkingSetQuery("model-3", 1),
	}
}

// lexAll lexes src to the end and returns its token count.
func lexAll(src string) int {
	l := parser.NewLexer(src)
	for n := 0; ; n++ {
		tok, err := l.Next()
		if err != nil || tok.Kind == parser.TokEOF {
			return n
		}
	}
}

// TestLexZeroAllocs pins the lexer's hot-path cost: token texts slice the
// source and keywords fold in a stack buffer, so lexing these statements
// allocates nothing.
func TestLexZeroAllocs(t *testing.T) {
	for _, src := range lexShapes() {
		if lexAll(src) == 0 {
			t.Fatalf("%q lexed to nothing", src)
		}
		if n := testing.AllocsPerRun(50, func() { lexAll(src) }); n != 0 {
			t.Errorf("%v allocs per lex of %q, want 0", n, src)
		}
	}
}

// BenchmarkLex lexes every shape of lexShapes once per op.
func BenchmarkLex(b *testing.B) {
	shapes := lexShapes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, src := range shapes {
			lexAll(src)
		}
	}
}

package engine

// Engine-level benchmarks for the prepared-plan path: the same statement
// executed repeatedly against one engine, with the plan cache on (hit path:
// normalize, lock, clone-or-pool, execute) versus off (cold path: parse →
// QGM build → rewrite → optimize → execute per call).
//
// Run with:  go test -run '^$' -bench BenchmarkExecRepeated ./internal/engine/

import (
	"fmt"
	"testing"
	"time"
)

// benchEngine loads a small star schema: 30 departments × 20 employees.
func benchEngine(b *testing.B, planCache int) *Session {
	b.Helper()
	opts := DefaultOptions()
	opts.PlanCacheSize = planCache
	e := New(opts)
	s := e.Session()
	s.MustExec(`CREATE TABLE DEPT (dno INT PRIMARY KEY, dname VARCHAR, budget FLOAT);
		CREATE TABLE EMP (eno INT PRIMARY KEY, ename VARCHAR, sal FLOAT, edno INT);
		CREATE INDEX emp_edno ON EMP (edno)`)
	for d := 0; d < 30; d++ {
		s.MustExec(fmt.Sprintf("INSERT INTO DEPT VALUES (%d, 'dept-%d', %d)", d, d, 100000+d))
		for i := 0; i < 20; i++ {
			eno := d*100 + i
			s.MustExec(fmt.Sprintf("INSERT INTO EMP VALUES (%d, 'emp-%d', %d, %d)",
				eno, eno, 1000+(eno%3000), d))
		}
	}
	s.MustExec("ANALYZE")
	return s
}

const benchRepeatedQuery = "SELECT d.dname, e.ename FROM DEPT d, EMP e " +
	"WHERE d.dno = e.edno AND e.sal > 2500"

func benchRepeated(b *testing.B, planCache int) {
	s := benchEngine(b, planCache)
	// Warm once so the cached arm measures steady-state hits.
	s.MustExec(benchRepeatedQuery)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MustExec(benchRepeatedQuery)
	}
}

func BenchmarkExecRepeatedQueryCold(b *testing.B)   { benchRepeated(b, -1) }
func BenchmarkExecRepeatedQueryCached(b *testing.B) { benchRepeated(b, 0) }

// BenchmarkExecRepeatedPointQuery measures the prepared path on the OLTP
// shape the cache targets hardest: a point lookup by primary key.
func benchRepeatedPoint(b *testing.B, planCache int) {
	s := benchEngine(b, planCache)
	q := "SELECT ename FROM EMP WHERE eno = 1510"
	s.MustExec(q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MustExec(q)
	}
}

func BenchmarkExecRepeatedPointQueryCold(b *testing.B)   { benchRepeatedPoint(b, -1) }
func BenchmarkExecRepeatedPointQueryCached(b *testing.B) { benchRepeatedPoint(b, 0) }

// BenchmarkExecRepeatedPointQueryTraced is the same prepared-hit loop with
// per-statement tracing on (slow-query threshold set, never fired): the
// price of recording phase spans and the plan on every execution. Diff
// against Cached to see what tracing costs; Cached itself must not move
// when tracing stays off.
func BenchmarkExecRepeatedPointQueryTraced(b *testing.B) {
	opts := DefaultOptions()
	opts.SlowQueryThreshold = time.Hour
	opts.SlowQueryLogf = func(string, ...any) {}
	e := New(opts)
	s := e.Session()
	s.MustExec(`CREATE TABLE EMP (eno INT PRIMARY KEY, ename VARCHAR)`)
	for i := 0; i < 100; i++ {
		s.MustExec(fmt.Sprintf("INSERT INTO EMP VALUES (%d, 'emp-%d')", i, i))
	}
	q := "SELECT ename FROM EMP WHERE eno = 42"
	s.MustExec(q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MustExec(q)
	}
}

// BenchmarkRollbackAfterHistory measures an empty BEGIN; ROLLBACK on an
// in-memory engine after 0 and after 100k autocommit inserts. Rollback walks
// the session's own undo list, so the two arms must cost the same: the
// engine's write history is not an input.
func BenchmarkRollbackAfterHistory(b *testing.B) {
	for _, history := range []int{0, 100_000} {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			s := NewDefault().Session()
			s.MustExec("CREATE TABLE H (a INT, b VARCHAR)")
			for i := 0; i < history; i++ {
				s.MustExec(fmt.Sprintf("INSERT INTO H VALUES (%d, 'row-%d')", i, i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.MustExec("BEGIN; ROLLBACK")
			}
		})
	}
}

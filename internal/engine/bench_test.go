package engine

// Engine-level benchmarks for the prepared-plan path: the same statement
// executed repeatedly against one engine, with the plan cache on (hit path:
// normalize, lock, clone-or-pool, execute) versus off (cold path: parse →
// QGM build → rewrite → optimize → execute per call).
//
// Run with:  go test -run '^$' -bench BenchmarkExecRepeated ./internal/engine/

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"sqlxnf/internal/wal"
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

// BenchmarkSearchedDML measures searched UPDATE/DELETE on a durable engine
// (wal.SyncNone: log writes without the fsync, so the statement path is what
// is timed) over a 40k-row table twice the default buffer pool: by primary
// key, by a 10-row range of a secondary index, and by an unindexed predicate.
// pages/op is buffer-pool fetches (hits + misses) per statement.
func BenchmarkSearchedDML(b *testing.B) {
	const rows = 40_000
	for _, c := range []struct {
		name string
		stmt func(i int) string
	}{
		{"upd_pk", func(i int) string { return fmt.Sprintf("UPDATE T SET v = v + 1 WHERE id = %d", i*7919%rows) }},
		{"del_pk", func(i int) string { return fmt.Sprintf("DELETE FROM T WHERE id = %d", i*7919%rows) }},
		{"upd_range_indexed", func(i int) string {
			lo := i * 7919 % (rows - 10)
			return fmt.Sprintf("UPDATE T SET v = v + 1 WHERE k >= %d AND k < %d", lo, lo+10)
		}},
		{"upd_unindexed", func(i int) string { return fmt.Sprintf("UPDATE T SET v = v + 1 WHERE u = %d", i*7919%rows) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			opts := DefaultOptions()
			opts.DataDir = b.TempDir()
			opts.Sync = wal.SyncNone
			e, err := Open(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			s := e.Session()
			s.MustExec("CREATE TABLE T (id INT PRIMARY KEY, k INT, u INT, v INT, pad VARCHAR); CREATE INDEX t_k ON T (k)")
			for lo := 0; lo < rows; lo += 500 {
				vals := make([]string, 0, 500)
				for i := lo; i < lo+500; i++ {
					vals = append(vals, fmt.Sprintf("(%d, %d, %d, 0, 'padding-padding-padding-%d')", i, i, i, i))
				}
				s.MustExec("INSERT INTO T VALUES " + strings.Join(vals, ", "))
			}
			s.MustExec("ANALYZE T")
			before := e.BufferPool().Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.MustExec(c.stmt(i))
			}
			b.StopTimer()
			after := e.BufferPool().Stats()
			b.ReportMetric(float64(after.Hits+after.Misses-before.Hits-before.Misses)/float64(b.N), "pages/op")
		})
	}
}

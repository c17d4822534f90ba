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

// BenchmarkTakeMiss measures a TAKE that misses the CO cache (cache off), on
// a durable engine under wal.SyncNone: the XNF evaluator and its node
// derivations are what is timed. company_1dept checks out one department of
// the company CO (the department by primary key, employees and projects by a
// one-value IN-list probe, 8 000 skills by an unindexed scan under a 20-value
// list); composite_prefix derives a child through the leading column of a
// two-column index; unindexed_child derives the same child by scanning 20 000
// rows; many_parent_keys derives it under all 200 parent keys through a
// one-column index, a list that selects the whole table and still has to
// probe (filtering 20 000 rows through a 200-item list is the slower plan).
// pages/op is buffer-pool fetches (hits + misses) per checkout.
func BenchmarkTakeMiss(b *testing.B) {
	bulk := func(s *Session, table string, n int, row func(i int) string) {
		for lo := 0; lo < n; lo += 500 {
			vals := make([]string, 0, 500)
			for i := lo; i < lo+500 && i < n; i++ {
				vals = append(vals, row(i))
			}
			s.MustExec("INSERT INTO " + table + " VALUES " + strings.Join(vals, ", "))
		}
	}
	const depts, children = 200, 20_000
	parentChild := func(indexDDL string) func(*Session) {
		return func(s *Session) {
			s.MustExec("CREATE TABLE P (pk INT PRIMARY KEY); CREATE TABLE C (ck INT PRIMARY KEY, cp INT, w INT);" + indexDDL)
			bulk(s, "P", depts, func(i int) string { return fmt.Sprintf("(%d)", i) })
			bulk(s, "C", children, func(i int) string { return fmt.Sprintf("(%d, %d, %d)", i, i%depts, i%7) })
		}
	}
	parentChildTake := func(i int) string {
		return fmt.Sprintf(`OUT OF Xp AS (SELECT * FROM P WHERE pk = %d), Xc AS C,
			pc AS (RELATE Xp, Xc WHERE Xp.pk = Xc.cp) TAKE *`, i*7919%depts)
	}
	for _, c := range []struct {
		name string
		load func(s *Session)
		take func(i int) string
	}{
		{"company_1dept", func(s *Session) {
			s.MustExec(`CREATE TABLE DEPT (dno INT NOT NULL PRIMARY KEY, dname VARCHAR, budget FLOAT);
				CREATE TABLE EMP (eno INT NOT NULL PRIMARY KEY, ename VARCHAR, sal FLOAT, edno INT);
				CREATE TABLE PROJ (pno INT NOT NULL PRIMARY KEY, pname VARCHAR, pdno INT);
				CREATE TABLE SKILLS (sno INT NOT NULL PRIMARY KEY, sname VARCHAR, esno INT);
				CREATE INDEX emp_edno ON EMP (edno); CREATE INDEX proj_pdno ON PROJ (pdno)`)
			bulk(s, "DEPT", depts, func(i int) string { return fmt.Sprintf("(%d, 'dept-%d', %d)", i, i, 100000+i) })
			bulk(s, "EMP", depts*20, func(i int) string { return fmt.Sprintf("(%d, 'emp-%d', %d, %d)", i, i, 1000+i%3000, i/20) })
			bulk(s, "PROJ", depts*5, func(i int) string { return fmt.Sprintf("(%d, 'proj-%d', %d)", i, i, i/5) })
			bulk(s, "SKILLS", depts*40, func(i int) string { return fmt.Sprintf("(%d, 'skill-%d', %d)", i, i%50, i/2) })
		}, func(i int) string {
			return fmt.Sprintf(`OUT OF Xdept AS (SELECT * FROM DEPT WHERE dno = %d), Xemp AS EMP, Xproj AS PROJ, Xskills AS SKILLS,
				employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno),
				ownership AS (RELATE Xdept, Xproj WHERE Xdept.dno = Xproj.pdno),
				empproperty AS (RELATE Xemp, Xskills WHERE Xemp.eno = Xskills.esno)
				TAKE *`, i*7919%depts)
		}},
		{"composite_prefix", parentChild("CREATE INDEX c_cp_w ON C (cp, w)"), parentChildTake},
		{"unindexed_child", parentChild(""), parentChildTake},
		{"many_parent_keys", parentChild("CREATE INDEX c_cp ON C (cp)"), func(int) string {
			return `OUT OF Xp AS P, Xc AS C, pc AS (RELATE Xp, Xc WHERE Xp.pk = Xc.cp) TAKE *`
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			opts := DefaultOptions()
			opts.DataDir = b.TempDir()
			opts.Sync = wal.SyncNone
			opts.COCacheBytes = -1
			e, err := Open(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			s := e.Session()
			c.load(s)
			s.MustExec("ANALYZE")
			before := e.BufferPool().Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.MustExec(c.take(i))
			}
			b.StopTimer()
			after := e.BufferPool().Stats()
			b.ReportMetric(float64(after.Hits+after.Misses-before.Hits-before.Misses)/float64(b.N), "pages/op")
		})
	}
}

package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"sqlxnf/internal/types"
)

func cacheFixture(t *testing.T) (*Engine, *Session) {
	t.Helper()
	e := NewDefault()
	s := e.Session()
	s.MustExec(`CREATE TABLE DEPT (dno INT PRIMARY KEY, dname VARCHAR);
		CREATE TABLE EMP (eno INT PRIMARY KEY, ename VARCHAR, sal FLOAT, edno INT);
		CREATE INDEX emp_edno ON EMP (edno)`)
	for d := 1; d <= 5; d++ {
		s.MustExec(fmt.Sprintf("INSERT INTO DEPT VALUES (%d, 'd%d')", d, d))
		for i := 0; i < 6; i++ {
			eno := d*10 + i
			s.MustExec(fmt.Sprintf("INSERT INTO EMP VALUES (%d, 'e%d', %d, %d)",
				eno, eno, 1000+eno*10, d))
		}
	}
	return e, s
}

func rowsFingerprint(r *Result) string {
	var b strings.Builder
	for _, row := range r.Rows {
		b.WriteString(row.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestPlanCacheHitMatchesColdCompile: the second execution must hit the
// cache and return exactly the cold result; textual variants of the same
// statement normalize to one entry.
func TestPlanCacheHitMatchesColdCompile(t *testing.T) {
	e, s := cacheFixture(t)
	q := "SELECT d.dname, e.ename FROM DEPT d, EMP e WHERE d.dno = e.edno AND e.sal > 1200"
	cold := s.MustExec(q)
	st0 := e.PlanCacheStats()
	if st0.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st0.Entries)
	}
	hit := s.MustExec(q)
	st1 := e.PlanCacheStats()
	if st1.Hits != st0.Hits+1 {
		t.Fatalf("hits %d -> %d, want +1", st0.Hits, st1.Hits)
	}
	if rowsFingerprint(cold) != rowsFingerprint(hit) {
		t.Fatalf("cache hit differs from cold compile:\n%s\nvs\n%s",
			rowsFingerprint(cold), rowsFingerprint(hit))
	}
	if hit.Schema.String() != cold.Schema.String() {
		t.Fatalf("schema differs: %v vs %v", hit.Schema, cold.Schema)
	}
	// Case and whitespace variants share the entry (string literals do not
	// case-fold, so use one without strings).
	variant := "select  d.dname, e.ename\nFROM dept d, emp e WHERE d.dno = e.edno AND e.sal > 1200"
	v := s.MustExec(variant)
	if e.PlanCacheStats().Entries != 1 {
		t.Errorf("variant created a second entry")
	}
	if rowsFingerprint(v) != rowsFingerprint(cold) {
		t.Errorf("variant result differs")
	}
}

// TestPlanCacheCommentNewlineKeysApart: two aggregate SELECTs that differ
// only by the newline ending a `--` comment are different statements — in
// the second the comment swallows the WHERE clause — so they must not share
// a cache entry. Each answer, on the parser-skipping fast path and on the
// parse path (the statement last in a two-statement script), must equal a
// fresh engine's.
func TestPlanCacheCommentNewlineKeysApart(t *testing.T) {
	pair := []string{
		"SELECT COUNT(*) FROM EMP --c\nWHERE sal > 1400",
		"SELECT COUNT(*) FROM EMP --c WHERE sal > 1400",
	}
	paths := map[string]func(string) string{
		"fast path":  func(q string) string { return q },
		"parse path": func(q string) string { return "SELECT dname FROM DEPT WHERE dno = 0;\n" + q },
	}
	for name, script := range paths {
		_, s := cacheFixture(t)
		for _, q := range pair {
			_, fresh := cacheFixture(t)
			want := rowsFingerprint(fresh.MustExec(q))
			for rep := 0; rep < 2; rep++ {
				if got := rowsFingerprint(s.MustExec(script(q))); got != want {
					t.Errorf("%s: %q answered %q, a fresh engine %q", name, q, got, want)
				}
			}
		}
	}
}

// TestPlanCacheSeesDML: cached plans read live heaps — DML between
// executions must show up without any invalidation.
func TestPlanCacheSeesDML(t *testing.T) {
	_, s := cacheFixture(t)
	q := "SELECT ename FROM EMP WHERE edno = 3"
	before := len(s.MustExec(q).Rows)
	s.MustExec("INSERT INTO EMP VALUES (999, 'new', 5000, 3)")
	after := len(s.MustExec(q).Rows)
	if after != before+1 {
		t.Fatalf("rows %d -> %d, want +1 (cached plan served stale data)", before, after)
	}
	s.MustExec("DELETE FROM EMP WHERE eno = 999")
	if got := len(s.MustExec(q).Rows); got != before {
		t.Fatalf("rows after delete = %d, want %d", got, before)
	}
}

// TestPlanCacheInvalidation: DDL (CREATE/DROP TABLE/INDEX) and ANALYZE bump
// the catalog epoch and evict affected entries — a dropped-and-recreated
// table must not be served through a stale plan.
func TestPlanCacheInvalidation(t *testing.T) {
	e, s := cacheFixture(t)
	q := "SELECT ename FROM EMP WHERE edno = 2"
	s.MustExec(q)

	// ANALYZE evicts: the next execution recompiles under fresh stats.
	s.MustExec("ANALYZE EMP")
	s.MustExec(q)
	st := e.PlanCacheStats()
	if st.Evictions < 1 {
		t.Fatalf("ANALYZE did not evict (stats %+v)", st)
	}

	// CREATE INDEX evicts.
	hits0 := e.PlanCacheStats().Hits
	s.MustExec("CREATE INDEX emp_sal ON EMP (sal)")
	s.MustExec(q)
	if e.PlanCacheStats().Hits != hits0 {
		t.Fatalf("post-DDL execution must be a recompile, not a hit")
	}

	// DROP TABLE + recreate with a different shape: the old plan must not
	// run against the new table.
	s.MustExec(q)
	s.MustExec("DROP TABLE EMP")
	s.MustExec(`CREATE TABLE EMP (eno INT PRIMARY KEY, ename VARCHAR, sal FLOAT, edno INT)`)
	s.MustExec("INSERT INTO EMP VALUES (1, 'only', 9000, 2)")
	r := s.MustExec(q)
	if len(r.Rows) != 1 || r.Rows[0][0].Str() != "only" {
		t.Fatalf("post-recreate rows = %v", r.Rows)
	}
}

// TestPlanCacheConcurrentQueries: many sessions repeatedly running the same
// statements against one shared engine must all see correct results (run
// with -race; cached plan instances must never be shared mid-flight).
func TestPlanCacheConcurrentQueries(t *testing.T) {
	e, s := cacheFixture(t)
	queries := []struct {
		q    string
		want int
	}{
		{"SELECT ename FROM EMP WHERE edno = 1", 6},
		{"SELECT d.dname, e.ename FROM DEPT d, EMP e WHERE d.dno = e.edno", 30},
		{"SELECT COUNT(*) FROM EMP", 1},
	}
	// Warm the cache.
	for _, qq := range queries {
		s.MustExec(qq.q)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := e.Session()
			for i := 0; i < 30; i++ {
				qq := queries[(g+i)%len(queries)]
				r, err := sess.Exec(qq.q)
				if err != nil {
					t.Error(err)
					return
				}
				if len(r.Rows) != qq.want {
					t.Errorf("%s: rows = %d, want %d", qq.q, len(r.Rows), qq.want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := e.PlanCacheStats(); st.Hits < 200 {
		t.Errorf("expected mostly hits under the concurrent workload, stats %+v", st)
	}
}

// TestPlanCacheDisabled: PlanCacheSize < 0 turns the cache off entirely.
func TestPlanCacheDisabled(t *testing.T) {
	opts := DefaultOptions()
	opts.PlanCacheSize = -1
	e := New(opts)
	s := e.Session()
	s.MustExec("CREATE TABLE T (x INT); INSERT INTO T VALUES (1)")
	s.MustExec("SELECT x FROM T")
	s.MustExec("SELECT x FROM T")
	if st := e.PlanCacheStats(); st.Hits != 0 || st.Entries != 0 {
		t.Fatalf("disabled cache has activity: %+v", st)
	}
}

// TestPlanCacheXNFNodeCached: FROM "VIEW.NODE" plans no longer snapshot
// rows at build — the NodeScan leaf resolves the component table through
// the CO cache at Open — so they live in the prepared-plan cache like any
// SELECT: re-execution hits, a component table's DML version bump evicts
// the entry (its cardinality estimates derive from the materialization),
// and results immediately after DML equal a cold compile as multisets.
func TestPlanCacheXNFNodeCached(t *testing.T) {
	e, s := cacheFixture(t)
	s.MustExec(`CREATE VIEW DEPS AS
		OUT OF Xd AS DEPT, Xe AS EMP, emp AS (RELATE Xd, Xe WHERE Xd.dno = Xe.edno) TAKE *`)
	q := `SELECT ename FROM "DEPS.Xe" WHERE sal > 1200`
	cold := s.MustExec(q)
	st0 := e.PlanCacheStats()
	if st0.Entries != 1 {
		t.Fatalf("node-ref statement did not cache: %+v", st0)
	}
	hit := s.MustExec(q)
	st1 := e.PlanCacheStats()
	if st1.Hits != st0.Hits+1 {
		t.Fatalf("re-execution was not a cache hit: %+v -> %+v", st0, st1)
	}
	if multiset(cold.Rows) != multiset(hit.Rows) {
		t.Fatalf("cache hit differs from cold compile:\n%s\nvs\n%s",
			multiset(cold.Rows), multiset(hit.Rows))
	}

	// DML to a component table bumps its version: the entry evicts, the
	// next execution recompiles against the refreshed materialization, and
	// the result matches a cold engine immediately.
	s.MustExec("INSERT INTO EMP VALUES (998, 'fresh', 9999, 1)")
	hits0 := e.PlanCacheStats().Hits
	after := s.MustExec(q)
	st2 := e.PlanCacheStats()
	if st2.Hits != hits0 {
		t.Fatalf("post-DML execution must recompile, not hit (%+v)", st2)
	}
	if st2.Evictions < 1 {
		t.Fatalf("component-table DML did not evict the node-ref plan: %+v", st2)
	}
	found := false
	for _, row := range after.Rows {
		if row[0].Str() == "fresh" {
			found = true
		}
	}
	if !found {
		t.Fatalf("post-DML node-ref query served stale rows: %v", after.Rows)
	}
	// And the refreshed entry serves hits again.
	s.MustExec(q)
	if st3 := e.PlanCacheStats(); st3.Hits != st2.Hits+1 {
		t.Fatalf("refreshed entry did not hit: %+v", st3)
	}

	// DML to a table outside the view's component set must NOT evict.
	s.MustExec("CREATE TABLE UNRELATED (x INT)")
	s.MustExec(q) // recompile once for the DDL epoch bump
	hits1 := e.PlanCacheStats().Hits
	s.MustExec("INSERT INTO UNRELATED VALUES (1)")
	s.MustExec(q)
	if st4 := e.PlanCacheStats(); st4.Hits != hits1+1 {
		t.Fatalf("non-component DML disturbed the node-ref plan: %+v", st4)
	}
}

// multiset canonicalizes rows order-insensitively.
func multiset(rows []types.Row) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = r.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestAnalyzeEndToEnd: ANALYZE via SQL installs stats the optimizer
// consumes, and EXPLAIN surfaces the resulting cardinality estimates.
func TestAnalyzeEndToEnd(t *testing.T) {
	e, s := cacheFixture(t)
	r := s.MustExec("ANALYZE")
	if r.RowsAffected != 35 { // 5 depts + 30 emps
		t.Fatalf("ANALYZE rows = %d, want 35", r.RowsAffected)
	}
	emp, err := e.Catalog().Table("EMP")
	if err != nil {
		t.Fatal(err)
	}
	ts := emp.Stats()
	if ts == nil || ts.Rows != 30 {
		t.Fatalf("EMP stats = %+v", ts)
	}
	if cs := ts.Col(3); cs == nil || cs.Distinct != 5 {
		t.Fatalf("edno NDV = %+v, want 5", ts.Col(3))
	}
	// edno = const: estimate 30/5 = 6 rows, visible in EXPLAIN.
	ex := s.MustExec("EXPLAIN SELECT ename FROM EMP WHERE edno = 2")
	if !strings.Contains(ex.Explain, "est rows=6") {
		t.Errorf("EXPLAIN missing stats-driven estimate:\n%s", ex.Explain)
	}
	// ANALYZE of one table only.
	if r := s.MustExec("ANALYZE DEPT"); r.RowsAffected != 5 {
		t.Errorf("ANALYZE DEPT rows = %d, want 5", r.RowsAffected)
	}
	// Incremental maintenance: min/max extend on insert without re-ANALYZE.
	s.MustExec("INSERT INTO EMP VALUES (2000, 'big', 99999, 12)")
	if cs := emp.Stats().Col(3); cs.Max.Int() != 12 {
		t.Errorf("max(edno) after insert = %v, want 12", cs.Max)
	}
}

// TestExplainConcurrentWithDML: EXPLAIN compiles through the stats-reading
// cost model while concurrent INSERTs maintain those statistics; the two
// must be race-free without any table lock (run with -race).
func TestExplainConcurrentWithDML(t *testing.T) {
	e, s := cacheFixture(t)
	s.MustExec("ANALYZE")
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		sess := e.Session()
		for i := 0; i < 40; i++ {
			r := sess.MustExec("EXPLAIN SELECT ename FROM EMP WHERE sal > 1500 AND edno = 2")
			if !strings.Contains(r.Explain, "est rows=") {
				t.Error("explain lost its estimates")
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		sess := e.Session()
		for i := 0; i < 40; i++ {
			sess.MustExec(fmt.Sprintf("INSERT INTO EMP VALUES (%d, 'c%d', %d, 3)", 5000+i, i, 900+i))
		}
	}()
	wg.Wait()
}

// TestRollbackCompensatesStats: incremental sketch maintenance must reverse
// on rollback — NULL counts return to their pre-transaction values.
func TestRollbackCompensatesStats(t *testing.T) {
	e, s := cacheFixture(t)
	s.MustExec("ANALYZE EMP")
	emp, err := e.Catalog().Table("EMP")
	if err != nil {
		t.Fatal(err)
	}
	nulls0 := emp.Stats().Col(3).Nulls
	s.MustExec("BEGIN")
	s.MustExec("INSERT INTO EMP (eno, ename) VALUES (7777, 'ghost')") // edno NULL
	if got := emp.Stats().Col(3).Nulls; got != nulls0+1 {
		t.Fatalf("mid-tx NULL count = %d, want %d", got, nulls0+1)
	}
	s.MustExec("ROLLBACK")
	if got := emp.Stats().Col(3).Nulls; got != nulls0 {
		t.Fatalf("post-rollback NULL count = %d, want %d (phantom row skewed stats)", got, nulls0)
	}
}

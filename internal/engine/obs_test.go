package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// logCapture collects slow-query records thread-safely.
type logCapture struct {
	mu      sync.Mutex
	records []string
}

func (lc *logCapture) logf(format string, args ...any) {
	lc.mu.Lock()
	lc.records = append(lc.records, fmt.Sprintf(format, args...))
	lc.mu.Unlock()
}

func (lc *logCapture) joined() string {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return strings.Join(lc.records, "\n---\n")
}

// TestSlowQueryLog: a statement over the threshold logs its text, phase
// spans, and plan.
func TestSlowQueryLog(t *testing.T) {
	var lc logCapture
	opts := DefaultOptions()
	opts.SlowQueryThreshold = time.Nanosecond // everything is slow
	opts.SlowQueryLogf = lc.logf
	e := New(opts)
	s := e.Session()
	s.MustExec("CREATE TABLE S (id INT PRIMARY KEY, v INT)")
	for i := 0; i < 50; i++ {
		s.MustExec(fmt.Sprintf("INSERT INTO S VALUES (%d, %d)", i, i))
	}
	lc.mu.Lock()
	lc.records = nil // only observe the query under test
	lc.mu.Unlock()

	s.MustExec("SELECT id FROM S WHERE v < 10")
	out := lc.joined()
	for _, want := range []string{
		"slow query:", "SELECT id FROM S WHERE v < 10",
		"optimize=", "execute=", "plan:", "SeqScan",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("slow-query record missing %q:\n%s", want, out)
		}
	}

	// Cache-hit path: the record carries the binds-redacted key and the
	// cached plan, with bind/plancache spans instead of optimize.
	lc.mu.Lock()
	lc.records = nil
	lc.mu.Unlock()
	s.MustExec("SELECT id FROM S WHERE v < 20") // same shape, different literal
	out = lc.joined()
	for _, want := range []string{`key="SELECT ID FROM S WHERE V < ?"`, "execute=", "plan:"} {
		if !strings.Contains(out, want) {
			t.Errorf("cached slow-query record missing %q:\n%s", want, out)
		}
	}
}

// TestSlowQueryDML: the record of a searched UPDATE/DELETE carries the target
// plan and optimize/execute spans like a SELECT's, and the class stays dml.
func TestSlowQueryDML(t *testing.T) {
	var lc logCapture
	opts := DefaultOptions()
	opts.SlowQueryThreshold = time.Nanosecond
	opts.SlowQueryLogf = lc.logf
	s := New(opts).Session()
	s.MustExec("CREATE TABLE S (id INT PRIMARY KEY, v INT)")
	for i := 0; i < 50; i++ {
		s.MustExec(fmt.Sprintf("INSERT INTO S VALUES (%d, %d)", i, i))
	}
	for _, c := range []struct{ sql, plan string }{
		{"UPDATE S SET v = v + 1 WHERE id = 7", "IndexScan S using S_PK"},
		{"DELETE FROM S WHERE v < 3", "SeqScan S"},
	} {
		lc.mu.Lock()
		lc.records = nil
		lc.mu.Unlock()
		s.MustExec(c.sql)
		out := lc.joined()
		for _, want := range []string{"slow query:", c.sql, "class=dml", "optimize=", "execute=", "plan:", c.plan} {
			if !strings.Contains(out, want) {
				t.Errorf("slow-query record of %q missing %q:\n%s", c.sql, want, out)
			}
		}
	}
}

// TestSlowQueryDisabledByDefault: with no threshold, nothing logs and no
// trace is created.
func TestSlowQueryDisabledByDefault(t *testing.T) {
	var lc logCapture
	opts := DefaultOptions()
	opts.SlowQueryLogf = lc.logf
	e := New(opts)
	s := e.Session()
	s.MustExec("CREATE TABLE S (id INT PRIMARY KEY)")
	s.MustExec("SELECT * FROM S")
	if out := lc.joined(); out != "" {
		t.Fatalf("slow-query log fired with tracing off:\n%s", out)
	}
}

// TestTraceSpansClosedOnFailure: a statement that dies mid-execute (per-
// statement timeout expiry inside the scan) still renders every span with
// a nonzero duration — CloseOpen ran, nothing dangles.
func TestTraceSpansClosedOnFailure(t *testing.T) {
	var lc logCapture
	opts := DefaultOptions()
	opts.SlowQueryThreshold = time.Nanosecond
	opts.SlowQueryLogf = lc.logf
	e := New(opts)
	s := e.Session()
	s.MustExec("CREATE TABLE F (id INT PRIMARY KEY, v INT)")
	for i := 0; i < 2000; i++ {
		s.MustExec(fmt.Sprintf("INSERT INTO F VALUES (%d, %d)", i, i))
	}
	lc.mu.Lock()
	lc.records = nil
	lc.mu.Unlock()

	s.SetStatementTimeout(time.Millisecond)
	_, err := s.Exec("SELECT COUNT(*) FROM F A, F B, F C WHERE A.v < B.v AND B.v < C.v")
	s.SetStatementTimeout(0)
	if err == nil {
		t.Fatal("expected the cross join to time out")
	}
	out := lc.joined()
	if !strings.Contains(out, "slow query:") {
		t.Fatalf("failed statement did not log:\n%s", out)
	}
	if !strings.Contains(out, "execute=") {
		t.Fatalf("failed statement record has no execute span:\n%s", out)
	}
	// The execute span was open when the statement died; CloseOpen must
	// have sealed it at ≥ the 1ms timeout, so it cannot render as 0s.
	if strings.Contains(out, "execute=0s") {
		t.Fatalf("execute span left open (zero duration) after failure:\n%s", out)
	}
	// Session stays usable and traces keep working.
	s.MustExec("SELECT COUNT(*) FROM F")
}

// TestStatementClassStats: statements land in the right class buckets of
// the unified Stats snapshot.
func TestStatementClassStats(t *testing.T) {
	e := New(DefaultOptions())
	s := e.Session()
	s.MustExec("CREATE TABLE C1 (id INT PRIMARY KEY, v INT)")
	s.MustExec("CREATE TABLE C2 (id INT PRIMARY KEY, c1 INT)")
	for i := 0; i < 20; i++ {
		s.MustExec(fmt.Sprintf("INSERT INTO C1 VALUES (%d, %d)", i, i))
	}
	s.MustExec("SELECT * FROM C1 WHERE id = 7")            // point (index)
	s.MustExec("SELECT * FROM C1 WHERE v > 3")             // scan
	s.MustExec("SELECT * FROM C1, C2 WHERE C1.id = C2.c1") // join
	s.MustExec("SELECT * FROM C1 WHERE id = 7")            // point again (cache hit)

	st := e.Stats()
	if st.Statements["ddl"].Count < 2 {
		t.Fatalf("ddl count = %d, want >= 2", st.Statements["ddl"].Count)
	}
	if st.Statements["dml"].Count != 20 {
		t.Fatalf("dml count = %d, want 20", st.Statements["dml"].Count)
	}
	if st.Statements["point"].Count != 2 {
		t.Fatalf("point count = %d, want 2 (cold + cache hit): %+v", st.Statements["point"].Count, st.Statements)
	}
	if st.Statements["scan"].Count != 1 {
		t.Fatalf("scan count = %d, want 1: %+v", st.Statements["scan"].Count, st.Statements)
	}
	if st.Statements["join"].Count != 1 {
		t.Fatalf("join count = %d, want 1: %+v", st.Statements["join"].Count, st.Statements)
	}
	if st.StatementsTotal < 26 {
		t.Fatalf("total = %d, want >= 26", st.StatementsTotal)
	}
	if st.UptimeSeconds <= 0 {
		t.Fatal("uptime not positive")
	}
	if st.StatementsPerSecond <= 0 {
		t.Fatal("statements-per-second not positive")
	}
	// Failed statement charges the class error counter.
	if _, err := s.Exec("SELECT nope FROM C1"); err == nil {
		t.Fatal("expected unknown-column error")
	}
	st = e.Stats()
	var errs int64
	for _, cs := range st.Statements {
		errs += cs.Errors
	}
	if errs == 0 {
		t.Fatalf("no class recorded the failed statement: %+v", st.Statements)
	}
}

// TestWriteConflictCounter: first-committer-wins rejections show up in the
// unified snapshot and the metrics registry.
func TestWriteConflictCounter(t *testing.T) {
	e := New(DefaultOptions())
	a, b := e.Session(), e.Session()
	a.MustExec("CREATE TABLE W (id INT PRIMARY KEY, v INT)")
	a.MustExec("INSERT INTO W VALUES (1, 10)")
	a.MustExec("BEGIN")
	a.MustExec("SELECT v FROM W WHERE id = 1") // pin snapshot
	b.MustExec("UPDATE W SET v = 100 WHERE id = 1")
	if _, err := a.Exec("UPDATE W SET v = 11 WHERE id = 1"); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("got %v, want ErrWriteConflict", err)
	}
	if got := e.Stats().WriteConflicts; got != 1 {
		t.Fatalf("WriteConflicts = %d, want 1", got)
	}
}

// TestVacuumCounters: a sweep records itself and what it reclaimed.
func TestVacuumCounters(t *testing.T) {
	opts := DefaultOptions()
	opts.VacuumDeadRows = -1 // manual control
	e := New(opts)
	s := e.Session()
	s.MustExec("CREATE TABLE V (id INT PRIMARY KEY)")
	for i := 0; i < 10; i++ {
		s.MustExec(fmt.Sprintf("INSERT INTO V VALUES (%d)", i))
	}
	s.MustExec("DELETE FROM V WHERE id < 5")
	purged, _ := e.Vacuum()
	st := e.Stats()
	if st.Vacuum.Sweeps != 1 {
		t.Fatalf("sweeps = %d, want 1", st.Vacuum.Sweeps)
	}
	if int(st.Vacuum.Purged) != purged || purged == 0 {
		t.Fatalf("purged counter = %d, sweep returned %d", st.Vacuum.Purged, purged)
	}
}

// TestPreparedHitTracingOffNoExtraAllocs guards the prepared-hit fast path
// (BenchmarkExecRepeatedPointQueryCached): with tracing off, the
// observability layer must add zero allocations per statement — its whole
// cost is two time.Now calls and one histogram observe. Tracing on
// allocates (trace, spans, plan dump); off must stay strictly cheaper.
func TestPreparedHitTracingOffNoExtraAllocs(t *testing.T) {
	build := func(threshold time.Duration) *Session {
		opts := DefaultOptions()
		opts.SlowQueryThreshold = threshold
		opts.SlowQueryLogf = func(string, ...any) {}
		e := New(opts)
		s := e.Session()
		s.MustExec("CREATE TABLE P (id INT PRIMARY KEY, v INT)")
		for i := 0; i < 100; i++ {
			s.MustExec(fmt.Sprintf("INSERT INTO P VALUES (%d, %d)", i, i))
		}
		return s
	}
	const q = "SELECT v FROM P WHERE id = 42"
	off, on := build(0), build(time.Hour)
	off.MustExec(q)
	on.MustExec(q)
	offAllocs := testing.AllocsPerRun(200, func() { off.MustExec(q) })
	onAllocs := testing.AllocsPerRun(200, func() { on.MustExec(q) })
	t.Logf("prepared-hit allocs/stmt: tracing off %.1f, on %.1f", offAllocs, onAllocs)
	if offAllocs >= onAllocs {
		t.Fatalf("tracing off allocates %.1f/stmt, not less than tracing on (%.1f) — the off path is paying for tracing",
			offAllocs, onAllocs)
	}
	// Absolute ceiling with generous headroom over the measured baseline
	// (~30 allocs for parse-skip, row materialization, result): catches a
	// future regression that sneaks allocation into govern/observeStmt.
	if offAllocs > 60 {
		t.Fatalf("tracing-off prepared hit allocates %.1f/stmt (ceiling 60) — fast path regressed", offAllocs)
	}
}

// TestWALLatencyHistograms: a durable engine feeds the append/fsync/batch
// histograms attached to the file log at recovery.
func TestWALLatencyHistograms(t *testing.T) {
	opts := DefaultOptions()
	opts.DataDir = t.TempDir()
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s := e.Session()
	s.MustExec("CREATE TABLE D (id INT PRIMARY KEY)")
	for i := 0; i < 5; i++ {
		s.MustExec(fmt.Sprintf("INSERT INTO D VALUES (%d)", i))
	}
	var sb strings.Builder
	if err := e.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, h := range []string{
		"wal_append_latency_seconds", "wal_fsync_latency_seconds",
		"wal_group_commit_batch_size",
	} {
		if !strings.Contains(out, h+"_count") {
			t.Errorf("exposition missing %s", h)
		}
		if strings.Contains(out, h+"_count 0\n") {
			t.Errorf("%s never observed anything:\n%s", h, out)
		}
	}
}

// TestMetricsExposition: the engine registry renders Prometheus text
// covering statements, caches, WAL, and MVCC.
func TestMetricsExposition(t *testing.T) {
	e := New(DefaultOptions())
	s := e.Session()
	s.MustExec("CREATE TABLE M (id INT PRIMARY KEY)")
	s.MustExec("INSERT INTO M VALUES (1)")
	s.MustExec("SELECT * FROM M")
	var sb strings.Builder
	if err := e.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"stmt_latency_scan_seconds_count",
		"stmt_latency_dml_seconds_count 1",
		"mvcc_write_conflicts_total 0",
		"plancache_hits_total",
		"comat_hits_total",
		"pool_hits_total",
		"wal_appends_total",
		"engine_uptime_seconds",
		"navcache_pointer_hops_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"sqlxnf/internal/exec"
	"sqlxnf/internal/faultinj"
	"sqlxnf/internal/lock"
)

// slowJoinDB builds a database where slowQuery runs long enough to be
// interrupted: an inequality self-join (no hash or index path) over n rows is
// quadratic in the evaluator.
func slowJoinDB(t *testing.T, n int) *Session {
	t.Helper()
	s := NewDefault().Session()
	s.MustExec(`CREATE TABLE BIG (id INT NOT NULL PRIMARY KEY, v INT)`)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		if i%500 == 0 {
			if i > 0 {
				sb.WriteString(";")
			}
			sb.WriteString("INSERT INTO BIG VALUES ")
		} else {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, i%97)
	}
	sb.WriteString(";")
	s.MustExec(sb.String())
	return s
}

// deadlineDB returns a session over an unindexed BIG (id INT, v INT) of n
// rows whose v cycles through 0..96. It inserts 1 000 rows and then doubles
// the table with INSERT … SELECT, which loads a million rows in about two
// seconds: the deadline tests need a scan that takes many times their
// timeout, and a filtered scan is quick.
func deadlineDB(t *testing.T, n int) *Session {
	t.Helper()
	s := NewDefault().Session()
	s.MustExec(`CREATE TABLE BIG (id INT, v INT)`)
	var sb strings.Builder
	sb.WriteString("INSERT INTO BIG VALUES ")
	for i := 0; i < 1000; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, i%97)
	}
	s.MustExec(sb.String())
	for have := 1000; have < n; have *= 2 {
		s.MustExec(fmt.Sprintf(`INSERT INTO BIG SELECT id + %d, v FROM BIG WHERE id < %d`, have, n-have))
	}
	return s
}

const slowQuery = `SELECT COUNT(*) FROM BIG a, BIG b WHERE a.v < b.v`

// TestExecContextCancelMidStatement: cancelling the context mid-join aborts
// the statement with context.Canceled, promptly, with no locks left behind
// and the session immediately usable.
func TestExecContextCancelMidStatement(t *testing.T) {
	s := slowJoinDB(t, 3000)
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan time.Time, 1)
	go func() {
		time.Sleep(15 * time.Millisecond)
		cancelled <- time.Now()
		cancel()
	}()
	_, err := s.ExecContext(ctx, slowQuery)
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled statement returned %v, want context.Canceled", err)
	}
	if lag := returned.Sub(<-cancelled); lag > 250*time.Millisecond {
		t.Fatalf("statement returned %v after cancel, want near-immediate", lag)
	}
	if held := s.Engine().Locks().TotalHeld(); held != 0 {
		t.Fatalf("%d locks leaked by cancelled statement", held)
	}
	if s.InTx() {
		t.Fatal("session stuck in a transaction after cancel")
	}
	r := s.MustExec(`SELECT COUNT(*) FROM BIG`)
	if r.Rows[0][0].Int() != 3000 {
		t.Fatalf("post-cancel query returned %v", r.Rows[0][0])
	}
}

// TestExecContextPreCancelled: a dead context refuses the statement outright.
func TestExecContextPreCancelled(t *testing.T) {
	s := newCompany(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.ExecContext(ctx, `SELECT * FROM DEPT`); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Exec returned %v, want context.Canceled", err)
	}
	if held := s.Engine().Locks().TotalHeld(); held != 0 {
		t.Fatalf("%d locks leaked", held)
	}
}

// TestStatementTimeout: both the engine default and the per-session override
// bound the statement, surfacing context.DeadlineExceeded; clearing the
// override restores unbounded execution.
func TestStatementTimeout(t *testing.T) {
	s := slowJoinDB(t, 3000)
	s.SetStatementTimeout(15 * time.Millisecond)
	if _, err := s.Exec(slowQuery); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out statement returned %v, want DeadlineExceeded", err)
	}
	if held := s.Engine().Locks().TotalHeld(); held != 0 {
		t.Fatalf("%d locks leaked by timed-out statement", held)
	}
	// The timeout governs statements, not the session: cheap queries pass.
	if _, err := s.Exec(`SELECT COUNT(*) FROM BIG`); err != nil {
		t.Fatalf("cheap query under timeout: %v", err)
	}
	s.SetStatementTimeout(0)

	// Engine-wide default, inherited by fresh sessions.
	opts := DefaultOptions()
	opts.StatementTimeout = 15 * time.Millisecond
	e := New(opts)
	s2 := e.Session()
	s2.MustExec(`CREATE TABLE T2 (id INT)`)
	var sb strings.Builder
	sb.WriteString("INSERT INTO T2 VALUES (0)")
	for i := 1; i < 2000; i++ {
		fmt.Fprintf(&sb, ",(%d)", i%89)
	}
	s2.MustExec(sb.String())
	if _, err := s2.Exec(`SELECT COUNT(*) FROM T2 a, T2 b, T2 c WHERE a.id < b.id AND b.id < c.id`); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("engine-default timeout returned %v, want DeadlineExceeded", err)
	}
}

// TestPanicContainment: an injected panic at a probe point deep inside DML
// becomes an *exec.PanicError at the statement boundary; the transaction is
// rolled back, no locks leak, and the session keeps working.
func TestPanicContainment(t *testing.T) {
	inj := faultinj.New()
	opts := DefaultOptions()
	opts.FaultInjector = inj
	e := New(opts)
	s := e.Session()
	s.MustExec(`CREATE TABLE P (id INT NOT NULL PRIMARY KEY, v INT)`)
	s.MustExec(`INSERT INTO P VALUES (1, 10), (2, 20)`)

	inj.Arm(faultinj.Fault{Point: faultinj.WALAppend, Panic: true, Once: true})
	_, err := s.Exec(`INSERT INTO P VALUES (3, 30)`)
	if err == nil {
		t.Fatal("panicking insert reported success")
	}
	var pe *exec.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panic surfaced as %T (%v), want *exec.PanicError", err, err)
	}
	if held := e.Locks().TotalHeld(); held != 0 {
		t.Fatalf("%d locks leaked by panicked statement", held)
	}
	if s.InTx() {
		t.Fatal("session stuck in a transaction after panic")
	}
	// Session stays usable and the panicked insert left nothing behind.
	r := s.MustExec(`SELECT COUNT(*) FROM P`)
	if r.Rows[0][0].Int() != 2 {
		t.Fatalf("table has %v rows after contained panic, want 2", r.Rows[0][0])
	}
	s.MustExec(`INSERT INTO P VALUES (3, 30)`)
	if r := s.MustExec(`SELECT COUNT(*) FROM P`); r.Rows[0][0].Int() != 3 {
		t.Fatalf("post-panic insert missing: %v", r.Rows[0][0])
	}

	// Panic mid-query (buffer-pool fetch) inside an explicit transaction:
	// containment rolls the transaction back too.
	inj.Arm(faultinj.Fault{Point: faultinj.BufferFetch, Panic: true, Once: true})
	s.MustExec(`BEGIN`)
	if _, err := s.Exec(`SELECT COUNT(*) FROM P`); err == nil {
		t.Fatal("panicking select reported success")
	} else if !errors.As(err, &pe) {
		t.Fatalf("select panic surfaced as %T, want *exec.PanicError", err)
	}
	if s.InTx() || e.Locks().TotalHeld() != 0 {
		t.Fatal("explicit transaction survived a contained panic")
	}
	if r := s.MustExec(`SELECT COUNT(*) FROM P`); r.Rows[0][0].Int() != 3 {
		t.Fatalf("data wrong after contained select panic: %v", r.Rows[0][0])
	}
}

// TestLockTimeoutBetweenSessions: a writer blocked behind another writer's
// exclusive table lock times out with lock.ErrLockTimeout, leaks nothing, and
// succeeds once the first writer commits. (Readers take no locks under MVCC,
// so writer-behind-writer is the one table-lock wait there is.)
func TestLockTimeoutBetweenSessions(t *testing.T) {
	opts := DefaultOptions()
	opts.LockTimeout = 30 * time.Millisecond
	e := New(opts)
	w := e.Session()
	w2 := e.Session()
	w.MustExec(`CREATE TABLE L (id INT NOT NULL PRIMARY KEY, v INT)`)
	w.MustExec(`INSERT INTO L VALUES (1, 10)`)

	w.MustExec(`BEGIN`)
	w.MustExec(`UPDATE L SET v = 11 WHERE id = 1`) // X lock on L held open
	_, err := w2.Exec(`UPDATE L SET v = 20 WHERE id = 1`)
	if !errors.Is(err, lock.ErrLockTimeout) {
		t.Fatalf("blocked writer returned %v, want lock.ErrLockTimeout", err)
	}
	if w2.InTx() {
		t.Fatal("blocked writer stuck in a transaction after lock timeout")
	}
	if held := e.Locks().HeldCount(w2.TxID()); held != 0 {
		t.Fatalf("blocked writer leaked %d locks", held)
	}
	w.MustExec(`COMMIT`)
	w2.MustExec(`UPDATE L SET v = v + 1 WHERE id = 1`)
	res := w2.MustExec(`SELECT v FROM L WHERE id = 1`)
	if res.Rows[0][0].Int() != 12 {
		t.Fatalf("second writer left v = %v after the first committed, want 12", res.Rows[0][0])
	}
}

// TestNoLeakedLocksOnErrorPaths audits the satellite bugfix: after ANY failed
// statement — parse errors, semantic errors, constraint violations, injected
// storage faults, mid-script failures, failures inside explicit transactions —
// the lock manager holds zero grants.
func TestNoLeakedLocksOnErrorPaths(t *testing.T) {
	inj := faultinj.New()
	opts := DefaultOptions()
	opts.FaultInjector = inj
	e := New(opts)
	s := e.Session()
	s.MustExec(`CREATE TABLE A (id INT NOT NULL PRIMARY KEY, v INT)`)
	s.MustExec(`CREATE TABLE B (id INT NOT NULL PRIMARY KEY, v INT)`)
	s.MustExec(`INSERT INTO A VALUES (1, 1), (2, 2)`)
	s.MustExec(`INSERT INTO B VALUES (1, 1)`)

	fail := func(label, sql string) {
		t.Helper()
		if _, err := s.Exec(sql); err == nil {
			t.Fatalf("%s: expected an error", label)
		}
		if held := e.Locks().TotalHeld(); held != 0 {
			t.Fatalf("%s: %d locks leaked", label, held)
		}
		if s.InTx() {
			t.Fatalf("%s: session left inside a transaction", label)
		}
	}

	fail("semantic error", `SELECT nosuch FROM A`)
	fail("unknown table", `SELECT * FROM NOSUCH`)
	fail("constraint violation", `INSERT INTO A VALUES (1, 99)`)
	fail("mid-script failure", `INSERT INTO B VALUES (2, 2); SELECT boom FROM A; INSERT INTO B VALUES (3, 3)`)
	// Each script statement autocommits, so the INSERT before the failure
	// stays; the one after it must never have run.
	if r := s.MustExec(`SELECT COUNT(*) FROM B`); r.Rows[0][0].Int() != 2 {
		t.Fatalf("mid-script: B has %v rows, want 2 (statement before the failure committed)", r.Rows[0][0])
	}
	if r := s.MustExec(`SELECT COUNT(*) FROM B WHERE id = 3`); r.Rows[0][0].Int() != 0 {
		t.Fatal("mid-script: statement after the failure ran")
	}
	fail("explicit tx failure", `BEGIN; UPDATE A SET v = 5 WHERE id = 1; SELECT boom FROM B; COMMIT`)

	inj.Arm(faultinj.Fault{Point: faultinj.WALAppend, Once: true})
	fail("injected DML fault", `UPDATE A SET v = 7 WHERE id = 2`)
	inj.Arm(faultinj.Fault{Point: faultinj.BufferFetch, Once: true})
	fail("injected fetch fault", `SELECT COUNT(*) FROM A`)

	// The explicit transaction rolled back wholesale: A unchanged.
	if r := s.MustExec(`SELECT v FROM A WHERE id = 1`); r.Rows[0][0].Int() != 1 {
		t.Fatalf("explicit-tx rollback incomplete: A.v = %v", r.Rows[0][0])
	}
}

// TestCancelledTakeStatement: lifecycle governance covers the XNF side too —
// a pre-cancelled context refuses a TAKE, and the CO cache serves the entry
// correctly afterward (no poisoned or half-built entry).
func TestCancelledTakeStatement(t *testing.T) {
	s := newCompany(t)
	s.MustExec(`CREATE VIEW X AS
		OUT OF Xd AS DEPT, Xe AS EMP, emp AS (RELATE Xd, Xe WHERE Xd.dno = Xe.edno) TAKE *`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.ExecContext(ctx, `OUT OF X TAKE *`); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled TAKE returned %v, want context.Canceled", err)
	}
	r, err := s.Exec(`OUT OF X TAKE *`)
	if err != nil {
		t.Fatalf("TAKE after cancelled TAKE: %v", err)
	}
	if r.CO == nil || len(r.CO.Nodes) == 0 {
		t.Fatal("TAKE returned no composite object")
	}
}

// TestSearchedDMLObservesDeadline: the target scan of a searched UPDATE or
// DELETE polls the statement's lifecycle context at batch boundaries like any
// other plan. With an unindexed predicate over 1 500 000 rows (an uncancelled
// scan takes well over ten times the timeout) and a 5 ms timeout the
// statement ends with DeadlineExceeded well before an uncancelled scan
// would, its transaction rolled back, no locks held and the table as it was.
func TestSearchedDMLObservesDeadline(t *testing.T) {
	s := deadlineDB(t, 1_500_000)
	state := func() string { return s.MustExec(`SELECT COUNT(*), SUM(v) FROM BIG`).Rows[0].String() }
	before := state()
	// Uncancelled scan time, with a predicate that matches nothing.
	t0 := time.Now()
	if r := s.MustExec(`UPDATE BIG SET v = v + 1 WHERE v = 1000`); r.RowsAffected != 0 {
		t.Fatalf("baseline update affected %d rows", r.RowsAffected)
	}
	full := time.Since(t0)

	s.SetStatementTimeout(5 * time.Millisecond)
	for _, stmt := range []string{
		`UPDATE BIG SET v = v + 1 WHERE v = 5`,
		`DELETE FROM BIG WHERE v = 5`,
	} {
		t0 := time.Now()
		_, err := s.Exec(stmt)
		took := time.Since(t0)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s under a 5ms timeout returned %v after %v, want DeadlineExceeded", stmt, err, took)
		}
		t.Logf("%s: %v (uncancelled scan %v)", stmt, took, full)
		if took > full/2 {
			t.Errorf("%s returned after %v; the uncancelled scan takes %v", stmt, took, full)
		}
		if s.InTx() {
			t.Fatalf("%s: session stuck in a transaction", stmt)
		}
		if held := s.Engine().Locks().TotalHeld(); held != 0 {
			t.Fatalf("%s: %d locks leaked", stmt, held)
		}
	}
	s.SetStatementTimeout(0)
	if after := state(); after != before {
		t.Fatalf("table changed under timed-out statements: %s -> %s", before, after)
	}
}

// TestTakeObservesDeadline: an XNF node derivation is an ordinary plan, so a
// TAKE polls the statement's lifecycle context at batch boundaries like a
// SELECT. The child here is derived by an unindexed scan of 800 000 rows
// (uncancelled, well over ten times the timeout); under a 2 ms timeout the
// TAKE ends with DeadlineExceeded well before the uncancelled derivation
// would, holding no lock and no snapshot, and leaves nothing in the CO
// cache. Each TAKE has fresh text, so the cache cannot answer.
func TestTakeObservesDeadline(t *testing.T) {
	s := deadlineDB(t, 800_000)
	e := s.Engine()
	s.MustExec(`CREATE TABLE P (pk INT NOT NULL PRIMARY KEY); INSERT INTO P VALUES (1), (2), (3)`)
	take := func(pk int) string {
		return fmt.Sprintf(`OUT OF Xp AS (SELECT * FROM P WHERE pk = %d), Xc AS BIG,
			pc AS (RELATE Xp, Xc WHERE Xp.pk = Xc.v) TAKE *`, pk)
	}
	t0 := time.Now()
	if r := s.MustExec(take(1)); len(r.CO.Node("Xc").Rows) == 0 {
		t.Fatal("baseline TAKE found no child rows")
	}
	full := time.Since(t0)
	entries := e.COCacheStats().Entries

	s.SetStatementTimeout(2 * time.Millisecond)
	t0 = time.Now()
	_, err := s.Exec(take(2))
	took := time.Since(t0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("TAKE under a 2ms timeout returned %v after %v, want DeadlineExceeded", err, took)
	}
	t.Logf("timed-out TAKE: %v (uncancelled %v)", took, full)
	if took > full/2 {
		t.Errorf("TAKE returned after %v; uncancelled it takes %v", took, full)
	}
	if s.InTx() {
		t.Fatal("session stuck in a transaction")
	}
	if held := e.Locks().TotalHeld(); held != 0 {
		t.Fatalf("%d locks leaked", held)
	}
	e.mu.Lock()
	snaps := len(e.snaps)
	e.mu.Unlock()
	if snaps != 0 {
		t.Fatalf("%d snapshots left open", snaps)
	}
	if got := e.COCacheStats().Entries; got != entries {
		t.Fatalf("CO cache went from %d to %d entries under a timed-out TAKE", entries, got)
	}
	s.SetStatementTimeout(0)
	if r := s.MustExec(take(3)); len(r.CO.Node("Xc").Rows) == 0 {
		t.Fatal("TAKE after the timed-out TAKE found no child rows")
	}
}

package engine

import (
	"fmt"
	"strings"
	"testing"

	"sqlxnf/internal/wal"
)

// TestRecoveryDuplicateRows is the regression for RID-based replay: a table
// without a key holds byte-identical rows, and each logged delete/update
// carries its own RID. Replay must consume a distinct physical row per
// record — a value-based fallback that re-matches the same "first" row
// would delete it several times and corrupt the multiset.
func TestRecoveryDuplicateRows(t *testing.T) {
	e := openDurable(t)
	s := e.Session()
	s.MustExec("CREATE TABLE D (a INT, b VARCHAR)")
	for i := 0; i < 3; i++ {
		s.MustExec("INSERT INTO D VALUES (1, 'dup')")
	}
	s.MustExec("INSERT INTO D VALUES (2, 'solo')")
	// Three deletes with identical before-images but distinct RIDs.
	if r := s.MustExec("DELETE FROM D WHERE a = 1"); r.RowsAffected != 3 {
		t.Fatalf("delete affected %d rows, want 3", r.RowsAffected)
	}
	// Fresh duplicates at new RIDs, then two updates with identical
	// before-images.
	s.MustExec("INSERT INTO D VALUES (1, 'dup')")
	s.MustExec("INSERT INTO D VALUES (1, 'dup')")
	if r := s.MustExec("UPDATE D SET b = 'changed' WHERE a = 1"); r.RowsAffected != 2 {
		t.Fatalf("update affected %d rows, want 2", r.RowsAffected)
	}
	want := fingerprint(t, e)

	re := crashReopen(t, e)
	if got := fingerprint(t, re); got != want {
		t.Fatalf("recovered state differs from original:\n got: %s\nwant: %s", got, want)
	}
	rs := re.Session()
	r, _ := rs.Exec("SELECT COUNT(*) FROM D WHERE b = 'changed'")
	if r.Rows[0][0].Int() != 2 {
		t.Errorf("changed count after recovery = %v, want 2", r.Rows[0][0])
	}
	r, _ = rs.Exec("SELECT COUNT(*) FROM D")
	if r.Rows[0][0].Int() != 3 {
		t.Errorf("total count after recovery = %v, want 3", r.Rows[0][0])
	}
}

// TestRecoveryExplainParity: ANALYZE records replay at recovery, so a plan
// whose access path depends on statistics must come out identical after a
// crash. Without stats replay the optimizer would fall back to defaults and
// could flip the scan choice.
func TestRecoveryExplainParity(t *testing.T) {
	e := openDurable(t)
	s := e.Session()
	s.MustExec(companyDDL + fig1Data)
	for i := 0; i < 200; i++ {
		s.MustExec(fmt.Sprintf("INSERT INTO EMP VALUES (%d, 'x%d', %d, 'staff', %d, NULL)",
			1000+i, i, 1000+10*(i%5), 1+i%3))
	}
	s.MustExec("ANALYZE EMP")
	s.MustExec("ANALYZE DEPT")
	const q = "EXPLAIN SELECT d.dname FROM DEPT d, EMP e WHERE d.dno = e.edno AND e.sal > 1025"
	before, err := s.Exec(q)
	if err != nil {
		t.Fatal(err)
	}

	after, err := crashReopen(t, e).Session().Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if before.Explain != after.Explain {
		t.Fatalf("plan changed across recovery:\n-- before --\n%s\n-- after --\n%s",
			before.Explain, after.Explain)
	}
}

// TestRecoveryIdempotent: crashing and recovering a recovered engine yields
// the same state again — replay must not duplicate rows, re-run DDL
// destructively, or renumber anything observable.
func TestRecoveryIdempotent(t *testing.T) {
	e := openDurable(t)
	s := e.Session()
	s.MustExec(companyDDL + fig1Data)
	s.MustExec("UPDATE EMP SET sal = 2500 WHERE eno = 101")
	s.MustExec("DELETE FROM SKILLS WHERE sno = 2")
	s.MustExec("ANALYZE EMP")
	s.MustExec("BEGIN; INSERT INTO DEPT VALUES (9, 'loser', 'XX', 0, 0)") // never committed
	forceLog(e)

	r1 := crashReopen(t, e)
	s.MustExec("ROLLBACK")
	if r1.RecoveryInfo().Replayed == 0 {
		t.Fatal("first recovery replayed nothing")
	}
	fp1 := fingerprint(t, r1)
	if strings.Contains(fp1, "loser") {
		t.Fatalf("first recovery replayed the uncommitted insert:\n%s", fp1)
	}
	r2 := crashReopen(t, r1)
	if fp2 := fingerprint(t, r2); fp2 != fp1 {
		t.Fatalf("second recovery diverged:\n 1st: %s\n 2nd: %s", fp1, fp2)
	}
	r3 := crashReopen(t, r2)
	if fp3 := fingerprint(t, r3); fp3 != fp1 {
		t.Fatalf("third recovery diverged from first")
	}
	if n := r3.RecoveryInfo().Replayed; n != 0 {
		t.Fatalf("third recovery replayed %d records behind the first one's checkpoint", n)
	}
}

// TestCheckpointStatement covers the CHECKPOINT statement's contract: it
// refuses to run with uncommitted writes in the session's transaction, works
// on a clean session, and on a durable engine truncates the log so that
// reopen replays only the post-checkpoint suffix.
func TestCheckpointStatement(t *testing.T) {
	e := NewDefault()
	s := e.Session()
	s.MustExec("CREATE TABLE T (a INT)")
	s.MustExec("BEGIN; INSERT INTO T VALUES (1)")
	_, err := s.Exec("CHECKPOINT")
	if err == nil || !strings.Contains(err.Error(), "CHECKPOINT cannot run inside a transaction") {
		t.Fatalf("CHECKPOINT inside a dirty transaction: err = %v", err)
	}
	// A statement failure inside an explicit transaction rolls the whole
	// transaction back, so the insert is gone and the session is clean.
	r, _ := s.Exec("SELECT COUNT(*) FROM T")
	if r.Rows[0][0].Int() != 0 {
		t.Fatalf("refused CHECKPOINT should have rolled back the insert, count = %v", r.Rows[0][0])
	}
	if _, err := s.Exec("CHECKPOINT"); err != nil {
		t.Fatalf("CHECKPOINT on a clean session: %v", err)
	}

	dir := t.TempDir()
	de, err := Open(crashOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	ds := de.Session()
	ds.MustExec("CREATE TABLE U (a INT)")
	for i := 0; i < 50; i++ {
		ds.MustExec("INSERT INTO U VALUES (1)")
	}
	before := de.WALStats().File.Bytes
	ds.MustExec("CHECKPOINT")
	after := de.WALStats().File.Bytes
	if after >= before {
		t.Fatalf("checkpoint did not shrink the log: %d -> %d bytes", before, after)
	}
	if err := de.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(crashOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ri := re.RecoveryInfo()
	if ri.CheckpointLSN == 0 {
		t.Fatal("reopen found no checkpoint")
	}
	if ri.Replayed != 0 {
		t.Fatalf("clean reopen right after checkpoint replayed %d records, want 0", ri.Replayed)
	}
	cnt, _ := re.Session().Exec("SELECT COUNT(*) FROM U")
	if cnt.Rows[0][0].Int() != 50 {
		t.Errorf("row count after checkpointed reopen = %v, want 50", cnt.Rows[0][0])
	}
}

// TestAutoCheckpoint: with a tiny CheckpointBytes threshold, commits trigger
// background checkpoints that keep the durable log bounded without any
// explicit CHECKPOINT statement.
func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.DataDir = dir
	opts.Sync = wal.SyncAlways
	opts.WALSegmentBytes = 1024
	opts.CheckpointBytes = 512
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s := e.Session()
	s.MustExec("CREATE TABLE T (a INT, b VARCHAR)")
	for i := 0; i < 200; i++ {
		s.MustExec("INSERT INTO T VALUES (1, 'some filler payload to grow the log')")
	}
	st := e.WALStats()
	if st.File.LastCheckpoint == 0 {
		t.Fatal("no auto-checkpoint fired despite a 512-byte threshold")
	}
	if st.AutoCheckpointFailures != 0 {
		t.Fatalf("%d auto-checkpoint failures", st.AutoCheckpointFailures)
	}
	// The log stays bounded: well under the raw volume of 200 logged inserts.
	if st.File.Bytes > 64<<10 {
		t.Fatalf("log grew to %d bytes despite auto-checkpointing", st.File.Bytes)
	}
}

package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"sqlxnf/internal/faultinj"
)

// mvccSetup builds an engine with a small seeded table.
func mvccSetup(t *testing.T, opts Options) *Engine {
	t.Helper()
	e := New(opts)
	s := e.Session()
	s.MustExec(`CREATE TABLE M (id INT PRIMARY KEY, v INT)`)
	s.MustExec(`INSERT INTO M VALUES (1, 10), (2, 20), (3, 30)`)
	return e
}

// TestSnapshotIsolationReader: a transaction keeps seeing the state at its
// BEGIN across concurrent committed DML, and sees fresh state once it ends.
func TestSnapshotIsolationReader(t *testing.T) {
	e := mvccSetup(t, DefaultOptions())
	r := e.Session()
	w := e.Session()

	r.MustExec(`BEGIN`)
	if got := r.MustExec(`SELECT SUM(v) FROM M`).Rows[0][0].Int(); got != 60 {
		t.Fatalf("reader's first sum = %d, want 60", got)
	}
	// All three DML shapes land while the reader's transaction is open.
	w.MustExec(`INSERT INTO M VALUES (4, 40)`)
	w.MustExec(`UPDATE M SET v = 11 WHERE id = 1`)
	w.MustExec(`DELETE FROM M WHERE id = 2`)
	if got := w.MustExec(`SELECT SUM(v) FROM M`).Rows[0][0].Int(); got != 81 {
		t.Fatalf("writer sees sum %d, want 81", got)
	}
	// The open snapshot still sees the original rows — including the deleted
	// one and the pre-update image — and not the insert.
	if got := r.MustExec(`SELECT SUM(v) FROM M`).Rows[0][0].Int(); got != 60 {
		t.Fatalf("reader's snapshot drifted: sum = %d, want 60", got)
	}
	if got := len(r.MustExec(`SELECT id FROM M WHERE id = 2`).Rows); got != 1 {
		t.Fatalf("reader lost sight of the deleted row (rows=%d)", got)
	}
	r.MustExec(`COMMIT`)
	if got := r.MustExec(`SELECT SUM(v) FROM M`).Rows[0][0].Int(); got != 81 {
		t.Fatalf("reader after commit sum = %d, want 81", got)
	}
}

// TestReadersDontBlockBehindWriters: a SELECT in a second session completes
// while a writer transaction holds its exclusive table lock open — readers
// take no locks; only a second writer waits (TestLockTimeoutBetweenSessions).
func TestReadersDontBlockBehindWriters(t *testing.T) {
	e := mvccSetup(t, DefaultOptions())
	w := e.Session()
	r := e.Session()
	w.MustExec(`BEGIN`)
	w.MustExec(`UPDATE M SET v = 99 WHERE id = 1`) // X lock held open
	done := make(chan int64, 1)
	go func() {
		done <- r.MustExec(`SELECT v FROM M WHERE id = 1`).Rows[0][0].Int()
	}()
	select {
	case v := <-done:
		if v != 10 {
			t.Fatalf("concurrent reader saw v=%d, want pre-update 10", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader blocked behind the writer's exclusive lock")
	}
	w.MustExec(`ROLLBACK`)
}

// TestWriteWriteConflict: first-committer-wins. A transaction that read row
// 1 under its snapshot and then finds it rewritten by a later-committed
// transaction gets ErrWriteConflict, rolls back, and succeeds on retry.
func TestWriteWriteConflict(t *testing.T) {
	e := mvccSetup(t, DefaultOptions())
	a := e.Session()
	b := e.Session()

	a.MustExec(`BEGIN`)
	if got := a.MustExec(`SELECT v FROM M WHERE id = 1`).Rows[0][0].Int(); got != 10 {
		t.Fatalf("a read v=%d", got)
	}
	// b commits a change to the same row; a holds no read lock, so this does
	// not block.
	b.MustExec(`UPDATE M SET v = 100 WHERE id = 1`)

	_, err := a.Exec(`UPDATE M SET v = 11 WHERE id = 1`)
	if !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("stale update returned %v, want ErrWriteConflict", err)
	}
	if a.InTx() {
		t.Fatal("session still in a transaction after a conflict abort")
	}
	if held := e.Locks().TotalHeld(); held != 0 {
		t.Fatalf("%d locks leaked after conflict rollback", held)
	}
	// Retry reads fresh state and wins.
	a.MustExec(`UPDATE M SET v = v + 1 WHERE id = 1`)
	if got := a.MustExec(`SELECT v FROM M WHERE id = 1`).Rows[0][0].Int(); got != 101 {
		t.Fatalf("after retry v=%d, want 101", got)
	}
}

// TestDeleteConflict: deleting a row a later transaction already deleted and
// committed is a write-write conflict, not a silent no-op.
func TestDeleteConflict(t *testing.T) {
	e := mvccSetup(t, DefaultOptions())
	a := e.Session()
	b := e.Session()
	a.MustExec(`BEGIN`)
	a.MustExec(`SELECT COUNT(*) FROM M`) // pin the snapshot before b's delete
	b.MustExec(`DELETE FROM M WHERE id = 3`)
	_, err := a.Exec(`DELETE FROM M WHERE id = 3`)
	if !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("stale delete returned %v, want ErrWriteConflict", err)
	}
}

// TestDeleteThenReinsertSameKey: unique enforcement is liveness-based, so a
// transaction may delete a key and reinsert it before committing.
func TestDeleteThenReinsertSameKey(t *testing.T) {
	e := mvccSetup(t, DefaultOptions())
	s := e.Session()
	s.MustExec(`BEGIN`)
	s.MustExec(`DELETE FROM M WHERE id = 1`)
	s.MustExec(`INSERT INTO M VALUES (1, 111)`)
	s.MustExec(`COMMIT`)
	if got := s.MustExec(`SELECT v FROM M WHERE id = 1`).Rows[0][0].Int(); got != 111 {
		t.Fatalf("v=%d after delete+reinsert, want 111", got)
	}
	// And the constraint still holds for genuinely live duplicates.
	if _, err := s.Exec(`INSERT INTO M VALUES (1, 5)`); err == nil {
		t.Fatal("duplicate key insert succeeded")
	}
}

// TestRollbackRestoresVersions: rollback of inserts, updates and deletes
// leaves both the data and the unique constraint exactly as before.
func TestRollbackRestoresVersions(t *testing.T) {
	e := mvccSetup(t, DefaultOptions())
	s := e.Session()
	s.MustExec(`BEGIN`)
	s.MustExec(`INSERT INTO M VALUES (7, 70)`)
	s.MustExec(`UPDATE M SET v = 21 WHERE id = 2`)
	s.MustExec(`DELETE FROM M WHERE id = 3`)
	s.MustExec(`ROLLBACK`)
	if got := s.MustExec(`SELECT SUM(v) FROM M`).Rows[0][0].Int(); got != 60 {
		t.Fatalf("sum=%d after rollback, want 60", got)
	}
	// The resurrected row 3 is reachable through its index entry and its key
	// is still taken.
	if got := s.MustExec(`SELECT v FROM M WHERE id = 3`).Rows[0][0].Int(); got != 30 {
		t.Fatalf("row 3 v=%d after rollback, want 30", got)
	}
	if _, err := s.Exec(`INSERT INTO M VALUES (3, 1)`); err == nil {
		t.Fatal("rollback left key 3 free for duplicates")
	}
}

// TestVacuumReclaimsSettledVersions: dead versions purge and fresh create
// stamps freeze once no snapshot needs them — but not while one is pinned.
func TestVacuumReclaimsSettledVersions(t *testing.T) {
	opts := DefaultOptions()
	opts.VacuumDeadRows = -1 // manual control
	e := mvccSetup(t, opts)
	s := e.Session()

	pin := e.Session()
	pin.MustExec(`BEGIN`)
	pin.MustExec(`SELECT COUNT(*) FROM M`) // snapshot pinned at 3 rows

	s.MustExec(`UPDATE M SET v = v + 1 WHERE id = 1`) // old version of 1 dies
	s.MustExec(`DELETE FROM M WHERE id = 2`)          // row 2 dies

	if purged, _ := e.Vacuum(); purged != 0 {
		t.Fatalf("vacuum purged %d versions under a pinned snapshot", purged)
	}
	// The pinned snapshot still reads its world.
	if got := pin.MustExec(`SELECT SUM(v) FROM M`).Rows[0][0].Int(); got != 60 {
		t.Fatalf("pinned snapshot sum=%d, want 60", got)
	}
	pin.MustExec(`COMMIT`)

	purged, frozen := e.Vacuum()
	if purged != 2 { // old version of row 1 + deleted row 2
		t.Fatalf("vacuum purged %d, want 2", purged)
	}
	if frozen == 0 {
		t.Fatal("vacuum froze nothing (the updated row's new version should settle)")
	}
	if got := s.MustExec(`SELECT SUM(v) FROM M`).Rows[0][0].Int(); got != 41 {
		t.Fatalf("post-vacuum sum=%d, want 41", got)
	}
	// Purged versions free their keys and index entries.
	s.MustExec(`INSERT INTO M VALUES (2, 22)`)
	if got := s.MustExec(`SELECT v FROM M WHERE id = 2`).Rows[0][0].Int(); got != 22 {
		t.Fatalf("reinserted row reads %d, want 22", got)
	}
}

// TestAutoVacuumTriggers: enough committed churn trips the inline sweep
// without any manual Vacuum call.
func TestAutoVacuumTriggers(t *testing.T) {
	opts := DefaultOptions()
	opts.VacuumDeadRows = 8
	e := mvccSetup(t, opts)
	s := e.Session()
	for i := 0; i < 20; i++ {
		s.MustExec(`UPDATE M SET v = v + 1 WHERE id = 1`)
	}
	if got := e.DeadRowEstimate(); got >= 40 {
		t.Fatalf("dead-row counter %d never reset: auto-vacuum did not run", got)
	}
	if got := s.MustExec(`SELECT v FROM M WHERE id = 1`).Rows[0][0].Int(); got != 30 {
		t.Fatalf("v=%d after churn, want 30", got)
	}
}

// TestVacuumSkipsFailingEntries: vacuum is best-effort — an injected page
// failure mid-sweep skips the entry (it stays for the next sweep) and never
// corrupts live data.
func TestVacuumSkipsFailingEntries(t *testing.T) {
	inj := faultinj.New()
	opts := DefaultOptions()
	opts.FaultInjector = inj
	opts.BufferPoolPages = 4
	opts.VacuumDeadRows = -1
	e := mvccSetup(t, opts)
	s := e.Session()
	for i := 10; i < 60; i++ {
		s.MustExec(fmt.Sprintf(`INSERT INTO M VALUES (%d, %d)`, i, i))
	}
	s.MustExec(`DELETE FROM M WHERE id >= 30`)
	want := s.MustExec(`SELECT SUM(v) FROM M`).Rows[0][0].Int()

	inj.Arm(faultinj.Fault{Point: faultinj.DiskRead, After: 2, Once: true})
	e.Vacuum()
	inj.DisarmAll()
	if got := s.MustExec(`SELECT SUM(v) FROM M`).Rows[0][0].Int(); got != want {
		t.Fatalf("sum=%d after faulted vacuum, want %d", got, want)
	}
	// A clean follow-up sweep finishes the job.
	e.Vacuum()
	if got := s.MustExec(`SELECT SUM(v) FROM M`).Rows[0][0].Int(); got != want {
		t.Fatalf("sum=%d after follow-up vacuum, want %d", got, want)
	}
}

// TestDropRecreateNoVersionABA (satellite regression): DROP TABLE followed
// by CREATE TABLE of the same name must never hand the new table a version
// number the old table already exposed — a composite-object cache entry
// whose dependency snapshot recorded the old version would then validate
// against the unrelated new table and serve stale rows. Versions draw from
// a global seed, so they are unique across a table's whole drop/recreate
// lifetime.
func TestDropRecreateNoVersionABA(t *testing.T) {
	e := NewDefault()
	s := e.Session()
	s.MustExec(`CREATE TABLE A (id INT PRIMARY KEY, v INT)`)
	tbl, err := e.Catalog().Table("A")
	if err != nil {
		t.Fatal(err)
	}
	// Advance the table's version the way the old entry would have seen it.
	s.MustExec(`INSERT INTO A VALUES (1, 1)`)
	s.MustExec(`UPDATE A SET v = 2 WHERE id = 1`)
	oldVer := tbl.Version()

	s.MustExec(`DROP TABLE A`)
	s.MustExec(`CREATE TABLE A (id INT PRIMARY KEY, v INT)`)
	fresh, err := e.Catalog().Table("A")
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Version() <= oldVer {
		t.Fatalf("recreated table version %d <= old version %d: ABA window reopened",
			fresh.Version(), oldVer)
	}
}

// TestDropRecreateCOCacheABA: the end-to-end shape of the ABA bug — a cached
// CO checked out before a component table was dropped and recreated must
// re-materialize afterwards, not serve the old table's rows.
func TestDropRecreateCOCacheABA(t *testing.T) {
	e := NewDefault()
	s := e.Session()
	s.MustExec(`CREATE TABLE C (id INT PRIMARY KEY, name VARCHAR)`)
	s.MustExec(`INSERT INTO C VALUES (1, 'old')`)
	s.MustExec(`CREATE VIEW CV AS OUT OF Xc AS C TAKE *`)
	co := s.MustExec(`OUT OF CV TAKE *`).CO
	if got := co.Node("Xc").Rows[0][1].String(); got != "old" {
		t.Fatalf("first checkout saw %q", got)
	}
	s.MustExec(`DROP TABLE C`)
	s.MustExec(`CREATE TABLE C (id INT PRIMARY KEY, name VARCHAR)`)
	s.MustExec(`INSERT INTO C VALUES (1, 'new')`)
	co2 := s.MustExec(`OUT OF CV TAKE *`).CO
	if got := co2.Node("Xc").Rows[0][1].String(); got != "new" {
		t.Fatalf("post-recreate checkout served %q, want 'new' (stale CO cache entry)", got)
	}
}

// TestMVCCGoroutineLeak: a concurrent reader/writer workload with vacuum
// sweeps leaves no goroutines behind — MVCC added no background workers.
func TestMVCCGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	func() {
		opts := DefaultOptions()
		opts.VacuumDeadRows = 16
		e := mvccSetup(t, opts)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				s := e.Session()
				for i := 0; i < 50; i++ {
					if g%2 == 0 {
						if _, err := s.Exec(`UPDATE M SET v = v + 1 WHERE id = 1`); err != nil &&
							!errors.Is(err, ErrWriteConflict) {
							t.Errorf("writer: %v", err)
							return
						}
					} else {
						s.MustExec(`SELECT SUM(v) FROM M`)
					}
				}
			}(g)
		}
		wg.Wait()
		e.Vacuum()
	}()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > baseline {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutines leaked: %d -> %d", baseline, n)
	}
}

package engine

import (
	"errors"
	"slices"
	"testing"

	"sqlxnf/internal/exec"
	"sqlxnf/internal/faultinj"
)

// TestUndoListsArePerSession: two sessions interleave writes to different
// tables; one rolls back, the other commits. Each transaction's undo list
// holds only its own entries, so the rollback reverses exactly its own
// writes, and either outcome leaves the list empty. An in-memory engine has
// no log at all.
func TestUndoListsArePerSession(t *testing.T) {
	e := NewDefault()
	if e.Log() != nil {
		t.Fatal("in-memory engine has a log")
	}
	a, b := e.Session(), e.Session()
	a.MustExec("CREATE TABLE TA (id INT PRIMARY KEY, v INT); CREATE TABLE TB (id INT PRIMARY KEY, v INT)")
	a.MustExec("INSERT INTO TA VALUES (1, 10), (2, 20)")
	b.MustExec("INSERT INTO TB VALUES (1, 10), (2, 20)")

	a.MustExec("BEGIN")
	b.MustExec("BEGIN")
	a.MustExec("INSERT INTO TA VALUES (3, 30)")
	b.MustExec("INSERT INTO TB VALUES (3, 30)")
	a.MustExec("UPDATE TA SET v = 11 WHERE id = 1")
	b.MustExec("DELETE FROM TB WHERE id = 2")
	a.MustExec("DELETE FROM TA WHERE id = 2")
	b.MustExec("UPDATE TB SET v = 31 WHERE id = 3")
	entries := func(s *Session) []undoEntry { return slices.Concat(s.undo...) }
	if len(entries(a)) != 3 || len(entries(b)) != 3 {
		t.Fatalf("undo lists hold %d and %d entries, want 3 each", len(entries(a)), len(entries(b)))
	}
	for _, u := range entries(a) {
		if u.t.Name != "TA" {
			t.Fatalf("session a's undo list holds a foreign entry: %+v", u)
		}
	}
	a.MustExec("ROLLBACK")
	b.MustExec("COMMIT")
	if len(a.undo) != 0 || len(b.undo) != 0 {
		t.Fatalf("undo lists not dropped: %d after rollback, %d after commit", len(a.undo), len(b.undo))
	}

	check := func(q, want string) {
		t.Helper()
		r := e.Session().MustExec(q)
		got := ""
		for _, row := range r.Rows {
			got += row.String() + ";"
		}
		if got != want {
			t.Fatalf("%s = %s, want %s", q, got, want)
		}
	}
	check("SELECT id, v FROM TA ORDER BY id", "(1, 10);(2, 20);")
	check("SELECT id, v FROM TB ORDER BY id", "(1, 10);(3, 31);")
	if held := e.Locks().TotalHeld(); held != 0 {
		t.Fatalf("%d locks held after both transactions ended", held)
	}
}

// TestAppendFaultOnCommitRecord: a single-row autocommit INSERT appends a
// begin, a data and a commit record. A wal.append fault on the third — the
// heap change made, its undo entry pushed, the commit record refused — must
// roll the transaction back instead of making it visible.
func TestAppendFaultOnCommitRecord(t *testing.T) {
	for _, panics := range []bool{false, true} {
		inj := faultinj.New()
		opts := DefaultOptions()
		opts.FaultInjector = inj
		e := New(opts)
		s := e.Session()
		s.MustExec("CREATE TABLE T (id INT PRIMARY KEY, v INT)")
		s.MustExec("INSERT INTO T VALUES (1, 10)")

		inj.Arm(faultinj.Fault{Point: faultinj.WALAppend, After: 2, Panic: panics, Once: true})
		_, err := s.Exec("INSERT INTO T VALUES (2, 20)")
		var pe *exec.PanicError
		if panics && !errors.As(err, &pe) {
			t.Fatalf("panicking commit-record append surfaced as %v, want *exec.PanicError", err)
		}
		if !panics && !errors.Is(err, faultinj.ErrInjected) {
			t.Fatalf("failed commit-record append surfaced as %v, want the injected error", err)
		}
		if inj.Fired() != 1 {
			t.Fatalf("fault fired %d times, want once (on the commit record)", inj.Fired())
		}
		if s.InTx() || len(s.undo) != 0 {
			t.Fatalf("session left in a transaction (inTx=%v, %d undo records)", s.InTx(), len(s.undo))
		}
		if held := e.Locks().TotalHeld(); held != 0 {
			t.Fatalf("%d locks leaked", held)
		}
		if r := e.Session().MustExec("SELECT COUNT(*) FROM T"); r.Rows[0][0].Int() != 1 {
			t.Fatalf("T has %v rows after the refused commit, want 1", r.Rows[0][0])
		}
		s.MustExec("INSERT INTO T VALUES (2, 20)") // the key is free again
	}
}

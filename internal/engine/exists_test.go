package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// existsDnos runs the correlated EXISTS (or NOT EXISTS) query and renders the
// qualifying department numbers.
func existsDnos(t *testing.T, s *Session, not bool) string {
	t.Helper()
	q := `SELECT dno FROM D WHERE EXISTS (SELECT 1 FROM E WHERE E.dno = D.dno) ORDER BY dno`
	if not {
		q = strings.Replace(q, "WHERE EXISTS", "WHERE NOT EXISTS", 1)
	}
	var out []string
	for _, r := range s.MustExec(q).Rows {
		out = append(out, fmt.Sprint(r[0].Int()))
	}
	return strings.Join(out, ",")
}

// TestExistsSubplanReadsSnapshot: an EXISTS subplan reads through the
// statement's MVCC snapshot like the outer query — it never sees another
// session's uncommitted insert, keeps seeing a row another session has
// deleted but not committed, and repeats its answer inside a transaction
// while others commit. Both inner access paths: a filtered sequential scan
// and an index probe.
func TestExistsSubplanReadsSnapshot(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		t.Run(fmt.Sprintf("indexed=%v", indexed), func(t *testing.T) {
			e := NewDefault()
			w, r := e.Session(), e.Session()
			w.MustExec(`CREATE TABLE D (dno INT NOT NULL PRIMARY KEY)`)
			w.MustExec(`CREATE TABLE E (eno INT NOT NULL PRIMARY KEY, dno INT)`)
			if indexed {
				w.MustExec(`CREATE INDEX e_dno ON E (dno)`)
			}
			w.MustExec(`INSERT INTO D VALUES (1), (2), (3)`)
			w.MustExec(`INSERT INTO E VALUES (20, 2)`)

			w.MustExec(`BEGIN`)
			w.MustExec(`INSERT INTO E VALUES (10, 1)`)
			if got := existsDnos(t, r, false); got != "2" {
				t.Fatalf("EXISTS saw an uncommitted insert: departments %q, want \"2\"", got)
			}
			if got := len(r.MustExec(`SELECT eno FROM E WHERE dno = 1`).Rows); got != 0 {
				t.Fatalf("plain SELECT saw the uncommitted insert (%d rows)", got)
			}
			w.MustExec(`DELETE FROM E WHERE eno = 20`)
			if got := existsDnos(t, r, false); got != "2" {
				t.Fatalf("EXISTS lost a row whose delete is uncommitted: departments %q, want \"2\"", got)
			}
			if got := existsDnos(t, r, true); got != "1,3" {
				t.Fatalf("NOT EXISTS under uncommitted insert+delete: departments %q, want \"1,3\"", got)
			}

			// Repeatable read: r's transaction pins its snapshot before w
			// commits, and EXISTS keeps answering from it.
			r.MustExec(`BEGIN`)
			if got := existsDnos(t, r, false); got != "2" {
				t.Fatalf("first read in transaction: departments %q, want \"2\"", got)
			}
			w.MustExec(`COMMIT`)
			w.MustExec(`INSERT INTO E VALUES (30, 3)`)
			if got := existsDnos(t, r, false); got != "2" {
				t.Fatalf("EXISTS drifted inside a transaction: departments %q, want \"2\"", got)
			}
			r.MustExec(`COMMIT`)
			if got := existsDnos(t, r, false); got != "1,3" {
				t.Fatalf("after commit: departments %q, want \"1,3\"", got)
			}
		})
	}
}

// TestExistsSubplanObservesDeadline: the statement deadline interrupts work
// inside an unindexed correlated EXISTS subplan. The outer table fits one
// batch, so no outer-side poll can fire before all 200 subplan runs finish;
// each run scans the whole inner table (the key never matches). Only a poll
// inside the subplan returns promptly.
func TestExistsSubplanObservesDeadline(t *testing.T) {
	s := slowJoinDB(t, 30000)
	s.MustExec(`CREATE TABLE O (id INT NOT NULL PRIMARY KEY)`)
	var sb strings.Builder
	sb.WriteString("INSERT INTO O VALUES (0)")
	for i := 1; i < 200; i++ {
		fmt.Fprintf(&sb, ",(%d)", i)
	}
	s.MustExec(sb.String())

	const timeout = 20 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	start := time.Now()
	_, err := s.ExecContext(ctx,
		`SELECT COUNT(*) FROM O WHERE EXISTS (SELECT 1 FROM BIG WHERE BIG.v = O.id + 1000)`)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("statement returned %v, want context.DeadlineExceeded", err)
	}
	if elapsed > timeout+250*time.Millisecond {
		t.Fatalf("statement returned %v after start with a %v deadline: the subplan ignored it", elapsed, timeout)
	}
	if held := s.Engine().Locks().TotalHeld(); held != 0 || s.InTx() {
		t.Fatalf("interrupted statement left %d locks, inTx=%v", held, s.InTx())
	}
}

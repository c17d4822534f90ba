package engine

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentSessionsSeeCommittedState: snapshot isolation with
// first-committer-wins loses no update.
func TestConcurrentSessionsSeeCommittedState(t *testing.T) {
	e := NewDefault()
	s := e.Session()
	s.MustExec("CREATE TABLE CTR (id INT PRIMARY KEY, v INT); INSERT INTO CTR VALUES (1, 0)")
	const writers = 4
	const perWriter = 10
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := e.Session()
			for i := 0; i < perWriter; i++ {
				// Read-modify-write inside one transaction. The read takes no
				// lock, so another writer may commit between this snapshot and
				// the UPDATE: the loser gets ErrWriteConflict, its transaction
				// rolls back, and the application retries — the standard
				// snapshot-isolation contract.
				for {
					err := rmwOnce(sess)
					if err == nil {
						break
					}
					if !errors.Is(err, ErrWriteConflict) {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	r, _ := e.Session().Exec("SELECT v FROM CTR WHERE id = 1")
	if got := r.Rows[0][0].Int(); got != writers*perWriter {
		t.Errorf("counter = %d, want %d (lost updates)", got, writers*perWriter)
	}
}

// rmwOnce attempts one read-modify-write transaction on the counter.
func rmwOnce(sess *Session) error {
	if _, err := sess.Exec("BEGIN"); err != nil {
		return err
	}
	r, err := sess.Exec("SELECT v FROM CTR WHERE id = 1")
	if err != nil {
		return err // transaction already rolled back by the engine
	}
	v := r.Rows[0][0].Int()
	if _, err := sess.Exec("UPDATE CTR SET v = " + NewIntString(v+1) + " WHERE id = 1"); err != nil {
		return err
	}
	_, err = sess.Exec("COMMIT")
	return err
}

// NewIntString formats an int64 without fmt (helper to keep imports tight).
func NewIntString(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [24]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// TestDeadlockDetectedAcrossSessions: two sessions locking two tables in
// opposite order; one must get a deadlock error and its transaction rolls
// back, the other completes.
func TestDeadlockDetectedAcrossSessions(t *testing.T) {
	e := NewDefault()
	setup := e.Session()
	setup.MustExec(`CREATE TABLE A (x INT); CREATE TABLE B (x INT);
		INSERT INTO A VALUES (1); INSERT INTO B VALUES (1)`)
	s1, s2 := e.Session(), e.Session()
	s1.MustExec("BEGIN; UPDATE A SET x = 2")
	s2.MustExec("BEGIN; UPDATE B SET x = 2")
	errCh := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, err := s1.Exec("UPDATE B SET x = 3") // blocks on s2
		errCh <- err
	}()
	go func() {
		defer wg.Done()
		_, err := s2.Exec("UPDATE A SET x = 3") // would close the cycle
		errCh <- err
	}()
	wg.Wait()
	close(errCh)
	var deadlocks, successes int
	for err := range errCh {
		if err == nil {
			successes++
		} else if strings.Contains(err.Error(), "deadlock") {
			deadlocks++
		} else {
			t.Errorf("unexpected error: %v", err)
		}
	}
	if deadlocks < 1 {
		t.Fatalf("expected at least one deadlock victim (deadlocks=%d successes=%d)", deadlocks, successes)
	}
	// The victim's transaction was rolled back; clean up survivors so the
	// table is unlocked, then verify the database is consistent.
	for _, s := range []*Session{s1, s2} {
		if s.InTx() {
			if _, err := s.Exec("COMMIT"); err != nil {
				t.Fatalf("commit survivor: %v", err)
			}
		}
	}
	r, err := e.Session().Exec("SELECT COUNT(*) FROM A")
	if err != nil || r.Rows[0][0].Int() != 1 {
		t.Fatalf("post-deadlock state: %v %v", r, err)
	}
}

// TestXNFAndSQLShareDatabase: the Fig. 7 architecture — an XNF application
// and a plain SQL application operating on the same tables concurrently.
func TestXNFAndSQLShareDatabase(t *testing.T) {
	e := NewDefault()
	s := e.Session()
	s.MustExec(`CREATE TABLE DEPT (dno INT PRIMARY KEY, dname VARCHAR);
		CREATE TABLE EMP (eno INT PRIMARY KEY, ename VARCHAR, edno INT);
		INSERT INTO DEPT VALUES (1, 'd1');
		INSERT INTO EMP VALUES (10, 'a', 1), (11, 'b', 1)`)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			sess := e.Session()
			for j := 0; j < 10; j++ {
				if _, err := sess.Exec("SELECT COUNT(*) FROM EMP"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			sess := e.Session()
			for j := 0; j < 10; j++ {
				r, err := sess.Exec(`OUT OF Xd AS DEPT, Xe AS EMP,
					employment AS (RELATE Xd, Xe WHERE Xd.dno = Xe.edno) TAKE *`)
				if err != nil {
					t.Error(err)
					return
				}
				if r.CO.Size() != 3 {
					t.Errorf("CO size = %d", r.CO.Size())
					return
				}
			}
		}()
	}
	wg.Wait()
}

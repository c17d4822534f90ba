package wire

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"sqlxnf"
	"sqlxnf/internal/faultinj"
)

// TestServerNetFaultChaos injects connection faults at both network probe
// points under client churn and proves nothing leaks: no sessions, no locks,
// no goroutines — the robustness contract of the service layer.
func TestServerNetFaultChaos(t *testing.T) {
	baseline := runtime.NumGoroutine()

	db := sqlxnf.Open()
	inj := sqlxnf.NewFaultInjector()
	db.MustExec(`CREATE TABLE T (id INT PRIMARY KEY, v INT)`)
	db.MustExec(`INSERT INTO T VALUES (1, 0)`)
	srv := NewServer(db, Config{Faults: inj})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	// Phase 1: accept faults. The connection dies before the session exists;
	// the client's admission ping fails.
	for i := 0; i < 3; i++ {
		inj.Arm(faultinj.Fault{Point: faultinj.NetAccept, Once: true})
		if _, err := Dial(srv.Addr()); err == nil {
			t.Fatal("dial survived an injected accept fault")
		}
	}
	if n := inj.FiredAt(faultinj.NetAccept); n != 3 {
		t.Fatalf("accept faults fired %d times, want 3", n)
	}

	// Phase 2: read faults against a connection holding an open transaction
	// and its locks — the worst case for leakage. The fault drops the
	// connection; cleanup must roll back and release everything.
	for i := 0; i < 3; i++ {
		c, err := Dial(srv.Addr())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		mustExec(t, c, "BEGIN; UPDATE T SET v = v + 1 WHERE id = 1")
		if db.Engine().Locks().TotalHeld() == 0 {
			t.Fatal("open transaction holds no locks — scenario broken")
		}
		inj.Arm(faultinj.Fault{Point: faultinj.NetRead, Once: true})
		// The conn goroutine races the Arm: if it is already parked in its
		// frame read, past this iteration's probe, one more request
		// round-trips and the fault fires when it loops; if it has not
		// reached the probe yet, the fault fires at once. Either way a
		// request fails within two sends.
		var sendErr error
		for sends := 0; sends < 2 && sendErr == nil; sends++ {
			_, sendErr = c.Exec("SELECT v FROM T WHERE id = 1")
		}
		if sendErr == nil {
			t.Fatal("connection survived an injected read fault")
		}
		if _, err := c.Exec("SELECT v FROM T WHERE id = 1"); err == nil {
			t.Fatal("connection still serves requests after its read fault")
		}
		_ = c.Close()
		if n := inj.FiredAt(faultinj.NetRead); n != int64(i+1) {
			t.Fatalf("iteration %d: read faults fired %d times, want %d", i, n, i+1)
		}
		waitFor(t, 2*time.Second, func() bool {
			st := srv.Counters()
			return db.Engine().Locks().TotalHeld() == 0 && st.LiveSessions == 0 && st.LiveConns == 0
		})
		// Locks gone means the transaction ended; v unchanged means it ended
		// in rollback, not commit.
		if got := db.MustExec("SELECT v FROM T WHERE id = 1").Rows[0][0].Int(); got != 0 {
			t.Fatalf("iteration %d: v = %d, want 0: the faulted transaction's update survived", i, got)
		}
	}
	st := srv.Counters()
	if st.NetFaults != 6 || st.LiveConns != 0 || st.LiveSessions != 0 {
		t.Fatalf("post-chaos counters: %+v", st)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > baseline {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutines leaked: %d > baseline %d", n, baseline)
	}
}

// TestServerDrainUnderLoad is the SIGTERM path against a durable database:
// writers mid-flight, Shutdown drains, db.Close checkpoints and seals the
// WAL, and the reopen replays zero records.
func TestServerDrainUnderLoad(t *testing.T) {
	baseline := runtime.NumGoroutine()
	dir := t.TempDir()
	db, err := sqlxnf.OpenDir(dir, sqlxnf.WithSyncPolicy(sqlxnf.SyncNone))
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	db.MustExec(`CREATE TABLE LOG (id INT PRIMARY KEY, v INT)`)
	srv := NewServer(db, Config{Workers: 4})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	// Writers insert until the drain cuts them off; every error past that
	// point must be a typed shutdown/cancel/connection failure, never a hang.
	// All four connect before any load starts: a writer dialling from its own
	// goroutine could lose the race against Shutdown closing the listener
	// (three writers reach the admission count below on their own).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		c, err := Dial(srv.Addr())
		if err != nil {
			t.Fatalf("writer dial: %v", err)
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer c.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, err := c.Exec("INSERT INTO LOG VALUES (" + itoa(w*1000000+i) + ", " + itoa(i) + ")")
				if err != nil {
					var we *Error
					if errors.As(err, &we) && we.Code != CodeShutdown && we.Code != CodeCanceled && we.Code != CodeBusy {
						t.Errorf("writer saw unexpected typed error during drain: %+v", we)
					}
					return
				}
			}
		}(w)
	}
	waitFor(t, 5*time.Second, func() bool { return srv.Counters().Admitted > 20 })

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown did not drain cleanly: %v", err)
	}
	close(stop)
	wg.Wait()
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if n := db.Engine().Locks().TotalHeld(); n != 0 {
		t.Fatalf("locks leaked through drain: %d", n)
	}
	committed := db.MustExec("SELECT COUNT(*) FROM LOG").Rows[0][0].Int()
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: the drain checkpoint means recovery replays nothing, and every
	// committed insert is present.
	db2, err := sqlxnf.OpenDir(dir, sqlxnf.WithSyncPolicy(sqlxnf.SyncNone))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if info := db2.Engine().RecoveryInfo(); info.Replayed != 0 {
		t.Fatalf("reopen replayed %d records, want 0 (checkpoint-on-drain)", info.Replayed)
	}
	if got := db2.MustExec("SELECT COUNT(*) FROM LOG").Rows[0][0].Int(); got != committed {
		t.Fatalf("reopen sees %d rows, committed %d", got, committed)
	}

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > baseline {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutines leaked: %d > baseline %d", n, baseline)
	}
}

package lock

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestAcquireContextTimeout: a waiter whose context deadline expires gets
// ErrLockTimeout, and the abandoned wait leaves no queue residue — the next
// uncontended acquire succeeds instantly.
func TestAcquireContextTimeout(t *testing.T) {
	m := NewManager()
	if err := m.Lock(1, "T"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := m.AcquireContext(ctx, 2, "T")
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("timed-out wait returned %v, want ErrLockTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("timeout took %v, deadline was 20ms", elapsed)
	}
	if m.HeldCount(2) != 0 {
		t.Fatalf("tx2 holds %d locks after a timed-out wait", m.HeldCount(2))
	}
	m.ReleaseAll(1)
	if err := m.Lock(3, "T"); err != nil {
		t.Fatalf("acquire after abandoned wait: %v", err)
	}
	m.ReleaseAll(3)
	if m.TotalHeld() != 0 {
		t.Fatalf("TotalHeld = %d after full release", m.TotalHeld())
	}
}

// TestAcquireContextCancel: explicit cancellation (a Ctrl-C mid-wait) unblocks
// the waiter with ErrLockTimeout wrapping the context error.
func TestAcquireContextCancel(t *testing.T) {
	m := NewManager()
	if err := m.Lock(1, "T"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- m.AcquireContext(ctx, 2, "T") }()
	select {
	case err := <-done:
		t.Fatalf("waiter returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, ErrLockTimeout) {
			t.Fatalf("cancelled wait returned %v, want ErrLockTimeout", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled waiter still blocked")
	}
	m.ReleaseAll(1)
}

// TestAcquireContextPreCancelled: an already-dead context fails the wait path
// but never the fast path — an uncontended acquire succeeds regardless,
// matching the "cancellation polls at boundaries" contract.
func TestAcquireContextPreCancelled(t *testing.T) {
	m := NewManager()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.AcquireContext(ctx, 1, "FREE"); err != nil {
		t.Fatalf("uncontended acquire under dead context: %v", err)
	}
	if err := m.AcquireContext(ctx, 2, "FREE"); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("contended acquire under dead context returned %v, want ErrLockTimeout", err)
	}
	m.ReleaseAll(1)
}

// TestAcquireContextStillGrants: a context with a generous deadline does not
// perturb the normal grant path — the waiter gets the lock once the holder
// releases.
func TestAcquireContextStillGrants(t *testing.T) {
	m := NewManager()
	if err := m.Lock(1, "T"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- m.AcquireContext(ctx, 2, "T") }()
	time.Sleep(10 * time.Millisecond)
	m.ReleaseAll(1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("wait-then-grant failed: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter never granted after release")
	}
	if m.HeldCount(2) != 1 {
		t.Fatal("granted lock not recorded")
	}
	m.ReleaseAll(2)
}

// TestDeadlockStillDetectedUnderContext: the wait-for-graph check fires even
// when both waiters carry long deadlines — timeouts complement deadlock
// detection, they do not replace it.
func TestDeadlockStillDetectedUnderContext(t *testing.T) {
	m := NewManager()
	if err := m.Lock(1, "A"); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, "B"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errCh := make(chan error, 1)
	go func() { errCh <- m.AcquireContext(ctx, 1, "B") }()
	time.Sleep(20 * time.Millisecond)
	err2 := m.AcquireContext(ctx, 2, "A")
	if err2 != nil {
		if !errors.Is(err2, ErrDeadlock) {
			t.Fatalf("tx2 got %v, want ErrDeadlock", err2)
		}
		m.ReleaseAll(2)
	}
	err1 := <-errCh
	if err1 == nil && err2 == nil {
		t.Fatal("deadlock not detected on either side")
	}
	if err1 != nil && !errors.Is(err1, ErrDeadlock) {
		t.Fatalf("tx1 got %v, want ErrDeadlock", err1)
	}
	m.ReleaseAll(1)
	m.ReleaseAll(2)
}

// TestHeldCountHooks: the test hooks robustness suites lean on report exact
// grant counts.
func TestHeldCountHooks(t *testing.T) {
	m := NewManager()
	_ = m.Lock(1, "A")
	_ = m.Lock(1, "B")
	_ = m.Lock(2, "C")
	if got := m.HeldCount(1); got != 2 {
		t.Fatalf("HeldCount(1) = %d, want 2", got)
	}
	if got := m.TotalHeld(); got != 3 {
		t.Fatalf("TotalHeld = %d, want 3", got)
	}
	m.ReleaseAll(1)
	if got := m.TotalHeld(); got != 1 {
		t.Fatalf("TotalHeld after release = %d, want 1", got)
	}
	m.ReleaseAll(2)
	if got := m.TotalHeld(); got != 0 {
		t.Fatalf("TotalHeld after full release = %d, want 0", got)
	}
}

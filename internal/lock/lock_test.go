package lock

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestExclusiveBlocksAndReleases(t *testing.T) {
	m := NewManager()
	if err := m.Lock(1, "DEPT"); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan struct{})
	go func() {
		if err := m.Lock(2, "DEPT"); err != nil {
			t.Errorf("tx2 lock: %v", err)
		}
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("lock granted while another transaction held it")
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(1)
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("lock not granted after release")
	}
}

func TestDeadlockDetection(t *testing.T) {
	m := NewManager()
	if err := m.Lock(1, "A"); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, "B"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	errCh := make(chan error, 2)
	go func() {
		defer wg.Done()
		errCh <- m.Lock(1, "B") // blocks on tx2
	}()
	time.Sleep(20 * time.Millisecond)
	// tx2 requesting A would close the cycle: one of the two must get
	// ErrDeadlock.
	err2 := m.Lock(2, "A")
	if err2 != nil {
		if !errors.Is(err2, ErrDeadlock) {
			t.Fatalf("unexpected error: %v", err2)
		}
		m.ReleaseAll(2) // victim aborts, tx1 proceeds
	}
	wg.Wait()
	err1 := <-errCh
	if err2 == nil && err1 == nil {
		t.Fatal("deadlock not detected on either side")
	}
	if err1 != nil && !errors.Is(err1, ErrDeadlock) {
		t.Fatalf("tx1 got unexpected error: %v", err1)
	}
	m.ReleaseAll(1)
	m.ReleaseAll(2)
}

func TestConcurrentReadersWriterStress(t *testing.T) {
	m := NewManager()
	const writers, readers = 4, 16
	counter := 0
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(tx uint64) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := m.Lock(tx, "CTR"); err != nil {
					t.Errorf("writer %d: %v", tx, err)
					return
				}
				counter++
				m.ReleaseAll(tx)
			}
		}(uint64(w + 1))
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(tx uint64) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := m.Lock(tx, "CTR"); err != nil {
					t.Errorf("reader %d: %v", tx, err)
					return
				}
				_ = counter
				m.ReleaseAll(tx)
			}
		}(uint64(100 + r))
	}
	wg.Wait()
	if counter != writers*50 {
		t.Errorf("counter = %d, want %d (lost updates)", counter, writers*50)
	}
}

func TestReleaseAllIsIdempotent(t *testing.T) {
	m := NewManager()
	_ = m.Lock(1, "T")
	m.ReleaseAll(1)
	m.ReleaseAll(1) // no panic
	if m.HeldCount(1) != 0 {
		t.Error("lock survived release")
	}
}

// TestDeadlockChainOfThree: a wait that closes a cycle through two other
// waiters is refused; the waiters are granted once the victim releases.
func TestDeadlockChainOfThree(t *testing.T) {
	m := NewManager()
	for tx, res := range map[uint64]string{1: "A", 2: "B", 3: "C"} {
		if err := m.Lock(tx, res); err != nil {
			t.Fatal(err)
		}
	}
	errCh := make(chan error, 2)
	go func() { errCh <- m.Lock(1, "B") }()
	go func() { errCh <- m.Lock(2, "C") }()
	for {
		m.mu.Lock()
		n := len(m.waitsFor)
		m.mu.Unlock()
		if n == 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.Lock(3, "A"); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("tx3 closing the cycle got %v, want ErrDeadlock", err)
	}
	m.ReleaseAll(3)
	if err := <-errCh; err != nil {
		t.Fatalf("tx2 after the victim released: %v", err)
	}
	m.ReleaseAll(2)
	if err := <-errCh; err != nil {
		t.Fatalf("tx1 after tx2 released: %v", err)
	}
	m.ReleaseAll(1)
	if m.TotalHeld() != 0 {
		t.Fatalf("TotalHeld = %d after full release", m.TotalHeld())
	}
}

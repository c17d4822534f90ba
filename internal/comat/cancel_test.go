package comat

import (
	"context"
	"errors"
	"testing"
	"time"

	"sqlxnf/internal/xnf"
)

// TestCancelledWaiterDetaches: a waiter piggybacking on an in-flight
// materialization detaches when its context dies, while the runner completes
// and stores the entry normally — a cancelled waiter never poisons or aborts
// someone else's flight.
func TestCancelledWaiterDetaches(t *testing.T) {
	c := New(0)
	vm := &versionMap{m: map[string]uint64{"T": 1}}
	release := make(chan struct{})
	started := make(chan struct{})
	runnerDone := make(chan error, 1)
	go func() {
		_, _, err := c.FetchCO(context.Background(), "K", 1, vm.sees, func() (*xnf.CO, []TableDep, error) {
			close(started)
			<-release
			return testCO(4), []TableDep{{Table: "T", Version: 1}}, nil
		})
		runnerDone <- err
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := c.FetchCO(ctx, "K", 1, vm.sees, func() (*xnf.CO, []TableDep, error) {
			t.Error("waiter ran its own materialization while a flight was live")
			return testCO(1), nil, nil
		})
		waiterDone <- err
	}()
	select {
	case err := <-waiterDone:
		t.Fatalf("waiter returned before cancel: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled waiter still blocked on the flight")
	}

	// The runner is unaffected: it finishes, stores, and the next fetch hits.
	close(release)
	if err := <-runnerDone; err != nil {
		t.Fatalf("runner failed after waiter cancel: %v", err)
	}
	co, hit, err := c.FetchCO(context.Background(), "K", 1, vm.sees, func() (*xnf.CO, []TableDep, error) {
		t.Error("re-fetch re-materialized; entry should be resident")
		return testCO(1), nil, nil
	})
	if err != nil || !hit {
		t.Fatalf("post-flight fetch: hit=%v err=%v, want cached hit", hit, err)
	}
	if len(co.Nodes[0].Rows) != 4 {
		t.Fatalf("cached CO has %d rows, want 4", len(co.Nodes[0].Rows))
	}
}

// TestPreCancelledFetch: a dead context short-circuits before any flight or
// cache work.
func TestPreCancelledFetch(t *testing.T) {
	c := New(0)
	vm := &versionMap{m: map[string]uint64{"T": 1}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.FetchCO(ctx, "K", 1, vm.sees, func() (*xnf.CO, []TableDep, error) {
		t.Error("materializer ran under a dead context")
		return testCO(1), nil, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled fetch returned %v, want context.Canceled", err)
	}
}

// TestFailedMaterializationNeverCached: an error from the materializer (a
// fault-injection scenario) leaves no entry behind — the next fetch runs the
// materializer again and can succeed.
func TestFailedMaterializationNeverCached(t *testing.T) {
	c := New(0)
	vm := &versionMap{m: map[string]uint64{"T": 1}}
	boom := errors.New("injected materialization failure")
	_, _, err := c.FetchCO(context.Background(), "K", 1, vm.sees, func() (*xnf.CO, []TableDep, error) {
		return nil, nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed materialization returned %v, want injected error", err)
	}
	co, hit, err := c.FetchCO(context.Background(), "K", 1, vm.sees, func() (*xnf.CO, []TableDep, error) {
		return testCO(2), []TableDep{{Table: "T", Version: 1}}, nil
	})
	if err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if hit {
		t.Fatal("retry reported a cache hit; the failed flight must not be cached")
	}
	if len(co.Nodes[0].Rows) != 2 {
		t.Fatalf("retry CO has %d rows, want 2", len(co.Nodes[0].Rows))
	}
}

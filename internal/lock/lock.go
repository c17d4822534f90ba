// Package lock implements a table-granularity exclusive lock manager with
// wait-for-graph deadlock detection. The paper's system inherits
// Starburst's concurrency control unchanged; this package plays that role
// for the engine, so SQL applications and XNF applications sharing the
// database are isolated the same way. Readers take no locks (they read MVCC
// snapshots), so writers need only one mode.
package lock

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrDeadlock is returned to a requester whose wait would close a cycle.
var ErrDeadlock = errors.New("lock: deadlock detected")

// ErrLockTimeout is returned when a lock wait ends because the requester's
// context was cancelled or passed its deadline. Like ErrDeadlock, the caller
// is expected to abort the transaction.
var ErrLockTimeout = errors.New("lock: wait cancelled or timed out")

type resource struct {
	holder  uint64 // the owning transaction when held
	held    bool
	waiters int
}

// Manager grants and releases locks.
type Manager struct {
	mu        sync.Mutex
	cond      *sync.Cond
	resources map[string]*resource
	waitsFor  map[uint64]uint64 // requester -> blocker
}

// NewManager returns an empty lock manager.
func NewManager() *Manager {
	m := &Manager{
		resources: make(map[string]*resource),
		waitsFor:  make(map[uint64]uint64),
	}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// wouldDeadlock checks whether adding the edge tx->blocker closes a cycle in
// the wait-for graph. Caller holds m.mu.
func (m *Manager) wouldDeadlock(tx, blocker uint64) bool {
	// Every waiter waits on exactly one holder: follow the chain.
	for u, steps := blocker, 0; steps <= len(m.waitsFor); steps++ {
		if u == tx {
			return true
		}
		next, waiting := m.waitsFor[u]
		if !waiting {
			return false
		}
		u = next
	}
	return false
}

// Lock acquires res for tx, blocking until granted. It returns ErrDeadlock
// when waiting would create a cycle; the caller is expected to abort the
// transaction.
func (m *Manager) Lock(tx uint64, res string) error {
	return m.AcquireContext(context.Background(), tx, res)
}

// AcquireContext is Lock with a wait bound: a cancelled or expired context
// ends the wait with ErrLockTimeout (deadline and explicit cancel surface
// the same way — both mean "stop waiting for this lock"). An immediately
// grantable request never consults the context, so the fast path costs
// nothing extra; only a request that actually waits starts a watcher
// goroutine to kick the manager's condition variable when the context fires.
func (m *Manager) AcquireContext(ctx context.Context, tx uint64, res string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.resources[res]
	if !ok {
		r = &resource{}
		m.resources[res] = r
	}
	var stop chan struct{}
	defer func() {
		if stop != nil {
			close(stop)
		}
	}()
	for r.held && r.holder != tx {
		if err := ctx.Err(); err != nil {
			m.dropIfIdleLocked(res, r)
			return fmt.Errorf("%w: tx %d requesting %q: %v", ErrLockTimeout, tx, res, err)
		}
		if m.wouldDeadlock(tx, r.holder) {
			m.dropIfIdleLocked(res, r)
			return fmt.Errorf("%w: tx %d requesting %q", ErrDeadlock, tx, res)
		}
		if stop == nil && ctx.Done() != nil {
			// cond.Wait cannot select on a channel, so a watcher converts the
			// context firing into a Broadcast; the loop's ctx.Err() check then
			// turns the wakeup into ErrLockTimeout. Spurious broadcasts to
			// other waiters are harmless re-checks.
			stop = make(chan struct{})
			go func(done <-chan struct{}, stop <-chan struct{}) {
				select {
				case <-done:
					m.mu.Lock()
					m.cond.Broadcast()
					m.mu.Unlock()
				case <-stop:
				}
			}(ctx.Done(), stop)
		}
		m.waitsFor[tx] = r.holder
		r.waiters++
		m.cond.Wait()
		r.waiters--
		delete(m.waitsFor, tx)
	}
	r.holder, r.held = tx, true
	return nil
}

// ReleaseAll drops every lock held by tx and wakes waiters.
func (m *Manager) ReleaseAll(tx uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, r := range m.resources {
		if r.held && r.holder == tx {
			r.held = false
			m.dropIfIdleLocked(name, r)
		}
	}
	delete(m.waitsFor, tx)
	m.cond.Broadcast()
}

// dropIfIdleLocked removes a resource entry that ended up with no holder
// and no waiters (a failed acquisition on a previously unknown resource must
// not leave an empty entry behind). Caller holds m.mu.
func (m *Manager) dropIfIdleLocked(name string, r *resource) {
	if !r.held && r.waiters == 0 {
		delete(m.resources, name)
	}
}

// HeldCount reports how many resources tx currently holds (test hook: after
// any failed statement it must be zero for the statement's transaction).
func (m *Manager) HeldCount(tx uint64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, r := range m.resources {
		if r.held && r.holder == tx {
			n++
		}
	}
	return n
}

// TotalHeld reports the total number of (transaction, resource) grants
// outstanding across all transactions (test hook: a quiesced engine must
// report zero or it leaked locks).
func (m *Manager) TotalHeld() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, r := range m.resources {
		if r.held {
			n++
		}
	}
	return n
}

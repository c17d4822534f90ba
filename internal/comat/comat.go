// Package comat is the composite-object materialization cache — the shared,
// invalidation-aware layer between the XNF evaluator and the engine that the
// paper's working-set model implies: applications check out composite
// objects repeatedly, so repeated checkouts should run at cache-hit speed
// instead of re-deriving every component table and relationship.
//
// The cache holds one kind of artifact: materialized composite objects, keyed
// by exact statement text (or view name) and stamped with the catalog's
// schema/statistics epoch. Each carries its dependency set: the base tables
// the materialization read, with their DML version counters at
// materialization time. A commit that wrote a component table bumps that
// table's version (engine/mvcc.go) and purges exactly the cached COs that
// read it (Purge) — entries over disjoint tables keep serving hits. Entries
// live in an LRU bounded by a resident-byte budget. A miss builds its XNF spec afresh; only
// the finished CO is worth keeping.
//
// Materialization is single-flight: when several sessions miss on the same
// key concurrently, one runs the evaluator and the rest wait for its result.
// Cached COs are shared and read-only: every checkout of a resident entry
// hands out the same *xnf.CO, and nothing may write into it. An application
// that wants to edit a CO loads it into the navigation cache (cache.Load),
// which copies what it may change.
package comat

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"sqlxnf/internal/types"
	"sqlxnf/internal/xnf"
)

// DefaultBudget is the resident-byte budget when the engine does not
// configure one (32 MiB).
const DefaultBudget = 32 << 20

// TableDep records one base-table dependency of a materialized CO: the
// table and its DML version counter at materialization time.
type TableDep struct {
	Table   string
	Version uint64
}

// VersionFn reports a table's current DML version; ok=false means the table
// no longer exists (which invalidates dependents like any version change).
type VersionFn func(table string) (uint64, bool)

// Stats is a snapshot of cache activity.
type Stats struct {
	// CO-cache counters.
	Hits          int64
	Misses        int64
	Invalidations int64 // entries dropped because a dependency's version moved (or its table vanished)
	Evictions     int64 // entries dropped by the LRU byte budget or an epoch change
	Waits         int64 // sessions that waited on another session's materialization
	Entries       int
	ResidentBytes int64
	// SpecHits and SpecMisses are always zero: the cache no longer holds
	// compiled specs. The fields stay because the benchmark module reads them.
	SpecHits   int64
	SpecMisses int64
}

// Entry is a read-only view of one cached CO for introspection (\costats).
type Entry struct {
	Key    string
	DepKey string
	Bytes  int64
	Hits   int64
	Tuples int
}

type entry struct {
	key    string
	epoch  uint64
	depKey string // EncodeDepKey of the dependency snapshot
	// deps is depKey decoded once at store time (the canonical round trip
	// the fuzz target pins); validation walks this instead of re-decoding
	// per hit.
	deps []TableDep
	// tables names deps' tables, in order: what a hit hands the caller to
	// check its snapshot against.
	tables []string
	co     *xnf.CO
	bytes  int64
	hits   atomic.Int64
}

// flight is one in-progress materialization; concurrent fetchers of the
// same key wait on done instead of re-running the evaluator.
type flight struct {
	done chan struct{}
	co   *xnf.CO
	deps []TableDep
	err  error
}

// Cache is the composite-object materialization cache. Safe for concurrent
// use by many sessions.
type Cache struct {
	mu      sync.Mutex
	budget  int64
	lru     *list.List // of *entry; front = most recently used
	entries map[string]*list.Element
	// byTable indexes entries by dependency table, so a commit finds the
	// entries it made stale without walking the LRU.
	byTable  map[string]map[*list.Element]struct{}
	flights  map[string]*flight
	resident int64

	hits, misses, invalidations, evictions, waits int64
}

// New creates a cache with the given resident-byte budget (0 means
// DefaultBudget).
func New(budget int64) *Cache {
	if budget <= 0 {
		budget = DefaultBudget
	}
	return &Cache{
		budget:  budget,
		lru:     list.New(),
		entries: map[string]*list.Element{},
		byTable: map[string]map[*list.Element]struct{}{},
		flights: map[string]*flight{},
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Invalidations: c.invalidations,
		Evictions: c.evictions, Waits: c.waits,
		Entries: len(c.entries), ResidentBytes: c.resident,
	}
}

// Entries lists cached COs, most recently used first.
func (c *Cache) Entries() []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		out = append(out, Entry{Key: e.key, DepKey: e.depKey, Bytes: e.bytes,
			Hits: e.hits.Load(), Tuples: e.co.Size()})
	}
	return out
}

// Get returns the cached CO for key when it is current at epoch and under
// vf, i.e. equal to latest-committed state, together with the entry's
// dependency tables. Whether that state is the one the caller's snapshot
// sees is the caller's check, against exactly those tables. The CO and the
// table slice are shared: read-only for the caller.
func (c *Cache) Get(key string, epoch uint64, vf VersionFn) (*xnf.CO, []string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.validateLocked(key, epoch, vf)
	if e == nil {
		return nil, nil, false
	}
	c.hits++
	e.hits.Add(1)
	return e.co, e.tables, true
}

// validateLocked returns the entry for key if current, evicting stale ones.
// Caller holds c.mu.
func (c *Cache) validateLocked(key string, epoch uint64, vf VersionFn) *entry {
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	e := el.Value.(*entry)
	if e.epoch != epoch {
		c.removeLocked(el, e)
		c.evictions++
		return nil
	}
	for _, d := range e.deps {
		cur, ok := vf(d.Table)
		if !ok || cur != d.Version {
			c.removeLocked(el, e)
			c.invalidations++
			return nil
		}
	}
	c.lru.MoveToFront(el)
	return e
}

func (c *Cache) removeLocked(el *list.Element, e *entry) {
	c.lru.Remove(el)
	delete(c.entries, e.key)
	c.resident -= e.bytes
	for _, tn := range e.tables {
		delete(c.byTable[tn], el)
		if len(c.byTable[tn]) == 0 {
			delete(c.byTable, tn)
		}
	}
}

// Purge drops every entry that depends on table at a version other than
// vf's current one: a commit that wrote table calls it once the new version
// is installed, so a CO that re-evaluation would no longer return stops
// occupying the heap at once instead of at its next checkout. Entries that
// depend only on other tables, or that already read the new version, stay.
// Validation on Get/FetchCO still guards an entry a racing flight stored
// after the purge.
func (c *Cache) Purge(table string, vf VersionFn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur, ok := vf(table)
	for el := range c.byTable[table] {
		e := el.Value.(*entry)
		for _, d := range e.deps {
			if d.Table == table && (!ok || d.Version != cur) {
				c.removeLocked(el, e)
				c.invalidations++
				break
			}
		}
	}
}

// FetchCO returns the CO for key, serving the cached materialization when
// current and otherwise materializing through mat with single-flight. mat
// returns the CO plus the dependency snapshot it was evaluated against. An
// entry or a peer flight's result tracks latest-committed state; the caller
// must check that its own snapshot covers the dependency tables before
// using one it did not materialize itself. hit reports whether the cached
// copy was served.
//
// ctx bounds the wait on a peer flight: a cancelled waiter detaches and
// returns ctx.Err() while the runner continues unaffected (its result still
// lands in the cache for future fetchers). The runner itself is bounded by
// its own context through mat, not by this one. A nil ctx never cancels.
//
// mat may return nil deps with a non-nil CO to mark the result private:
// it is served to this fetch (and any waiters, who must re-validate it
// against their own view) but never stored.
func (c *Cache) FetchCO(ctx context.Context, key string, epoch uint64, vf VersionFn,
	mat func() (*xnf.CO, []TableDep, error)) (co *xnf.CO, hit bool, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		c.mu.Lock()
		if e := c.validateLocked(key, epoch, vf); e != nil {
			c.hits++
			e.hits.Add(1)
			co := e.co
			c.mu.Unlock()
			return co, true, nil
		}
		if f, ok := c.flights[key]; ok {
			c.waits++
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				// Detach: the flight's runner keeps going and resolves the
				// flight for the remaining waiters.
				return nil, false, ctx.Err()
			}
			if f.err != nil {
				// The runner's failure may be private to its transaction
				// (e.g. a deadlock abort); retry — the next round either
				// finds a fresh entry, joins a newer flight, or runs the
				// materialization itself.
				continue
			}
			// The runner's result tracks latest-committed state as of its
			// evaluation; the caller decides whether its snapshot covers it.
			return f.co, false, nil
		}
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.misses++
		c.mu.Unlock()

		co, hit, err := c.runFlight(key, epoch, f, mat)
		if err != nil {
			return nil, false, err
		}
		return co, hit, nil
	}
}

// runFlight executes one materialization and resolves its flight. The
// deferred cleanup also runs when mat panics (an application recovering
// panics around Exec must not leave waiters blocked on a dead flight, or
// the key permanently wedged).
func (c *Cache) runFlight(key string, epoch uint64, f *flight,
	mat func() (*xnf.CO, []TableDep, error)) (co *xnf.CO, hit bool, err error) {
	done := false
	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		if !done {
			// Unwinding on a panic: fail the flight so waiters retry.
			f.err = fmt.Errorf("comat: materialization of %q panicked", key)
		} else if err != nil {
			f.err = err
		} else {
			f.co = co
			// Nil deps mark a private result (the runner materialized under a
			// snapshot that no longer matches latest-committed state): serve
			// it to this flight's fetchers but store nothing — a stored entry
			// with an empty dependency set would validate forever.
			if f.deps != nil {
				c.storeLocked(key, epoch, f.deps, co)
			}
		}
		close(f.done)
		c.mu.Unlock()
	}()
	co, deps, err := mat()
	f.deps = deps
	done = true
	return co, false, err
}

// storeLocked inserts a fresh materialization and enforces the byte budget.
// Caller holds c.mu.
func (c *Cache) storeLocked(key string, epoch uint64, deps []TableDep, co *xnf.CO) {
	if el, ok := c.entries[key]; ok {
		c.removeLocked(el, el.Value.(*entry))
	}
	// Encode and decode the dependency snapshot through the canonical key:
	// the stored deps are exactly what the key says (and a key that cannot
	// round-trip must not produce a servable entry).
	depKey := EncodeDepKey(deps)
	canonical, err := DecodeDepKey(depKey)
	if err != nil {
		return
	}
	tables := make([]string, len(canonical))
	for i, d := range canonical {
		tables[i] = d.Table
	}
	e := &entry{key: key, epoch: epoch, depKey: depKey, deps: canonical, tables: tables,
		co: co, bytes: coBytes(co)}
	el := c.lru.PushFront(e)
	c.entries[key] = el
	c.resident += e.bytes
	for _, tn := range tables {
		if c.byTable[tn] == nil {
			c.byTable[tn] = map[*list.Element]struct{}{}
		}
		c.byTable[tn][el] = struct{}{}
	}
	for c.resident > c.budget && c.lru.Len() > 1 {
		back := c.lru.Back()
		be := back.Value.(*entry)
		c.removeLocked(back, be)
		c.evictions++
	}
}

// coBytes approximates a CO's resident size for the LRU budget.
func coBytes(co *xnf.CO) int64 {
	const (
		rowOverhead  = 24 // slice header
		valueSize    = 48 // types.Value struct
		connSize     = 48
		nodeOverhead = 256
	)
	var b int64
	for _, n := range co.Nodes {
		b += nodeOverhead
		for _, r := range n.Rows {
			b += rowOverhead + int64(len(r))*valueSize
			for _, v := range r {
				if v.Kind() == types.KindString {
					b += int64(len(v.Str()))
				}
			}
		}
		b += int64(len(n.RIDs)) * 8
	}
	for _, e := range co.Edges {
		b += nodeOverhead + int64(len(e.Conns))*connSize
		for _, cn := range e.Conns {
			b += int64(len(cn.Attrs)) * valueSize
		}
	}
	return b
}

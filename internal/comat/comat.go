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
	"sync"
	"sync/atomic"
	"unsafe"

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

// Sees reports whether a caller would evaluate exactly the CO a dependency
// snapshot was taken with: the one rule by which the cache serves a
// resident entry, stores a materialization, and hands a flight's result to
// a waiter. deps are sorted by table.
type Sees func(deps []TableDep) bool

// Stats is a snapshot of cache activity.
type Stats struct {
	// CO-cache counters.
	Hits          int64
	Misses        int64
	Invalidations int64 // entries purged because a dependency's version moved (or its table vanished), or replaced by a store
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
	key   string
	epoch uint64
	// deps is the dependency snapshot, sorted by table once at store time;
	// byTable indexes the entry by these tables.
	deps  []TableDep
	co    *xnf.CO
	bytes int64
	hits  atomic.Int64
}

// flight is one in-progress materialization; concurrent fetchers of the
// same key wait on done instead of re-running the evaluator.
type flight struct {
	done chan struct{}
	co   *xnf.CO
	deps []TableDep
	// shared marks a result the runner's sees accepted and stored: waiters
	// may use it if their own sees accepts deps too. Otherwise they retry.
	shared bool
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
		out = append(out, Entry{Key: e.key, DepKey: EncodeDepKey(e.deps), Bytes: e.bytes,
			Hits: e.hits.Load(), Tuples: e.co.Size()})
	}
	return out
}

// Get returns the resident CO for key when it was stored at epoch and the
// caller sees its dependency snapshot. The CO is shared: read-only for the
// caller. An entry sees refuses stays resident for callers that see it.
func (c *Cache) Get(key string, epoch uint64, sees Sees) (*xnf.CO, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.serveLocked(key, epoch, sees); e != nil {
		return e.co, true
	}
	return nil, false
}

// serveLocked returns the entry for key if it may serve the caller, counting
// the hit; an entry from another epoch is evicted. Caller holds c.mu.
func (c *Cache) serveLocked(key string, epoch uint64, sees Sees) *entry {
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
	if !sees(e.deps) {
		return nil
	}
	c.lru.MoveToFront(el)
	c.hits++
	e.hits.Add(1)
	return e
}

func (c *Cache) removeLocked(el *list.Element, e *entry) {
	c.lru.Remove(el)
	delete(c.entries, e.key)
	c.resident -= e.bytes
	for _, d := range e.deps {
		delete(c.byTable[d.Table], el)
		if len(c.byTable[d.Table]) == 0 {
			delete(c.byTable, d.Table)
		}
	}
}

// Purge drops every entry that depends on table at a version other than
// vf's current one: a commit that wrote table calls it once the new version
// is installed, so a CO that re-evaluation would no longer return stops
// occupying the heap at once. Entries that depend only on other tables, or
// that already read the new version, stay. A flight racing the commit
// cannot leave a stale entry behind: it stores under c.mu only if its sees
// holds, so it either stores before this purge takes c.mu (and is purged)
// or is refused by the moved version.
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

// FetchCO returns the CO for key: the resident entry when the caller sees
// it, otherwise a materialization through mat with single-flight. mat
// returns the CO plus the dependency snapshot it was evaluated against. hit
// reports whether a resident entry was served.
//
// The result is stored, and shared with the flight's waiters, only if the
// runner's sees accepts the snapshot; either way the runner gets its own CO.
// A waiter uses the flight's CO only if it is shared and the waiter's sees
// accepts it too; otherwise, as after a failed flight, it retries.
//
// ctx bounds the wait on a peer flight: a cancelled waiter detaches and
// returns ctx.Err() while the runner continues unaffected (its result still
// lands in the cache for future fetchers). The runner itself is bounded by
// its own context through mat, not by this one. A nil ctx never cancels.
func (c *Cache) FetchCO(ctx context.Context, key string, epoch uint64, sees Sees,
	mat func() (*xnf.CO, []TableDep, error)) (co *xnf.CO, hit bool, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		c.mu.Lock()
		if e := c.serveLocked(key, epoch, sees); e != nil {
			c.mu.Unlock()
			return e.co, true, nil
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
			if f.shared && sees(f.deps) {
				return f.co, false, nil
			}
			// The flight failed (perhaps privately, e.g. a deadlock abort) or
			// produced a CO this caller does not see: the next round finds an
			// entry, joins a newer flight, or materializes itself.
			continue
		}
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.misses++
		c.mu.Unlock()
		return c.runFlight(key, epoch, sees, f, mat)
	}
}

// runFlight executes one materialization and resolves its flight. The
// deferred cleanup also runs when mat panics (an application recovering
// panics around Exec must not leave waiters blocked on a dead flight, or
// the key permanently wedged).
func (c *Cache) runFlight(key string, epoch uint64, sees Sees, f *flight,
	mat func() (*xnf.CO, []TableDep, error)) (co *xnf.CO, hit bool, err error) {
	done := false
	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		// Asked under c.mu, so a commit that moved a dependency either
		// refuses the store here or purges the entry once c.mu is free.
		if done && err == nil && sees(f.deps) {
			f.co, f.shared = co, true
			c.storeLocked(key, epoch, f.deps, co)
		}
		close(f.done)
		c.mu.Unlock()
	}()
	co, deps, err := mat()
	sortDeps(deps)
	f.deps = deps
	done = true
	return co, false, err
}

// storeLocked inserts a fresh materialization, replacing (and counting as
// invalidated) any entry for key, and enforces the byte budget. Caller
// holds c.mu.
func (c *Cache) storeLocked(key string, epoch uint64, deps []TableDep, co *xnf.CO) {
	if el, ok := c.entries[key]; ok {
		c.removeLocked(el, el.Value.(*entry))
		c.invalidations++
	}
	e := &entry{key: key, epoch: epoch, deps: deps, co: co, bytes: coBytes(co)}
	el := c.lru.PushFront(e)
	c.entries[key] = el
	c.resident += e.bytes
	for _, d := range deps {
		if c.byTable[d.Table] == nil {
			c.byTable[d.Table] = map[*list.Element]struct{}{}
		}
		c.byTable[d.Table][el] = struct{}{}
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
		valueSize    = int64(unsafe.Sizeof(types.Value{}))
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

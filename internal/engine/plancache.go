package engine

import (
	"container/list"
	"sync"

	"sqlxnf/internal/comat"
	"sqlxnf/internal/exec"
	"sqlxnf/internal/optimizer"
	"sqlxnf/internal/qgm"
	"sqlxnf/internal/types"
)

// planCache is the engine's LRU prepared-plan cache. Entries are keyed by
// planKey (a parameter-shaped key, else the exact statement text) and
// stamped with the catalog schema/stats epoch at compile time: DDL and
// ANALYZE bump the epoch, so stale entries evict on the next lookup instead
// of serving plans over dropped schema or outdated cost estimates. DML does
// not invalidate — plans reference live heaps.
//
// A cached plan is a template with per-execution operator state, so it never
// runs directly: each execution acquires a structural clone, and finished
// clones return to a small per-entry pool so their row buffers warm across
// executions (repeated prepared statements pay zero compile work and few
// steady-state allocations).
type planCache struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List // of *planEntry; front = most recently used
	entries map[string]*list.Element
	// versions reads a table's current DML version counter; entries carrying
	// a dependency snapshot (node-reference plans) evict when any recorded
	// version moves, so their cardinality estimates re-derive from the
	// view's fresh materialization.
	versions comat.VersionFn

	// Counters (read via Stats) let tests and benches observe behavior.
	hits, misses, evictions int64
}

// planEntry is one cached statement. Parameterized entries (nParams > 0)
// additionally carry the binding contract: how many literals the statement
// shape extracts, and the bind guards recording the value-dependent planning
// assumptions that must be re-checked per execution (see optimizer.BindGuard
// and Session.runCachedPlan).
type planEntry struct {
	key     string
	epoch   uint64
	tmpl    exec.Plan // never executed directly
	schema  types.Schema
	tables  []string // base tables whose statistics drift re-plans a hit (auto-ANALYZE)
	nParams int
	guards  []optimizer.BindGuard
	// deps is the version snapshot of the base tables behind FROM
	// "VIEW.NODE" references (nil for plans without node references). DML
	// still does not invalidate ordinary plans — they read live heaps — but
	// a node-ref plan's NodeScan estimates were derived from a specific
	// materialization, so a component-table change evicts the entry and the
	// next execution replans against the refreshed CO.
	deps []comat.TableDep
	// class is the statement's histogram bucket, computed from the plan
	// shape at compile time so hit executions classify for free.
	class stmtClass

	poolMu sync.Mutex
	pool   []exec.Plan // idle executable clones
}

// maxPooledPlans bounds the per-entry instance pool; beyond it, clones are
// simply dropped (cheap — the template still avoids recompilation).
const maxPooledPlans = 4

func newPlanCache(capacity int, versions comat.VersionFn) *planCache {
	return &planCache{cap: capacity, lru: list.New(),
		entries: map[string]*list.Element{}, versions: versions}
}

// PlanCacheStats is a snapshot of cache activity.
type PlanCacheStats struct {
	Hits, Misses, Evictions int64
	Entries                 int
}

// Stats snapshots the counters.
func (pc *planCache) Stats() PlanCacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return PlanCacheStats{Hits: pc.hits, Misses: pc.misses, Evictions: pc.evictions,
		Entries: len(pc.entries)}
}

// lookup returns the entry for key if it exists and is current at epoch;
// stale entries are evicted on sight. countMiss selects whether an absent
// key charges the miss counter.
func (pc *planCache) lookup(key string, epoch uint64, countMiss bool) *planEntry {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.entries[key]
	if ok {
		ent := el.Value.(*planEntry)
		if ent.epoch == epoch && pc.depsCurrent(ent) {
			pc.lru.MoveToFront(el)
			pc.hits++
			return ent
		}
		pc.lru.Remove(el)
		delete(pc.entries, key)
		pc.evictions++
	}
	if countMiss {
		pc.misses++
	}
	return nil
}

// depsCurrent reports whether the entry's node-reference dependency
// versions still match the catalog.
func (pc *planCache) depsCurrent(ent *planEntry) bool {
	for _, d := range ent.deps {
		cur, ok := pc.versions(d.Table)
		if !ok || cur != d.Version {
			return false
		}
	}
	return true
}

// get is the compile-path lookup: absence counts as a miss.
func (pc *planCache) get(key string, epoch uint64) *planEntry {
	return pc.lookup(key, epoch, true)
}

// peek is the pre-parse fast-path lookup. Absence is not charged: the
// parse path's get charges the same statement's miss.
func (pc *planCache) peek(key string, epoch uint64) *planEntry {
	return pc.lookup(key, epoch, false)
}

// put inserts an entry, evicting from the LRU tail past capacity.
func (pc *planCache) put(ent *planEntry) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.entries[ent.key]; ok {
		// Racing compile of the same statement: keep the fresher epoch.
		if el.Value.(*planEntry).epoch <= ent.epoch {
			el.Value = ent
			pc.lru.MoveToFront(el)
		}
		return
	}
	pc.entries[ent.key] = pc.lru.PushFront(ent)
	for pc.lru.Len() > pc.cap {
		back := pc.lru.Back()
		pc.lru.Remove(back)
		delete(pc.entries, back.Value.(*planEntry).key)
		pc.evictions++
	}
}

// acquire hands out an executable plan instance: a pooled clone when one is
// idle, else a fresh clone of the template.
func (ent *planEntry) acquire() (exec.Plan, bool) {
	ent.poolMu.Lock()
	if n := len(ent.pool); n > 0 {
		p := ent.pool[n-1]
		ent.pool = ent.pool[:n-1]
		ent.poolMu.Unlock()
		return p, true
	}
	ent.poolMu.Unlock()
	return exec.ClonePlan(ent.tmpl)
}

// release returns an instance to the pool.
func (ent *planEntry) release(p exec.Plan) {
	ent.poolMu.Lock()
	if len(ent.pool) < maxPooledPlans {
		ent.pool = append(ent.pool, p)
	}
	ent.poolMu.Unlock()
}

// walkBoxes visits every box reachable from root — through quantifiers,
// union inputs, and EXISTS subqueries hanging off body expressions. visit
// returning false stops the traversal. Both the lock-set collection and the
// snapshot check ride on this single walker so they can never see different
// trees.
func walkBoxes(root *qgm.Box, visit func(*qgm.Box) bool) {
	seen := map[*qgm.Box]bool{}
	stopped := false
	var walk func(b *qgm.Box)
	walk = func(b *qgm.Box) {
		if b == nil || seen[b] || stopped {
			return
		}
		seen[b] = true
		if !visit(b) {
			stopped = true
			return
		}
		for _, q := range b.Quants {
			walk(q.Input)
		}
		for _, in := range b.Inputs {
			walk(in)
		}
		walkBoxExprs(b, func(e qgm.Expr) {
			if ex, ok := e.(*qgm.Exists); ok {
				walk(ex.Sub)
			}
		})
	}
	walk(root)
}

// collectBoxTables lists the distinct base tables under a box, including
// tables reached only through EXISTS subplans.
func collectBoxTables(box *qgm.Box) []string {
	seenTbl := map[string]bool{}
	var out []string
	walkBoxes(box, func(b *qgm.Box) bool {
		if b.Kind == qgm.KindBase && !seenTbl[b.Table.Name] {
			seenTbl[b.Table.Name] = true
			out = append(out, b.Table.Name)
		}
		return true
	})
	return out
}

// boxSnapshotsData reports whether the box tree embeds data materialized at
// build time (KindValues boxes — today only FROM-less SELECTs produce one
// at the statement level; XNF node references build KindNodeRef boxes that
// bind rows at execute and cache freely). Plans embedding a Values snapshot
// would freeze it if cached, so they stay uncached.
func boxSnapshotsData(box *qgm.Box) bool {
	found := false
	walkBoxes(box, func(b *qgm.Box) bool {
		if b.Kind == qgm.KindValues {
			found = true
		}
		return !found
	})
	return found
}

// walkBoxExprs visits every expression hanging off a box body.
func walkBoxExprs(b *qgm.Box, visit func(qgm.Expr)) {
	each := func(e qgm.Expr) {
		qgm.WalkExpr(e, func(x qgm.Expr) bool {
			visit(x)
			return true
		})
	}
	each(b.Pred)
	for _, h := range b.Head {
		each(h.Expr)
	}
	for _, g := range b.GroupBy {
		each(g)
	}
	for _, a := range b.Aggs {
		if a.Arg != nil {
			each(a.Arg)
		}
	}
}

package cache

import (
	"sync/atomic"

	"sqlxnf/internal/obs"
)

// Caches are created per checkout (Load) and discarded with their CO, so
// the per-instance Stats fields vanish with them. These process-wide
// counters accumulate the same events across every instance and feed the
// unified engine snapshot and the /metrics exposition.
var (
	gCursorOpens = obs.Default.Counter("navcache_cursor_opens_total",
		"XNF application-cache cursor opens")
	gCursorMoves = obs.Default.Counter("navcache_cursor_moves_total",
		"XNF application-cache cursor moves")
	gPointerHops = obs.Default.Counter("navcache_pointer_hops_total",
		"XNF application-cache pointer dereferences")
	gWriteBacks = obs.Default.Counter("navcache_writebacks_total",
		"XNF application-cache write-backs to base tables")
)

// The note* helpers bump the instance counter and the process-wide
// aggregate together, so the two views can never drift.

func (c *Cache) noteOpen() {
	atomic.AddInt64(&c.Stats.CursorOpens, 1)
	gCursorOpens.Inc()
}

func (c *Cache) noteMove() {
	atomic.AddInt64(&c.Stats.CursorMoves, 1)
	gCursorMoves.Inc()
}

func (c *Cache) noteHop() {
	atomic.AddInt64(&c.Stats.PointerHops, 1)
	gPointerHops.Inc()
}

func (c *Cache) noteWriteBack() {
	atomic.AddInt64(&c.Stats.WriteBacks, 1)
	gWriteBacks.Inc()
}

package storage

import (
	"container/list"
	"fmt"
	"sync"

	"sqlxnf/internal/faultinj"
)

// PoolStats counts buffer-pool activity.
type PoolStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

type frame struct {
	id    PageID
	page  *Page // the frame's page view, handed to every pinner: no per-fetch allocation
	pins  int
	dirty bool
	// elem is the frame's LRU position. A frame stays in the list while
	// pinned (eviction skips it) and moves to the front when its last pin
	// goes, so pinning and unpinning allocate nothing.
	elem *list.Element
}

// BufferPool caches disk pages with pin counting and LRU replacement.
// A pinned page is never evicted; Unpin with dirty=true schedules a
// write-back on eviction or flush.
type BufferPool struct {
	mu     sync.Mutex
	disk   *Disk
	cap    int
	frames map[PageID]*frame
	lru    *list.List // of PageID, front = most recent
	stats  PoolStats
	// inj is the optional fault injector (nil = probes inert). Set once at
	// engine construction, before any concurrent use.
	inj *faultinj.Injector
}

// SetFaultInjector arms the pool's probe points. Call before first use.
func (bp *BufferPool) SetFaultInjector(in *faultinj.Injector) { bp.inj = in }

// NewBufferPool creates a pool of the given capacity (in pages) over disk.
func NewBufferPool(disk *Disk, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	return &BufferPool{
		disk:   disk,
		cap:    capacity,
		frames: make(map[PageID]*frame, capacity),
		lru:    list.New(),
	}
}

// Disk exposes the underlying device (for stats in benches).
func (bp *BufferPool) Disk() *Disk { return bp.disk }

// Capacity returns the pool size in pages.
func (bp *BufferPool) Capacity() int { return bp.cap }

// Fetch pins the page and returns it, reading from disk on a miss.
func (bp *BufferPool) Fetch(id PageID) (*Page, error) {
	if err := bp.inj.Hit(faultinj.BufferFetch); err != nil {
		return nil, err
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f, ok := bp.frames[id]; ok {
		bp.stats.Hits++
		f.pins++
		return f.page, nil
	}
	bp.stats.Misses++
	f, err := bp.allocFrameLocked(id)
	if err != nil {
		return nil, err
	}
	// The freshly allocated frame holds an evicted page's bytes (or zeroes)
	// until the read lands. If the read fails — or panics, which statement
	// containment will recover above us — the frame must not stay cached: a
	// later Fetch would pin it and see another page where real data lives on
	// disk.
	ok := false
	defer func() {
		if !ok {
			bp.lru.Remove(f.elem)
			delete(bp.frames, id)
		}
	}()
	if err := bp.disk.Read(id, f.page.Data); err != nil {
		return nil, err
	}
	ok = true
	return f.page, nil
}

// NewPage allocates a fresh disk page, pins it, and formats it as an empty
// slotted page.
func (bp *BufferPool) NewPage() (*Page, error) {
	id := bp.disk.Allocate()
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, err := bp.allocFrameLocked(id)
	if err != nil {
		return nil, err
	}
	f.page.Init()
	f.dirty = true
	return f.page, nil
}

// allocFrameLocked finds room for a new pinned frame, evicting the least
// recently unpinned frame if needed. The new frame takes over the evicted
// frame's page buffer, so a miss allocates no page: its bytes are stale
// until Fetch's read or NewPage's Init overwrites every one of them.
func (bp *BufferPool) allocFrameLocked(id PageID) (*frame, error) {
	var data []byte
	for len(bp.frames) >= bp.cap {
		back := bp.lru.Back()
		for back != nil && bp.frames[back.Value.(PageID)].pins > 0 {
			back = back.Prev()
		}
		if back == nil {
			return nil, fmt.Errorf("storage: buffer pool exhausted (%d pages, all pinned)", bp.cap)
		}
		victim := back.Value.(PageID)
		vf := bp.frames[victim]
		// Write back before dismantling the frame: if the write errors or
		// panics, the victim stays fully cached (still in the LRU, still
		// dirty) and the pool remains consistent for the next caller.
		if vf.dirty {
			if err := bp.disk.Write(victim, vf.page.Data); err != nil {
				return nil, err
			}
			vf.dirty = false
		}
		bp.lru.Remove(back)
		delete(bp.frames, victim)
		bp.stats.Evictions++
		data = vf.page.Data
	}
	if data == nil {
		data = make([]byte, PageSize)
	}
	f := &frame{id: id, page: &Page{ID: id, Data: data}, pins: 1}
	f.elem = bp.lru.PushFront(id)
	bp.frames[id] = f
	return f, nil
}

// Unpin releases one pin; dirty marks the page modified.
func (bp *BufferPool) Unpin(id PageID, dirty bool) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, ok := bp.frames[id]
	if !ok || f.pins == 0 {
		panic(fmt.Sprintf("storage: Unpin of unpinned page %d", id))
	}
	if dirty {
		f.dirty = true
	}
	f.pins--
	if f.pins == 0 {
		bp.lru.MoveToFront(f.elem)
	}
}

// FlushAll writes every dirty frame back to disk (pages stay cached).
func (bp *BufferPool) FlushAll() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for id, f := range bp.frames {
		if f.dirty {
			if err := bp.disk.Write(id, f.page.Data); err != nil {
				return err
			}
			f.dirty = false
		}
	}
	return nil
}

// DropAll flushes and then empties the cache. Benches use it to measure
// cold-buffer I/O.
func (bp *BufferPool) DropAll() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for id, f := range bp.frames {
		if f.pins > 0 {
			return fmt.Errorf("storage: DropAll with page %d still pinned", id)
		}
		if f.dirty {
			if err := bp.disk.Write(id, f.page.Data); err != nil {
				return err
			}
		}
	}
	bp.frames = make(map[PageID]*frame, bp.cap)
	bp.lru.Init()
	return nil
}

// Stats returns a snapshot of hit/miss/eviction counters.
func (bp *BufferPool) Stats() PoolStats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.stats
}

// PinnedCount reports how many frames are currently pinned (for leak tests).
func (bp *BufferPool) PinnedCount() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	n := 0
	for _, f := range bp.frames {
		if f.pins > 0 {
			n++
		}
	}
	return n
}

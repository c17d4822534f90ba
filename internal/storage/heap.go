package storage

import (
	"encoding/binary"
	"fmt"
	"sync"

	"sqlxnf/internal/types"
)

// RID locates a tuple: page id plus slot number.
type RID struct {
	Page PageID
	Slot uint16
}

// NilRID is the zero RID used as "no location".
var NilRID = RID{Page: InvalidPage}

// Valid reports whether the RID points at a page.
func (r RID) Valid() bool { return r.Page != InvalidPage }

// String renders the RID as page:slot.
func (r RID) String() string { return fmt.Sprintf("%d:%d", r.Page, r.Slot) }

// Pack encodes the RID as one integer, page<<16|slot: the form in which a
// RID travels through a plan as an ordinary INT column (see
// PageScanner.EmitRID). Packed order equals physical (page, slot) order.
func (r RID) Pack() int64 { return int64(r.Page)<<16 | int64(r.Slot) }

// UnpackRID inverts RID.Pack.
func UnpackRID(v int64) RID { return RID{Page: PageID(v >> 16), Slot: uint16(v)} }

// RowVer carries the MVCC stamps of one row version: the transaction that
// created it and (if any) the transaction that delete-marked it. The zero
// value means "frozen": created before every live snapshot, never deleted —
// visible to everyone. Rows materialized by recovery and pre-MVCC loaders
// carry frozen stamps.
type RowVer struct {
	Created uint64
	Deleted uint64
}

// VisFunc decides whether a row version is visible to a snapshot. A nil
// VisFunc is the "latest committed" default: everything not delete-marked.
type VisFunc func(RowVer) bool

// VersionEntry pairs a row location with its MVCC stamps (vacuum sweep).
type VersionEntry struct {
	RID RID
	Ver RowVer
}

// Heap is a chain of slotted pages storing encoded rows. Several tables may
// share one heap (a cluster family); each cell is prefixed with the owning
// table's tag so per-table scans can filter. InsertNear places a tuple on
// (or close to) the page of a related tuple, which is how composite-object
// clustering co-locates parents with their children.
//
// Under MVCC readers no longer hold table locks, so the heap carries its own
// latch: mu guards the page chain, page bytes, and the version map. Public
// operations latch and delegate to unexported unlatched implementations
// (Update re-enters Insert internally). Scan callbacks run with the latch
// released — rows are decoded page-at-a-time into copies first — so a
// callback may safely touch other tables of the same cluster family.
type Heap struct {
	bp    *BufferPool
	mu    sync.RWMutex
	first PageID
	last  PageID // append hint; rediscovered on open
	vers  map[RID]RowVer
}

// CreateHeap allocates an empty heap.
func CreateHeap(bp *BufferPool) (*Heap, error) {
	p, err := bp.NewPage()
	if err != nil {
		return nil, err
	}
	id := p.ID
	bp.Unpin(id, true)
	return &Heap{bp: bp, first: id, last: id, vers: make(map[RID]RowVer)}, nil
}

// OpenHeap attaches to an existing heap rooted at first.
func OpenHeap(bp *BufferPool, first PageID) (*Heap, error) {
	h := &Heap{bp: bp, first: first, last: first, vers: make(map[RID]RowVer)}
	// Walk to the tail so appends go to the end.
	id := first
	for {
		p, err := bp.Fetch(id)
		if err != nil {
			return nil, err
		}
		next := p.Next()
		bp.Unpin(id, false)
		if next == InvalidPage {
			break
		}
		id = next
	}
	h.last = id
	return h, nil
}

// FirstPage returns the root page id (persisted in the catalog).
func (h *Heap) FirstPage() PageID { return h.first }

// encodeCell prefixes the row encoding with the owner tag.
func encodeCell(tag uint32, row types.Row) []byte {
	buf := binary.AppendUvarint(nil, uint64(tag))
	return row.Encode(buf)
}

// decodeCell splits a cell into tag and row.
func decodeCell(cell []byte) (uint32, types.Row, error) {
	tag, n := binary.Uvarint(cell)
	if n <= 0 {
		return 0, nil, fmt.Errorf("storage: corrupt cell tag")
	}
	row, _, err := types.DecodeRow(cell[n:])
	return uint32(tag), row, err
}

// visibleLocked applies vis (or the latest-committed default) to the stamps
// of rid. Callers hold h.mu in either mode.
func (h *Heap) visibleLocked(rid RID, vis VisFunc) bool {
	ver := h.vers[rid]
	if vis == nil {
		return ver.Deleted == 0
	}
	return vis(ver)
}

// Insert appends the row (owned by tag) with frozen stamps and returns its
// RID. Loaders and recovery use it; transactional writers use InsertTx.
func (h *Heap) Insert(tag uint32, row types.Row) (RID, error) {
	return h.InsertTx(tag, row, 0)
}

// InsertTx appends the row stamped as created by tx (0 = frozen).
func (h *Heap) InsertTx(tag uint32, row types.Row, tx uint64) (RID, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.insertLocked(tag, row, tx)
}

func (h *Heap) insertLocked(tag uint32, row types.Row, tx uint64) (RID, error) {
	cell := encodeCell(tag, row)
	if len(cell) > PageSize-pageHeaderSize-slotSize {
		return NilRID, fmt.Errorf("storage: row of %d bytes exceeds page capacity", len(cell))
	}
	// Try the tail page first.
	p, err := h.bp.Fetch(h.last)
	if err != nil {
		return NilRID, err
	}
	if slot, ok := p.InsertCell(cell); ok {
		rid := RID{Page: p.ID, Slot: uint16(slot)}
		h.bp.Unpin(p.ID, true)
		h.stampLocked(rid, tx)
		return rid, nil
	}
	// Tail full: chain a new page.
	np, err := h.bp.NewPage()
	if err != nil {
		h.bp.Unpin(p.ID, false)
		return NilRID, err
	}
	p.SetNext(np.ID)
	h.bp.Unpin(p.ID, true)
	slot, ok := np.InsertCell(cell)
	if !ok {
		h.bp.Unpin(np.ID, true)
		return NilRID, fmt.Errorf("storage: fresh page cannot hold %d-byte row", len(cell))
	}
	rid := RID{Page: np.ID, Slot: uint16(slot)}
	h.last = np.ID
	h.bp.Unpin(np.ID, true)
	h.stampLocked(rid, tx)
	return rid, nil
}

// stampLocked records the create stamp of a fresh tuple. A reused slot may
// still carry stamps from a vacuumed predecessor, so tx==0 must clear them.
func (h *Heap) stampLocked(rid RID, tx uint64) {
	if tx != 0 {
		h.vers[rid] = RowVer{Created: tx}
	} else {
		delete(h.vers, rid)
	}
}

// InsertOnFreshPage places the row on a newly allocated page at the end of
// the chain. Cluster-family loaders use it to give each composite-object
// root its own page neighborhood, which children then fill via InsertNear.
func (h *Heap) InsertOnFreshPage(tag uint32, row types.Row) (RID, error) {
	return h.InsertOnFreshPageTx(tag, row, 0)
}

// InsertOnFreshPageTx is InsertOnFreshPage with a create stamp.
func (h *Heap) InsertOnFreshPageTx(tag uint32, row types.Row, tx uint64) (RID, error) {
	cell := encodeCell(tag, row)
	if len(cell) > PageSize-pageHeaderSize-slotSize {
		return NilRID, fmt.Errorf("storage: row of %d bytes exceeds page capacity", len(cell))
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	tail, err := h.bp.Fetch(h.last)
	if err != nil {
		return NilRID, err
	}
	np, err := h.bp.NewPage()
	if err != nil {
		h.bp.Unpin(tail.ID, false)
		return NilRID, err
	}
	tail.SetNext(np.ID)
	h.bp.Unpin(tail.ID, true)
	slot, ok := np.InsertCell(cell)
	if !ok {
		h.bp.Unpin(np.ID, true)
		return NilRID, fmt.Errorf("storage: fresh page cannot hold %d-byte row", len(cell))
	}
	rid := RID{Page: np.ID, Slot: uint16(slot)}
	h.last = np.ID
	h.bp.Unpin(np.ID, true)
	h.stampLocked(rid, tx)
	return rid, nil
}

// InsertNear tries to place the row on the same page as near — the cluster
// placement policy. When that page is full it falls back to a normal append.
func (h *Heap) InsertNear(tag uint32, near RID, row types.Row) (RID, error) {
	return h.InsertNearTx(tag, near, row, 0)
}

// InsertNearTx is InsertNear with a create stamp.
func (h *Heap) InsertNearTx(tag uint32, near RID, row types.Row, tx uint64) (RID, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !near.Valid() {
		return h.insertLocked(tag, row, tx)
	}
	cell := encodeCell(tag, row)
	p, err := h.bp.Fetch(near.Page)
	if err != nil {
		return NilRID, err
	}
	if slot, ok := p.InsertCell(cell); ok {
		rid := RID{Page: p.ID, Slot: uint16(slot)}
		h.bp.Unpin(p.ID, true)
		h.stampLocked(rid, tx)
		return rid, nil
	}
	h.bp.Unpin(p.ID, false)
	return h.insertLocked(tag, row, tx)
}

// Get fetches the row at rid, verifying the owner tag. It reads the physical
// latest version regardless of MVCC stamps; visibility-aware readers use
// GetVisible.
func (h *Heap) Get(tag uint32, rid RID) (types.Row, error) {
	row, _, err := h.GetVer(tag, rid)
	return row, err
}

// GetVer fetches the row at rid plus its MVCC stamps.
func (h *Heap) GetVer(tag uint32, rid RID) (types.Row, RowVer, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	row, err := h.getLocked(tag, rid)
	if err != nil {
		return nil, RowVer{}, err
	}
	return row, h.vers[rid], nil
}

func (h *Heap) getLocked(tag uint32, rid RID) (types.Row, error) {
	p, err := h.bp.Fetch(rid.Page)
	if err != nil {
		return nil, err
	}
	defer h.bp.Unpin(rid.Page, false)
	cell, err := p.Cell(int(rid.Slot))
	if err != nil {
		return nil, err
	}
	ctag, row, err := decodeCell(cell)
	if err != nil {
		return nil, err
	}
	if ctag != tag {
		return nil, fmt.Errorf("storage: rid %v belongs to table tag %d, not %d", rid, ctag, tag)
	}
	return row, nil
}

// GetVisible fetches the row at rid if it exists, is owned by tag, and is
// visible under vis. ok=false covers vacuumed slots, slots reclaimed by
// another table of the family, and versions invisible to the snapshot — all
// the states a dangling index entry can legitimately point at.
func (h *Heap) GetVisible(tag uint32, rid RID, vis VisFunc) (types.Row, bool, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if !h.visibleLocked(rid, vis) {
		return nil, false, nil
	}
	p, err := h.bp.Fetch(rid.Page)
	if err != nil {
		return nil, false, err
	}
	defer h.bp.Unpin(rid.Page, false)
	cell, err := p.Cell(int(rid.Slot))
	if err != nil {
		return nil, false, nil // slot vacuumed or never filled: treat as gone
	}
	ctag, row, err := decodeCell(cell)
	if err != nil {
		return nil, false, err
	}
	if ctag != tag {
		return nil, false, nil
	}
	return row, true, nil
}

// ReadAny fetches the row at rid along with its owning tag, regardless of
// visibility. The vacuum sweep uses it to compute index keys of dead rows.
func (h *Heap) ReadAny(rid RID) (uint32, types.Row, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	p, err := h.bp.Fetch(rid.Page)
	if err != nil {
		return 0, nil, err
	}
	defer h.bp.Unpin(rid.Page, false)
	cell, err := p.Cell(int(rid.Slot))
	if err != nil {
		return 0, nil, err
	}
	return decodeCell(cell)
}

// Version returns the MVCC stamps recorded for rid (zero value = frozen).
func (h *Heap) Version(rid RID) RowVer {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.vers[rid]
}

// MarkDeleted delete-stamps the tuple at rid with tx, verifying the owner
// tag. The tuple and its index entries stay physically present so older
// snapshots can still reach it; vacuum reclaims it once no snapshot can.
func (h *Heap) MarkDeleted(tag uint32, rid RID, tx uint64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, err := h.getLocked(tag, rid); err != nil {
		return err
	}
	ver := h.vers[rid]
	ver.Deleted = tx
	h.vers[rid] = ver
	return nil
}

// ClearDeleted removes the delete stamp at rid (rollback undo).
func (h *Heap) ClearDeleted(rid RID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ver := h.vers[rid]
	ver.Deleted = 0
	if ver == (RowVer{}) {
		delete(h.vers, rid)
	} else {
		h.vers[rid] = ver
	}
}

// VersionEntries snapshots the version map for the vacuum sweep.
func (h *Heap) VersionEntries() []VersionEntry {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]VersionEntry, 0, len(h.vers))
	for rid, ver := range h.vers {
		out = append(out, VersionEntry{RID: rid, Ver: ver})
	}
	return out
}

// PurgeVersion physically deletes the tuple at rid if its stamps still equal
// ver (vacuum reclaim). Reports whether the purge happened.
func (h *Heap) PurgeVersion(rid RID, ver RowVer) (bool, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.vers[rid] != ver {
		return false, nil
	}
	p, err := h.bp.Fetch(rid.Page)
	if err != nil {
		return false, err
	}
	err = p.DeleteCell(int(rid.Slot))
	h.bp.Unpin(rid.Page, err == nil)
	if err != nil {
		return false, err
	}
	delete(h.vers, rid)
	return true, nil
}

// FreezeVersion drops the version-map entry for a row every live snapshot
// can see (vacuum bookkeeping: missing entry = frozen = visible to all).
func (h *Heap) FreezeVersion(rid RID, ver RowVer) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.vers[rid] != ver {
		return false
	}
	delete(h.vers, rid)
	return true
}

// Update rewrites the row at rid in place. When the new image no longer fits
// on the page the tuple moves (its version stamps move with it) and the new
// RID is returned; callers must fix secondary structures that reference the
// old RID. MVCC writers do not use Update — they insert a new version and
// delete-mark the old — but recovery replay and undo still rewrite in place.
func (h *Heap) Update(tag uint32, rid RID, row types.Row) (RID, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cell := encodeCell(tag, row)
	p, err := h.bp.Fetch(rid.Page)
	if err != nil {
		return NilRID, err
	}
	// Verify ownership before overwriting.
	old, err := p.Cell(int(rid.Slot))
	if err != nil {
		h.bp.Unpin(rid.Page, false)
		return NilRID, err
	}
	if ctag, _, derr := decodeCell(old); derr != nil || ctag != tag {
		h.bp.Unpin(rid.Page, false)
		if derr != nil {
			return NilRID, derr
		}
		return NilRID, fmt.Errorf("storage: update of rid %v owned by tag %d, not %d", rid, ctag, tag)
	}
	ok, err := p.UpdateCell(int(rid.Slot), cell)
	if err != nil {
		h.bp.Unpin(rid.Page, false)
		return NilRID, err
	}
	if ok {
		h.bp.Unpin(rid.Page, true)
		return rid, nil
	}
	// Move: delete here, insert elsewhere; carry the stamps along.
	if err := p.DeleteCell(int(rid.Slot)); err != nil {
		h.bp.Unpin(rid.Page, false)
		return NilRID, err
	}
	h.bp.Unpin(rid.Page, true)
	ver := h.vers[rid]
	delete(h.vers, rid)
	nrid, err := h.insertLocked(tag, row, 0)
	if err == nil && ver != (RowVer{}) {
		h.vers[nrid] = ver
	}
	return nrid, err
}

// Delete physically removes the tuple at rid (undo and recovery; MVCC
// deletes go through MarkDeleted instead).
func (h *Heap) Delete(tag uint32, rid RID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, err := h.bp.Fetch(rid.Page)
	if err != nil {
		return err
	}
	cell, err := p.Cell(int(rid.Slot))
	if err != nil {
		h.bp.Unpin(rid.Page, false)
		return err
	}
	ctag, _, err := decodeCell(cell)
	if err != nil {
		h.bp.Unpin(rid.Page, false)
		return err
	}
	if ctag != tag {
		h.bp.Unpin(rid.Page, false)
		return fmt.Errorf("storage: delete of rid %v owned by tag %d, not %d", rid, ctag, tag)
	}
	err = p.DeleteCell(int(rid.Slot))
	h.bp.Unpin(rid.Page, err == nil)
	if err == nil {
		delete(h.vers, rid)
	}
	return err
}

// Scan visits every visible row owned by tag in physical order under the
// latest-committed default snapshot. The callback returns stop=true to end
// the scan early; it runs with the heap latch released.
func (h *Heap) Scan(tag uint32, fn func(rid RID, row types.Row) (stop bool, err error)) error {
	return h.ScanVis(tag, nil, fn)
}

// ScanVis is Scan under an explicit visibility snapshot.
func (h *Heap) ScanVis(tag uint32, vis VisFunc, fn func(rid RID, row types.Row) (stop bool, err error)) error {
	return h.scan(vis, func(rid RID, ctag uint32, row types.Row) (bool, error) {
		if ctag != tag {
			return false, nil
		}
		return fn(rid, row)
	})
}

// ScanAll visits every visible row of every owner, exposing the tag. The
// cache loader uses it to consume heterogeneous answer streams.
func (h *Heap) ScanAll(fn func(rid RID, tag uint32, row types.Row) (stop bool, err error)) error {
	return h.scan(nil, fn)
}

func (h *Heap) scan(vis VisFunc, fn func(rid RID, tag uint32, row types.Row) (bool, error)) error {
	type item struct {
		rid RID
		tag uint32
		row types.Row
	}
	var items []item
	h.mu.RLock()
	id := h.first
	h.mu.RUnlock()
	for id != InvalidPage {
		items = items[:0]
		var next PageID
		// Latch and pin released by defer: a panic out of the buffer pool
		// (fault injection) must not leave the latch held — the session's
		// panic containment keeps running against this heap.
		err := func() error {
			h.mu.RLock()
			defer h.mu.RUnlock()
			p, err := h.bp.Fetch(id)
			if err != nil {
				return err
			}
			defer h.bp.Unpin(id, false)
			err = p.LiveCells(func(slot int, cell []byte) error {
				rid := RID{Page: id, Slot: uint16(slot)}
				if !h.visibleLocked(rid, vis) {
					return nil
				}
				tag, row, derr := decodeCell(cell)
				if derr != nil {
					return derr
				}
				items = append(items, item{rid: rid, tag: tag, row: row})
				return nil
			})
			next = p.Next()
			return err
		}()
		if err != nil {
			return err
		}
		for _, it := range items {
			stop, ferr := fn(it.rid, it.tag, it.row)
			if ferr != nil {
				return ferr
			}
			if stop {
				return nil
			}
		}
		id = next
	}
	return nil
}

// PageScanner streams the visible rows one table owns page-at-a-time, in
// physical order. Unlike Scan it is pull-based: each NextPage call fetches
// and decodes exactly one non-empty page, so a consumer holds at most a
// page's worth of rows at a time — the substrate for the executor's batched
// SeqScan, which no longer materializes whole tables at Open.
type PageScanner struct {
	h    *Heap
	tag  uint32
	next PageID
	dec  types.RowDecoder
	// Vis is the snapshot filter; nil scans latest-committed rows.
	Vis    VisFunc
	ridCol bool
}

// EmitRID makes the scanner append each row's location (RID.Pack) as one
// trailing INT column. The decoder reserves the slot, so the append never
// re-allocates a row.
func (ps *PageScanner) EmitRID() { ps.ridCol, ps.dec.Spare = true, 1 }

// PageScanner returns a scanner positioned at the start of the heap chain
// that visits only rows owned by tag.
func (h *Heap) PageScanner(tag uint32) *PageScanner {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return &PageScanner{h: h, tag: tag, next: h.first}
}

// Reset rewinds the scanner to the start of the chain.
func (ps *PageScanner) Reset() { ps.next = ps.h.first }

// NextPage appends the visible rows of the next page holding any rows of the
// scanned table to rows (and their locations to rids), skipping pages that
// hold none. It reports ok=false at the end of the chain. Cells owned by
// other tables are skipped before row decode, so clustered families pay only
// a tag check for foreign tuples.
func (ps *PageScanner) NextPage(rows []types.Row, rids []RID) ([]types.Row, []RID, bool, error) {
	h := ps.h
	for ps.next != InvalidPage {
		id := ps.next
		before := len(rows)
		// Latch and pin released by defer: a panic out of the buffer pool
		// (fault injection) must not leave the latch held.
		err := func() error {
			h.mu.RLock()
			defer h.mu.RUnlock()
			p, err := h.bp.Fetch(id)
			if err != nil {
				return err
			}
			defer h.bp.Unpin(id, false)
			err = p.LiveCells(func(slot int, cell []byte) error {
				tag, n := binary.Uvarint(cell)
				if n <= 0 {
					return fmt.Errorf("storage: corrupt cell tag")
				}
				if uint32(tag) != ps.tag {
					return nil
				}
				rid := RID{Page: id, Slot: uint16(slot)}
				if !h.visibleLocked(rid, ps.Vis) {
					return nil
				}
				row, _, derr := ps.dec.Decode(cell[n:])
				if derr != nil {
					return derr
				}
				if ps.ridCol {
					row = append(row, types.NewInt(rid.Pack()))
				}
				rows = append(rows, row)
				rids = append(rids, rid)
				return nil
			})
			ps.next = p.Next()
			return err
		}()
		if err != nil {
			return rows, rids, false, err
		}
		if len(rows) > before {
			return rows, rids, true, nil
		}
	}
	return rows, rids, false, nil
}

// PageCount walks the chain and returns the number of pages in the heap.
func (h *Heap) PageCount() (int, error) {
	n := 0
	h.mu.RLock()
	defer h.mu.RUnlock()
	id := h.first
	for id != InvalidPage {
		p, err := h.bp.Fetch(id)
		if err != nil {
			return 0, err
		}
		next := p.Next()
		h.bp.Unpin(id, false)
		n++
		id = next
	}
	return n, nil
}

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
// MorselReader.EmitRID). Packed order equals physical (page, slot) order.
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

// Heap is a directory of slotted pages storing encoded rows. Several tables
// may share one heap (a cluster family); each cell is prefixed with the
// owning table's tag so per-table scans can filter. InsertNear places a tuple
// on (or close to) the page of a related tuple, which is how
// composite-object clustering co-locates parents with their children.
//
// The page directory lists the heap's pages in the order they were
// allocated; every scan walks a snapshot of it, so no page is fetched only to
// find the next one. Heaps live as long as their engine: recovery replays
// the log into fresh heaps, so the directory is never rebuilt from disk.
//
// Under MVCC readers no longer hold table locks, so the heap carries its own
// latch: mu guards the page directory, page bytes, and the version map.
// Public operations latch and delegate to unexported unlatched
// implementations (Update re-enters Insert internally). Scan callbacks run
// with the latch released — rows are decoded page-at-a-time into copies
// first — so a callback may safely touch other tables of the same cluster
// family.
type Heap struct {
	bp    *BufferPool
	mu    sync.RWMutex
	pages []PageID // page directory; the last entry is the append tail
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
	return &Heap{bp: bp, pages: []PageID{id}, vers: make(map[RID]RowVer)}, nil
}

// directory snapshots the page directory. Appends after the snapshot never
// write into it: the capped slice makes any append through it copy, and the
// heap only ever appends past the snapshot's length.
func (h *Heap) directory() []PageID {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.pages[:len(h.pages):len(h.pages)]
}

// encodeCell prefixes the row encoding with the owner tag and rejects a row
// no page can hold.
func encodeCell(tag uint32, row types.Row) ([]byte, error) {
	cell := make([]byte, 0, binary.MaxVarintLen32+row.EncodedSize())
	cell = row.Encode(binary.AppendUvarint(cell, uint64(tag)))
	if len(cell) > PageSize-pageHeaderSize-slotSize {
		return nil, fmt.Errorf("storage: row of %d bytes exceeds page capacity", len(cell))
	}
	return cell, nil
}

// cellTag reads a cell's owner tag, the uvarint before its row, and
// returns it with the tag's length in bytes.
func cellTag(cell []byte) (uint32, int, error) {
	tag, n := binary.Uvarint(cell)
	if n <= 0 {
		return 0, 0, fmt.Errorf("storage: corrupt cell tag")
	}
	return uint32(tag), n, nil
}

// decodeCell splits a cell into tag and row.
func decodeCell(cell []byte) (uint32, types.Row, error) {
	tag, n, err := cellTag(cell)
	if err != nil {
		return 0, nil, err
	}
	row, _, err := types.DecodeRow(cell[n:])
	return tag, row, err
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
	cell, err := encodeCell(tag, row)
	if err != nil {
		return NilRID, err
	}
	// Try the tail page first.
	p, err := h.bp.Fetch(h.pages[len(h.pages)-1])
	if err != nil {
		return NilRID, err
	}
	slot, ok := p.InsertCell(cell)
	h.bp.Unpin(p.ID, ok)
	if !ok {
		return h.appendPageLocked(cell, tx)
	}
	rid := RID{Page: p.ID, Slot: uint16(slot)}
	h.stampLocked(rid, tx)
	return rid, nil
}

// appendPageLocked stores cell on a newly allocated page and appends that
// page to the directory, making it the new tail.
func (h *Heap) appendPageLocked(cell []byte, tx uint64) (RID, error) {
	p, err := h.bp.NewPage()
	if err != nil {
		return NilRID, err
	}
	slot, ok := p.InsertCell(cell)
	h.bp.Unpin(p.ID, true)
	if !ok {
		return NilRID, fmt.Errorf("storage: fresh page cannot hold %d-byte row", len(cell))
	}
	h.pages = append(h.pages, p.ID)
	rid := RID{Page: p.ID, Slot: uint16(slot)}
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
// the directory. Cluster-family loaders use it to give each composite-object
// root its own page neighborhood, which children then fill via InsertNear.
func (h *Heap) InsertOnFreshPage(tag uint32, row types.Row) (RID, error) {
	return h.InsertOnFreshPageTx(tag, row, 0)
}

// InsertOnFreshPageTx is InsertOnFreshPage with a create stamp.
func (h *Heap) InsertOnFreshPageTx(tag uint32, row types.Row, tx uint64) (RID, error) {
	cell, err := encodeCell(tag, row)
	if err != nil {
		return NilRID, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.appendPageLocked(cell, tx)
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
	cell, err := encodeCell(tag, row)
	if err != nil {
		return NilRID, err
	}
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
// visible under vis, decoding it through dec: only dec's columns are built,
// into dec's arena. ok=false covers vacuumed slots, slots reclaimed by
// another table of the family, and versions invisible to the snapshot — all
// the states a dangling index entry can legitimately point at.
func (h *Heap) GetVisible(tag uint32, rid RID, vis VisFunc, dec *types.RowDecoder) (types.Row, bool, error) {
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
	ctag, n, err := cellTag(cell)
	if err != nil {
		return nil, false, err
	}
	if ctag != tag {
		return nil, false, nil
	}
	row, _, err := dec.Decode(cell[n:])
	if err != nil {
		return nil, false, err
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
	cell, err := encodeCell(tag, row)
	if err != nil {
		return NilRID, err
	}
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
	if ctag, _, derr := cellTag(old); derr != nil || ctag != tag {
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
	ctag, _, err := cellTag(cell)
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

// ScanVis is Scan under an explicit visibility snapshot. It walks the page
// directory as it stood at the call through the executor's page reader: a
// page's rows, and their RIDs beside them, are decoded under the latch.
func (h *Heap) ScanVis(tag uint32, vis VisFunc, fn func(rid RID, row types.Row) (stop bool, err error)) error {
	r := h.MorselReader(tag)
	r.Vis = vis
	r.rids = make([]RID, 0, 64)
	var rows []types.Row
	for _, id := range h.directory() {
		var err error
		r.rids = r.rids[:0]
		if rows, err = r.ReadPage(id, rows[:0]); err != nil {
			return err
		}
		for i, row := range rows {
			if stop, err := fn(r.rids[i], row); err != nil || stop {
				return err
			}
		}
	}
	return nil
}

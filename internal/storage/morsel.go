package storage

import (
	"sync/atomic"

	"sqlxnf/internal/types"
)

// Morsel-driven scan dispatch (Leis et al., SIGMOD 2014): a heap scan splits
// into page-range morsels that worker goroutines claim through an atomic
// cursor. Every scan — a parallel worker, a serial scan claiming every
// morsel itself, Heap.ScanVis — decodes pages through MorselReader.ReadPage,
// so the workers collectively visit each page exactly once with no per-row
// synchronization — the only shared write is the claim cursor.

// DefaultMorselPages is the number of heap pages one claim hands a worker.
// At 4 KiB pages and typical row widths a morsel is a few thousand rows:
// big enough that the atomic claim never shows up in profiles, small enough
// that workers finishing early keep stealing work until the heap is dry.
const DefaultMorselPages = 16

// MorselDispatcher hands out page-range morsels of one heap. It snapshots the
// heap's page directory at creation — pages appended by concurrent writers
// afterwards hold only rows invisible to the scanning snapshot, so missing
// them is exactly right — and serves Claim from an atomic cursor, safe for
// any number of concurrent workers.
type MorselDispatcher struct {
	pages  []PageID
	per    int64
	cursor atomic.Int64
}

// MorselDispatcher returns a dispatcher over the heap's current pages serving
// morsels of pagesPerMorsel pages (<= 0 means DefaultMorselPages). It reads
// no page.
func (h *Heap) MorselDispatcher(pagesPerMorsel int) *MorselDispatcher {
	if pagesPerMorsel <= 0 {
		pagesPerMorsel = DefaultMorselPages
	}
	return &MorselDispatcher{pages: h.directory(), per: int64(pagesPerMorsel)}
}

// Pages reports the total page count the dispatcher will hand out.
func (d *MorselDispatcher) Pages() int { return len(d.pages) }

// Claim returns the next unclaimed run of pages, or nil when the snapshot is
// exhausted. Lock-free: one atomic add per morsel.
func (d *MorselDispatcher) Claim() []PageID {
	end := d.cursor.Add(d.per)
	start := end - d.per
	if start >= int64(len(d.pages)) {
		return nil
	}
	if end > int64(len(d.pages)) {
		end = int64(len(d.pages))
	}
	return d.pages[start:end]
}

// MorselReader decodes the visible rows one table owns, one heap page at a
// time. Each scan holds its own reader, so decoded values come from a private
// types.RowDecoder arena — concurrent workers never share allocation state —
// which Reset lets the next pages reuse.
// A reader decodes every column unless Columns lists the ones to build.
type MorselReader struct {
	h   *Heap
	tag uint32
	dec types.RowDecoder
	// Vis is the snapshot filter; nil scans latest-committed rows.
	Vis VisFunc
	// Keep, when set, tests each visible row before ReadPage builds it, and
	// only the rows it passes are returned. The row Keep sees is borrowed
	// scratch whose strings alias the latched page: Keep must not retain it,
	// and since it runs under the heap latch it must not re-enter storage.
	Keep func(types.Row) (bool, error)
	// Examined counts the visible rows ReadPage has looked at, kept or not.
	Examined int64
	ridCol   bool
	// rids, when non-nil, receives the RID of every row ReadPage returns
	// (Heap.ScanVis), so those rows need no RID column.
	rids []RID
}

// EmitRID makes the reader append each row's location (RID.Pack) as one
// trailing INT column. The decoder reserves the slot, so the append never
// re-allocates a row.
func (r *MorselReader) EmitRID() { r.ridCol, r.dec.Spare = true, 1 }

// Columns makes the reader build only the listed table columns (ascending;
// nil means every column), in that order and followed by the RID column
// when EmitRID is set. Keep sees the same row.
func (r *MorselReader) Columns(cols []int) { r.dec.Cols = cols }

// Reset lets the reader reuse the memory of every row ReadPage returned
// before: those rows become invalid (types.RowDecoder.Reset). A reader that
// is never Reset keeps every row valid.
func (r *MorselReader) Reset() { r.dec.Reset() }

// MorselReader returns a reader over this heap for rows owned by tag.
func (h *Heap) MorselReader(tag uint32) *MorselReader {
	return &MorselReader{h: h, tag: tag}
}

// ReadPage appends the visible rows of page id owned by the reader's table
// to rows, in slot order. Cells owned by other tables of a cluster family
// are skipped before row decode, so they cost only a tag check. Under Keep,
// every visible row decodes once into scratch and only survivors are copied
// out, so a row Keep drops allocates nothing.
func (r *MorselReader) ReadPage(id PageID, rows []types.Row) ([]types.Row, error) {
	h := r.h
	// Latch and pin released by defer: a panic out of the buffer pool (fault
	// injection) must not leave the latch held — the session's panic
	// containment keeps running against this heap.
	h.mu.RLock()
	defer h.mu.RUnlock()
	p, err := h.bp.Fetch(id)
	if err != nil {
		return rows, err
	}
	defer h.bp.Unpin(id, false)
	err = p.LiveCells(func(slot int, cell []byte) error {
		tag, n, err := cellTag(cell)
		if err != nil {
			return err
		}
		if tag != r.tag {
			return nil
		}
		rid := RID{Page: id, Slot: uint16(slot)}
		if !h.visibleLocked(rid, r.Vis) {
			return nil
		}
		r.Examined++
		var row types.Row
		var derr error
		if r.Keep != nil {
			row, _, derr = r.dec.Borrow(cell[n:])
		} else {
			row, _, derr = r.dec.Decode(cell[n:])
		}
		if derr != nil {
			return derr
		}
		if r.ridCol {
			row = append(row, types.NewInt(rid.Pack()))
		}
		if r.Keep != nil {
			keep, kerr := r.Keep(row)
			if kerr != nil || !keep {
				return kerr
			}
			row = r.dec.Own(row)
		}
		rows = append(rows, row)
		if r.rids != nil {
			r.rids = append(r.rids, rid)
		}
		return nil
	})
	return rows, err
}

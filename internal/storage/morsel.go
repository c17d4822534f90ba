package storage

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"sqlxnf/internal/types"
)

// Morsel-driven scan dispatch (Leis et al., SIGMOD 2014): a heap scan splits
// into page-range morsels that worker goroutines claim through an atomic
// cursor. Every worker runs the same decode loop a serial PageScanner would,
// just over the pages it claimed, so the workers collectively visit each page
// exactly once with no per-row synchronization — the only shared write is the
// claim cursor.

// DefaultMorselPages is the number of heap pages one claim hands a worker.
// At 4 KiB pages and typical row widths a morsel is a few thousand rows:
// big enough that the atomic claim never shows up in profiles, small enough
// that workers finishing early keep stealing work until the chain is dry.
const DefaultMorselPages = 16

// MorselDispatcher hands out page-range morsels of one heap chain. It
// snapshots the chain's page ids at creation — pages appended by concurrent
// writers afterwards hold only rows invisible to the scanning snapshot, so
// missing them is exactly right — and serves Claim from an atomic cursor,
// safe for any number of concurrent workers.
type MorselDispatcher struct {
	pages  []PageID
	per    int64
	cursor atomic.Int64
}

// MorselDispatcher walks the heap chain and returns a dispatcher serving
// morsels of pagesPerMorsel pages (<= 0 means DefaultMorselPages).
func (h *Heap) MorselDispatcher(pagesPerMorsel int) (*MorselDispatcher, error) {
	if pagesPerMorsel <= 0 {
		pagesPerMorsel = DefaultMorselPages
	}
	d := &MorselDispatcher{per: int64(pagesPerMorsel)}
	h.mu.RLock()
	defer h.mu.RUnlock()
	id := h.first
	for id != InvalidPage {
		p, err := h.bp.Fetch(id)
		if err != nil {
			return nil, err
		}
		next := p.Next()
		h.bp.Unpin(id, false)
		d.pages = append(d.pages, id)
		id = next
	}
	return d, nil
}

// Pages reports the total page count the dispatcher will hand out.
func (d *MorselDispatcher) Pages() int { return len(d.pages) }

// Claim returns the next unclaimed run of pages, or nil when the chain is
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

// MorselReader decodes the live rows one table owns on claimed pages. Each
// worker holds its own reader, so decoded values come from a private
// types.RowDecoder arena — workers never share allocation state.
type MorselReader struct {
	h   *Heap
	tag uint32
	dec types.RowDecoder
	// Vis is the snapshot filter; nil scans latest-committed rows.
	Vis    VisFunc
	ridCol bool
}

// EmitRID makes the reader append each row's location as a trailing INT
// column, exactly as PageScanner.EmitRID does.
func (r *MorselReader) EmitRID() { r.ridCol, r.dec.Spare = true, 1 }

// MorselReader returns a reader over this heap for rows owned by tag.
func (h *Heap) MorselReader(tag uint32) *MorselReader {
	return &MorselReader{h: h, tag: tag}
}

// ReadPage appends the live rows of page id owned by the reader's table to
// rows. Cells owned by other tables of a cluster family are skipped before
// row decode.
func (r *MorselReader) ReadPage(id PageID, rows []types.Row) ([]types.Row, error) {
	h := r.h
	h.mu.RLock()
	defer h.mu.RUnlock()
	p, err := h.bp.Fetch(id)
	if err != nil {
		return rows, err
	}
	err = p.LiveCells(func(slot int, cell []byte) error {
		tag, n := binary.Uvarint(cell)
		if n <= 0 {
			return fmt.Errorf("storage: corrupt cell tag")
		}
		if uint32(tag) != r.tag {
			return nil
		}
		rid := RID{Page: id, Slot: uint16(slot)}
		if !h.visibleLocked(rid, r.Vis) {
			return nil
		}
		row, _, derr := r.dec.Decode(cell[n:])
		if derr != nil {
			return derr
		}
		if r.ridCol {
			row = append(row, types.NewInt(rid.Pack()))
		}
		rows = append(rows, row)
		return nil
	})
	h.bp.Unpin(id, false)
	return rows, err
}

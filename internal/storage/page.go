package storage

import (
	"encoding/binary"
	"fmt"
)

// Slotted page layout:
//
//	offset 0:  numSlots   uint16
//	offset 2:  freeEnd    uint16  (cells grow down from PageSize to freeEnd)
//	offset 4:  unused     4 bytes (zero; the heap's page directory, not the
//	           page, records which pages belong to a heap)
//	offset 8:  slot array: numSlots entries of [cellOff uint16, cellLen uint16]
//
// Dead slots have cellOff == 0. Cell space is reclaimed by compaction when
// an insert would otherwise fail.
const (
	pageHeaderSize = 8
	slotSize       = 4
	deadOffset     = 0
)

// Page wraps a pinned buffer-pool frame with slotted-page operations. The
// caller must Unpin it through the pool when done.
type Page struct {
	ID   PageID
	Data []byte // always PageSize bytes, aliased with the buffer frame
}

// InitPage formats the frame as an empty slotted page.
func (p *Page) Init() {
	for i := range p.Data {
		p.Data[i] = 0
	}
	p.setNumSlots(0)
	p.setFreeEnd(PageSize)
}

func (p *Page) numSlots() int     { return int(binary.LittleEndian.Uint16(p.Data[0:])) }
func (p *Page) setNumSlots(n int) { binary.LittleEndian.PutUint16(p.Data[0:], uint16(n)) }

// setFreeEnd stores the cell-area floor. PageSize itself does not fit in a
// uint16, so an empty page stores the 0xFFFF sentinel.
func (p *Page) setFreeEnd(n int) {
	if n == PageSize {
		binary.LittleEndian.PutUint16(p.Data[2:], 0xFFFF)
		return
	}
	binary.LittleEndian.PutUint16(p.Data[2:], uint16(n))
}

func (p *Page) realFreeEnd() int {
	v := binary.LittleEndian.Uint16(p.Data[2:])
	if v == 0xFFFF {
		return PageSize
	}
	return int(v)
}

// NumSlots returns the slot-directory size (including dead slots).
func (p *Page) NumSlots() int { return p.numSlots() }

func (p *Page) slot(i int) (off, length int) {
	base := pageHeaderSize + i*slotSize
	return int(binary.LittleEndian.Uint16(p.Data[base:])), int(binary.LittleEndian.Uint16(p.Data[base+2:]))
}

func (p *Page) setSlot(i, off, length int) {
	base := pageHeaderSize + i*slotSize
	binary.LittleEndian.PutUint16(p.Data[base:], uint16(off))
	binary.LittleEndian.PutUint16(p.Data[base+2:], uint16(length))
}

// FreeSpace returns the number of payload bytes available for one more cell
// (accounting for the slot-directory entry it would need).
func (p *Page) FreeSpace() int {
	free := p.realFreeEnd() - (pageHeaderSize + p.numSlots()*slotSize)
	free -= slotSize // the new cell needs a directory entry
	if free < 0 {
		return 0
	}
	return free
}

// usedCellBytes sums the live cell payload sizes.
func (p *Page) usedCellBytes() int {
	n := 0
	for i := 0; i < p.numSlots(); i++ {
		off, l := p.slot(i)
		if off != deadOffset {
			n += l
		}
	}
	return n
}

// InsertCell stores data in the page and returns the slot number. It reuses
// dead slots and compacts fragmented space. ok is false when the cell cannot
// fit even after compaction.
func (p *Page) InsertCell(data []byte) (slot int, ok bool) {
	if len(data) == 0 || len(data) > PageSize-pageHeaderSize-slotSize {
		return 0, false
	}
	// Find a dead slot to reuse, else plan to append one.
	slot = -1
	for i := 0; i < p.numSlots(); i++ {
		if off, _ := p.slot(i); off == deadOffset {
			slot = i
			break
		}
	}
	needDir := 0
	if slot == -1 {
		needDir = slotSize
	}
	contiguous := p.realFreeEnd() - (pageHeaderSize + p.numSlots()*slotSize) - needDir
	if contiguous < len(data) {
		// Try compaction: total free might suffice even if fragmented.
		total := PageSize - pageHeaderSize - p.numSlots()*slotSize - needDir - p.usedCellBytes()
		if total < len(data) {
			return 0, false
		}
		p.compact()
		contiguous = p.realFreeEnd() - (pageHeaderSize + p.numSlots()*slotSize) - needDir
		if contiguous < len(data) {
			return 0, false
		}
	}
	newEnd := p.realFreeEnd() - len(data)
	copy(p.Data[newEnd:], data)
	p.setFreeEnd(newEnd)
	if slot == -1 {
		slot = p.numSlots()
		p.setNumSlots(slot + 1)
	}
	p.setSlot(slot, newEnd, len(data))
	return slot, true
}

// Cell returns the payload of a live slot.
func (p *Page) Cell(slot int) ([]byte, error) {
	if slot < 0 || slot >= p.numSlots() {
		return nil, fmt.Errorf("storage: slot %d out of range on page %d", slot, p.ID)
	}
	off, l := p.slot(slot)
	if off == deadOffset {
		return nil, fmt.Errorf("storage: slot %d on page %d is dead", slot, p.ID)
	}
	return p.Data[off : off+l], nil
}

// DeleteCell marks a slot dead. The space is reclaimed lazily by compaction.
func (p *Page) DeleteCell(slot int) error {
	if slot < 0 || slot >= p.numSlots() {
		return fmt.Errorf("storage: slot %d out of range on page %d", slot, p.ID)
	}
	off, _ := p.slot(slot)
	if off == deadOffset {
		return fmt.Errorf("storage: slot %d on page %d already dead", slot, p.ID)
	}
	p.setSlot(slot, deadOffset, 0)
	return nil
}

// UpdateCell replaces the payload of a slot in place when possible. ok is
// false when the new payload does not fit; the caller then deletes and
// re-inserts elsewhere.
func (p *Page) UpdateCell(slot int, data []byte) (ok bool, err error) {
	if slot < 0 || slot >= p.numSlots() {
		return false, fmt.Errorf("storage: slot %d out of range on page %d", slot, p.ID)
	}
	off, l := p.slot(slot)
	if off == deadOffset {
		return false, fmt.Errorf("storage: slot %d on page %d is dead", slot, p.ID)
	}
	if len(data) <= l {
		copy(p.Data[off:], data)
		p.setSlot(slot, off, len(data))
		return true, nil
	}
	// Try delete+reinsert on the same page, keeping the same slot number.
	p.setSlot(slot, deadOffset, 0)
	contiguous := p.realFreeEnd() - (pageHeaderSize + p.numSlots()*slotSize)
	if contiguous < len(data) {
		total := PageSize - pageHeaderSize - p.numSlots()*slotSize - p.usedCellBytes()
		if total < len(data) {
			p.setSlot(slot, off, l) // restore
			return false, nil
		}
		p.compact()
		contiguous = p.realFreeEnd() - (pageHeaderSize + p.numSlots()*slotSize)
		if contiguous < len(data) {
			p.setSlot(slot, off, l)
			return false, nil
		}
		// After compaction the old offset is gone; data was already dead.
	}
	newEnd := p.realFreeEnd() - len(data)
	copy(p.Data[newEnd:], data)
	p.setFreeEnd(newEnd)
	p.setSlot(slot, newEnd, len(data))
	return true, nil
}

// compact repacks live cells against the end of the page.
func (p *Page) compact() {
	type live struct {
		slot int
		data []byte
	}
	var cells []live
	for i := 0; i < p.numSlots(); i++ {
		off, l := p.slot(i)
		if off != deadOffset {
			buf := make([]byte, l)
			copy(buf, p.Data[off:off+l])
			cells = append(cells, live{i, buf})
		}
	}
	end := PageSize
	for _, c := range cells {
		end -= len(c.data)
		copy(p.Data[end:], c.data)
		p.setSlot(c.slot, end, len(c.data))
	}
	p.setFreeEnd(end)
}

// LiveCells calls fn for every live slot in slot order.
func (p *Page) LiveCells(fn func(slot int, data []byte) error) error {
	for i := 0; i < p.numSlots(); i++ {
		off, l := p.slot(i)
		if off == deadOffset {
			continue
		}
		if err := fn(i, p.Data[off:off+l]); err != nil {
			return err
		}
	}
	return nil
}

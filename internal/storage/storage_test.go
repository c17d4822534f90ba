package storage

import (
	"fmt"
	"math/rand"
	"testing"

	"sqlxnf/internal/types"
)

func TestDiskAllocateReadWrite(t *testing.T) {
	d := NewDisk()
	id := d.Allocate()
	buf := make([]byte, PageSize)
	buf[0] = 0xAB
	if err := d.Write(id, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := d.Read(id, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAB {
		t.Error("read did not return written data")
	}
	st := d.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.Allocs != 1 {
		t.Errorf("stats = %+v", st)
	}
	d.ResetStats()
	if st := d.Stats(); st.Reads != 0 || st.Writes != 0 {
		t.Errorf("ResetStats left %+v", st)
	}
	// Out-of-range accesses error.
	if err := d.Read(99, got); err == nil {
		t.Error("read of unallocated page should fail")
	}
	if err := d.Write(99, buf); err == nil {
		t.Error("write of unallocated page should fail")
	}
	// Bad buffer size.
	if err := d.Read(id, make([]byte, 10)); err == nil {
		t.Error("short read buffer should fail")
	}
}

func TestPageInsertGetDelete(t *testing.T) {
	p := &Page{ID: 1, Data: make([]byte, PageSize)}
	p.Init()
	if p.NumSlots() != 0 {
		t.Fatal("fresh page has slots")
	}
	s1, ok := p.InsertCell([]byte("hello"))
	if !ok {
		t.Fatal("insert failed")
	}
	s2, ok := p.InsertCell([]byte("world!"))
	if !ok {
		t.Fatal("insert failed")
	}
	if c, err := p.Cell(s1); err != nil || string(c) != "hello" {
		t.Errorf("cell 1 = %q, %v", c, err)
	}
	if c, err := p.Cell(s2); err != nil || string(c) != "world!" {
		t.Errorf("cell 2 = %q, %v", c, err)
	}
	if err := p.DeleteCell(s1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Cell(s1); err == nil {
		t.Error("dead cell readable")
	}
	if err := p.DeleteCell(s1); err == nil {
		t.Error("double delete should fail")
	}
	// Dead slot is reused.
	s3, ok := p.InsertCell([]byte("re"))
	if !ok || s3 != s1 {
		t.Errorf("dead slot not reused: slot=%d ok=%v", s3, ok)
	}
	// Out of range.
	if _, err := p.Cell(99); err == nil {
		t.Error("out-of-range cell should fail")
	}
}

func TestPageFillCompactionAndUpdate(t *testing.T) {
	p := &Page{ID: 1, Data: make([]byte, PageSize)}
	p.Init()
	payload := make([]byte, 100)
	var slots []int
	for {
		s, ok := p.InsertCell(payload)
		if !ok {
			break
		}
		slots = append(slots, s)
	}
	if len(slots) < 30 {
		t.Fatalf("only %d 100-byte cells fit in a page", len(slots))
	}
	// Delete every other cell, then insert larger cells that only fit after
	// compaction stitches the holes together.
	for i := 0; i < len(slots); i += 2 {
		if err := p.DeleteCell(slots[i]); err != nil {
			t.Fatal(err)
		}
	}
	big := make([]byte, 150)
	n := 0
	for {
		if _, ok := p.InsertCell(big); !ok {
			break
		}
		n++
	}
	if n == 0 {
		t.Fatal("compaction failed to reclaim space")
	}
	// Update in place (shrink) keeps the slot.
	small := []byte("xy")
	ok, err := p.UpdateCell(slots[1], small)
	if err != nil || !ok {
		t.Fatalf("in-place update: %v %v", ok, err)
	}
	if c, _ := p.Cell(slots[1]); string(c) != "xy" {
		t.Error("update lost data")
	}
	// Growing update may fail when page is packed.
	huge := make([]byte, PageSize)
	ok, err = p.UpdateCell(slots[1], huge)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("oversize update should report !ok")
	}
	if c, _ := p.Cell(slots[1]); string(c) != "xy" {
		t.Error("failed update must leave old value intact")
	}
}

func TestPageRandomizedInvariant(t *testing.T) {
	// Property: a page behaves like a map[slot][]byte under random
	// insert/delete/update, and never loses or corrupts live cells.
	rng := rand.New(rand.NewSource(42))
	p := &Page{ID: 1, Data: make([]byte, PageSize)}
	p.Init()
	model := map[int][]byte{}
	mk := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return b
	}
	for step := 0; step < 5000; step++ {
		switch rng.Intn(3) {
		case 0: // insert
			data := mk(1 + rng.Intn(200))
			if s, ok := p.InsertCell(data); ok {
				model[s] = data
			}
		case 1: // delete
			for s := range model {
				if err := p.DeleteCell(s); err != nil {
					t.Fatalf("step %d: delete: %v", step, err)
				}
				delete(model, s)
				break
			}
		case 2: // update
			for s := range model {
				data := mk(1 + rng.Intn(200))
				ok, err := p.UpdateCell(s, data)
				if err != nil {
					t.Fatalf("step %d: update: %v", step, err)
				}
				if ok {
					model[s] = data
				}
				break
			}
		}
		// Verify all model entries.
		if step%500 == 0 {
			for s, want := range model {
				got, err := p.Cell(s)
				if err != nil {
					t.Fatalf("step %d: cell %d: %v", step, s, err)
				}
				if string(got) != string(want) {
					t.Fatalf("step %d: cell %d corrupted", step, s)
				}
			}
		}
	}
}

func TestBufferPoolHitMissEvict(t *testing.T) {
	d := NewDisk()
	bp := NewBufferPool(d, 2)
	p1, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	p1.Data[100] = 7
	id1 := p1.ID
	bp.Unpin(id1, true)
	p2, _ := bp.NewPage()
	id2 := p2.ID
	bp.Unpin(id2, true)
	// Third page evicts LRU (p1, dirty → written back).
	p3, _ := bp.NewPage()
	id3 := p3.ID
	bp.Unpin(id3, true)
	if st := bp.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	// Re-fetch p1: must come from disk with data intact.
	r1, err := bp.Fetch(id1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Data[100] != 7 {
		t.Error("dirty eviction lost data")
	}
	bp.Unpin(id1, false)
	if bp.PinnedCount() != 0 {
		t.Errorf("pinned leak: %d", bp.PinnedCount())
	}
}

func TestBufferPoolAllPinnedExhaustion(t *testing.T) {
	d := NewDisk()
	bp := NewBufferPool(d, 2)
	p1, _ := bp.NewPage()
	p2, _ := bp.NewPage()
	if _, err := bp.NewPage(); err == nil {
		t.Error("pool with all pages pinned must refuse new frames")
	}
	bp.Unpin(p1.ID, false)
	bp.Unpin(p2.ID, false)
	if _, err := bp.NewPage(); err != nil {
		t.Errorf("after unpin NewPage should work: %v", err)
	}
}

func TestBufferPoolUnpinPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Unpin of unknown page should panic")
		}
	}()
	bp := NewBufferPool(NewDisk(), 2)
	bp.Unpin(5, false)
}

func TestBufferPoolDropAllColdRead(t *testing.T) {
	d := NewDisk()
	bp := NewBufferPool(d, 10)
	p, _ := bp.NewPage()
	id := p.ID
	p.Data[0] = 9
	bp.Unpin(id, true)
	if err := bp.DropAll(); err != nil {
		t.Fatal(err)
	}
	d.ResetStats()
	q, err := bp.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	if q.Data[0] != 9 {
		t.Error("DropAll lost dirty data")
	}
	bp.Unpin(id, false)
	if d.Stats().Reads != 1 {
		t.Errorf("cold fetch should read disk once, got %d", d.Stats().Reads)
	}
}

func row(vals ...interface{}) types.Row {
	r := make(types.Row, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case int:
			r[i] = types.NewInt(int64(x))
		case string:
			r[i] = types.NewString(x)
		case float64:
			r[i] = types.NewFloat(x)
		case nil:
			r[i] = types.Null()
		default:
			panic("bad test value")
		}
	}
	return r
}

func TestHeapInsertGetScan(t *testing.T) {
	bp := NewBufferPool(NewDisk(), 16)
	h, err := CreateHeap(bp)
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	for i := 0; i < 500; i++ {
		rid, err := h.Insert(1, row(i, fmt.Sprintf("name-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	// Point reads.
	for i, rid := range rids {
		r, err := h.Get(1, rid)
		if err != nil {
			t.Fatal(err)
		}
		if r[0].Int() != int64(i) {
			t.Fatalf("rid %v returned %v", rid, r)
		}
	}
	// Scan sees all rows in insertion order within tag.
	n := 0
	err = h.Scan(1, func(rid RID, r types.Row) (bool, error) {
		if r[0].Int() != int64(n) {
			return false, fmt.Errorf("scan out of order at %d: %v", n, r)
		}
		n++
		return false, nil
	})
	if err != nil || n != 500 {
		t.Fatalf("scan: n=%d err=%v", n, err)
	}
	// Early stop.
	n = 0
	if err := h.Scan(1, func(RID, types.Row) (bool, error) { n++; return n == 10, nil }); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("early stop scanned %d", n)
	}
	if bp.PinnedCount() != 0 {
		t.Errorf("pin leak: %d", bp.PinnedCount())
	}
}

func TestHeapTagIsolation(t *testing.T) {
	bp := NewBufferPool(NewDisk(), 16)
	h, _ := CreateHeap(bp)
	ridA, _ := h.Insert(1, row(1, "a"))
	ridB, _ := h.Insert(2, row(2, "b"))
	// Cross-tag access is refused.
	if _, err := h.Get(2, ridA); err == nil {
		t.Error("cross-tag Get should fail")
	}
	if err := h.Delete(1, ridB); err == nil {
		t.Error("cross-tag Delete should fail")
	}
	if _, err := h.Update(2, ridA, row(9, "x")); err == nil {
		t.Error("cross-tag Update should fail")
	}
	// Per-tag scans are disjoint.
	count := map[uint32]int{}
	if err := h.ScanAll(func(_ RID, tag uint32, _ types.Row) (bool, error) {
		count[tag]++
		return false, nil
	}); err != nil {
		t.Fatal(err)
	}
	if count[1] != 1 || count[2] != 1 {
		t.Errorf("ScanAll counts = %v", count)
	}
}

func TestHeapUpdateDeleteAndMove(t *testing.T) {
	bp := NewBufferPool(NewDisk(), 32)
	h, _ := CreateHeap(bp)
	rid, _ := h.Insert(1, row(1, "short"))
	// In-place update.
	nrid, err := h.Update(1, rid, row(1, "tiny"))
	if err != nil || nrid != rid {
		t.Fatalf("in-place update moved: %v %v", nrid, err)
	}
	// Fill the first page so a growing update must move.
	for i := 0; i < 2000; i++ {
		if _, err := h.Insert(1, row(i, "filler-filler-filler")); err != nil {
			t.Fatal(err)
		}
	}
	long := make([]byte, 3000)
	for i := range long {
		long[i] = 'x'
	}
	nrid, err = h.Update(1, rid, row(1, string(long)))
	if err != nil {
		t.Fatal(err)
	}
	if nrid == rid {
		t.Error("big update should have moved the tuple")
	}
	got, err := h.Get(1, nrid)
	if err != nil || got[1].Str() != string(long) {
		t.Fatalf("moved tuple unreadable: %v", err)
	}
	// Delete then Get fails.
	if err := h.Delete(1, nrid); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(1, nrid); err == nil {
		t.Error("get after delete should fail")
	}
	if bp.PinnedCount() != 0 {
		t.Errorf("pin leak: %d", bp.PinnedCount())
	}
}

func TestHeapOpenFindsTail(t *testing.T) {
	bp := NewBufferPool(NewDisk(), 64)
	h, _ := CreateHeap(bp)
	for i := 0; i < 3000; i++ {
		if _, err := h.Insert(1, row(i, "some-filler-content")); err != nil {
			t.Fatal(err)
		}
	}
	pc, err := h.PageCount()
	if err != nil {
		t.Fatal(err)
	}
	if pc < 2 {
		t.Fatalf("expected multi-page heap, got %d pages", pc)
	}
	h2, err := OpenHeap(bp, h.FirstPage())
	if err != nil {
		t.Fatal(err)
	}
	// Appending through the reopened heap must not corrupt the chain.
	if _, err := h2.Insert(1, row(-1, "tail")); err != nil {
		t.Fatal(err)
	}
	n := 0
	last := -2
	if err := h2.Scan(1, func(_ RID, r types.Row) (bool, error) {
		n++
		last = int(r[0].Int())
		return false, nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 3001 || last != -1 {
		t.Errorf("reopened heap scan: n=%d last=%d", n, last)
	}
}

func TestHeapInsertNearClusters(t *testing.T) {
	bp := NewBufferPool(NewDisk(), 64)
	h, _ := CreateHeap(bp)
	parent, _ := h.Insert(1, row(1, "dept"))
	// Children placed near the parent land on the parent's page while it
	// has room.
	same := 0
	for i := 0; i < 20; i++ {
		rid, err := h.InsertNear(2, parent, row(i, "emp"))
		if err != nil {
			t.Fatal(err)
		}
		if rid.Page == parent.Page {
			same++
		}
	}
	if same != 20 {
		t.Errorf("only %d/20 children co-located with parent", same)
	}
	// When the page fills, InsertNear falls back gracefully.
	for i := 0; i < 5000; i++ {
		if _, err := h.InsertNear(2, parent, row(i, "overflow-overflow")); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHeapRejectsOversizeRow(t *testing.T) {
	bp := NewBufferPool(NewDisk(), 8)
	h, _ := CreateHeap(bp)
	big := make([]byte, PageSize)
	if _, err := h.Insert(1, row(1, string(big))); err == nil {
		t.Error("row larger than a page must be rejected")
	}
}

func TestHeapInsertOnFreshPage(t *testing.T) {
	bp := NewBufferPool(NewDisk(), 64)
	h, _ := CreateHeap(bp)
	// Fill some of the first page.
	first, _ := h.Insert(1, row(0, "root-zero"))
	r1, err := h.InsertOnFreshPage(1, row(1, "root-one"))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Page == first.Page {
		t.Error("fresh-page insert landed on the old page")
	}
	// Children near the fresh root co-locate with it.
	for i := 0; i < 10; i++ {
		rid, err := h.InsertNear(2, r1, row(i, "child"))
		if err != nil {
			t.Fatal(err)
		}
		if rid.Page != r1.Page {
			t.Errorf("child %d landed on page %d, want %d", i, rid.Page, r1.Page)
		}
	}
	// The chain stays scannable end to end.
	n := 0
	if err := h.ScanAll(func(RID, uint32, types.Row) (bool, error) { n++; return false, nil }); err != nil {
		t.Fatal(err)
	}
	if n != 12 {
		t.Errorf("scan found %d rows", n)
	}
	// Appends after a fresh page go to the new tail.
	r2, _ := h.Insert(1, row(99, "tail"))
	if r2.Page != r1.Page {
		t.Errorf("append went to page %d, want tail %d", r2.Page, r1.Page)
	}
	// Oversize rejection.
	if _, err := h.InsertOnFreshPage(1, row(1, string(make([]byte, PageSize)))); err == nil {
		t.Error("oversize row must be rejected")
	}
}

func TestPageScannerStreamsPages(t *testing.T) {
	bp := NewBufferPool(NewDisk(), 256)
	h, err := CreateHeap(bp)
	if err != nil {
		t.Fatal(err)
	}
	// Two interleaved owners across many pages.
	const n = 1200
	want := map[int64]bool{}
	for i := 0; i < n; i++ {
		tag := uint32(1 + i%2)
		row := types.Row{types.NewInt(int64(i)), types.NewString("payload-payload")}
		if _, err := h.Insert(tag, row); err != nil {
			t.Fatal(err)
		}
		if tag == 1 {
			want[int64(i)] = true
		}
	}
	ps := h.PageScanner(1)
	var rows []types.Row
	var rids []RID
	pages := 0
	got := map[int64]bool{}
	for {
		rows, rids = rows[:0], rids[:0]
		var ok bool
		rows, rids, ok, err = ps.NextPage(rows, rids)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		pages++
		if len(rows) != len(rids) {
			t.Fatalf("page %d: %d rows but %d rids", pages, len(rows), len(rids))
		}
		for i, r := range rows {
			id := r[0].Int()
			if !want[id] {
				t.Fatalf("scanner returned foreign or unknown row id %d", id)
			}
			if got[id] {
				t.Fatalf("scanner returned row id %d twice", id)
			}
			got[id] = true
			// RID must round-trip through Get for the same owner.
			back, err := h.Get(1, rids[i])
			if err != nil {
				t.Fatalf("Get(%v): %v", rids[i], err)
			}
			if !back.Equal(r) {
				t.Fatalf("rid %v: Get returned %v, scan returned %v", rids[i], back, r)
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("scanner returned %d rows, want %d", len(got), len(want))
	}
	if pages < 2 {
		t.Fatalf("scan covered %d pages; test needs a multi-page heap", pages)
	}
	// Reset rewinds to the first page.
	ps.Reset()
	rows, rids = rows[:0], rids[:0]
	rows, _, ok, err := ps.NextPage(rows, rids)
	if err != nil || !ok || len(rows) == 0 {
		t.Fatalf("after Reset: ok=%v err=%v rows=%d", ok, err, len(rows))
	}
}

// TestScannersEmitRID: with EmitRID, PageScanner and MorselReader append each
// row's packed location as a trailing INT column — without re-allocating the
// decoded row — and the packed form round-trips and orders like (page, slot).
func TestScannersEmitRID(t *testing.T) {
	h, err := CreateHeap(NewBufferPool(NewDisk(), 8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		if _, err := h.Insert(1, types.Row{types.NewInt(int64(i)), types.NewString("payload-payload")}); err != nil {
			t.Fatal(err)
		}
	}
	ps := h.PageScanner(1)
	ps.EmitRID()
	var rows []types.Row
	var rids []RID
	for ok := true; ok; {
		if rows, rids, ok, err = ps.NextPage(rows, rids); err != nil {
			t.Fatal(err)
		}
	}
	if len(rows) != 600 {
		t.Fatalf("scanned %d rows", len(rows))
	}
	for i, row := range rows {
		if len(row) != 3 || cap(row) != 3 {
			t.Fatalf("row %d: len %d cap %d, want the two columns plus the reserved RID slot", i, len(row), cap(row))
		}
		if got := UnpackRID(row[2].Int()); got != rids[i] {
			t.Fatalf("row %d carries RID %v, scanner reported %v", i, got, rids[i])
		}
		if i > 0 && row[2].Int() <= rows[i-1][2].Int() {
			t.Fatalf("packed RIDs out of physical order at row %d", i)
		}
	}
	disp, err := h.MorselDispatcher(0)
	if err != nil {
		t.Fatal(err)
	}
	mr := h.MorselReader(1)
	mr.EmitRID()
	var mrows []types.Row
	for pages := disp.Claim(); pages != nil; pages = disp.Claim() {
		for _, id := range pages {
			if mrows, err = mr.ReadPage(id, mrows); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(mrows) != len(rows) {
		t.Fatalf("morsel reader saw %d rows, page scanner %d", len(mrows), len(rows))
	}
	for i := range mrows {
		if !mrows[i].Equal(rows[i]) {
			t.Fatalf("row %d: morsel reader %v, page scanner %v", i, mrows[i], rows[i])
		}
	}
}

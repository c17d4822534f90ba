package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
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

// TestBufferPoolReusesEvictedFrames: a miss takes over the evicted frame's
// page buffer, and that reuse never leaks one page's bytes into another. A
// two-frame pool cycles through five pages, each filled with its own byte
// and rewritten every round: every fetch must read back exactly the last
// write — written back when the dirty page was evicted — and a fresh page
// must come up empty even in a buffer a dirty page just left.
func TestBufferPoolReusesEvictedFrames(t *testing.T) {
	bp := NewBufferPool(NewDisk(), 2)
	var ids []PageID
	for i := 0; i < 5; i++ {
		p, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		if p.numSlots() != 0 || p.Data[PageSize-1] != 0 {
			t.Fatalf("fresh page %d is not empty in a reused buffer", i)
		}
		ids = append(ids, p.ID)
		for j := range p.Data {
			p.Data[j] = byte(i)
		}
		bp.Unpin(p.ID, true)
	}
	for round := 1; round <= 3; round++ {
		for i, id := range ids {
			p, err := bp.Fetch(id)
			if err != nil {
				t.Fatal(err)
			}
			want := byte(i + 10*(round-1))
			for j, b := range p.Data {
				if b != want {
					t.Fatalf("round %d page %d byte %d = %d, want %d", round, i, j, b, want)
				}
			}
			for j := range p.Data {
				p.Data[j] = byte(i + 10*round)
			}
			bp.Unpin(id, true)
		}
	}
	// The evicted page's buffer serves the next miss: pages 3 and 4 hold
	// the two frames now, and page 0's miss must take over one of them.
	held := map[*byte]bool{}
	for _, id := range ids[3:] {
		p, err := bp.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		held[&p.Data[0]] = true
		bp.Unpin(id, false)
	}
	p, err := bp.Fetch(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	defer bp.Unpin(ids[0], false)
	if !held[&p.Data[0]] {
		t.Fatal("a miss allocated a page buffer instead of reusing the evicted frame's")
	}
	if p.Data[0] != 30 {
		t.Fatalf("refetched page 0 reads %d, want 30", p.Data[0])
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
	if _, err := h.Delete(1, ridB); err == nil {
		t.Error("cross-tag Delete should fail")
	}
	if _, err := h.Update(2, ridA, row(9, "x")); err == nil {
		t.Error("cross-tag Update should fail")
	}
	// Per-tag scans are disjoint.
	for tag, want := range map[uint32]RID{1: ridA, 2: ridB} {
		var got []RID
		if err := h.Scan(tag, func(rid RID, _ types.Row) (bool, error) {
			got = append(got, rid)
			return false, nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != want {
			t.Errorf("tag %d scan = %v, want [%v]", tag, got, want)
		}
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
	if _, err := h.Delete(1, nrid); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(1, nrid); err == nil {
		t.Error("get after delete should fail")
	}
	if bp.PinnedCount() != 0 {
		t.Errorf("pin leak: %d", bp.PinnedCount())
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
	// The heap stays scannable end to end.
	n := 0
	for _, tag := range []uint32{1, 2} {
		if err := h.Scan(tag, func(RID, types.Row) (bool, error) { n++; return false, nil }); err != nil {
			t.Fatal(err)
		}
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

// readSerial drains every morsel of a fresh dispatcher through one reader —
// the serial scan path — and returns the rows page by page.
func readSerial(t *testing.T, h *Heap, r *MorselReader, pagesPerMorsel int) [][]types.Row {
	t.Helper()
	var pages [][]types.Row
	d := h.MorselDispatcher(pagesPerMorsel)
	for claim := d.Claim(); claim != nil; claim = d.Claim() {
		for _, id := range claim {
			rows, err := r.ReadPage(id, nil)
			if err != nil {
				t.Fatal(err)
			}
			pages = append(pages, rows)
		}
	}
	return pages
}

func TestPageReaderStreamsPages(t *testing.T) {
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
	r := h.MorselReader(1)
	r.EmitRID()
	got := map[int64]bool{}
	pages := 0
	for _, rows := range readSerial(t, h, r, 0) {
		if len(rows) > 0 {
			pages++
		}
		for _, row := range rows {
			id := row[0].Int()
			if !want[id] {
				t.Fatalf("reader returned foreign or unknown row id %d", id)
			}
			if got[id] {
				t.Fatalf("reader returned row id %d twice", id)
			}
			got[id] = true
			// The RID must round-trip through Get for the same owner.
			rid := UnpackRID(row[2].Int())
			back, err := h.Get(1, rid)
			if err != nil {
				t.Fatalf("Get(%v): %v", rid, err)
			}
			if !back.Equal(row[:2]) {
				t.Fatalf("rid %v: Get returned %v, scan returned %v", rid, back, row[:2])
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("reader returned %d rows, want %d", len(got), len(want))
	}
	if pages < 2 {
		t.Fatalf("scan covered %d pages; test needs a multi-page heap", pages)
	}
	// A second dispatcher starts over at the first page.
	if again := readSerial(t, h, r, 0); len(again[0]) == 0 || again[0][0][0].Int() != 0 {
		t.Fatalf("a fresh dispatcher did not restart at row 0")
	}
	if bp.PinnedCount() != 0 {
		t.Errorf("pin leak: %d", bp.PinnedCount())
	}
}

// TestScannersEmitRID: with EmitRID, the page reader appends each row's packed
// location as a trailing INT column — without re-allocating the decoded row —
// and the packed form round-trips and orders like (page, slot), also when
// fresh-page and near placement put rows out of insertion order. Heap.Scan
// (the serial callback path) and a morsel reader agree row for row.
func TestScannersEmitRID(t *testing.T) {
	h, err := CreateHeap(NewBufferPool(NewDisk(), 8))
	if err != nil {
		t.Fatal(err)
	}
	payload := func(i int) types.Row {
		return types.Row{types.NewInt(int64(i)), types.NewString("payload-payload")}
	}
	var first []RID
	for i := 0; i < 300; i++ {
		rid, err := h.Insert(1, payload(i))
		if err != nil {
			t.Fatal(err)
		}
		first = append(first, rid)
	}
	root, err := h.InsertOnFreshPage(1, payload(300))
	if err != nil {
		t.Fatal(err)
	}
	for i := 301; i < 320; i++ {
		if _, err := h.InsertNear(1, root, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Free slots on the first page, then refill them near a row there: the
	// newest rows land physically first.
	for _, rid := range first[:5] {
		if _, err := h.Delete(1, rid); err != nil {
			t.Fatal(err)
		}
	}
	for i := 320; i < 325; i++ {
		if _, err := h.InsertNear(1, first[10], payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 325; i < 600; i++ {
		if _, err := h.Insert(1, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	const total = 595
	var rows []types.Row
	var rids []RID
	if err := h.Scan(1, func(rid RID, row types.Row) (bool, error) {
		rows, rids = append(rows, row), append(rids, rid)
		return false, nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(rows) != total {
		t.Fatalf("Heap.Scan returned %d rows, want %d", len(rows), total)
	}
	if rows[0][0].Int() != 320 {
		t.Fatalf("first row is %v, want the near-placed row 320 in a reused slot", rows[0])
	}
	r := h.MorselReader(1)
	r.EmitRID()
	var mrows []types.Row
	for _, page := range readSerial(t, h, r, 3) {
		mrows = append(mrows, page...)
	}
	if len(mrows) != total {
		t.Fatalf("morsel reader saw %d rows, Heap.Scan %d", len(mrows), total)
	}
	for i, row := range mrows {
		if len(row) != 3 || cap(row) != 3 {
			t.Fatalf("row %d: len %d cap %d, want the two columns plus the reserved RID slot", i, len(row), cap(row))
		}
		if !row[:2].Equal(rows[i]) {
			t.Fatalf("row %d: morsel reader %v, Heap.Scan %v", i, row[:2], rows[i])
		}
		if got := UnpackRID(row[2].Int()); got != rids[i] {
			t.Fatalf("row %d carries RID %v, Heap.Scan reported %v", i, got, rids[i])
		}
		if i > 0 && row[2].Int() <= mrows[i-1][2].Int() {
			t.Fatalf("packed RIDs out of physical order at row %d", i)
		}
	}
}

// TestHeapDirectoryGrowsUnderScans: a writer appends rows — and with them
// pages — while scanners snapshot the directory through Heap.Scan and through
// shared morsel dispatchers. No scan returns a row twice, and every scan
// returns every row whose insert finished before the scan began. Run it
// under -race: the directory is read and appended concurrently.
func TestHeapDirectoryGrowsUnderScans(t *testing.T) {
	bp := NewBufferPool(NewDisk(), 1<<12)
	h, err := CreateHeap(bp)
	if err != nil {
		t.Fatal(err)
	}
	const preload, total = 500, 4000
	var inserted atomic.Int64
	insert := func(i int) error {
		var err error
		if i%97 == 0 {
			_, err = h.InsertOnFreshPage(1, row(i, "grow"))
		} else {
			_, err = h.Insert(1, row(i, "grow-grow-grow"))
		}
		inserted.Store(int64(i + 1))
		return err
	}
	for i := 0; i < preload; i++ {
		if err := insert(i); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	var writerErr error
	var writing atomic.Bool
	writing.Store(true)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writing.Store(false)
		for i := preload; i < total && writerErr == nil; i++ {
			writerErr = insert(i)
		}
	}()
	scanIDs := func() ([]int64, error) {
		var ids []int64
		err := h.Scan(1, func(_ RID, r types.Row) (bool, error) {
			ids = append(ids, r[0].Int())
			return false, nil
		})
		return ids, err
	}
	check := func(label string, before int64, ids []int64) error {
		seen := make(map[int64]bool, len(ids))
		for _, id := range ids {
			if seen[id] {
				return fmt.Errorf("%s: row %d returned twice", label, id)
			}
			seen[id] = true
		}
		for id := int64(0); id < before; id++ {
			if !seen[id] {
				return fmt.Errorf("%s: row %d was inserted before the scan began but not returned", label, id)
			}
		}
		return nil
	}
	scanErrs := make([]error, 4)
	for s := range scanErrs {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			// Scan for as long as the writer runs, and a few times after.
			for round := 0; (round < 5 || writing.Load()) && scanErrs[s] == nil; round++ {
				before := inserted.Load()
				var ids []int64
				if s%2 == 0 {
					ids, scanErrs[s] = scanIDs()
				} else {
					// Two readers share one dispatcher, as Gather workers do.
					d := h.MorselDispatcher(2)
					var mu sync.Mutex
					var inner sync.WaitGroup
					for w := 0; w < 2; w++ {
						inner.Add(1)
						go func() {
							defer inner.Done()
							r := h.MorselReader(1)
							for claim := d.Claim(); claim != nil; claim = d.Claim() {
								for _, id := range claim {
									rows, err := r.ReadPage(id, nil)
									mu.Lock()
									if err != nil && scanErrs[s] == nil {
										scanErrs[s] = err
									}
									for _, r := range rows {
										ids = append(ids, r[0].Int())
									}
									mu.Unlock()
								}
							}
						}()
					}
					inner.Wait()
				}
				if scanErrs[s] == nil {
					scanErrs[s] = check(fmt.Sprintf("scanner %d round %d", s, round), before, ids)
				}
			}
		}(s)
	}
	wg.Wait()
	if writerErr != nil {
		t.Fatal(writerErr)
	}
	for _, err := range scanErrs {
		if err != nil {
			t.Fatal(err)
		}
	}
	ids, err := scanIDs()
	if err == nil {
		err = check("final scan", total, ids)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestHeapUpdateReadsOnlyTheOwnerTag: an in-place Update and a Delete check
// the old cell's owner tag without decoding its row, so an update of a row
// with string columns allocates only the new cell's encoding; a foreign tag
// is still refused.
func TestHeapUpdateReadsOnlyTheOwnerTag(t *testing.T) {
	bp := NewBufferPool(NewDisk(), 32)
	h, _ := CreateHeap(bp)
	wide := types.Row{types.NewInt(1), types.NewString("alpha"), types.NewString("beta"), types.NewString("gamma")}
	rid, err := h.Insert(1, wide)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if nrid, err := h.Update(1, rid, wide); err != nil || nrid != rid {
			t.Fatalf("in-place update: %v %v", nrid, err)
		}
	})
	if allocs > 1 {
		t.Errorf("an in-place Update allocates %.0f times, want at most 1 (the new cell)", allocs)
	}
	if _, err := h.Update(2, rid, wide); err == nil {
		t.Error("update under a foreign tag succeeded")
	}
	if _, err := h.Delete(2, rid); err == nil {
		t.Error("delete under a foreign tag succeeded")
	}
	if _, err := h.Delete(1, rid); err != nil {
		t.Fatal(err)
	}
}

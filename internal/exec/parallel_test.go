package exec

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"sqlxnf/internal/catalog"
	"sqlxnf/internal/storage"
	"sqlxnf/internal/types"
)

// sortedRender renders rows as a sorted multiset for order-insensitive
// comparison (Gather delivers worker batches in arrival order).
func sortedRender(rs []types.Row) []string {
	out := renderRows(rs)
	sort.Strings(out)
	return out
}

func mustCollect(t *testing.T, p Plan) []types.Row {
	t.Helper()
	rows, err := Collect(NewContext(), p)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func assertSameMultiset(t *testing.T, label string, got, want []types.Row) {
	t.Helper()
	a, b := sortedRender(got), sortedRender(want)
	if len(a) != len(b) {
		t.Fatalf("%s: got %d rows, want %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: multiset mismatch at %d:\n got:  %s\n want: %s", label, i, a[i], b[i])
		}
	}
}

// TestGatherScanFilterParity: Gather over Filter+Project pipelines fed by
// morsel scans returns exactly the serial pipeline's rows, across DOP values
// and randomized tables (NULL keys and empty tables included). Run under
// -race this is also the dispatcher/worker data-race test.
func TestGatherScanFilterParity(t *testing.T) {
	schema := types.Schema{
		{Name: "k", Kind: types.KindInt},
		{Name: "v", Kind: types.KindInt},
		{Name: "tag", Kind: types.KindString},
	}
	sizes := []int{0, 1, 40, 700, 2500}
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*104729 + 17))
		n := sizes[rng.Intn(len(sizes))]
		cat := testCatalog(t)
		tab := loadTable(t, cat, "T", schema, randomRows(rng, n))
		cut := int64(rng.Intn(100))
		serial := mustCollect(t, &Project{
			Child: &Filter{
				Child: &SeqScan{Table: tab},
				Pred:  BinOp{Op: "<", L: Col{Idx: 1}, R: Const{V: iv(cut)}},
			},
			Exprs: []Expr{Col{Idx: 0}, BinOp{Op: "+", L: Col{Idx: 1}, R: Const{V: iv(1)}}},
			Out:   intSchema("k", "v1"),
		})
		for _, dop := range []int{1, 2, 4} {
			par := mustCollect(t, NewGather(&Project{
				Child: &Filter{
					Child: &MorselScan{Table: tab},
					Pred:  BinOp{Op: "<", L: Col{Idx: 1}, R: Const{V: iv(cut)}},
				},
				Exprs: []Expr{Col{Idx: 0}, BinOp{Op: "+", L: Col{Idx: 1}, R: Const{V: iv(1)}}},
				Out:   intSchema("k", "v1"),
			}, dop))
			assertSameMultiset(t, fmt.Sprintf("trial %d dop %d (n=%d cut=%d)", trial, dop, n, cut), par, serial)
		}
	}
}

// TestParallelHashJoinParity: the shared-build parallel hash join (morsel
// probe side, morsel build side, partitioned merge) joins exactly like the
// serial HashJoin — NULL keys never join, duplicate keys fan out, residuals
// filter — across DOP values.
func TestParallelHashJoinParity(t *testing.T) {
	schema := types.Schema{
		{Name: "k", Kind: types.KindInt},
		{Name: "v", Kind: types.KindInt},
		{Name: "tag", Kind: types.KindString},
	}
	sizes := []int{0, 30, 900, 2200}
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*7907 + 3))
		nl := sizes[rng.Intn(len(sizes))]
		nr := sizes[rng.Intn(len(sizes))]
		cat := testCatalog(t)
		lt := loadTable(t, cat, "L", schema, randomRows(rng, nl))
		rt := loadTable(t, cat, "R", schema, randomRows(rng, nr))
		residual := BinOp{Op: "<>", L: Col{Idx: 2}, R: Col{Idx: 5}}
		serial := mustCollect(t, NewHashJoin(
			&SeqScan{Table: lt}, &SeqScan{Table: rt},
			[]Expr{Col{Idx: 0}}, []Expr{Col{Idx: 0}}, residual))
		for _, dop := range []int{1, 2, 4} {
			tmpl := NewHashJoin(
				&MorselScan{Table: lt}, &MorselScan{Table: rt},
				[]Expr{Col{Idx: 0}}, []Expr{Col{Idx: 0}}, residual)
			tmpl.Shared = true
			par := mustCollect(t, NewGather(tmpl, dop))
			assertSameMultiset(t, fmt.Sprintf("trial %d dop %d (|L|=%d |R|=%d)", trial, dop, nl, nr), par, serial)
		}
	}
}

// TestParallelHashJoinCollision extends the collision regression to the
// partitioned parallel build: distinct keys in one forced hash chain must
// still never join, no matter which worker sink they came from.
func TestParallelHashJoinCollision(t *testing.T) {
	cat := testCatalog(t)
	var lrows, rrows []types.Row
	for i := 0; i < 600; i++ {
		lrows = append(lrows, types.Row{iv(int64(i % 7))})
		rrows = append(rrows, types.Row{iv(int64(i % 11)), iv(int64(i))})
	}
	lt := loadTable(t, cat, "CL", intSchema("l"), lrows)
	rt := loadTable(t, cat, "CR", intSchema("r", "pay"), rrows)
	mkSerial := func() Plan {
		j := NewHashJoin(&SeqScan{Table: lt}, &SeqScan{Table: rt},
			[]Expr{Col{Idx: 0}}, []Expr{Col{Idx: 0}}, nil)
		j.hash = func(types.Row) uint64 { return 0xC011151011 }
		return j
	}
	serial := mustCollect(t, mkSerial())
	tmpl := NewHashJoin(&MorselScan{Table: lt}, &MorselScan{Table: rt},
		[]Expr{Col{Idx: 0}}, []Expr{Col{Idx: 0}}, nil)
	tmpl.Shared = true
	tmpl.hash = func(types.Row) uint64 { return 0xC011151011 }
	par := mustCollect(t, NewGather(tmpl, 4))
	assertSameMultiset(t, "forced-collision parallel join", par, serial)
}

// TestParallelGroupAggParity: per-worker aggregation tables merged at drain
// compute the same groups as the serial drain — COUNT/SUM/AVG/MIN/MAX,
// COUNT(DISTINCT) deduplicating across workers, NULL group keys, NULL
// arguments, and the zero-row no-key case.
func TestParallelGroupAggParity(t *testing.T) {
	schema := types.Schema{
		{Name: "k", Kind: types.KindInt},
		{Name: "v", Kind: types.KindInt},
		{Name: "tag", Kind: types.KindString},
	}
	out := types.Schema{
		{Name: "k", Kind: types.KindInt},
		{Name: "c", Kind: types.KindInt},
		{Name: "s", Kind: types.KindInt},
		{Name: "a", Kind: types.KindFloat},
		{Name: "mn", Kind: types.KindInt},
		{Name: "mx", Kind: types.KindInt},
		{Name: "cd", Kind: types.KindInt},
	}
	aggs := []AggDef{
		{Kind: AggCountStar, ArgIdx: -1},
		{Kind: AggSum, ArgIdx: 1},
		{Kind: AggAvg, ArgIdx: 1},
		{Kind: AggMin, ArgIdx: 1},
		{Kind: AggMax, ArgIdx: 1},
		{Kind: AggCount, ArgIdx: 1, Distinct: true},
	}
	for _, n := range []int{0, 1, 50, 3000} {
		rng := rand.New(rand.NewSource(int64(n)*31 + 5))
		cat := testCatalog(t)
		tab := loadTable(t, cat, "G", schema, randomRows(rng, n))
		for _, keys := range [][]int{{0}, {}} {
			serial := mustCollect(t, &GroupAgg{
				Child: &SeqScan{Table: tab}, KeyIdxs: keys, Aggs: aggs, Out: out})
			var prev []string
			for _, dop := range []int{1, 2, 4} {
				par := mustCollect(t, &GroupAgg{
					Child: &MorselScan{Table: tab}, KeyIdxs: keys, Aggs: aggs, Out: out, DOP: dop})
				label := fmt.Sprintf("n=%d keys=%v dop=%d", n, keys, dop)
				assertSameMultiset(t, label, par, serial)
				// Parallel drains emit in canonical key order: identical
				// output order at every DOP.
				got := renderRows(par)
				if prev != nil {
					if len(got) != len(prev) {
						t.Fatalf("%s: output length changed across DOP", label)
					}
					for i := range got {
						if got[i] != prev[i] {
							t.Fatalf("%s: output order differs across DOP at %d: %s vs %s",
								label, i, got[i], prev[i])
						}
					}
				}
				prev = got
			}
		}
	}
}

// TestGatherSortDeterministic pins the determinism contract: Gather feeds a
// nondeterministic row order, but Sort on a total key order (and Distinct +
// Sort) must emit identical output for every DOP, every run.
func TestGatherSortDeterministic(t *testing.T) {
	schema := types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "v", Kind: types.KindInt},
	}
	var in []types.Row
	for i := 0; i < 2000; i++ {
		in = append(in, types.Row{iv(int64(i)), iv(int64(i % 13))})
	}
	cat := testCatalog(t)
	tab := loadTable(t, cat, "S", schema, in)
	var want []string
	for _, dop := range []int{1, 2, 3, 4} {
		for rep := 0; rep < 3; rep++ {
			sorted := mustCollect(t, &Sort{
				Child: NewGather(&Filter{
					Child: &MorselScan{Table: tab},
					Pred:  BinOp{Op: "<", L: Col{Idx: 1}, R: Const{V: iv(11)}},
				}, dop),
				Keys: []SortKey{{Idx: 0}},
			})
			got := renderRows(sorted)
			if want == nil {
				want = got
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("dop %d rep %d: %d rows, want %d", dop, rep, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("dop %d rep %d: row %d differs: %s vs %s", dop, rep, i, got[i], want[i])
				}
			}
			distinct := mustCollect(t, &Sort{
				Child: &Distinct{Child: NewGather(&Project{
					Child: &MorselScan{Table: tab},
					Exprs: []Expr{Col{Idx: 1}},
					Out:   intSchema("v"),
				}, dop)},
				Keys: []SortKey{{Idx: 0}},
			})
			if len(distinct) != 13 {
				t.Fatalf("dop %d: distinct+sort returned %d rows, want 13", dop, len(distinct))
			}
			for i, r := range distinct {
				if r[0].Int() != int64(i) {
					t.Fatalf("dop %d: distinct+sort row %d = %v", dop, i, r)
				}
			}
		}
	}
}

// TestGatherLimitEarlyClose: a Limit that stops consuming after its first
// batch closes the Gather while the workers are still mid-stream (20k rows
// cannot fit the hand-off channel); Close must cancel and reap every worker —
// no deadlock, zero leaked goroutines.
func TestGatherLimitEarlyClose(t *testing.T) {
	var in []types.Row
	for i := 0; i < 20_000; i++ {
		in = append(in, types.Row{iv(int64(i))})
	}
	cat := testCatalog(t)
	tab := loadTable(t, cat, "LIM", intSchema("id"), in)
	baseline := runtime.NumGoroutine()
	lim := &Limit{Child: NewGather(&MorselScan{Table: tab}, 4), N: 10}
	got := mustCollect(t, lim)
	if len(got) != 10 {
		t.Fatalf("limit over gather returned %d rows, want 10", len(got))
	}
	waitGoroutines(t, baseline)
}

// TestGatherErrorPropagation: a worker hitting an evaluation error surfaces
// it through NextBatch, and Close still returns cleanly.
func TestGatherErrorPropagation(t *testing.T) {
	schema := types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "s", Kind: types.KindString},
	}
	var in []types.Row
	for i := 0; i < 1200; i++ {
		in = append(in, types.Row{iv(int64(i)), sv("x")})
	}
	cat := testCatalog(t)
	tab := loadTable(t, cat, "ERR", schema, in)
	// id + s errors: INT + STRING has no arithmetic.
	g := NewGather(&Project{
		Child: &MorselScan{Table: tab},
		Exprs: []Expr{BinOp{Op: "+", L: Col{Idx: 0}, R: Col{Idx: 1}}},
		Out:   intSchema("bad"),
	}, 4)
	_, err := Collect(NewContext(), g)
	if err == nil {
		t.Fatal("expected evaluation error from parallel workers")
	}
}

// TestMorselScanNeedsDispatcher: opening a MorselScan template outside a
// parallel operator is a refused programming error, not a silent empty scan.
func TestMorselScanNeedsDispatcher(t *testing.T) {
	cat := testCatalog(t)
	tab := loadTable(t, cat, "MS", intSchema("id"), []types.Row{{iv(1)}})
	ms := &MorselScan{Table: tab}
	if err := ms.Open(NewContext()); err == nil {
		t.Fatal("MorselScan.Open without a wired dispatcher should fail")
	}
}

// TestGatherUnderSerialStatsConsumer: regression for the stats-merge race.
// An IndexJoin above a Gather increments ctx.Stats per probe on the consumer
// goroutine while workers are still running; worker counters must fold in
// only after every worker has exited (caught by -race before the fix).
func TestGatherUnderSerialStatsConsumer(t *testing.T) {
	cat := testCatalog(t)
	var orows []types.Row
	for i := 0; i < 3000; i++ {
		orows = append(orows, types.Row{iv(int64(i % 50))})
	}
	ot := loadTable(t, cat, "OUT", intSchema("k"), orows)
	it, err := cat.CreateTable("INN", intSchema("k", "v"), "")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := cat.CreateIndex("inn_k", "INN", []string{"k"}, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		row := types.Row{iv(int64(i)), iv(int64(i * 10))}
		rid, err := it.Heap.Insert(it.Tag, row)
		if err != nil {
			t.Fatal(err)
		}
		key, _ := ix.KeyFor(it.Schema, row)
		if err := ix.Tree.Insert(key, rid); err != nil {
			t.Fatal(err)
		}
	}
	ctx := NewContext()
	ij := NewIndexJoin(NewGather(&MorselScan{Table: ot}, 4), it, ix, nil,
		[]Expr{Col{Idx: 0}}, nil)
	rows, err := Collect(ctx, ij)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3000 {
		t.Fatalf("rows = %d, want 3000", len(rows))
	}
	if ctx.Stats.IndexProbes != 3000 {
		t.Fatalf("IndexProbes = %d, want 3000", ctx.Stats.IndexProbes)
	}
	// Worker scan counts merged exactly once: 3000 outer + 3000 fetched.
	if ctx.Stats.RowsScanned != 6000 {
		t.Fatalf("RowsScanned = %d, want 6000", ctx.Stats.RowsScanned)
	}
}

// TestGatherStatsMerge: worker-private counters merge into the parent
// context exactly once.
func TestGatherStatsMerge(t *testing.T) {
	schema := intSchema("id")
	var in []types.Row
	for i := 0; i < 1500; i++ {
		in = append(in, types.Row{iv(int64(i))})
	}
	cat := testCatalog(t)
	tab := loadTable(t, cat, "ST", schema, in)
	ctx := NewContext()
	g := NewGather(&MorselScan{Table: tab}, 4)
	rows, err := Collect(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1500 {
		t.Fatalf("rows = %d, want 1500", len(rows))
	}
	if ctx.Stats.RowsScanned != 1500 {
		t.Fatalf("RowsScanned = %d, want 1500", ctx.Stats.RowsScanned)
	}
}

// TestScanReadsEachPageOnce: a serial SeqScan and a Gather over MorselScans
// at DOP 2 and 4 each fetch every heap page exactly once. Dispatching page
// ids must not cost a read of its own.
func TestScanReadsEachPageOnce(t *testing.T) {
	bp := storage.NewBufferPool(storage.NewDisk(), 1<<14)
	cat := catalog.New(bp)
	schema := types.Schema{{Name: "id", Kind: types.KindInt}, {Name: "pad", Kind: types.KindString}}
	in := make([]types.Row, 30_000)
	for i := range in {
		in[i] = types.Row{iv(int64(i)), sv(fmt.Sprintf("%040d", i))}
	}
	tab := loadTable(t, cat, "PAGES", schema, in)
	pages := tab.Heap.MorselDispatcher(0).Pages()
	if pages < 300 {
		t.Fatalf("table spans %d pages; the test wants several hundred", pages)
	}
	for _, tc := range []struct {
		name string
		plan Plan
	}{
		{"serial", &SeqScan{Table: tab}},
		{"gather_dop2", NewGather(&MorselScan{Table: tab}, 2)},
		{"gather_dop4", NewGather(&MorselScan{Table: tab}, 4)},
	} {
		before := bp.Stats()
		out := mustCollect(t, tc.plan)
		after := bp.Stats()
		if len(out) != len(in) {
			t.Fatalf("%s: %d rows, want %d", tc.name, len(out), len(in))
		}
		if fetches := (after.Hits + after.Misses) - (before.Hits + before.Misses); fetches != int64(pages) {
			t.Errorf("%s: %d page fetches for a %d-page heap, want one per page", tc.name, fetches, pages)
		}
	}
}

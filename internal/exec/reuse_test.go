package exec

import (
	"fmt"
	"runtime"
	"sort"
	"testing"

	"sqlxnf/internal/catalog"
	"sqlxnf/internal/storage"
	"sqlxnf/internal/types"
)

// reuseTable loads n rows {id, "n<id>"}, enough for many batches, with an
// index on id.
func reuseTable(t *testing.T, n int) (*catalog.Table, *catalog.Index) {
	t.Helper()
	cat := testCatalog(t)
	var in []types.Row
	for i := 0; i < n; i++ {
		in = append(in, types.Row{iv(int64(i)), sv(fmt.Sprintf("n%d", i))})
	}
	tab := loadTable(t, cat, "R", types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "name", Kind: types.KindString},
	}, in)
	ix, err := cat.CreateIndex("r_id", "R", []string{"id"}, true)
	if err != nil {
		t.Fatal(err)
	}
	err = tab.Heap.Scan(tab.Tag, func(rid storage.RID, row types.Row) (bool, error) {
		key, err := ix.KeyFor(tab.Schema, row)
		if err != nil {
			return true, err
		}
		return false, ix.Tree.Insert(key, rid)
	})
	if err != nil {
		t.Fatal(err)
	}
	return tab, ix
}

// validRow reports whether the pair of values at r[i:] reads {id, "n<id>"}:
// a row overwritten by a later batch, or poisoned, does not.
func validRow(r types.Row, i int) bool {
	return len(r) >= i+2 && r[i].Kind() == types.KindInt &&
		r[i+1].Kind() == types.KindString && r[i+1].Str() == fmt.Sprintf("n%d", r[i].Int())
}

// TestBatchReuseContract pins the batch contract (batch.go): a producer's
// rows are overwritten once it is pulled again, every operator that keeps
// rows past that point copies them, and a Gather batch stays intact until
// the consumer's next pull even though a worker goroutine produced it. In
// test binaries a reused arena is poisoned first (types.Arena.Reset), so a
// consumer that breaks the contract reads garbage and fails here.
func TestBatchReuseContract(t *testing.T) {
	const n = 3000
	tab, ix := reuseTable(t, n)
	probe := func(ids ...int64) *Values {
		v := valuesPlan(intSchema("k"))
		for _, id := range ids {
			v.Rows = append(v.Rows, types.Row{iv(id)})
		}
		return v
	}
	eq := BinOp{Op: "=", L: Col{Idx: 0}, R: Col{Idx: 1}}

	t.Run("producers", func(t *testing.T) {
		for name, p := range map[string]Plan{
			"SeqScan":   &SeqScan{Table: tab},
			"IndexScan": &IndexScan{Table: tab, Index: ix},
			"Project":   &Project{Child: &SeqScan{Table: tab}, Exprs: []Expr{Col{Idx: 1}, Col{Idx: 0}}, Out: tab.Schema},
			"HashJoin":  NewHashJoin(&SeqScan{Table: tab}, &SeqScan{Table: tab}, []Expr{Col{Idx: 0}}, []Expr{Col{Idx: 0}}, nil),
			"NLJoin":    NewNLJoin(&SeqScan{Table: tab}, probe(7), nil),
			"IndexJoin": NewIndexJoin(&SeqScan{Table: tab, Cols: []int{0}}, tab, ix, nil, []Expr{Col{Idx: 0}}, nil),
		} {
			ctx := NewContext()
			if err := p.Open(ctx); err != nil {
				t.Fatal(err)
			}
			// An arena's first allocation is exact and never reused; from
			// the second batch on, every batch lies in reused chunks.
			var second []types.Row
			for range 2 {
				batch, err := p.NextBatch(ctx)
				if err != nil || len(batch) == 0 {
					t.Fatalf("%s: batch of %d rows, %v", name, len(batch), err)
				}
				second = batch
			}
			kept := second[len(second)-1]
			before := kept.Clone()
			if _, err := p.NextBatch(ctx); err != nil {
				t.Fatal(err)
			}
			if kept.Equal(before) {
				t.Errorf("%s: a row of the second batch still reads %v after the next pull: its memory was not reused", name, before)
			}
			p.Close()
		}
	})

	t.Run("retainers", func(t *testing.T) {
		sorted := mustCollect(t, &Sort{Child: &SeqScan{Table: tab}, Keys: []SortKey{{Idx: 0, Desc: true}}})
		for i, r := range sorted {
			if !validRow(r, 0) || r[0].Int() != int64(n-1-i) {
				t.Fatalf("Sort row %d = %v", i, r)
			}
		}
		// Values first seen in one batch repeat in later ones.
		distinct := mustCollect(t, &Distinct{Child: &Project{Child: &SeqScan{Table: tab},
			Exprs: []Expr{BinOp{Op: "%", L: Col{Idx: 0}, R: Const{V: iv(1000)}}}, Out: intSchema("m")}})
		mods := map[int64]bool{}
		for _, r := range distinct {
			mods[r[0].Int()] = true
		}
		if len(distinct) != 1000 || len(mods) != 1000 {
			t.Fatalf("Distinct: %d rows, %d values, want 1000", len(distinct), len(mods))
		}
		joined := mustCollect(t, NewHashJoin(probe(5, 1500, 2999), &SeqScan{Table: tab},
			[]Expr{Col{Idx: 0}}, []Expr{Col{Idx: 0}}, nil))
		nested := mustCollect(t, NewNLJoin(probe(5, 1500, 2999), &SeqScan{Table: tab}, eq))
		for label, rows := range map[string][]types.Row{"HashJoin build": joined, "NLJoin inner": nested} {
			if len(rows) != 3 {
				t.Fatalf("%s: %d rows, want 3", label, len(rows))
			}
			for _, r := range rows {
				if !validRow(r, 1) || r[0].Int() != r[1].Int() {
					t.Fatalf("%s: row %v", label, r)
				}
			}
		}
		groups := mustCollect(t, &GroupAgg{Child: &SeqScan{Table: tab}, KeyIdxs: []int{1, 0},
			Aggs: []AggDef{{Kind: AggCountStar, ArgIdx: -1}}})
		collected := mustCollect(t, &SeqScan{Table: tab})
		if len(groups) != n || len(collected) != n {
			t.Fatalf("GroupAgg: %d groups, Collect: %d rows, want %d", len(groups), len(collected), n)
		}
		for i := range collected {
			if g := groups[i]; !validRow(types.Row{g[1], g[0]}, 0) || !validRow(collected[i], 0) {
				t.Fatalf("row %d: group %v, collected %v", i, g, collected[i])
			}
		}
	})

	t.Run("gather", func(t *testing.T) {
		for _, dop := range []int{2, 4} {
			g := NewGather(&MorselScan{Table: tab}, dop)
			ctx := NewContext()
			if err := g.Open(ctx); err != nil {
				t.Fatal(err)
			}
			var ids []int
			for {
				batch, err := g.NextBatch(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if len(batch) == 0 {
					break
				}
				// Give the other workers time to run ahead: none may touch
				// this batch until the next pull.
				runtime.Gosched()
				for _, r := range batch {
					if !validRow(r, 0) {
						t.Fatalf("dop %d: a held Gather batch changed under the consumer: %v", dop, r)
					}
					ids = append(ids, int(r[0].Int()))
				}
			}
			g.Close()
			sort.Ints(ids)
			for i, id := range ids {
				if id != i {
					t.Fatalf("dop %d: rows %d..: got id %d", dop, i, id)
				}
			}
			if len(ids) != n {
				t.Fatalf("dop %d: %d rows, want %d", dop, len(ids), n)
			}
		}
	})
}

// TestScanGroupAggAllocsFlat: with scans reusing their decode arenas, a
// GROUP BY over a scanned table allocates per group and per statement, not
// per row: 40 000 rows cost what 10 000 do, in allocations and in bytes,
// within a small constant.
func TestScanGroupAggAllocsFlat(t *testing.T) {
	measure := func(n int) (allocs, bytes float64) {
		tab := benchTable(t, n)
		run := func() {
			rows, err := Collect(NewContext(), &GroupAgg{
				Child:   &SeqScan{Table: tab, Cols: []int{1, 2}},
				KeyIdxs: []int{1},
				Aggs:    []AggDef{{Kind: AggCountStar, ArgIdx: -1}, {Kind: AggSum, ArgIdx: 0}, {Kind: AggMax, ArgIdx: 0}},
			})
			if err != nil || len(rows) != 64 {
				t.Fatalf("%d groups, %v", len(rows), err)
			}
		}
		allocs = testing.AllocsPerRun(3, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 3; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / 3
	}
	smallAllocs, smallBytes := measure(10_000)
	largeAllocs, largeBytes := measure(40_000)
	t.Logf("per GROUP BY: %.0f allocs, %.0f B at 10 000 rows; %.0f allocs, %.0f B at 40 000",
		smallAllocs, smallBytes, largeAllocs, largeBytes)
	if largeAllocs > smallAllocs+16 || largeBytes > smallBytes+32<<10 {
		t.Fatalf("a GROUP BY over 40 000 rows allocates %.0f times (%.0f B), over 10 000 %.0f times (%.0f B): allocation grows with the rows",
			largeAllocs, largeBytes, smallAllocs, smallBytes)
	}
}

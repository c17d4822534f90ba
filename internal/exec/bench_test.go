package exec

// BenchmarkExec* micro-benchmarks: operator throughput on the executor hot
// path at 10k/100k rows. The single arm keeps its historical sub-benchmark
// name `batch` (the row-at-a-time arm it was once compared with is gone), so
// results stay comparable by name across commits.
//
// Run with:  go test -run '^$' -bench BenchmarkExec ./internal/exec/
// Compare before/after with benchstat. EXECUTOR.md records the numbers that
// motivated the batched pipeline.

import (
	"fmt"
	"math/rand"
	"testing"

	"sqlxnf/internal/catalog"
	"sqlxnf/internal/storage"
	"sqlxnf/internal/types"
)

// benchTable loads n rows shaped like a typical base table: a unique id, a
// 1000-valued filter column, a 64-valued grouping column, and a string.
func benchTable(tb testing.TB, n int) *catalog.Table {
	tb.Helper()
	bp := storage.NewBufferPool(storage.NewDisk(), 1<<16)
	cat := catalog.New(bp)
	schema := types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "val", Kind: types.KindInt},
		{Name: "grp", Kind: types.KindInt},
		{Name: "name", Kind: types.KindString},
	}
	t, err := cat.CreateTable("T", schema, "")
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		row := types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 1000)),
			types.NewInt(int64(i % 64)),
			types.NewString(fmt.Sprintf("name-%d", i%100)),
		}
		if _, err := t.Heap.Insert(t.Tag, row); err != nil {
			tb.Fatal(err)
		}
	}
	return t
}

// benchArms runs the `batch` arm over a plan constructor.
func benchArms(b *testing.B, mkPlan func() Plan, wantRows int) {
	b.Helper()
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out, err := Collect(NewContext(), mkPlan())
			if err != nil {
				b.Fatal(err)
			}
			if len(out) != wantRows {
				b.Fatalf("got %d rows, want %d", len(out), wantRows)
			}
		}
	})
}

func benchScan(b *testing.B, n int) {
	t := benchTable(b, n)
	b.ResetTimer()
	benchArms(b, func() Plan { return &SeqScan{Table: t} }, n)
}

func BenchmarkExecScan10k(b *testing.B)  { benchScan(b, 10_000) }
func BenchmarkExecScan100k(b *testing.B) { benchScan(b, 100_000) }

func benchScanFilter(b *testing.B, n int) {
	t := benchTable(b, n)
	b.ResetTimer()
	benchArms(b, func() Plan {
		return &Filter{
			Child: &SeqScan{Table: t},
			Pred:  BinOp{Op: "<", L: Col{Idx: 1}, R: Const{V: types.NewInt(500)}},
		}
	}, n/2)
}

func BenchmarkExecScanFilter10k(b *testing.B)  { benchScanFilter(b, 10_000) }
func BenchmarkExecScanFilter100k(b *testing.B) { benchScanFilter(b, 100_000) }

func benchHashJoin(b *testing.B, n int) {
	t := benchTable(b, n)
	b.ResetTimer()
	benchArms(b, func() Plan {
		return NewHashJoin(
			&SeqScan{Table: t}, &SeqScan{Table: t},
			[]Expr{Col{Idx: 1}}, []Expr{Col{Idx: 0}}, nil)
	}, n)
}

func BenchmarkExecHashJoin10k(b *testing.B)  { benchHashJoin(b, 10_000) }
func BenchmarkExecHashJoin100k(b *testing.B) { benchHashJoin(b, 100_000) }

func benchGroupAgg(b *testing.B, n int) {
	t := benchTable(b, n)
	b.ResetTimer()
	benchArms(b, func() Plan {
		return &GroupAgg{
			Child:   &SeqScan{Table: t},
			KeyIdxs: []int{2},
			Aggs:    []AggDef{{Kind: AggSum, ArgIdx: 1}, {Kind: AggCountStar, ArgIdx: -1}},
			Out: types.Schema{
				{Name: "grp", Kind: types.KindInt},
				{Name: "s", Kind: types.KindInt},
				{Name: "c", Kind: types.KindInt},
			},
		}
	}, 64)
}

func BenchmarkExecGroupAgg10k(b *testing.B)  { benchGroupAgg(b, 10_000) }
func BenchmarkExecGroupAgg100k(b *testing.B) { benchGroupAgg(b, 100_000) }

// benchSort sorts a benchTable: a single INT key with 1000 distinct
// values, and a two-key mixed ordering.
func benchSort(b *testing.B, n int, keys []SortKey) {
	benchSortOver(b, benchTable(b, n), n, keys)
}

func benchSortOver(b *testing.B, t *catalog.Table, n int, keys []SortKey) {
	b.ResetTimer()
	benchArms(b, func() Plan {
		return &Sort{Child: &SeqScan{Table: t}, Keys: keys}
	}, n)
}

func BenchmarkExecSort10k(b *testing.B)  { benchSort(b, 10_000, []SortKey{{Idx: 1}}) }
func BenchmarkExecSort100k(b *testing.B) { benchSort(b, 100_000, []SortKey{{Idx: 1}}) }
func BenchmarkExecSortTwoKey100k(b *testing.B) {
	benchSort(b, 100_000, []SortKey{{Idx: 2, Desc: true}, {Idx: 1}})
}

// benchSortTable loads n rows whose sort keys arrive in random order: a
// distinct FLOAT, a distinct VARCHAR whose first 8 bytes every row shares,
// and an INT with 1000 values that is NULL on every tenth row.
func benchSortTable(tb testing.TB, n int) *catalog.Table {
	tb.Helper()
	bp := storage.NewBufferPool(storage.NewDisk(), 1<<16)
	cat := catalog.New(bp)
	schema := types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "f", Kind: types.KindFloat},
		{Name: "s", Kind: types.KindString},
		{Name: "v", Kind: types.KindInt},
	}
	t, err := cat.CreateTable("S", schema, "")
	if err != nil {
		tb.Fatal(err)
	}
	for i, p := range rand.New(rand.NewSource(1)).Perm(n) {
		v := types.NewInt(int64(p % 1000))
		if i%10 == 0 {
			v = types.Null()
		}
		row := types.Row{
			types.NewInt(int64(i)),
			types.NewFloat(float64(p) / 7),
			types.NewString(fmt.Sprintf("customer%08d", p)),
			v,
		}
		if _, err := t.Heap.Insert(t.Tag, row); err != nil {
			tb.Fatal(err)
		}
	}
	return t
}

func BenchmarkExecSortFloat100k(b *testing.B) {
	benchSortOver(b, benchSortTable(b, 100_000), 100_000, []SortKey{{Idx: 1}})
}

func BenchmarkExecSortString100k(b *testing.B) {
	benchSortOver(b, benchSortTable(b, 100_000), 100_000, []SortKey{{Idx: 2}})
}

func BenchmarkExecSortDescNulls100k(b *testing.B) {
	benchSortOver(b, benchSortTable(b, 100_000), 100_000, []SortKey{{Idx: 3, Desc: true}})
}

// BenchmarkExecExistsCorrelated: 400 outer rows each evaluate a correlated
// EXISTS over a 5000-row inner table (500 key values, half the outer keys
// miss). The indexed arm probes the inner index per outer row; the unindexed
// arm filters a fresh sequential scan per outer row, stopping at the first
// batch with a match and reading the whole table on a miss.
func BenchmarkExecExistsCorrelated(b *testing.B) {
	const kCard = 500
	inner, ix := indexedTable(b, 5000, kCard)
	outer := make([]types.Row, 400)
	for i := range outer {
		outer[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(i * 7 % (2 * kCard)))}
	}
	present := map[int64]bool{}
	if err := inner.Heap.Scan(inner.Tag, func(_ storage.RID, r types.Row) (bool, error) {
		if !r[1].IsNull() {
			present[r[1].Int()] = true
		}
		return false, nil
	}); err != nil {
		b.Fatal(err)
	}
	want := 0
	for _, r := range outer {
		if present[r[1].Int()] {
			want++
		}
	}
	corr := []Expr{ParamRef{Idx: 0}}
	for _, arm := range []struct {
		name string
		sub  func() Plan
	}{
		{"indexed", func() Plan {
			return &IndexScan{Table: inner, Index: ix, Lo: corr, Hi: corr, LoInc: true, HiInc: true}
		}},
		{"unindexed", func() Plan {
			return &Filter{Child: &SeqScan{Table: inner},
				Pred: BinOp{Op: "=", L: Col{Idx: 1}, R: ParamRef{Idx: 0}}}
		}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := Collect(NewContext(), &Filter{
					Child: &Values{Out: intSchema("oid", "ok"), Rows: outer},
					Pred:  ExistsOp{Plan: arm.sub(), Corr: []Expr{Col{Idx: 1}}},
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(out) != want {
					b.Fatalf("got %d rows, want %d", len(out), want)
				}
			}
		})
	}
}

package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"sqlxnf/internal/catalog"
	"sqlxnf/internal/storage"
	"sqlxnf/internal/types"
)

// testCatalog builds a catalog over a fresh in-memory buffer pool.
func testCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	return catalog.New(storage.NewBufferPool(storage.NewDisk(), 1<<14))
}

// loadTable creates a table and inserts the rows.
func loadTable(t testing.TB, cat *catalog.Catalog, name string, schema types.Schema, rows []types.Row) *catalog.Table {
	t.Helper()
	tab, err := cat.CreateTable(name, schema, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if _, err := tab.Heap.Insert(tab.Tag, r); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// TestSeqScanStreams proves the acceptance criterion: scanning a table much
// larger than one batch never materializes the whole table — each batch
// holds only the current run of pages.
func TestSeqScanStreams(t *testing.T) {
	const total = 2000
	cat := testCatalog(t)
	var in []types.Row
	for i := 0; i < total; i++ {
		in = append(in, types.Row{iv(int64(i)), sv(fmt.Sprintf("row-%d", i))})
	}
	schema := types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "name", Kind: types.KindString},
	}
	tab := loadTable(t, cat, "BIG", schema, in)

	scan := &SeqScan{Table: tab}
	ctx := NewContext()
	if err := scan.Open(ctx); err != nil {
		t.Fatal(err)
	}
	batch, err := scan.NextBatch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) < BatchSize {
		t.Fatalf("first batch has %d rows, want at least BatchSize=%d", len(batch), BatchSize)
	}
	if len(batch) >= total/2 {
		t.Fatalf("first batch has %d of %d rows: scan is materializing, not streaming", len(batch), total)
	}
	if got := len(scan.buf); got >= total/2 {
		t.Fatalf("scan buffers %d rows internally after one batch; streaming should hold about a batch", got)
	}
	// Drain the rest and verify nothing was lost or duplicated. A batch is
	// valid only until the next pull, so its ids are read out first.
	var got []int64
	for b := batch; len(b) > 0; {
		for _, r := range b {
			got = append(got, r[0].Int())
		}
		if b, err = scan.NextBatch(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := scan.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != total {
		t.Fatalf("streamed %d rows, want %d", len(got), total)
	}
	seen := map[int64]bool{}
	for _, id := range got {
		seen[id] = true
	}
	if len(seen) != total {
		t.Fatalf("streamed %d distinct ids, want %d", len(seen), total)
	}
}

// TestHashJoinHashCollision is the regression test for the collision bug:
// distinct keys that land in the same hash bucket must not join. The bucket
// hash is forced constant so every build row collides with every probe row.
func TestHashJoinHashCollision(t *testing.T) {
	left := valuesPlan(intSchema("l"),
		types.Row{iv(1)}, types.Row{iv(2)}, types.Row{iv(3)})
	right := valuesPlan(intSchema("r", "pay"),
		types.Row{iv(1), iv(10)}, types.Row{iv(2), iv(20)},
		types.Row{iv(2), iv(21)}, types.Row{iv(4), iv(40)})
	j := NewHashJoin(left, right, []Expr{Col{Idx: 0}}, []Expr{Col{Idx: 0}}, nil)
	j.hash = func(types.Row) uint64 { return 0xC011151011 }
	got, err := Collect(NewContext(), j)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int64{{1, 10}, {2, 20}, {2, 21}}
	if len(got) != len(want) {
		t.Fatalf("forced-collision join returned %d rows, want %d: %v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i][0].Int() != w[0] || got[i][2].Int() != w[1] {
			t.Fatalf("row %d = %v, want key %d pay %d", i, got[i], w[0], w[1])
		}
	}
}

// TestHashJoinNullKeysNeverJoin pins NULL-key semantics.
func TestHashJoinNullKeysNeverJoin(t *testing.T) {
	left := valuesPlan(intSchema("l"),
		types.Row{iv(1)}, types.Row{types.Null()})
	right := valuesPlan(intSchema("r"),
		types.Row{iv(1)}, types.Row{types.Null()})
	j := NewHashJoin(left, right, []Expr{Col{Idx: 0}}, []Expr{Col{Idx: 0}}, nil)
	got, err := Collect(NewContext(), j)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0].Int() != 1 {
		t.Fatalf("NULL keys joined: %v", got)
	}
}

// randomRows builds rows over (key INT nullable, val INT, tag STRING) with a
// small key domain so joins hit, including NULL keys.
func randomRows(rng *rand.Rand, n int) []types.Row {
	out := make([]types.Row, n)
	for i := range out {
		key := types.Value(iv(int64(rng.Intn(8))))
		if rng.Intn(5) == 0 {
			key = types.Null()
		}
		out[i] = types.Row{key, iv(int64(rng.Intn(100))), sv(fmt.Sprintf("t%d", rng.Intn(4)))}
	}
	return out
}

func renderRows(rs []types.Row) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.String()
	}
	return out
}

// TestBatchRowParity is the property test: SeqScan + Filter + HashJoin over
// randomized tables (NULL keys, empty inputs included) returns exactly the
// rows, in the order, a brute-force join over the raw tables computes (probe
// rows in scan order, each against its build matches in scan order).
func TestBatchRowParity(t *testing.T) {
	schema := types.Schema{
		{Name: "k", Kind: types.KindInt},
		{Name: "v", Kind: types.KindInt},
		{Name: "tag", Kind: types.KindString},
	}
	sizes := []int{0, 1, 7, 300, 900}
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 7919))
		nl := sizes[rng.Intn(len(sizes))]
		nr := sizes[rng.Intn(len(sizes))]
		cat := testCatalog(t)
		lt := loadTable(t, cat, "L", schema, randomRows(rng, nl))
		rt := loadTable(t, cat, "R", schema, randomRows(rng, nr))
		cut := int64(rng.Intn(100))
		mkPlan := func() Plan {
			return NewHashJoin(
				&Filter{
					Child: &SeqScan{Table: lt},
					Pred:  BinOp{Op: "<", L: Col{Idx: 1}, R: Const{V: iv(cut)}},
				},
				&SeqScan{Table: rt},
				[]Expr{Col{Idx: 0}}, []Expr{Col{Idx: 0}}, nil)
		}
		out, err := Collect(NewContext(), mkPlan())
		if err != nil {
			t.Fatal(err)
		}
		// The oracle: a brute-force join over the raw tables.
		var want []string
		var lrows, rrows []types.Row
		if err := lt.Heap.Scan(lt.Tag, func(_ storage.RID, r types.Row) (bool, error) {
			lrows = append(lrows, r)
			return false, nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := rt.Heap.Scan(rt.Tag, func(_ storage.RID, r types.Row) (bool, error) {
			rrows = append(rrows, r)
			return false, nil
		}); err != nil {
			t.Fatal(err)
		}
		for _, l := range lrows {
			if l[1].Int() >= cut || l[0].IsNull() {
				continue
			}
			for _, r := range rrows {
				if !r[0].IsNull() && r[0].Int() == l[0].Int() {
					want = append(want, append(l.Clone(), r...).String())
				}
			}
		}
		got := renderRows(out)
		if len(got) != len(want) {
			t.Fatalf("trial %d (|L|=%d |R|=%d cut=%d): executor returned %d rows, brute force %d",
				trial, nl, nr, cut, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: row %d differs: %s vs %s", trial, i, got[i], want[i])
			}
		}
	}
}

// TestParityOperators sweeps the remaining operators (Project, Sort,
// GroupAgg, Distinct, Limit, NLJoin) over one randomized input, each against
// an independent expectation, rows and order, computed in plain Go over the
// input slice.
func TestParityOperators(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	in := randomRows(rng, 700)
	schema := types.Schema{
		{Name: "k", Kind: types.KindInt},
		{Name: "v", Kind: types.KindInt},
		{Name: "tag", Kind: types.KindString},
	}
	mk := func() Plan { return valuesPlan(schema, in...) }
	cases := []struct {
		name string
		plan Plan
		want func() []types.Row
	}{
		{"project", &Project{Child: mk(),
			Exprs: []Expr{Col{Idx: 2}, BinOp{Op: "+", L: Col{Idx: 1}, R: Const{V: iv(1)}}},
			Out:   intSchema("a", "b")},
			func() (want []types.Row) {
				for _, r := range in {
					want = append(want, types.Row{r[2], iv(r[1].Int() + 1)})
				}
				return want
			}},
		// v ascending, then k descending with NULL k last (NULLs sort first
		// ascending); stable, so full ties keep input order.
		{"sort", &Sort{Child: mk(), Keys: []SortKey{{Idx: 1}, {Idx: 0, Desc: true}}},
			func() []types.Row {
				kOrd := func(r types.Row) int64 {
					if r[0].IsNull() {
						return -1
					}
					return r[0].Int()
				}
				want := append([]types.Row(nil), in...)
				sort.SliceStable(want, func(i, j int) bool {
					if want[i][1].Int() != want[j][1].Int() {
						return want[i][1].Int() < want[j][1].Int()
					}
					return kOrd(want[i]) > kOrd(want[j])
				})
				return want
			}},
		{"groupagg", &GroupAgg{Child: mk(), KeyIdxs: []int{2},
			Aggs: []AggDef{{Kind: AggSum, ArgIdx: 1}, {Kind: AggCountStar, ArgIdx: -1}},
			Out:  intSchema("g", "s", "c")},
			func() (want []types.Row) {
				var tags []string // first-seen order, like the serial drain
				sum, cnt := map[string]int64{}, map[string]int64{}
				for _, r := range in {
					tag := r[2].Str()
					if cnt[tag] == 0 {
						tags = append(tags, tag)
					}
					sum[tag] += r[1].Int()
					cnt[tag]++
				}
				for _, tag := range tags {
					want = append(want, types.Row{sv(tag), iv(sum[tag]), iv(cnt[tag])})
				}
				return want
			}},
		// First occurrence wins, in input order.
		{"distinct", &Distinct{Child: mk()},
			func() (want []types.Row) {
				seen := map[string]bool{}
				for _, r := range in {
					if !seen[r.String()] {
						seen[r.String()] = true
						want = append(want, r)
					}
				}
				return want
			}},
		{"limit", &Limit{Child: mk(), N: 123},
			func() []types.Row { return in[:123] }},
		{"nljoin", NewNLJoin(mk(), &Limit{Child: mk(), N: 20},
			BinOp{Op: "=", L: Col{Idx: 0}, R: Col{Idx: 3}}),
			func() (want []types.Row) {
				for _, l := range in {
					for _, r := range in[:20] {
						if !l[0].IsNull() && !r[0].IsNull() && l[0].Int() == r[0].Int() {
							want = append(want, append(l.Clone(), r...))
						}
					}
				}
				return want
			}},
	}
	for _, tc := range cases {
		out, err := Collect(NewContext(), tc.plan)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, want := renderRows(out), renderRows(tc.want())
		if len(got) != len(want) {
			t.Fatalf("%s: executor returned %d rows, brute force %d", tc.name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: row %d differs: %s vs %s", tc.name, i, got[i], want[i])
			}
		}
	}
}

// TestFilterKernels exercises kernel shapes directly: col-const, const-col,
// col-col, IS NULL, and the generic fallback, against the scalar evaluator
// (EvalPred row by row over the input).
func TestFilterKernels(t *testing.T) {
	in := []types.Row{
		{iv(1), iv(10), types.Null()},
		{iv(5), iv(5), iv(0)},
		{types.Null(), iv(3), iv(7)},
		{iv(9), iv(2), iv(9)},
	}
	schema := intSchema("a", "b", "c")
	preds := []Expr{
		BinOp{Op: "<", L: Col{Idx: 0}, R: Const{V: iv(6)}},
		BinOp{Op: ">=", L: Const{V: iv(5)}, R: Col{Idx: 1}},
		BinOp{Op: "=", L: Col{Idx: 0}, R: Col{Idx: 1}},
		BinOp{Op: "<>", L: Col{Idx: 0}, R: Col{Idx: 2}},
		IsNull{E: Col{Idx: 2}},
		IsNull{E: Col{Idx: 2}, Negate: true},
		BinOp{Op: "AND",
			L: BinOp{Op: ">", L: Col{Idx: 0}, R: Const{V: iv(0)}},
			R: BinOp{Op: "<", L: Col{Idx: 1}, R: Const{V: iv(6)}}},
		// Generic fallback: arithmetic inside the comparison.
		BinOp{Op: ">", L: BinOp{Op: "+", L: Col{Idx: 0}, R: Col{Idx: 1}}, R: Const{V: iv(8)}},
	}
	for pi, pred := range preds {
		var scalar []types.Row
		for _, r := range in {
			pass, err := EvalPred(NewContext(), pred, r)
			if err != nil {
				t.Fatalf("pred %d scalar: %v", pi, err)
			}
			if pass {
				scalar = append(scalar, r)
			}
		}
		out, err := Collect(NewContext(), &Filter{Child: valuesPlan(schema, in...), Pred: pred})
		if err != nil {
			t.Fatalf("pred %d: %v", pi, err)
		}
		a, b := renderRows(scalar), renderRows(out)
		if len(a) != len(b) {
			t.Fatalf("pred %d (%s): scalar %d, kernels %d", pi, DumpExpr(pred), len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("pred %d row %d: %s vs %s", pi, i, a[i], b[i])
			}
		}
	}
}

package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"sqlxnf/internal/catalog"
	"sqlxnf/internal/storage"
	"sqlxnf/internal/types"
)

// indexedTable loads n rows {id, k, payload} with an index on k; every k
// value repeats and some rows carry NULL keys.
func indexedTable(tb testing.TB, n, kCard int) (*catalog.Table, *catalog.Index) {
	tb.Helper()
	cat := catalog.New(storage.NewBufferPool(storage.NewDisk(), 1<<14))
	t, err := cat.CreateTable("INNER", types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "k", Kind: types.KindInt},
		{Name: "payload", Kind: types.KindString},
	}, "")
	if err != nil {
		tb.Fatal(err)
	}
	ix, err := cat.CreateIndex("inner_k", "INNER", []string{"k"}, false)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < n; i++ {
		k := types.NewInt(int64(rng.Intn(kCard)))
		if rng.Intn(10) == 0 {
			k = types.Null()
		}
		row := types.Row{types.NewInt(int64(i)), k, types.NewString(fmt.Sprintf("p%d", i))}
		rid, err := t.Heap.Insert(t.Tag, row)
		if err != nil {
			tb.Fatal(err)
		}
		key, _ := ix.KeyFor(t.Schema, row)
		_ = ix.Tree.Insert(key, rid)
		t.AddRows(1)
	}
	return t, ix
}

func outerValues(n, kCard int) *Values {
	rng := rand.New(rand.NewSource(7))
	rows := make([]types.Row, n)
	for i := range rows {
		k := types.NewInt(int64(rng.Intn(kCard * 2))) // some keys miss entirely
		if rng.Intn(12) == 0 {
			k = types.Null()
		}
		rows[i] = types.Row{types.NewInt(int64(i)), k}
	}
	return &Values{
		Out: types.Schema{
			{Name: "oid", Kind: types.KindInt},
			{Name: "ok", Kind: types.KindInt},
		},
		Rows: rows,
	}
}

func sortedFingerprint(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// TestIndexJoinMatchesHashJoin: the index-nested-loop join must agree with
// the hash join on randomized data with duplicate and NULL keys.
func TestIndexJoinMatchesHashJoin(t *testing.T) {
	inner, ix := indexedTable(t, 500, 40)
	want, err := Collect(NewContext(), NewHashJoin(outerValues(120, 40), &SeqScan{Table: inner},
		[]Expr{Col{Idx: 1}}, []Expr{Col{Idx: 1}}, nil))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(NewContext(), NewIndexJoin(outerValues(120, 40), inner, ix, nil, []Expr{Col{Idx: 1}}, nil))
	if err != nil {
		t.Fatal(err)
	}
	wf, gf := sortedFingerprint(want), sortedFingerprint(got)
	if len(gf) != len(wf) {
		t.Fatalf("index join %d rows, hash join %d", len(gf), len(wf))
	}
	for i := range gf {
		if gf[i] != wf[i] {
			t.Fatalf("row %d differs: %s vs %s", i, gf[i], wf[i])
		}
	}
	if len(want) == 0 {
		t.Fatal("degenerate fixture: joins produced no rows")
	}
}

// TestIndexJoinResidualPredicate: residual conjuncts filter concatenated
// rows (the inner side's pushed predicates ride along as residuals).
func TestIndexJoinResidualPredicate(t *testing.T) {
	inner, ix := indexedTable(t, 200, 10)
	pred := BinOp{Op: "<", L: Col{Idx: 2}, R: Const{V: types.NewInt(100)}} // inner id < 100
	j := NewIndexJoin(outerValues(50, 10), inner, ix, nil, []Expr{Col{Idx: 1}}, pred)
	rows, err := Collect(NewContext(), j)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r[2].Int() >= 100 {
			t.Fatalf("residual failed to filter: %v", r)
		}
	}
}

// TestClonedPlansRunIndependently: clones of one template must execute
// concurrently without sharing operator state, and agree with the template's
// own result.
func TestClonedPlansRunIndependently(t *testing.T) {
	inner, ix := indexedTable(t, 400, 30)
	tmpl := Plan(&Sort{
		Child: NewIndexJoin(outerValues(80, 30), inner, ix, nil, []Expr{Col{Idx: 1}}, nil),
		Keys:  []SortKey{{Idx: 0}, {Idx: 2}},
	})
	want, err := Collect(NewContext(), func() Plan { p, _ := ClonePlan(tmpl); return p }())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				p, ok := ClonePlan(tmpl)
				if !ok {
					t.Error("template must be cloneable")
					return
				}
				got, err := Collect(NewContext(), p)
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) != len(want) {
					t.Errorf("clone rows = %d, want %d", len(got), len(want))
					return
				}
				for k := range got {
					if !got[k].Equal(want[k]) {
						t.Errorf("clone row %d differs", k)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestCloneCoversExistsSubplans: an EXISTS subplan is stateful (it reopens
// per row), so cloning must rebuild it rather than share it.
func TestCloneCoversExistsSubplans(t *testing.T) {
	inner, _ := indexedTable(t, 50, 5)
	exists := ExistsOp{
		Plan: &Filter{Child: &SeqScan{Table: inner},
			Pred: BinOp{Op: "=", L: Col{Idx: 1}, R: ParamRef{Idx: 0}}},
		Corr: []Expr{Col{Idx: 1}},
	}
	tmpl := Plan(&Filter{Child: outerValues(40, 5), Pred: exists})
	c1, ok := ClonePlan(tmpl)
	if !ok {
		t.Fatal("plan with EXISTS must clone")
	}
	f1 := c1.(*Filter)
	e1 := f1.Pred.(ExistsOp)
	if e1.Plan == exists.Plan {
		t.Fatal("EXISTS subplan must not be shared between clones")
	}
	want, err := Collect(NewContext(), tmpl)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(NewContext(), c1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("clone rows = %d, template %d", len(got), len(want))
	}
}

package optimizer

import (
	"strings"
	"testing"

	"sqlxnf/internal/catalog"
	"sqlxnf/internal/exec"
	"sqlxnf/internal/storage"
	"sqlxnf/internal/types"
)

// stringFixture: one table with an indexed VARCHAR column whose ANALYZEd
// domain is 'k00'..'k09' over 30 rows.
func stringFixture(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New(storage.NewBufferPool(storage.NewDisk(), 64))
	items, err := cat.CreateTable("ITEMS", types.Schema{
		{Name: "id", Kind: types.KindInt}, {Name: "name", Kind: types.KindString},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	ix, _ := cat.CreateIndex("items_name", "ITEMS", []string{"name"}, false)
	for i := 0; i < 30; i++ {
		r := types.Row{
			types.NewInt(int64(i)),
			types.NewString("k0" + string(rune('0'+i%10))),
		}
		rid, err := items.Heap.Insert(items.Tag, r)
		if err != nil {
			t.Fatal(err)
		}
		key, _ := ix.KeyFor(items.Schema, r)
		_ = ix.Tree.Insert(key, rid)
		items.AddRows(1)
	}
	analyzeAll(t, cat)
	return cat
}

// TestOrderedRangeSelectivityBounds unit-tests rangeSelectivityValue on a
// string column: constants at or beyond the ANALYZEd min/max pin the
// estimate to ~0 or ~all, in-range constants keep the selRange fallback,
// and incomparable constants never pretend to use stats. Before the ordered
// comparison existed, every string range silently fell to selRange, so a
// `name > 'zzz'` predicate looked like 30% of the table.
func TestOrderedRangeSelectivityBounds(t *testing.T) {
	cat := stringFixture(t)
	items, err := cat.Table("ITEMS")
	if err != nil {
		t.Fatal(err)
	}
	const nameCol = 1
	cases := []struct {
		cmp    string
		val    string
		want   float64
		fromMM bool // estimate derived from the min/max comparison
		approx bool // want is a floor, not exact
	}{
		{cmp: "<", val: "k00", want: 0.001, fromMM: true},             // v == min: nothing below
		{cmp: "<", val: "a", want: 0.001, fromMM: true},               // v < min
		{cmp: "<", val: "zzz", want: 0.9, fromMM: true, approx: true}, // v > max: all
		{cmp: "<=", val: "a", want: 0.001, fromMM: true},
		{cmp: "<=", val: "k09", want: 0.9, fromMM: true, approx: true}, // v == max: all
		{cmp: ">", val: "k09", want: 0.001, fromMM: true},              // v == max: nothing above
		{cmp: ">", val: "zzz", want: 0.001, fromMM: true},
		{cmp: ">", val: "a", want: 0.9, fromMM: true, approx: true},
		{cmp: ">=", val: "zzz", want: 0.001, fromMM: true},
		{cmp: ">=", val: "k00", want: 0.9, fromMM: true, approx: true},
		{cmp: "<", val: "k05", want: selRange, fromMM: false},  // in range: fallback
		{cmp: ">=", val: "k03", want: selRange, fromMM: false}, // in range: fallback
	}
	for _, tc := range cases {
		got, ok := rangeSelectivityValue(items, nameCol, tc.cmp, types.NewString(tc.val))
		if ok != tc.fromMM {
			t.Errorf("name %s '%s': stats-derived = %v, want %v", tc.cmp, tc.val, ok, tc.fromMM)
			continue
		}
		if tc.approx {
			if got < tc.want {
				t.Errorf("name %s '%s': selectivity %.3f, want >= %.3f (all rows)", tc.cmp, tc.val, got, tc.want)
			}
		} else if got != tc.want {
			t.Errorf("name %s '%s': selectivity %.3f, want %.3f", tc.cmp, tc.val, got, tc.want)
		}
	}
	// Incomparable constant (int against a string column): fall back, and do
	// not claim the estimate used the stats.
	if got, ok := rangeSelectivityValue(items, nameCol, "<", types.NewInt(5)); ok || got != selRange {
		t.Errorf("incomparable type: got (%.3f, %v), want (selRange, false)", got, ok)
	}
}

// TestOrderedRangeFlipsAccessPath: the planner-level consequence. An
// out-of-range string predicate that selects everything must seq-scan; one
// that selects nothing must keep the index. Both plans still return correct
// rows.
func TestOrderedRangeFlipsAccessPath(t *testing.T) {
	cat := stringFixture(t)

	all := "SELECT id FROM ITEMS WHERE name >= 'a'" // below min: every row
	if dump := exec.Dump(compileSQL(t, cat, all, DefaultOptions())); !strings.Contains(dump, "SeqScan ITEMS") {
		t.Errorf("a ~100%% string range must seq-scan:\n%s", dump)
	}
	rows, err := exec.Collect(exec.NewContext(), compileSQL(t, cat, all, DefaultOptions()))
	if err != nil || len(rows) != 30 {
		t.Fatalf("all rows = %d, %v", len(rows), err)
	}

	none := "SELECT id FROM ITEMS WHERE name > 'zzz'" // above max: nothing
	if dump := exec.Dump(compileSQL(t, cat, none, DefaultOptions())); !strings.Contains(dump, "IndexScan ITEMS") {
		t.Errorf("a ~0%% string range should keep the index:\n%s", dump)
	}
	rows, err = exec.Collect(exec.NewContext(), compileSQL(t, cat, none, DefaultOptions()))
	if err != nil || len(rows) != 0 {
		t.Fatalf("none rows = %d, %v", len(rows), err)
	}
}

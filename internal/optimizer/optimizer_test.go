package optimizer

import (
	"strconv"
	"strings"
	"testing"

	"sqlxnf/internal/catalog"
	"sqlxnf/internal/exec"
	"sqlxnf/internal/parser"
	"sqlxnf/internal/qgm"
	"sqlxnf/internal/rewrite"
	"sqlxnf/internal/storage"
	"sqlxnf/internal/types"
)

// fixture builds a catalog with two tables, an index, and some rows.
func fixture(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New(storage.NewBufferPool(storage.NewDisk(), 64))
	dept, err := cat.CreateTable("DEPT", types.Schema{
		{Name: "dno", Kind: types.KindInt}, {Name: "loc", Kind: types.KindString},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	emp, err := cat.CreateTable("EMP", types.Schema{
		{Name: "eno", Kind: types.KindInt}, {Name: "edno", Kind: types.KindInt},
		{Name: "sal", Kind: types.KindFloat},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	ixd, _ := cat.CreateIndex("dept_dno", "DEPT", []string{"dno"}, true)
	ixe, _ := cat.CreateIndex("emp_edno", "EMP", []string{"edno"}, false)
	insert := func(tbl *catalog.Table, ix *catalog.Index, rows []types.Row) {
		for _, r := range rows {
			rid, err := tbl.Heap.Insert(tbl.Tag, r)
			if err != nil {
				t.Fatal(err)
			}
			key, _ := ix.KeyFor(tbl.Schema, r)
			_ = ix.Tree.Insert(key, rid)
			tbl.AddRows(1)
		}
	}
	insert(dept, ixd, []types.Row{
		{types.NewInt(1), types.NewString("NY")},
		{types.NewInt(2), types.NewString("SF")},
		{types.NewInt(3), types.NewString("NY")},
	})
	var emps []types.Row
	for i := 0; i < 30; i++ {
		emps = append(emps, types.Row{
			types.NewInt(int64(100 + i)),
			types.NewInt(int64(1 + i%3)),
			types.NewFloat(float64(1000 + i*100)),
		})
	}
	insert(emp, ixe, emps)
	return cat
}

func compileSQL(t *testing.T, cat *catalog.Catalog, sql string, opt Options) exec.Plan {
	t.Helper()
	st, err := parser.ParseOne(sql)
	if err != nil {
		t.Fatal(err)
	}
	box, err := qgm.NewBuilder(cat, nil).BuildSelect(st.(*parser.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	box = rewrite.Rewrite(box, rewrite.DefaultOptions())
	plan, err := CompileWith(box, opt)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestIndexSelectionForPointQuery(t *testing.T) {
	cat := fixture(t)
	plan := compileSQL(t, cat, "SELECT * FROM DEPT WHERE dno = 2", DefaultOptions())
	if !strings.Contains(exec.Dump(plan), "IndexScan DEPT") {
		t.Errorf("point query should use the index:\n%s", exec.Dump(plan))
	}
	rows, err := exec.Collect(exec.NewContext(), plan)
	if err != nil || len(rows) != 1 || rows[0][1].Str() != "SF" {
		t.Fatalf("rows = %v, %v", rows, err)
	}
	// Ablation: no indexes → sequential scan.
	plan = compileSQL(t, cat, "SELECT * FROM DEPT WHERE dno = 2", Options{NoIndexes: true})
	if strings.Contains(exec.Dump(plan), "IndexScan") {
		t.Error("NoIndexes must force SeqScan")
	}
}

func TestRangeIndexScan(t *testing.T) {
	cat := fixture(t)
	plan := compileSQL(t, cat, "SELECT eno FROM EMP WHERE edno >= 3", DefaultOptions())
	dump := exec.Dump(plan)
	if !strings.Contains(dump, "IndexScan EMP") {
		t.Errorf("range should use index:\n%s", dump)
	}
	rows, _ := exec.Collect(exec.NewContext(), plan)
	if len(rows) != 10 {
		t.Errorf("rows = %d, want 10", len(rows))
	}
}

func TestIndexJoinChosenForIndexedEquiJoin(t *testing.T) {
	cat := fixture(t)
	// Small outer (3 depts) × indexed inner join column: the cost model
	// prefers probing EMP_EDNO per outer row over building a hash table.
	q := "SELECT d.loc, e.eno FROM DEPT d, EMP e WHERE d.dno = e.edno"
	plan := compileSQL(t, cat, q, DefaultOptions())
	if !strings.Contains(exec.Dump(plan), "IndexJoin EMP") {
		t.Errorf("indexed equi-join with small outer should index-join:\n%s", exec.Dump(plan))
	}
	rows, err := exec.Collect(exec.NewContext(), plan)
	if err != nil || len(rows) != 30 {
		t.Fatalf("rows = %d, %v", len(rows), err)
	}
	// Ablations agree on results.
	for _, opt := range []Options{{NoIndexJoins: true}, {NoIndexJoins: true, NoHashJoins: true}} {
		plan2 := compileSQL(t, cat, q, opt)
		if strings.Contains(exec.Dump(plan2), "IndexJoin") {
			t.Error("NoIndexJoins must avoid index joins")
		}
		if opt.NoHashJoins && strings.Contains(exec.Dump(plan2), "HashJoin") {
			t.Error("NoHashJoins must avoid hash joins")
		}
		rows2, err := exec.Collect(exec.NewContext(), plan2)
		if err != nil || len(rows2) != len(rows) {
			t.Fatalf("ablation %+v rows = %d, %v", opt, len(rows2), err)
		}
	}
}

func TestHashJoinChosenForEquiJoin(t *testing.T) {
	cat := fixture(t)
	// The join column carries no index, so the equi-join hashes.
	q := "SELECT d.loc, e.eno FROM DEPT d, EMP e WHERE d.dno = e.eno"
	plan := compileSQL(t, cat, q, DefaultOptions())
	if !strings.Contains(exec.Dump(plan), "HashJoin") {
		t.Errorf("equi-join should hash:\n%s", exec.Dump(plan))
	}
	rows, err := exec.Collect(exec.NewContext(), plan)
	if err != nil {
		t.Fatal(err)
	}
	// Ablation agrees on results.
	plan2 := compileSQL(t, cat, q, Options{NoHashJoins: true})
	if strings.Contains(exec.Dump(plan2), "HashJoin") {
		t.Error("NoHashJoins must avoid hash joins")
	}
	rows2, err := exec.Collect(exec.NewContext(), plan2)
	if err != nil || len(rows2) != len(rows) {
		t.Fatalf("NL rows = %d, %v", len(rows2), err)
	}
}

func TestNonEquiJoinFallsBackToNL(t *testing.T) {
	cat := fixture(t)
	plan := compileSQL(t, cat,
		"SELECT d.dno, e.eno FROM DEPT d, EMP e WHERE e.sal > d.dno * 1000", DefaultOptions())
	if !strings.Contains(exec.Dump(plan), "NLJoin") {
		t.Errorf("non-equi join should nest loops:\n%s", exec.Dump(plan))
	}
	if _, err := exec.Collect(exec.NewContext(), plan); err != nil {
		t.Fatal(err)
	}
}

func TestThreeWayJoinOrder(t *testing.T) {
	cat := fixture(t)
	// Self-join via dept: the planner must produce a connected join tree.
	q := `SELECT d.loc, a.eno, b.eno FROM DEPT d, EMP a, EMP b
	      WHERE d.dno = a.edno AND d.dno = b.edno AND a.eno < b.eno`
	plan := compileSQL(t, cat, q, DefaultOptions())
	rows, err := exec.Collect(exec.NewContext(), plan)
	if err != nil {
		t.Fatal(err)
	}
	// Each dept has 10 employees: C(10,2)=45 ordered pairs per dept.
	if len(rows) != 3*45 {
		t.Errorf("rows = %d, want 135", len(rows))
	}
}

func TestCompileXNFBoxRejected(t *testing.T) {
	if _, err := Compile(&qgm.Box{Kind: qgm.KindXNF, Name: "x"}); err == nil {
		t.Error("raw XNF box must be rejected (needs semantic rewrite)")
	}
}

func TestCompileRowExpr(t *testing.T) {
	e, err := CompileExpr(&qgm.Binary{Op: ">",
		L: &qgm.ColRef{Quant: 0, Col: 2, Name: "sal"},
		R: &qgm.Const{Val: types.NewFloat(2000)}}, map[int]int{0: 0})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := exec.EvalPred(exec.NewContext(), e,
		types.Row{types.NewInt(1), types.NewInt(1), types.NewFloat(3000)})
	if err != nil || !ok {
		t.Fatalf("pred eval: %v %v", ok, err)
	}
}

// analyzeAll installs fresh statistics for every fixture table.
func analyzeAll(t *testing.T, cat *catalog.Catalog) {
	t.Helper()
	for _, name := range cat.TableNames() {
		if _, err := cat.AnalyzeTable(name); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStatsFlipRangeAccessPath: without stats a range conjunct defaults to
// the textbook 30% selectivity and takes the index; ANALYZE reveals the
// range covers nearly the whole table, and the planner flips to a
// sequential scan. A genuinely narrow range keeps the index.
func TestStatsFlipRangeAccessPath(t *testing.T) {
	cat := fixture(t)
	wide := "SELECT eno FROM EMP WHERE edno >= 1" // all 30 rows
	if dump := exec.Dump(compileSQL(t, cat, wide, DefaultOptions())); !strings.Contains(dump, "IndexScan EMP") {
		t.Errorf("without stats the textbook model should take the index:\n%s", dump)
	}
	analyzeAll(t, cat)
	if dump := exec.Dump(compileSQL(t, cat, wide, DefaultOptions())); !strings.Contains(dump, "SeqScan EMP") {
		t.Errorf("with stats a ~100%% range must seq-scan:\n%s", dump)
	}
	narrow := "SELECT eno FROM EMP WHERE edno >= 3" // 10 of 30 rows
	if dump := exec.Dump(compileSQL(t, cat, narrow, DefaultOptions())); !strings.Contains(dump, "IndexScan EMP") {
		t.Errorf("with stats a narrow range keeps the index:\n%s", dump)
	}
	// Plans agree on results either way.
	rows, err := exec.Collect(exec.NewContext(), compileSQL(t, cat, wide, DefaultOptions()))
	if err != nil || len(rows) != 30 {
		t.Fatalf("wide rows = %d, %v", len(rows), err)
	}
}

// TestStatsEqualityEstimate: the distinct-count sketch replaces the fixed
// 5% equality selectivity — edno has 3 distinct values over 30 rows, so the
// estimate becomes 10 rows and Explain says so.
func TestStatsEqualityEstimate(t *testing.T) {
	cat := fixture(t)
	analyzeAll(t, cat)
	dump := exec.Dump(compileSQL(t, cat, "SELECT eno FROM EMP WHERE edno = 2", DefaultOptions()))
	if !strings.Contains(dump, "est rows=10") {
		t.Errorf("equality estimate should be rows/NDV = 30/3:\n%s", dump)
	}
}

// TestStatsCommonKeyPrefersSeqScan: when ANALYZE shows an equality key is so
// common that random fetches cost more than the scan, the index is dropped.
func TestStatsCommonKeyPrefersSeqScan(t *testing.T) {
	cat := catalog.New(storage.NewBufferPool(storage.NewDisk(), 64))
	tbl, err := cat.CreateTable("SKEW", types.Schema{
		{Name: "k", Kind: types.KindInt}, {Name: "v", Kind: types.KindInt},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	ix, _ := cat.CreateIndex("skew_k", "SKEW", []string{"k"}, false)
	for i := 0; i < 200; i++ {
		r := types.Row{types.NewInt(int64(i % 2)), types.NewInt(int64(i))}
		rid, err := tbl.Heap.Insert(tbl.Tag, r)
		if err != nil {
			t.Fatal(err)
		}
		key, _ := ix.KeyFor(tbl.Schema, r)
		_ = ix.Tree.Insert(key, rid)
		tbl.AddRows(1)
	}
	q := "SELECT v FROM SKEW WHERE k = 1"
	if dump := exec.Dump(compileSQL(t, cat, q, DefaultOptions())); !strings.Contains(dump, "IndexScan") {
		t.Errorf("without stats equality defaults to the index:\n%s", dump)
	}
	if _, err := cat.AnalyzeTable("SKEW"); err != nil {
		t.Fatal(err)
	}
	plan := compileSQL(t, cat, q, DefaultOptions())
	if dump := exec.Dump(plan); !strings.Contains(dump, "SeqScan") {
		t.Errorf("NDV=2 equality should seq-scan:\n%s", dump)
	}
	rows, err := exec.Collect(exec.NewContext(), plan)
	if err != nil || len(rows) != 100 {
		t.Fatalf("rows = %d, %v", len(rows), err)
	}
}

// TestStatsInListAccessPath: an IN list is costed on both sides — one tree
// descent per value on the index, one comparison per value per scanned row on
// the sequential scan. A long list that selects half the table still probes
// (the filter alternative would make 50 comparisons on each of 2 000 rows);
// a short list over two common keys seq-scans, as the equality does.
func TestStatsInListAccessPath(t *testing.T) {
	cat := catalog.New(storage.NewBufferPool(storage.NewDisk(), 64))
	tbl, err := cat.CreateTable("T", types.Schema{
		{Name: "k", Kind: types.KindInt}, {Name: "c", Kind: types.KindInt},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	ixk, _ := cat.CreateIndex("t_k", "T", []string{"k"}, false)
	ixc, _ := cat.CreateIndex("t_c", "T", []string{"c"}, false)
	for i := 0; i < 2000; i++ {
		r := types.Row{types.NewInt(int64(i % 100)), types.NewInt(int64(i % 2))}
		rid, err := tbl.Heap.Insert(tbl.Tag, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, ix := range []*catalog.Index{ixk, ixc} {
			key, _ := ix.KeyFor(tbl.Schema, r)
			_ = ix.Tree.Insert(key, rid)
		}
		tbl.AddRows(1)
	}
	if _, err := cat.AnalyzeTable("T"); err != nil {
		t.Fatal(err)
	}
	items := make([]string, 50)
	for i := range items {
		items[i] = strconv.Itoa(2 * i)
	}
	for _, c := range []struct {
		q, want string
		rows    int
	}{
		{"SELECT k FROM T WHERE k IN (" + strings.Join(items, ", ") + ")", "IndexScan T using T_K in-list(50)", 1000},
		{"SELECT k FROM T WHERE c IN (0, 1)", "SeqScan", 2000},
	} {
		plan := compileSQL(t, cat, c.q, DefaultOptions())
		if dump := exec.Dump(plan); !strings.Contains(dump, c.want) {
			t.Errorf("%s: want %s in\n%s", c.q, c.want, dump)
		}
		rows, err := exec.Collect(exec.NewContext(), plan)
		if err != nil || len(rows) != c.rows {
			t.Errorf("%s: %d rows, %v; want %d", c.q, len(rows), err, c.rows)
		}
	}
}

// TestMultiColumnIndexPrefixEquality: equality on the leading column of a
// composite index must extend the hi bound over longer composite keys
// (regression: a bare prefix bound sorts below them and returns nothing).
func TestMultiColumnIndexPrefixEquality(t *testing.T) {
	cat := catalog.New(storage.NewBufferPool(storage.NewDisk(), 64))
	tbl, err := cat.CreateTable("MC", types.Schema{
		{Name: "a", Kind: types.KindInt}, {Name: "b", Kind: types.KindInt},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	ix, _ := cat.CreateIndex("mc_ab", "MC", []string{"a", "b"}, false)
	for i := 0; i < 20; i++ {
		r := types.Row{types.NewInt(int64(i % 4)), types.NewInt(int64(i))}
		rid, err := tbl.Heap.Insert(tbl.Tag, r)
		if err != nil {
			t.Fatal(err)
		}
		key, _ := ix.KeyFor(tbl.Schema, r)
		_ = ix.Tree.Insert(key, rid)
		tbl.AddRows(1)
	}
	plan := compileSQL(t, cat, "SELECT b FROM MC WHERE a = 2", DefaultOptions())
	if dump := exec.Dump(plan); !strings.Contains(dump, "IndexScan MC") {
		t.Fatalf("leading-column equality should use the composite index:\n%s", dump)
	}
	rows, err := exec.Collect(exec.NewContext(), plan)
	if err != nil || len(rows) != 5 {
		t.Fatalf("prefix probe rows = %d, want 5 (%v)", len(rows), err)
	}
	// Range comparisons against the prefix: composite keys sort above the
	// bare encoded prefix, so exclusive bounds need the PrefixUpper
	// extension too (regression: `a > 2` used to include a = 2).
	for _, rc := range []struct {
		q    string
		want int
	}{
		{"SELECT b FROM MC WHERE a > 2", 5},   // a = 3 only
		{"SELECT b FROM MC WHERE a >= 2", 10}, // a in {2, 3}
		{"SELECT b FROM MC WHERE a < 2", 10},  // a in {0, 1}
		{"SELECT b FROM MC WHERE a <= 2", 15}, // a in {0, 1, 2}
	} {
		p := compileSQL(t, cat, rc.q, DefaultOptions())
		got, err := exec.Collect(exec.NewContext(), p)
		if err != nil || len(got) != rc.want {
			t.Errorf("%s: rows = %d, want %d (%v)\n%s", rc.q, len(got), rc.want, err, exec.Dump(p))
		}
	}
}

// TestStatsJoinOrderUsesNDV: with stats, the greedy join order estimates
// equi-join selectivity as 1/max(NDV) instead of the fixed 5%; results stay
// correct across the stats boundary.
func TestStatsJoinOrderUsesNDV(t *testing.T) {
	cat := fixture(t)
	q := `SELECT d.loc, a.eno, b.eno FROM DEPT d, EMP a, EMP b
	      WHERE d.dno = a.edno AND d.dno = b.edno AND a.eno < b.eno`
	before, err := exec.Collect(exec.NewContext(), compileSQL(t, cat, q, DefaultOptions()))
	if err != nil {
		t.Fatal(err)
	}
	analyzeAll(t, cat)
	after, err := exec.Collect(exec.NewContext(), compileSQL(t, cat, q, DefaultOptions()))
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 135 || len(after) != 135 {
		t.Fatalf("rows before/after analyze = %d/%d, want 135", len(before), len(after))
	}
}

// TestCompositeIndexEqualityProbe: several equality conjuncts over a
// multi-column index combine into one composite probe key — the plan needs
// no residual filter and touches only the matching rows (ROADMAP
// "Multi-column index probes").
func TestCompositeIndexEqualityProbe(t *testing.T) {
	cat := catalog.New(storage.NewBufferPool(storage.NewDisk(), 64))
	tbl, err := cat.CreateTable("MC3", types.Schema{
		{Name: "a", Kind: types.KindInt}, {Name: "b", Kind: types.KindInt},
		{Name: "c", Kind: types.KindInt},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	ix, _ := cat.CreateIndex("mc3_abc", "MC3", []string{"a", "b", "c"}, false)
	for i := 0; i < 60; i++ {
		r := types.Row{types.NewInt(int64(i % 3)), types.NewInt(int64(i % 5)), types.NewInt(int64(i))}
		rid, err := tbl.Heap.Insert(tbl.Tag, r)
		if err != nil {
			t.Fatal(err)
		}
		key, _ := ix.KeyFor(tbl.Schema, r)
		_ = ix.Tree.Insert(key, rid)
		tbl.AddRows(1)
	}
	// Full-prefix equality: both conjuncts fold into the probe key, leaving
	// no filter above the scan.
	plan := compileSQL(t, cat, "SELECT c FROM MC3 WHERE a = 2 AND b = 3", DefaultOptions())
	dump := exec.Dump(plan)
	if !strings.Contains(dump, "IndexScan MC3") {
		t.Fatalf("composite equality should index-scan:\n%s", dump)
	}
	if strings.Contains(dump, "Filter") {
		t.Errorf("both equality conjuncts should fold into the probe key:\n%s", dump)
	}
	ctx := exec.NewContext()
	rows, err := exec.Collect(ctx, plan)
	if err != nil || len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 (%v)", len(rows), err)
	}
	// The probe reads exactly the matching tuples, not the a=2 superset.
	if ctx.Stats.RowsScanned != 4 {
		t.Errorf("RowsScanned = %d, want 4 (composite key must narrow the range)", ctx.Stats.RowsScanned)
	}
	// Conjunct order in the WHERE clause must not matter.
	rows2, err := exec.Collect(exec.NewContext(),
		compileSQL(t, cat, "SELECT c FROM MC3 WHERE b = 3 AND a = 2", DefaultOptions()))
	if err != nil || len(rows2) != 4 {
		t.Fatalf("reordered conjuncts: rows = %d, want 4 (%v)", len(rows2), err)
	}
}

// TestCompositeIndexEqualityPlusRange: an equality prefix extends with one
// range conjunct on the next index column; bounds cover exactly the narrowed
// range for every comparison shape.
func TestCompositeIndexEqualityPlusRange(t *testing.T) {
	cat := catalog.New(storage.NewBufferPool(storage.NewDisk(), 64))
	tbl, err := cat.CreateTable("MCR", types.Schema{
		{Name: "a", Kind: types.KindInt}, {Name: "b", Kind: types.KindInt},
		{Name: "c", Kind: types.KindInt},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	ix, _ := cat.CreateIndex("mcr_abc", "MCR", []string{"a", "b", "c"}, false)
	for i := 0; i < 40; i++ {
		r := types.Row{types.NewInt(int64(i % 2)), types.NewInt(int64(i % 10)), types.NewInt(int64(i))}
		rid, err := tbl.Heap.Insert(tbl.Tag, r)
		if err != nil {
			t.Fatal(err)
		}
		key, _ := ix.KeyFor(tbl.Schema, r)
		_ = ix.Tree.Insert(key, rid)
		tbl.AddRows(1)
	}
	// a=1 selects the 20 odd-i rows, whose b cycles over {1,3,5,7,9} with 4
	// rows each.
	for _, rc := range []struct {
		q    string
		want int
	}{
		{"SELECT c FROM MCR WHERE a = 1 AND b < 5", 8},   // b in {1,3}
		{"SELECT c FROM MCR WHERE a = 1 AND b <= 5", 12}, // b in {1,3,5}
		{"SELECT c FROM MCR WHERE a = 1 AND b > 5", 8},   // b in {7,9}
		{"SELECT c FROM MCR WHERE a = 1 AND b >= 5", 12}, // b in {5,7,9}
		{"SELECT c FROM MCR WHERE a = 0 AND b >= 0", 20}, // all even-i rows
	} {
		plan := compileSQL(t, cat, rc.q, DefaultOptions())
		dump := exec.Dump(plan)
		if !strings.Contains(dump, "IndexScan MCR") {
			t.Fatalf("%s: should index-scan:\n%s", rc.q, dump)
		}
		ctx := exec.NewContext()
		rows, err := exec.Collect(ctx, plan)
		if err != nil || len(rows) != rc.want {
			t.Errorf("%s: rows = %d, want %d (%v)\n%s", rc.q, len(rows), rc.want, err, dump)
		}
		if ctx.Stats.RowsScanned != int64(rc.want) {
			t.Errorf("%s: RowsScanned = %d, want %d (range must narrow the probe)",
				rc.q, ctx.Stats.RowsScanned, rc.want)
		}
	}
}

// compositeJoinFixture: LOOKUP (4 rows, columns x/y) and BIG (240 rows,
// a = i%4, b = i%12, c = i) with a composite index on (a, b).
func compositeJoinFixture(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New(storage.NewBufferPool(storage.NewDisk(), 64))
	lk, err := cat.CreateTable("LOOKUP", types.Schema{
		{Name: "x", Kind: types.KindInt}, {Name: "y", Kind: types.KindInt},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := lk.Heap.Insert(lk.Tag, types.Row{
			types.NewInt(int64(i)), types.NewInt(int64(i * 3))}); err != nil {
			t.Fatal(err)
		}
		lk.AddRows(1)
	}
	big, err := cat.CreateTable("BIG", types.Schema{
		{Name: "a", Kind: types.KindInt}, {Name: "b", Kind: types.KindInt},
		{Name: "c", Kind: types.KindInt},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	ix, _ := cat.CreateIndex("big_ab", "BIG", []string{"a", "b"}, false)
	for i := 0; i < 240; i++ {
		r := types.Row{types.NewInt(int64(i % 4)), types.NewInt(int64(i % 12)), types.NewInt(int64(i))}
		rid, err := big.Heap.Insert(big.Tag, r)
		if err != nil {
			t.Fatal(err)
		}
		key, _ := ix.KeyFor(big.Schema, r)
		_ = ix.Tree.Insert(key, rid)
		big.AddRows(1)
	}
	return cat
}

// TestCompositeIndexJoinTwoJoinKeys: two equi-join conjuncts over the
// composite index columns combine into one two-column probe key.
func TestCompositeIndexJoinTwoJoinKeys(t *testing.T) {
	cat := compositeJoinFixture(t)
	q := "SELECT l.x, t.c FROM LOOKUP l, BIG t WHERE t.a = l.x AND t.b = l.y"
	plan := compileSQL(t, cat, q, DefaultOptions())
	dump := exec.Dump(plan)
	if !strings.Contains(dump, "IndexJoin BIG using BIG_AB on a=") ||
		!strings.Contains(dump, "AND b=") {
		t.Fatalf("two equi-join conjuncts should form a composite probe:\n%s", dump)
	}
	ctx := exec.NewContext()
	rows, err := exec.Collect(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	// b = i%12 = 3x forces a = i%4 = (3x)%4, which equals x only for
	// x ∈ {0, 2}: those two lookup rows match 20 BIG rows each.
	if len(rows) != 2*20 {
		t.Fatalf("rows = %d, want 40\n%s", len(rows), dump)
	}
	// The composite probe fetches only true matches — a leading-column-only
	// probe would fetch 60 rows per outer row and filter most away.
	if ctx.Stats.RowsScanned != 40+4 {
		t.Errorf("RowsScanned = %d, want 44 (outer 4 + exact matches 40)", ctx.Stats.RowsScanned)
	}
	// Results agree with the hash-join ablation.
	rows2, err := exec.Collect(exec.NewContext(), compileSQL(t, cat, q, Options{NoIndexJoins: true}))
	if err != nil || len(rows2) != len(rows) {
		t.Fatalf("ablation rows = %d, %v", len(rows2), err)
	}
}

// TestCompositeIndexJoinConstantFillsKey: an equi-join conjunct on the
// leading index column plus a pushed constant equality on the second column
// combine into one composite probe key.
func TestCompositeIndexJoinConstantFillsKey(t *testing.T) {
	cat := compositeJoinFixture(t)
	q := "SELECT l.x, t.c FROM LOOKUP l, BIG t WHERE t.a = l.x AND t.b = 7"
	plan := compileSQL(t, cat, q, DefaultOptions())
	dump := exec.Dump(plan)
	if !strings.Contains(dump, "IndexJoin BIG using BIG_AB on a=") ||
		!strings.Contains(dump, "AND b=7") {
		t.Fatalf("join + constant should form a composite probe:\n%s", dump)
	}
	ctx := exec.NewContext()
	rows, err := exec.Collect(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	// b = i%12 = 7 ⇒ i ≡ 7 (mod 12) ⇒ a = i%4 = 3: only lookup row x=3
	// matches, 20 times.
	if len(rows) != 20 {
		t.Fatalf("rows = %d, want 20\n%s", len(rows), dump)
	}
	if ctx.Stats.RowsScanned != 20+4 {
		t.Errorf("RowsScanned = %d, want 24 (constant must narrow the probe)", ctx.Stats.RowsScanned)
	}
	rows2, err := exec.Collect(exec.NewContext(), compileSQL(t, cat, q, Options{NoIndexJoins: true}))
	if err != nil || len(rows2) != len(rows) {
		t.Fatalf("ablation rows = %d, %v", len(rows2), err)
	}
}

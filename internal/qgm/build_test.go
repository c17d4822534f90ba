package qgm

import (
	"strings"
	"testing"

	"sqlxnf/internal/catalog"
	"sqlxnf/internal/parser"
	"sqlxnf/internal/storage"
	"sqlxnf/internal/types"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New(storage.NewBufferPool(storage.NewDisk(), 16))
	mustCreate := func(name string, schema types.Schema) {
		if _, err := cat.CreateTable(name, schema, ""); err != nil {
			t.Fatal(err)
		}
	}
	mustCreate("DEPT", types.Schema{
		{Name: "dno", Kind: types.KindInt}, {Name: "dname", Kind: types.KindString},
		{Name: "loc", Kind: types.KindString}, {Name: "budget", Kind: types.KindFloat},
	})
	mustCreate("EMP", types.Schema{
		{Name: "eno", Kind: types.KindInt}, {Name: "ename", Kind: types.KindString},
		{Name: "sal", Kind: types.KindFloat}, {Name: "edno", Kind: types.KindInt},
	})
	mustCreate("EMPPROJ", types.Schema{
		{Name: "epeno", Kind: types.KindInt}, {Name: "eppno", Kind: types.KindInt},
		{Name: "percentage", Kind: types.KindFloat},
	})
	mustCreate("PROJ", types.Schema{
		{Name: "pno", Kind: types.KindInt}, {Name: "pdno", Kind: types.KindInt},
	})
	return cat
}

func buildSel(t *testing.T, cat *catalog.Catalog, sql string) *Box {
	t.Helper()
	st, err := parser.ParseOne(sql)
	if err != nil {
		t.Fatal(err)
	}
	box, err := NewBuilder(cat, nil).BuildSelect(st.(*parser.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	return box
}

func buildErr(t *testing.T, cat *catalog.Catalog, sql string) error {
	t.Helper()
	st, err := parser.ParseOne(sql)
	if err != nil {
		t.Fatal(err)
	}
	switch s := st.(type) {
	case *parser.SelectStmt:
		_, err = NewBuilder(cat, nil).BuildSelect(s)
	case *parser.XNFQuery:
		_, err = NewBuilder(cat, nil).BuildXNF(s)
	}
	return err
}

func TestBuildStarExpansion(t *testing.T) {
	cat := testCatalog(t)
	box := buildSel(t, cat, "SELECT * FROM DEPT d, EMP e")
	if len(box.Out) != 8 {
		t.Errorf("star arity = %d", len(box.Out))
	}
	box = buildSel(t, cat, "SELECT e.* FROM DEPT d, EMP e")
	if len(box.Out) != 4 || box.Out[0].Name != "eno" {
		t.Errorf("qualified star = %v", box.Out.Names())
	}
}

func TestBuildNameResolutionErrors(t *testing.T) {
	cat := testCatalog(t)
	for _, sql := range []string{
		"SELECT nothere FROM DEPT",             // unknown column
		"SELECT d.sal FROM DEPT d",             // column in wrong table
		"SELECT dno FROM DEPT, DEPT",           // duplicate alias
		"SELECT eno FROM DEPT d, EMP d",        // duplicate alias
		"SELECT loc FROM NOPE",                 // unknown table
		"SELECT sal FROM EMP GROUP BY edno",    // non-grouped column
		"SELECT edno FROM EMP HAVING sal > 1",  // having over non-group
		"SELECT eno FROM EMP ORDER BY missing", // bad order key
	} {
		if err := buildErr(t, cat, sql); err == nil {
			t.Errorf("expected error for %q", sql)
		}
	}
	// Ambiguity: both DEPT and EMP… no shared names in this schema; create one via aliases.
	if err := buildErr(t, cat, "SELECT dno FROM DEPT a, DEPT b"); err == nil {
		t.Error("ambiguous column should fail")
	}
}

func TestBuildGroupingShape(t *testing.T) {
	cat := testCatalog(t)
	box := buildSel(t, cat,
		"SELECT edno, COUNT(*) AS n, SUM(sal) FROM EMP WHERE sal > 0 GROUP BY edno HAVING COUNT(*) > 1")
	if box.Kind != KindSelect || len(box.Quants) != 1 {
		t.Fatalf("outer shape: %s", box.Dump())
	}
	group := box.Quants[0].Input
	if group.Kind != KindGroup || len(group.Aggs) != 2 || len(group.GroupBy) != 1 {
		t.Fatalf("group shape: %s", box.Dump())
	}
	inner := group.Quants[0].Input
	if inner.Kind != KindSelect || inner.Pred == nil {
		t.Fatalf("inner shape: %s", box.Dump())
	}
	if box.Pred == nil {
		t.Error("HAVING must become the outer predicate")
	}
	// Output kinds: COUNT is INT, SUM(sal) is FLOAT.
	if box.Out[1].Kind != types.KindInt || box.Out[2].Kind != types.KindFloat {
		t.Errorf("agg kinds = %v", box.Out)
	}
}

func TestBuildCorrelatedExists(t *testing.T) {
	cat := testCatalog(t)
	box := buildSel(t, cat,
		"SELECT dname FROM DEPT d WHERE EXISTS (SELECT 1 FROM EMP e WHERE e.edno = d.dno)")
	var ex *Exists
	WalkExpr(box.Pred, func(e Expr) bool {
		if x, ok := e.(*Exists); ok {
			ex = x
		}
		return true
	})
	if ex == nil {
		t.Fatal("no Exists in predicate")
	}
	if len(ex.Corr) != 1 || ex.Sub.NumParams != 1 {
		t.Errorf("correlation: corr=%d params=%d", len(ex.Corr), ex.Sub.NumParams)
	}
	// The parameter binds to the outer d.dno column.
	if cr, ok := ex.Corr[0].(*ColRef); !ok || cr.Name != "dno" {
		t.Errorf("corr expr = %v", ex.Corr[0])
	}
}

func TestBuildXNFSpecShapes(t *testing.T) {
	cat := testCatalog(t)
	st, err := parser.ParseOne(`OUT OF
		Xdept AS (SELECT dno, dname FROM DEPT WHERE loc = 'NY'),
		Xemp AS EMP,
		Xproj AS PROJ,
		employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno),
		ownership AS (RELATE Xdept, Xproj WHERE Xdept.dno = Xproj.pdno),
		membership AS (RELATE Xproj, Xemp
			WITH ATTRIBUTES ep.percentage
			USING EMPPROJ ep
			WHERE Xproj.pno = ep.eppno AND Xemp.eno = ep.epeno)
		TAKE Xdept(dno), Xemp, employment, Xproj, ownership, membership`)
	if err != nil {
		t.Fatal(err)
	}
	box, err := NewBuilder(cat, nil).BuildXNF(st.(*parser.XNFQuery))
	if err != nil {
		t.Fatal(err)
	}
	spec := box.XNF
	// Node provenance: projected single-table node keeps a column map.
	xd := spec.FindNode("Xdept")
	if xd.BaseTable != "DEPT" || len(xd.ColMap) != 2 || xd.ColMap[0] != 0 {
		t.Errorf("Xdept provenance = %+v", xd)
	}
	// FK edge provenance.
	emp := spec.FindEdge("employment")
	if emp.FKParentCol != "dno" || emp.FKChildCol != "edno" {
		t.Errorf("employment provenance = %+v", emp)
	}
	// Link-table provenance with attribute.
	mem := spec.FindEdge("membership")
	if mem.LinkTable != "EMPPROJ" || mem.LinkParentCol != "eppno" ||
		mem.LinkChildCol != "epeno" || mem.LinkParentKey != "pno" || mem.LinkChildKey != "eno" {
		t.Errorf("membership provenance = %+v", mem)
	}
	if len(mem.Attrs) != 1 || mem.Attrs[0].Name != "percentage" {
		t.Errorf("membership attrs = %+v", mem.Attrs)
	}
	if len(mem.LinkAttrCols) != 1 || mem.LinkAttrCols[0] != "percentage" || !mem.AttrsOnLink() {
		t.Errorf("membership attribute columns = %q", mem.LinkAttrCols)
	}
	// Take projection recorded.
	if spec.Take.All || len(spec.Take.Items) != 6 {
		t.Errorf("take = %+v", spec.Take)
	}
}

func TestBuildXNFWellFormednessErrors(t *testing.T) {
	cat := testCatalog(t)
	cases := []string{
		// Relationship references a table that is not a component (§2).
		`OUT OF Xdept AS DEPT,
		  bad AS (RELATE Xdept, Xmissing WHERE Xdept.dno = Xmissing.x) TAKE *`,
		// Restriction on unknown component.
		`OUT OF Xdept AS DEPT WHERE Nope SUCH THAT 1 = 1 TAKE *`,
		// TAKE of unknown component.
		`OUT OF Xdept AS DEPT TAKE Nope`,
		// Edge restriction var count.
		`OUT OF Xdept AS DEPT, Xemp AS EMP,
		  employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno)
		  WHERE employment (a) SUCH THAT 1 = 1 TAKE *`,
		// Cyclic relate without roles.
		`OUT OF Xemp AS EMP,
		  m AS (RELATE Xemp, Xemp WHERE Xemp.eno = Xemp.edno) TAKE *`,
	}
	for _, sql := range cases {
		if err := buildErr(t, cat, sql); err == nil {
			t.Errorf("expected error for %q", sql)
		}
	}
}

func TestBoxDump(t *testing.T) {
	cat := testCatalog(t)
	box := buildSel(t, cat, "SELECT dno FROM DEPT WHERE loc = 'NY'")
	d := box.Dump()
	for _, frag := range []string{"SELECT", "BASE", "DEPT", "loc"} {
		if !strings.Contains(d, frag) {
			t.Errorf("dump missing %q:\n%s", frag, d)
		}
	}
}

func TestExprHelpers(t *testing.T) {
	pred := &Binary{Op: "AND",
		L: &Binary{Op: "=", L: &ColRef{Quant: 0, Col: 0, Name: "a"}, R: &ColRef{Quant: 1, Col: 0, Name: "b"}},
		R: &Binary{Op: ">", L: &ColRef{Quant: 1, Col: 1, Name: "c"}, R: &Const{Val: types.NewInt(5)}},
	}
	conj := Conjuncts(pred)
	if len(conj) != 2 {
		t.Fatalf("conjuncts = %d", len(conj))
	}
	used := QuantsUsed(pred)
	if !used[0] || !used[1] || len(used) != 2 {
		t.Errorf("quants used = %v", used)
	}
	back := Conjoin(conj)
	if back.String() != pred.String() {
		t.Errorf("conjoin round trip: %s vs %s", back, pred)
	}
	shifted := MapColRefs(pred, func(c *ColRef) Expr {
		return &ColRef{Quant: c.Quant + 10, Col: c.Col, Name: c.Name}
	})
	if !QuantsUsed(shifted)[10] || !QuantsUsed(shifted)[11] {
		t.Errorf("map colrefs: %v", QuantsUsed(shifted))
	}
}

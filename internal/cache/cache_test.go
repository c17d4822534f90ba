package cache

import (
	"reflect"
	"testing"

	"sqlxnf/internal/engine"
	"sqlxnf/internal/types"
)

// setup builds the company database and loads the ALL_DEPS_ORG CO.
func setup(t *testing.T) (*engine.Session, *Cache) {
	t.Helper()
	e := engine.NewDefault()
	s := e.Session()
	s.MustExec(`
	CREATE TABLE DEPT (dno INT NOT NULL PRIMARY KEY, dname VARCHAR, loc VARCHAR, budget FLOAT);
	CREATE TABLE EMP (eno INT NOT NULL PRIMARY KEY, ename VARCHAR, sal FLOAT, edno INT);
	CREATE TABLE PROJ (pno INT NOT NULL PRIMARY KEY, pname VARCHAR, pdno INT);
	CREATE TABLE EMPPROJ (epeno INT, eppno INT, percentage FLOAT);
	INSERT INTO DEPT VALUES (1, 'd1', 'NY', 100), (2, 'd2', 'SF', 200);
	INSERT INTO EMP VALUES (101, 'e1', 1000, 1), (102, 'e2', 2000, 1), (103, 'e3', 1500, 2);
	INSERT INTO PROJ VALUES (201, 'p1', 1), (202, 'p2', 2);
	INSERT INTO EMPPROJ VALUES (101, 201, 50), (102, 201, 25), (103, 202, 100);
	`)
	r, err := s.Exec(`OUT OF
		Xdept AS DEPT, Xemp AS EMP, Xproj AS PROJ,
		employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno),
		ownership AS (RELATE Xdept, Xproj WHERE Xdept.dno = Xproj.pdno),
		membership AS (RELATE Xproj, Xemp
			WITH ATTRIBUTES ep.percentage
			USING EMPPROJ ep
			WHERE Xproj.pno = ep.eppno AND Xemp.eno = ep.epeno)
		TAKE *`)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Load(s, r.CO)
	if err != nil {
		t.Fatal(err)
	}
	return s, c
}

func TestIndependentCursor(t *testing.T) {
	_, c := setup(t)
	cur, err := c.Open("Xdept")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for cur.Next() {
		names = append(names, cur.Tuple().MustValue("dname").Str())
	}
	if len(names) != 2 {
		t.Fatalf("names = %v", names)
	}
	cur.Rewind()
	n := 0
	for cur.Next() {
		n++
	}
	if n != 2 {
		t.Errorf("rewind scan = %d", n)
	}
	if _, err := c.Open("Nope"); err == nil {
		t.Error("unknown node should fail")
	}
}

func TestDependentCursorBothDirections(t *testing.T) {
	_, c := setup(t)
	cur, _ := c.Open("Xdept")
	cur.Next() // d1
	dep, err := cur.OpenDependent("employment")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for dep.Next() {
		n++
	}
	if n != 2 { // e1, e2 work in d1
		t.Fatalf("d1 employees = %d", n)
	}
	// Reverse traversal: from an employee back to its department.
	ec, _ := c.Open("Xemp")
	ec.Next() // e1
	back, err := ec.OpenDependent("employment")
	if err != nil {
		t.Fatal(err)
	}
	if !back.Next() || back.Tuple().MustValue("dname").Str() != "d1" {
		t.Fatal("reverse traversal failed")
	}
}

func TestDependentPath(t *testing.T) {
	_, c := setup(t)
	cur, _ := c.Open("Xdept")
	cur.Next() // d1
	// d1 -> ownership -> p1 -> membership -> {e1, e2}.
	dep, err := cur.OpenDependentPath("ownership", "membership")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for dep.Next() {
		names = append(names, dep.Tuple().MustValue("ename").Str())
	}
	if len(names) != 2 {
		t.Fatalf("path result = %v", names)
	}
}

func TestUpdateWritesThrough(t *testing.T) {
	s, c := setup(t)
	ec, _ := c.Open("Xemp")
	ec.Next() // e1
	if err := c.Update(ec.Tuple(), "sal", types.NewFloat(9999)); err != nil {
		t.Fatal(err)
	}
	r, _ := s.Exec("SELECT sal FROM EMP WHERE eno = 101")
	if r.Rows[0][0].Float() != 9999 {
		t.Errorf("base sal = %v", r.Rows[0][0])
	}
	// FK columns are refused.
	if err := c.Update(ec.Tuple(), "edno", types.NewInt(2)); err == nil {
		t.Error("updating a relationship-defining column must be refused")
	}
}

func TestInsertAndConnectFK(t *testing.T) {
	s, c := setup(t)
	nt, err := c.Insert("Xemp", types.Row{
		types.NewInt(199), types.NewString("new"), types.NewFloat(1), types.Null(),
	})
	if err != nil {
		t.Fatal(err)
	}
	dc, _ := c.Open("Xdept")
	dc.Next() // d1
	if err := c.Connect("employment", dc.Tuple(), nt); err != nil {
		t.Fatal(err)
	}
	// Propagated: base FK set (paper: connect sets the foreign key).
	r, _ := s.Exec("SELECT edno FROM EMP WHERE eno = 199")
	if r.Rows[0][0].Int() != 1 {
		t.Errorf("edno = %v", r.Rows[0][0])
	}
	// Visible to navigation.
	dep, _ := dc.OpenDependent("employment")
	n := 0
	for dep.Next() {
		n++
	}
	if n != 3 {
		t.Errorf("d1 employees after connect = %d", n)
	}
}

func TestDisconnectFKNullifies(t *testing.T) {
	s, c := setup(t)
	dc, _ := c.Open("Xdept")
	dc.Next() // d1
	ec, _ := dc.OpenDependent("employment")
	ec.Next()
	emp := ec.Tuple()
	eno := emp.MustValue("eno").Int()
	if err := c.Disconnect("employment", dc.Tuple(), emp); err != nil {
		t.Fatal(err)
	}
	r, _ := s.Exec("SELECT edno FROM EMP WHERE eno = " + types.NewInt(eno).String())
	if !r.Rows[0][0].IsNull() {
		t.Errorf("edno = %v, want NULL (paper: disconnect nullifies the FK)", r.Rows[0][0])
	}
	// Navigation no longer sees it.
	again, _ := dc.OpenDependent("employment")
	for again.Next() {
		if again.Tuple().MustValue("eno").Int() == eno {
			t.Error("disconnected employee still navigable")
		}
	}
}

func TestConnectDisconnectLinkTable(t *testing.T) {
	s, c := setup(t)
	// M:N membership: connect e3 to p1 with an attribute.
	pc, _ := c.Open("Xproj")
	pc.Next() // p1
	var e3 *Tuple
	ec, _ := c.Open("Xemp")
	for ec.Next() {
		if ec.Tuple().MustValue("ename").Str() == "e3" {
			e3 = ec.Tuple()
		}
	}
	if err := c.Connect("membership", pc.Tuple(), e3, types.NewFloat(10)); err != nil {
		t.Fatal(err)
	}
	r, _ := s.Exec("SELECT COUNT(*) FROM EMPPROJ WHERE epeno = 103 AND eppno = 201")
	if r.Rows[0][0].Int() != 1 {
		t.Error("connect did not insert a link row")
	}
	// Disconnect deletes the link row.
	if err := c.Disconnect("membership", pc.Tuple(), e3); err != nil {
		t.Fatal(err)
	}
	r, _ = s.Exec("SELECT COUNT(*) FROM EMPPROJ WHERE epeno = 103 AND eppno = 201")
	if r.Rows[0][0].Int() != 0 {
		t.Error("disconnect did not delete the link row")
	}
}

func TestDeleteTupleDisconnectsAndPropagates(t *testing.T) {
	s, c := setup(t)
	dc, _ := c.Open("Xdept")
	dc.Next() // d1
	if err := c.Delete(dc.Tuple()); err != nil {
		t.Fatal(err)
	}
	// Base tuple gone.
	r, _ := s.Exec("SELECT COUNT(*) FROM DEPT WHERE dno = 1")
	if r.Rows[0][0].Int() != 0 {
		t.Error("base dept not deleted")
	}
	// Children FKs nullified (disconnection of attached instances).
	r, _ = s.Exec("SELECT COUNT(*) FROM EMP WHERE edno = 1")
	if r.Rows[0][0].Int() != 0 {
		t.Error("employment instances not disconnected")
	}
	r, _ = s.Exec("SELECT COUNT(*) FROM EMP")
	if r.Rows[0][0].Int() != 3 {
		t.Error("employees must survive their department's deletion")
	}
	// Cursor skips deleted tuples.
	again, _ := c.Open("Xdept")
	n := 0
	for again.Next() {
		n++
	}
	if n != 1 {
		t.Errorf("live depts = %d", n)
	}
	// Double delete refused.
	if err := c.Delete(dc.Tuple()); err == nil {
		t.Error("double delete should fail")
	}
}

func TestDeleteChildRemovesRow(t *testing.T) {
	s, c := setup(t)
	ec, _ := c.Open("Xemp")
	ec.Next() // e1
	if err := c.Delete(ec.Tuple()); err != nil {
		t.Fatal(err)
	}
	r, _ := s.Exec("SELECT COUNT(*) FROM EMP")
	if r.Rows[0][0].Int() != 2 {
		t.Errorf("emp count = %v", r.Rows[0][0])
	}
	// The membership link row of e1 must be gone too (no dangling links).
	r, _ = s.Exec("SELECT COUNT(*) FROM EMPPROJ WHERE epeno = 101")
	if r.Rows[0][0].Int() != 0 {
		t.Error("link row of deleted employee survived")
	}
}

func TestAttributedLinksVisible(t *testing.T) {
	_, c := setup(t)
	e := c.Edge("membership")
	if e == nil || len(e.Links) != 3 {
		t.Fatalf("membership links = %v", e)
	}
	if e.AttrSchema.Index("percentage") < 0 {
		t.Fatal("attr schema missing percentage")
	}
	total := 0.0
	for _, l := range e.Links {
		total += l.Attrs[0].Float()
	}
	if total != 175 {
		t.Errorf("sum of percentages = %v", total)
	}
}

func TestStatsCount(t *testing.T) {
	_, c := setup(t)
	cur, _ := c.Open("Xdept")
	for cur.Next() {
		dep, _ := cur.OpenDependent("employment")
		for dep.Next() {
		}
	}
	if c.Stats.CursorOpens < 3 || c.Stats.PointerHops < 3 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

// linkCache loads, over P(pid), C(cid) and the link table PC created by
// pcDDL with pcRows, the CO of parent 1 whose link edge relates through PC
// with the given ATTRIBUTES clause and extra predicate.
func linkCache(t *testing.T, pcDDL, pcRows, attrs, pred string) (*engine.Session, *Cache) {
	t.Helper()
	s := engine.NewDefault().Session()
	s.MustExec(`CREATE TABLE P (pid INT PRIMARY KEY, pname VARCHAR);
		CREATE TABLE C (cid INT PRIMARY KEY);
		INSERT INTO P VALUES (1, 'p1'), (2, 'p2');
		INSERT INTO C VALUES (10), (20);` + pcDDL)
	if pcRows != "" {
		s.MustExec("INSERT INTO PC VALUES " + pcRows)
	}
	r := s.MustExec(`OUT OF Xp AS (SELECT * FROM P WHERE pid = 1), Xc AS C,
		link AS (RELATE Xp, Xc ` + attrs + ` USING PC
			WHERE Xp.pid = PC.lp AND Xc.cid = PC.lc` + pred + `)
		TAKE *`)
	c, err := Load(s, r.CO)
	if err != nil {
		t.Fatal(err)
	}
	return s, c
}

// firstTuple returns the tuple of node whose column col holds v.
func firstTuple(t *testing.T, c *Cache, node, col string, v int64) *Tuple {
	t.Helper()
	cur, err := c.Open(node)
	if err != nil {
		t.Fatal(err)
	}
	for cur.Next() {
		if cur.Tuple().MustValue(col).Int() == v {
			return cur.Tuple()
		}
	}
	t.Fatalf("%s has no tuple with %s = %d", node, col, v)
	return nil
}

// linkWeights lists the w column of PC, ascending.
func linkWeights(t *testing.T, s *engine.Session) []float64 {
	t.Helper()
	var out []float64
	for _, row := range s.MustExec("SELECT w FROM PC ORDER BY w").Rows {
		out = append(out, row[0].Float())
	}
	return out
}

// TestDisconnectDeletesItsOwnLinkRow: of two link rows joining the same
// parent and child, only the one that passes the edge predicate is a
// connection, and Disconnect deletes that row, not the other one.
func TestDisconnectDeletesItsOwnLinkRow(t *testing.T) {
	s, c := linkCache(t, "CREATE TABLE PC (lp INT, lc INT, w FLOAT)", "(1, 20, 0.1), (1, 20, 0.7)",
		"WITH ATTRIBUTES PC.w", " AND PC.w > 0.6")
	links := c.Edge("link").Links
	if len(links) != 1 || links[0].Attrs[0].Float() != 0.7 {
		t.Fatalf("links = %v, want the one 0.7 connection", links)
	}
	if err := c.Disconnect("link", firstTuple(t, c, "Xp", "pid", 1), firstTuple(t, c, "Xc", "cid", 20)); err != nil {
		t.Fatal(err)
	}
	if got := linkWeights(t, s); !reflect.DeepEqual(got, []float64{0.1}) {
		t.Errorf("link rows left: w = %v, want [0.1]", got)
	}
}

// TestDisconnectAfterConcurrentLinkUpdate: a link row another session
// updated between checkout and Disconnect is either the row Disconnect
// deletes or the cause of a clean error; no other link row is touched.
func TestDisconnectAfterConcurrentLinkUpdate(t *testing.T) {
	s, c := linkCache(t, "CREATE TABLE PC (lp INT, lc INT, w FLOAT)", "(1, 20, 0.1), (1, 20, 0.7), (2, 20, 0.9)",
		"", " AND PC.w > 0.6")
	s.Engine().Session().MustExec("UPDATE PC SET w = 0.8 WHERE w = 0.7")
	err := c.Disconnect("link", firstTuple(t, c, "Xp", "pid", 1), firstTuple(t, c, "Xc", "cid", 20))
	got := linkWeights(t, s)
	switch {
	case err != nil && reflect.DeepEqual(got, []float64{0.1, 0.8, 0.9}):
	case err == nil && reflect.DeepEqual(got, []float64{0.1, 0.9}):
	default:
		t.Errorf("Disconnect err = %v, link rows left w = %v", err, got)
	}
}

// TestConnectWritesAttributeColumns: Connect writes each attribute into the
// link column it reads, wherever that column sits in the link table, and
// refuses attributes of a relationship whose attributes are not all plain
// link columns.
func TestConnectWritesAttributeColumns(t *testing.T) {
	for _, noteKind := range []string{"VARCHAR", "FLOAT"} {
		s, c := linkCache(t, "CREATE TABLE PC (note "+noteKind+", lp INT, lc INT, w FLOAT)", "(NULL, 1, 20, 0.3)",
			"WITH ATTRIBUTES PC.w", "")
		if err := c.Connect("link", firstTuple(t, c, "Xp", "pid", 1), firstTuple(t, c, "Xc", "cid", 20), types.NewFloat(0.5)); err != nil {
			t.Fatalf("note %s: %v", noteKind, err)
		}
		r := s.MustExec("SELECT note, w FROM PC WHERE w = 0.5")
		if len(r.Rows) != 1 || !r.Rows[0][0].IsNull() {
			t.Errorf("note %s: link rows (note, w) with w = 0.5: %v, want one with a NULL note", noteKind, r.Rows)
		}
	}
	for _, attrs := range []string{"WITH ATTRIBUTES PC.w * 2 AS w2", "WITH ATTRIBUTES PC.w, Xp.pname"} {
		s, c := linkCache(t, "CREATE TABLE PC (lp INT, lc INT, w FLOAT)", "(1, 20, 0.3)", attrs, "")
		p1, c20 := firstTuple(t, c, "Xp", "pid", 1), firstTuple(t, c, "Xc", "cid", 20)
		if err := c.Connect("link", p1, c20, types.NewFloat(0.5)); err == nil {
			t.Errorf("%s: Connect with an attribute succeeded", attrs)
		}
		if err := c.Connect("link", p1, c20); err != nil {
			t.Errorf("%s: Connect without attributes: %v", attrs, err)
		}
		if r := s.MustExec("SELECT COUNT(*), COUNT(w) FROM PC"); r.Rows[0][0].Int() != 2 || r.Rows[0][1].Int() != 1 {
			t.Errorf("%s: (link rows, non-NULL w) = %v, want (2, 1)", attrs, r.Rows[0])
		}
	}
}

package engine

import (
	"testing"
)

// setupOrg loads the §5 discussion's scenario: departments, employees,
// projects, and the EMPPROJ link table with a percentage attribute.
func setupOrg(t *testing.T) *Session {
	t.Helper()
	s := NewDefault().Session()
	s.MustExec(`
	CREATE TABLE DEPT (dno INT PRIMARY KEY, dname VARCHAR);
	CREATE TABLE EMP (eno INT PRIMARY KEY, ename VARCHAR, edno INT);
	CREATE TABLE PROJ (pno INT PRIMARY KEY, pname VARCHAR, pdno INT);
	CREATE TABLE EMPPROJ (epeno INT, eppno INT, percentage FLOAT);
	INSERT INTO DEPT VALUES (1, 'd1'), (2, 'd2');
	INSERT INTO EMP VALUES (10, 'ann', 1), (11, 'bob', 1), (12, 'cid', 2);
	INSERT INTO PROJ VALUES (100, 'p1', 1), (200, 'p2', 2);
	INSERT INTO EMPPROJ VALUES (10, 100, 80), (11, 100, 30), (12, 100, 60), (12, 200, 100);
	`)
	return s
}

// TestInvolveRelationship reproduces §5's 'involve' example: "the employees
// who work at least half time on projects of a department" — a relationship
// that concatenates ownership and membership with a restriction on the
// percentage attribute, hiding the Xproj component entirely. The paper's
// point: this is declarative in XNF, while OO systems would require
// accessor-function programming.
func TestInvolveRelationship(t *testing.T) {
	s := setupOrg(t)
	r, err := s.Exec(`OUT OF
		Xdept AS DEPT,
		Xemp AS EMP,
		employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno),
		involve AS (RELATE Xdept, Xemp
			USING PROJ p, EMPPROJ ep
			WHERE Xdept.dno = p.pdno AND p.pno = ep.eppno
			  AND Xemp.eno = ep.epeno AND ep.percentage >= 50)
		TAKE *`)
	if err != nil {
		t.Fatal(err)
	}
	co := r.CO
	inv := co.Edge("involve")
	if inv == nil {
		t.Fatal("involve missing")
	}
	// d1's project p1: ann (80) and cid (60) work ≥ half time; bob (30)
	// does not. d2's p2: cid (100).
	type pair struct{ d, e string }
	got := map[pair]bool{}
	for _, c := range inv.Conns {
		got[pair{
			co.Node("Xdept").Rows[c.P][1].Str(),
			co.Node("Xemp").Rows[c.C][1].Str(),
		}] = true
	}
	want := []pair{{"d1", "ann"}, {"d1", "cid"}, {"d2", "cid"}}
	if len(got) != len(want) {
		t.Fatalf("involve pairs = %v", got)
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing involve pair %v", w)
		}
	}
	// The Xproj component is hidden: it never appears in the CO.
	if co.Node("Xproj") != nil {
		t.Error("Xproj must stay hidden")
	}
}

// TestEdgeRestrictionOnAttribute: edge restrictions can reference the
// relationship's own WITH ATTRIBUTES columns.
func TestEdgeRestrictionOnAttribute(t *testing.T) {
	s := setupOrg(t)
	s.MustExec(`CREATE VIEW ORG AS
		OUT OF Xemp AS EMP, Xproj AS PROJ,
		 anchorp AS (RELATE Xproj, Xemp
			WITH ATTRIBUTES ep.percentage
			USING EMPPROJ ep
			WHERE Xproj.pno = ep.eppno AND Xemp.eno = ep.epeno)
		TAKE *`)
	r, err := s.Exec(`OUT OF ORG
		WHERE anchorp (p, e) SUCH THAT percentage >= 60
		TAKE *`)
	if err != nil {
		t.Fatal(err)
	}
	e := r.CO.Edge("anchorp")
	if len(e.Conns) != 3 { // 80, 60, 100 qualify; 30 dropped
		t.Fatalf("conns = %d", len(e.Conns))
	}
	for _, c := range e.Conns {
		if c.Attrs[0].Float() < 60 {
			t.Errorf("connection with percentage %v survived", c.Attrs[0])
		}
	}
	// Reachability: bob (only 30%) drops out of Xemp.
	for _, row := range r.CO.Node("Xemp").Rows {
		if row[1].Str() == "bob" {
			t.Error("bob should be unreachable after the attribute restriction")
		}
	}
}

// TestRecoveryReplaysViewsAndXNF: DDL recovery restores SQL and XNF views,
// and deletes/updates replay correctly with indexes.
func TestRecoveryReplaysViewsAndXNF(t *testing.T) {
	e := openDurable(t)
	s := e.Session()
	s.MustExec(`
	CREATE TABLE DEPT (dno INT PRIMARY KEY, dname VARCHAR);
	CREATE TABLE EMP (eno INT PRIMARY KEY, ename VARCHAR, edno INT);
	INSERT INTO DEPT VALUES (1, 'd1'), (2, 'd2');
	INSERT INTO EMP VALUES (10, 'ann', 1), (11, 'bob', 2);
	CREATE VIEW BIGD AS SELECT * FROM DEPT WHERE dno > 1;
	CREATE VIEW ORG AS
	OUT OF Xd AS DEPT, Xe AS EMP,
	 employment AS (RELATE Xd, Xe WHERE Xd.dno = Xe.edno)
	TAKE *;
	DELETE FROM EMP WHERE eno = 11;
	UPDATE DEPT SET dname = 'renamed' WHERE dno = 2;
	`)
	rs := crashReopen(t, e).Session()
	q := rs.MustExec("SELECT dname FROM BIGD")
	if len(q.Rows) != 1 || q.Rows[0][0].Str() != "renamed" {
		t.Errorf("recovered view rows = %v", q.Rows)
	}
	r := rs.MustExec("OUT OF ORG TAKE *")
	if r.CO.Size() != 3 { // 2 depts + ann
		t.Errorf("recovered XNF view CO = %v", r.CO)
	}
}

// TestTypeThreeJoinOverNodes: closure type (3) with a join between an XNF
// node rowset and a base table.
func TestTypeThreeJoinOverNodes(t *testing.T) {
	s := setupOrg(t)
	s.MustExec(`CREATE VIEW ORG AS
		OUT OF Xdept AS DEPT, Xemp AS EMP,
		 employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno)
		TAKE *`)
	r, err := s.Exec(`SELECT e.ename, p.pname
		FROM "ORG.Xemp" e, EMPPROJ ep, PROJ p
		WHERE e.eno = ep.epeno AND ep.eppno = p.pno AND ep.percentage > 50
		ORDER BY e.ename`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %v", r.Rows)
	}
	if r.Rows[0][0].Str() != "ann" || r.Rows[0][1].Str() != "p1" {
		t.Errorf("first row = %v", r.Rows[0])
	}
}

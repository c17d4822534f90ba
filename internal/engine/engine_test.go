package engine

import (
	"strings"
	"testing"

	"sqlxnf/internal/types"
)

// companyDDL creates the paper's company database CDB1 (implicit FK
// representation, Fig. 2) and loads the Fig. 1 instances.
const companyDDL = `
CREATE TABLE DEPT (dno INT NOT NULL PRIMARY KEY, dname VARCHAR, loc VARCHAR, budget FLOAT, dmgrno INT);
CREATE TABLE EMP (eno INT NOT NULL PRIMARY KEY, ename VARCHAR, sal FLOAT, descr VARCHAR, edno INT, epno INT);
CREATE TABLE PROJ (pno INT NOT NULL PRIMARY KEY, pname VARCHAR, budget FLOAT, pdno INT, pmgrno INT);
CREATE TABLE SKILLS (sno INT NOT NULL PRIMARY KEY, sname VARCHAR, esno INT, psno INT);
`

// fig1Data loads instances shaped like Fig. 1: departments d1..d3,
// employees e1..e6 (e3 unattached), projects p1, p2, skills s1..s5
// (s2 unattached). Skill sharing: s3 is possessed by e2 and e4 and needed
// by p1 and p2.
const fig1Data = `
INSERT INTO DEPT VALUES (1, 'd1', 'NY', 1000000, 101), (2, 'd2', 'SF', 500000, 104), (3, 'd3', 'NY', 800000, 106);
INSERT INTO EMP VALUES
 (101, 'e1', 1500, 'staff', 1, NULL),
 (102, 'e2', 2500, 'staff', 1, 1),
 (103, 'e3', 1200, 'contractor', NULL, 2),
 (104, 'e4', 3000, 'staff', 2, 1),
 (105, 'e5', 1800, 'staff', 2, NULL),
 (106, 'e6', 2200, 'staff', 3, NULL);
INSERT INTO PROJ VALUES (201, 'p1', 300000, 1, 102), (202, 'p2', 900000, 2, 104);
INSERT INTO SKILLS VALUES
 (301, 's1', 101, NULL),
 (302, 's2', NULL, NULL),
 (303, 's3', 102, 201),
 (304, 's4', 104, 202),
 (305, 's5', NULL, 202);
`

func newCompany(t *testing.T) *Session {
	t.Helper()
	s := NewDefault().Session()
	if _, err := s.Exec(companyDDL + fig1Data); err != nil {
		t.Fatalf("setup: %v", err)
	}
	return s
}

func TestCreateInsertSelect(t *testing.T) {
	s := newCompany(t)
	r, err := s.Exec("SELECT dno, dname FROM DEPT WHERE loc = 'NY' ORDER BY dno")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 || r.Rows[0][1].Str() != "d1" || r.Rows[1][1].Str() != "d3" {
		t.Fatalf("rows = %v", r.Rows)
	}
	if r.Schema[0].Name != "dno" {
		t.Errorf("schema = %v", r.Schema)
	}
}

func TestJoinAndAggregates(t *testing.T) {
	s := newCompany(t)
	r, err := s.Exec(`SELECT d.dname, COUNT(*) AS n, SUM(e.sal) AS total
		FROM DEPT d, EMP e WHERE d.dno = e.edno
		GROUP BY d.dname HAVING COUNT(*) >= 2 ORDER BY d.dname`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %v", r.Rows)
	}
	// d1: e1+e2 (4000), d2: e4+e5 (4800).
	if r.Rows[0][0].Str() != "d1" || r.Rows[0][1].Int() != 2 || r.Rows[0][2].Float() != 4000 {
		t.Errorf("d1 row = %v", r.Rows[0])
	}
	if r.Rows[1][0].Str() != "d2" || r.Rows[1][2].Float() != 4800 {
		t.Errorf("d2 row = %v", r.Rows[1])
	}
}

func TestAggregatesWithoutGroupBy(t *testing.T) {
	s := newCompany(t)
	r, err := s.Exec("SELECT COUNT(*), MIN(sal), MAX(sal), AVG(sal) FROM EMP")
	if err != nil {
		t.Fatal(err)
	}
	row := r.Rows[0]
	if row[0].Int() != 6 || row[1].Float() != 1200 || row[2].Float() != 3000 {
		t.Fatalf("agg row = %v", row)
	}
	// Zero-row aggregate: COUNT 0, MIN NULL.
	r, err = s.Exec("SELECT COUNT(*), MIN(sal) FROM EMP WHERE sal > 99999")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].Int() != 0 || !r.Rows[0][1].IsNull() {
		t.Fatalf("zero-row agg = %v", r.Rows[0])
	}
}

func TestSQLViewsExpand(t *testing.T) {
	s := newCompany(t)
	if _, err := s.Exec("CREATE VIEW NYDEPTS AS SELECT * FROM DEPT WHERE loc = 'NY'"); err != nil {
		t.Fatal(err)
	}
	r, err := s.Exec("SELECT v.dname, e.ename FROM NYDEPTS v, EMP e WHERE v.dno = e.edno ORDER BY e.eno")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 { // e1, e2 in d1; e6 in d3
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestCorrelatedExists(t *testing.T) {
	s := newCompany(t)
	r, err := s.Exec(`SELECT dname FROM DEPT d
		WHERE EXISTS (SELECT 1 FROM EMP e WHERE e.edno = d.dno AND e.sal > 2400)
		ORDER BY dname`)
	if err != nil {
		t.Fatal(err)
	}
	// d1 has e2 (2500), d2 has e4 (3000).
	if len(r.Rows) != 2 || r.Rows[0][0].Str() != "d1" || r.Rows[1][0].Str() != "d2" {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestUpdateDelete(t *testing.T) {
	s := newCompany(t)
	r, err := s.Exec("UPDATE EMP SET sal = sal * 2 WHERE edno = 1")
	if err != nil {
		t.Fatal(err)
	}
	if r.RowsAffected != 2 {
		t.Fatalf("updated %d", r.RowsAffected)
	}
	q, _ := s.Exec("SELECT sal FROM EMP WHERE eno = 101")
	if q.Rows[0][0].Float() != 3000 {
		t.Errorf("sal = %v", q.Rows[0][0])
	}
	r, err = s.Exec("DELETE FROM SKILLS WHERE esno IS NULL AND psno IS NULL")
	if err != nil {
		t.Fatal(err)
	}
	if r.RowsAffected != 1 {
		t.Fatalf("deleted %d", r.RowsAffected)
	}
}

func TestUniqueIndexEnforced(t *testing.T) {
	s := newCompany(t)
	if _, err := s.Exec("INSERT INTO DEPT VALUES (1, 'dup', 'LA', 1, 1)"); err == nil {
		t.Fatal("duplicate primary key accepted")
	}
	// The failed statement must not leave residue.
	r, _ := s.Exec("SELECT COUNT(*) FROM DEPT")
	if r.Rows[0][0].Int() != 3 {
		t.Errorf("dept count after failed insert = %v", r.Rows[0][0])
	}
}

func TestTransactionsRollback(t *testing.T) {
	s := newCompany(t)
	if _, err := s.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	s.MustExec("INSERT INTO DEPT VALUES (9, 'd9', 'LA', 1, 1)")
	s.MustExec("UPDATE EMP SET sal = 1 WHERE eno = 101")
	s.MustExec("DELETE FROM PROJ WHERE pno = 201")
	if _, err := s.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	r, _ := s.Exec("SELECT COUNT(*) FROM DEPT")
	if r.Rows[0][0].Int() != 3 {
		t.Errorf("dept count = %v", r.Rows[0][0])
	}
	r, _ = s.Exec("SELECT sal FROM EMP WHERE eno = 101")
	if r.Rows[0][0].Float() != 1500 {
		t.Errorf("sal = %v", r.Rows[0][0])
	}
	r, _ = s.Exec("SELECT COUNT(*) FROM PROJ")
	if r.Rows[0][0].Int() != 2 {
		t.Errorf("proj count = %v", r.Rows[0][0])
	}
}

func TestTransactionsCommitVisible(t *testing.T) {
	e := NewDefault()
	s := e.Session()
	s.MustExec("CREATE TABLE T (a INT)")
	s.MustExec("BEGIN; INSERT INTO T VALUES (1); COMMIT")
	s2 := e.Session()
	r, _ := s2.Exec("SELECT COUNT(*) FROM T")
	if r.Rows[0][0].Int() != 1 {
		t.Errorf("count = %v", r.Rows[0][0])
	}
}

func TestRecoveryReplaysWinnersOnly(t *testing.T) {
	e := openDurable(t)
	s := e.Session()
	s.MustExec(companyDDL)
	s.MustExec("INSERT INTO DEPT VALUES (1, 'd1', 'NY', 10, 1)")
	s.MustExec("BEGIN; INSERT INTO DEPT VALUES (2, 'd2', 'SF', 20, 2); COMMIT")
	s.MustExec("UPDATE DEPT SET loc = 'LA' WHERE dno = 1")
	// A loser: begun, never committed.
	s.MustExec("BEGIN; INSERT INTO DEPT VALUES (3, 'loser', 'XX', 0, 0)")
	forceLog(e)

	re := crashReopen(t, e)
	s.MustExec("ROLLBACK")
	rs := re.Session()
	r, err := rs.Exec("SELECT dno, loc FROM DEPT ORDER BY dno")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("recovered rows = %v", r.Rows)
	}
	if r.Rows[0][1].Str() != "LA" || r.Rows[1][1].Str() != "SF" {
		t.Errorf("recovered state = %v", r.Rows)
	}
	// Indexes work after recovery.
	if _, err := rs.Exec("INSERT INTO DEPT VALUES (1, 'dup', 'X', 1, 1)"); err == nil {
		t.Error("recovered unique index not enforced")
	}
}

// ---------------------------------------------------------------------------
// XNF: the paper's running examples
// ---------------------------------------------------------------------------

// allDepsNY is the §3.1 introductory query.
const allDepsNY = `
OUT OF
 Xdept AS (SELECT * FROM DEPT WHERE loc = 'NY'),
 Xemp AS (SELECT * FROM EMP),
 Xproj AS (SELECT * FROM PROJ),
 employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno),
 ownership AS (RELATE Xdept, Xproj WHERE Xdept.dno = Xproj.pdno)
TAKE *`

func TestXNFIntroductoryQuery(t *testing.T) {
	s := newCompany(t)
	r, err := s.Exec(allDepsNY)
	if err != nil {
		t.Fatal(err)
	}
	co := r.CO
	if co == nil {
		t.Fatal("no CO returned")
	}
	// NY departments: d1, d3.
	xd := co.Node("Xdept")
	if len(xd.Rows) != 2 {
		t.Fatalf("Xdept = %v", xd.Rows)
	}
	if !xd.Root {
		t.Error("Xdept should be the root table")
	}
	// Reachability: only employees of NY departments (e1, e2, e6).
	xe := co.Node("Xemp")
	names := map[string]bool{}
	for _, row := range xe.Rows {
		names[row[1].Str()] = true
	}
	if len(names) != 3 || !names["e1"] || !names["e2"] || !names["e6"] {
		t.Fatalf("Xemp = %v", names)
	}
	// Only p1 (owned by d1) is reachable.
	xp := co.Node("Xproj")
	if len(xp.Rows) != 1 || xp.Rows[0][1].Str() != "p1" {
		t.Fatalf("Xproj = %v", xp.Rows)
	}
	if err := co.CheckReachability(); err != nil {
		t.Error(err)
	}
	if err := co.Validate(); err != nil {
		t.Error(err)
	}
}

// fig1DDL builds the full Fig. 1 CO over all departments, with the shared
// SKILLS node reachable through employees and projects.
const fig1CO = `
OUT OF
 Xdept AS DEPT,
 Xemp AS EMP,
 Xproj AS PROJ,
 Xskills AS SKILLS,
 employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno),
 ownership AS (RELATE Xdept, Xproj WHERE Xdept.dno = Xproj.pdno),
 empproperty AS (RELATE Xemp, Xskills WHERE Xemp.eno = Xskills.esno),
 projproperty AS (RELATE Xproj, Xskills WHERE Xproj.pno = Xskills.psno)
TAKE *`

func TestFig1ReachabilityExcludesUnattached(t *testing.T) {
	s := newCompany(t)
	r, err := s.Exec(fig1CO)
	if err != nil {
		t.Fatal(err)
	}
	co := r.CO
	// e3 has no department: excluded (paper: "the tuples e3 and s2 do not
	// fulfil the reachability constraint").
	for _, row := range co.Node("Xemp").Rows {
		if row[1].Str() == "e3" {
			t.Error("e3 must be excluded by reachability")
		}
	}
	// s2 attached to nothing: excluded.
	for _, row := range co.Node("Xskills").Rows {
		if row[1].Str() == "s2" {
			t.Error("s2 must be excluded by reachability")
		}
	}
	// d3, a root tuple with no employees, is reachable by definition.
	found := false
	for _, row := range co.Node("Xdept").Rows {
		if row[1].Str() == "d3" {
			found = true
		}
	}
	if !found {
		t.Error("root tuple d3 must belong to the CO")
	}
	// Instance sharing: s3 reachable via e2 (empproperty) and p1
	// (projproperty) — appears once as a tuple, with two incoming edges.
	s3Count := 0
	for _, row := range co.Node("Xskills").Rows {
		if row[1].Str() == "s3" {
			s3Count++
		}
	}
	if s3Count != 1 {
		t.Errorf("s3 appears %d times, want 1 (instance sharing)", s3Count)
	}
}

func TestXNFViewsAndViewsOverViews(t *testing.T) {
	s := newCompany(t)
	s.MustExec(`CREATE VIEW ALL_DEPS AS
		OUT OF Xdept AS DEPT, Xemp AS EMP, Xproj AS PROJ,
		 employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno),
		 ownership AS (RELATE Xdept, Xproj WHERE Xdept.dno = Xproj.pdno)
		TAKE *`)
	// EMPPROJ link table for the attributed membership relationship (Fig. 3).
	s.MustExec(`CREATE TABLE EMPPROJ (epeno INT, eppno INT, percentage FLOAT);
		INSERT INTO EMPPROJ VALUES (101, 201, 50), (103, 202, 100), (104, 202, 30)`)
	s.MustExec(`CREATE VIEW ALL_DEPS_ORG AS
		OUT OF ALL_DEPS,
		 membership AS (RELATE Xproj, Xemp
			WITH ATTRIBUTES ep.percentage
			USING EMPPROJ ep
			WHERE Xproj.pno = ep.eppno AND Xemp.eno = ep.epeno)
		TAKE *`)
	r, err := s.Exec("OUT OF ALL_DEPS_ORG TAKE *")
	if err != nil {
		t.Fatal(err)
	}
	co := r.CO
	// e3 has no department but works on p2 (membership): it becomes
	// reachable through the newly added relationship — the Fig. 3 point.
	e3 := false
	for _, row := range co.Node("Xemp").Rows {
		if row[1].Str() == "e3" {
			e3 = true
		}
	}
	if !e3 {
		t.Error("e3 must become reachable via membership (Fig. 3)")
	}
	// The attributed relationship carries percentage values.
	mem := co.Edge("membership")
	if mem == nil || len(mem.Conns) != 3 {
		t.Fatalf("membership = %+v", mem)
	}
	if mem.AttrSchema.Index("percentage") < 0 {
		t.Fatal("membership lacks percentage attribute")
	}
	seen := map[float64]bool{}
	for _, c := range mem.Conns {
		seen[c.Attrs[0].Float()] = true
	}
	if !seen[50] || !seen[100] || !seen[30] {
		t.Errorf("percentages = %v", seen)
	}
}

func TestXNFNodeRestriction(t *testing.T) {
	s := newCompany(t)
	s.MustExec(`CREATE VIEW ALL_DEPS AS
		OUT OF Xdept AS DEPT, Xemp AS EMP, Xproj AS PROJ,
		 employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno),
		 ownership AS (RELATE Xdept, Xproj WHERE Xdept.dno = Xproj.pdno)
		TAKE *`)
	// §3.3: employees making less than 2000.
	r, err := s.Exec("OUT OF ALL_DEPS WHERE Xemp e SUCH THAT e.sal < 2000 TAKE *")
	if err != nil {
		t.Fatal(err)
	}
	co := r.CO
	for _, row := range co.Node("Xemp").Rows {
		if row[2].Float() >= 2000 {
			t.Errorf("employee with sal %v survived restriction", row[2])
		}
	}
	// Departments are unaffected (roots).
	if len(co.Node("Xdept").Rows) != 3 {
		t.Errorf("Xdept = %d rows", len(co.Node("Xdept").Rows))
	}
	// Employment connections to dropped employees are gone.
	for _, c := range co.Edge("employment").Conns {
		sal := co.Node("Xemp").Rows[c.C][2].Float()
		if sal >= 2000 {
			t.Error("connection to dropped employee survived")
		}
	}
}

func TestXNFEdgeRestrictionAndProjection(t *testing.T) {
	s := newCompany(t)
	s.MustExec(`CREATE VIEW ALL_DEPS AS
		OUT OF Xdept AS DEPT, Xemp AS EMP, Xproj AS PROJ,
		 employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno),
		 ownership AS (RELATE Xdept, Xproj WHERE Xdept.dno = Xproj.pdno)
		TAKE *`)
	// §3.3 edge restriction: employees making less than budget/1000.
	r, err := s.Exec(`OUT OF ALL_DEPS
		WHERE employment (d, e) SUCH THAT e.sal < d.budget/1000
		TAKE Xdept(*), Xemp(*), employment`)
	if err != nil {
		t.Fatal(err)
	}
	co := r.CO
	// The Xproj node is projected away; ownership implicitly dropped
	// (well-formedness).
	if co.Node("Xproj") != nil || co.Edge("ownership") != nil {
		t.Error("projection must drop Xproj and (implicitly) ownership")
	}
	// d1 budget 1000000/1000 = 1000: no employee qualifies (e1:1500, e2:2500).
	// d2 budget 500000/1000 = 500: none. d3: 800: none. So no employees.
	if n := len(co.Node("Xemp").Rows); n != 0 {
		t.Errorf("Xemp rows = %d, want 0", n)
	}
	// But departments (roots) remain.
	if len(co.Node("Xdept").Rows) != 3 {
		t.Errorf("Xdept = %d", len(co.Node("Xdept").Rows))
	}
}

func TestXNFColumnProjection(t *testing.T) {
	s := newCompany(t)
	r, err := s.Exec(`OUT OF
		Xdept AS DEPT, Xemp AS EMP,
		employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno)
		TAKE Xdept(dno, dname), Xemp(eno, ename), employment`)
	if err != nil {
		t.Fatal(err)
	}
	xd := r.CO.Node("Xdept")
	if len(xd.Schema) != 2 || xd.Schema[0].Name != "dno" || xd.Schema[1].Name != "dname" {
		t.Fatalf("projected schema = %v", xd.Schema)
	}
	if len(xd.Rows[0]) != 2 {
		t.Fatalf("projected row = %v", xd.Rows[0])
	}
}

// extAllDepsOrg builds the recursive CO of Fig. 4 with the Fig. 4 instance
// shape: employment, membership (via EMPPROJ), projmanagement.
func setupFig4(t *testing.T) *Session {
	t.Helper()
	e := NewDefault()
	s := e.Session()
	s.MustExec(companyDDL)
	// Fig. 4/5 instances: NY dept d1 with employees e1, e2; SF dept d2 with
	// e3, e4. Projects p1 (owned d2), p2, p3, p4. Management: e2 manages p2
	// and p3; e3 manages p4. Membership: e3 works on p2, e4 works on p2 and
	// p4.
	s.MustExec(`INSERT INTO DEPT VALUES (1, 'dNY', 'NY', 1000, 101), (2, 'dSF', 'SF', 2000, 103)`)
	s.MustExec(`INSERT INTO EMP VALUES
		(101, 'e1', 1000, 'staff', 1, NULL),
		(102, 'e2', 2000, 'staff', 1, NULL),
		(103, 'e3', 1500, 'staff', 2, NULL),
		(104, 'e4', 1800, 'staff', 2, NULL)`)
	s.MustExec(`INSERT INTO PROJ VALUES
		(201, 'p1', 10, 2, NULL),
		(202, 'p2', 20, NULL, 102),
		(203, 'p3', 30, NULL, 102),
		(204, 'p4', 40, NULL, 103)`)
	s.MustExec(`CREATE TABLE EMPPROJ (epeno INT, eppno INT, percentage FLOAT);
		INSERT INTO EMPPROJ VALUES (103, 202, 50), (104, 202, 50), (104, 204, 100)`)
	s.MustExec(`CREATE VIEW EXT_ALL_DEPS_ORG AS
		OUT OF Xdept AS DEPT, Xemp AS EMP, Xproj AS PROJ,
		 employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno),
		 ownership AS (RELATE Xdept, Xproj WHERE Xdept.dno = Xproj.pdno),
		 membership AS (RELATE Xproj, Xemp
			WITH ATTRIBUTES ep.percentage
			USING EMPPROJ ep
			WHERE Xproj.pno = ep.eppno AND Xemp.eno = ep.epeno),
		 projmanagement AS (RELATE Xemp, Xproj WHERE Xemp.eno = Xproj.pmgrno)
		TAKE *`)
	return s
}

func TestFig5RestrictionOnRecursiveCO(t *testing.T) {
	s := setupFig4(t)
	// The Fig. 5 query: restrict to NY departments, drop ownership.
	r, err := s.Exec(`OUT OF EXT_ALL_DEPS_ORG
		WHERE Xdept SUCH THAT loc = 'NY'
		TAKE Xdept(*), employment, Xemp(*), projmanagement, membership(*), Xproj(*)`)
	if err != nil {
		t.Fatal(err)
	}
	co := r.CO
	// Expected (paper): employees of NY departments (e1, e2), projects they
	// manage (p2, p3), employees on those projects (e3, e4), projects those
	// manage (p4), and so on. p1 is not reachable (ownership dropped).
	emps := map[string]bool{}
	for _, row := range co.Node("Xemp").Rows {
		emps[row[1].Str()] = true
	}
	projs := map[string]bool{}
	for _, row := range co.Node("Xproj").Rows {
		projs[row[1].Str()] = true
	}
	for _, want := range []string{"e1", "e2", "e3", "e4"} {
		if !emps[want] {
			t.Errorf("missing employee %s", want)
		}
	}
	for _, want := range []string{"p2", "p3", "p4"} {
		if !projs[want] {
			t.Errorf("missing project %s", want)
		}
	}
	if projs["p1"] {
		t.Error("p1 must not be reachable (Fig. 5)")
	}
	// Only the NY department remains.
	if len(co.Node("Xdept").Rows) != 1 || co.Node("Xdept").Rows[0][1].Str() != "dNY" {
		t.Errorf("Xdept = %v", co.Node("Xdept").Rows)
	}
	if err := co.CheckReachability(); err != nil {
		t.Error(err)
	}
}

func TestPathExpressionsInRestrictions(t *testing.T) {
	s := setupFig4(t)
	// §3.5: departments where staff manage >= 2 projects via employment.
	r, err := s.Exec(`OUT OF EXT_ALL_DEPS_ORG
		WHERE Xdept d SUCH THAT COUNT(d->employment->projmanagement) >= 2 AND d.budget > 500
		TAKE *`)
	if err != nil {
		t.Fatal(err)
	}
	co := r.CO
	// Only dNY qualifies: e2 manages p2 and p3. dSF's e3 manages only p4.
	if len(co.Node("Xdept").Rows) != 1 || co.Node("Xdept").Rows[0][1].Str() != "dNY" {
		t.Fatalf("Xdept = %v", co.Node("Xdept").Rows)
	}
	// Qualified path with outer anchor reference (paper's staff example).
	r, err = s.Exec(`OUT OF EXT_ALL_DEPS_ORG
		WHERE Xdept d SUCH THAT
		 EXISTS d->employment->(Xemp e WHERE e.descr = 'staff')->projmanagement->(Xproj p WHERE p.budget > d.budget)
		TAKE *`)
	if err != nil {
		t.Fatal(err)
	}
	// dNY budget 1000: managed projects p2 (20), p3 (30) — none exceeds.
	// dSF budget 2000: p4 (40) — no. So empty.
	if n := len(r.CO.Node("Xdept").Rows); n != 0 {
		t.Errorf("Xdept rows = %d, want 0", n)
	}
}

func TestXNFDeleteMapsToBase(t *testing.T) {
	s := newCompany(t)
	// §3.7: delete the CO of employees under 2000 within their departments.
	r, err := s.Exec(`OUT OF
		Xemp AS (SELECT * FROM EMP WHERE sal < 1600)
		DELETE *`)
	if err != nil {
		t.Fatal(err)
	}
	// e1 (1500) and e3 (1200) are under 1600.
	if r.RowsAffected != 2 {
		t.Fatalf("deleted %d", r.RowsAffected)
	}
	q, _ := s.Exec("SELECT COUNT(*) FROM EMP")
	if q.Rows[0][0].Int() != 4 {
		t.Errorf("emp count = %v", q.Rows[0][0])
	}
}

func TestClosureTypeThreeQuery(t *testing.T) {
	s := newCompany(t)
	s.MustExec(`CREATE VIEW ALL_DEPS AS
		OUT OF Xdept AS (SELECT * FROM DEPT WHERE loc = 'NY'), Xemp AS EMP,
		 employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno)
		TAKE *`)
	// Type (3) XNF→NF: plain SQL over a node of an XNF view.
	r, err := s.Exec(`SELECT COUNT(*) FROM "ALL_DEPS.Xemp"`)
	if err != nil {
		t.Fatal(err)
	}
	// NY departments d1 (e1, e2) and d3 (e6).
	if r.Rows[0][0].Int() != 3 {
		t.Fatalf("count = %v", r.Rows[0][0])
	}
}

func TestExplain(t *testing.T) {
	s := newCompany(t)
	r, err := s.Exec("EXPLAIN SELECT d.dname FROM DEPT d, EMP e WHERE d.dno = e.edno AND e.sal > 2000")
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"QGM", "plan", "HashJoin"} {
		if !strings.Contains(r.Explain, frag) {
			t.Errorf("explain missing %q:\n%s", frag, r.Explain)
		}
	}
}

func TestIndexScanChosen(t *testing.T) {
	s := newCompany(t)
	r, err := s.Exec("EXPLAIN SELECT * FROM EMP WHERE eno = 104")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Explain, "IndexScan") {
		t.Errorf("point query should use the PK index:\n%s", r.Explain)
	}
	q, _ := s.Exec("SELECT ename FROM EMP WHERE eno = 104")
	if len(q.Rows) != 1 || q.Rows[0][0].Str() != "e4" {
		t.Errorf("rows = %v", q.Rows)
	}
}

func TestRepresentationIndependenceFig2(t *testing.T) {
	// CDB2: explicit link table DEPTEMP instead of the edno foreign key.
	e := NewDefault()
	s := e.Session()
	s.MustExec(`CREATE TABLE DEPT (dno INT PRIMARY KEY, dname VARCHAR, loc VARCHAR);
		CREATE TABLE EMP (eno INT PRIMARY KEY, ename VARCHAR, sal FLOAT);
		CREATE TABLE DEPTEMP (dedno INT, deeno INT);
		INSERT INTO DEPT VALUES (1, 'd1', 'NY'), (2, 'd2', 'SF');
		INSERT INTO EMP VALUES (101, 'e1', 100), (102, 'e2', 200), (103, 'e3', 300);
		INSERT INTO DEPTEMP VALUES (1, 101), (1, 102), (2, 103)`)
	r, err := s.Exec(`OUT OF
		Xdept AS DEPT, Xemp AS EMP,
		employment AS (RELATE Xdept, Xemp USING DEPTEMP de
			WHERE Xdept.dno = de.dedno AND Xemp.eno = de.deeno)
		TAKE *`)
	if err != nil {
		t.Fatal(err)
	}
	co := r.CO
	if len(co.Edge("employment").Conns) != 3 {
		t.Fatalf("conns = %d", len(co.Edge("employment").Conns))
	}
	if len(co.Node("Xemp").Rows) != 3 {
		t.Fatalf("emp rows = %d", len(co.Node("Xemp").Rows))
	}
	// Same abstraction as the FK representation: the employment edge's
	// link-table provenance is detected for connect/disconnect.
	if co.Edge("employment").LinkTable != "DEPTEMP" {
		t.Errorf("link provenance = %+v", co.Edge("employment"))
	}
}

func TestCyclicRelationshipWithRoles(t *testing.T) {
	e := NewDefault()
	s := e.Session()
	s.MustExec(`CREATE TABLE EMP (eno INT PRIMARY KEY, ename VARCHAR, mgrno INT);
		INSERT INTO EMP VALUES (1, 'ceo', NULL), (2, 'vp', 1), (3, 'eng', 2)`)
	// A cyclic schema graph with no root: nothing is reachable, so the CO
	// is empty and (well-formedness) its connections are excluded too.
	r, err := s.Exec(`OUT OF Xemp AS EMP,
		manages AS (RELATE Xemp AS manager, Xemp AS report WHERE manager.eno = report.mgrno)
		TAKE *`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.CO.Node("Xemp").Rows) != 0 || len(r.CO.Edge("manages").Conns) != 0 {
		t.Errorf("rootless cyclic CO should be empty: %v", r.CO)
	}
	// Anchored through a root (a one-row anchor table relating to the CEO),
	// the cycle unrolls: all three employees become reachable and both
	// manages connections survive.
	s.MustExec(`CREATE TABLE ANCHOR (ano INT PRIMARY KEY);
		INSERT INTO ANCHOR VALUES (1)`)
	r, err = s.Exec(`OUT OF Xanchor AS ANCHOR, Xemp AS EMP,
		tops AS (RELATE Xanchor, Xemp WHERE Xanchor.ano = Xemp.eno),
		manages AS (RELATE Xemp AS manager, Xemp AS report WHERE manager.eno = report.mgrno)
		TAKE *`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.CO.Node("Xemp").Rows) != 3 {
		t.Fatalf("anchored cyclic CO emp rows = %d", len(r.CO.Node("Xemp").Rows))
	}
	if len(r.CO.Edge("manages").Conns) != 2 {
		t.Fatalf("manages conns = %d", len(r.CO.Edge("manages").Conns))
	}
}

func TestValueRendering(t *testing.T) {
	s := newCompany(t)
	r, _ := s.Exec("SELECT dname, budget FROM DEPT WHERE dno = 1")
	if r.Rows[0][0].Kind() != types.KindString {
		t.Error("dname kind")
	}
}

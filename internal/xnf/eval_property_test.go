// Property-based tests (external test package: the engine implements the
// Host interface, and importing it from package xnf would be a cycle).
package xnf_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"sqlxnf/internal/engine"
	"sqlxnf/internal/parser"
	"sqlxnf/internal/qgm"
	"sqlxnf/internal/xnf"
)

// randomCompany loads a random company database and returns the session.
func randomCompany(t *testing.T, rng *rand.Rand) *engine.Session {
	t.Helper()
	s := engine.NewDefault().Session()
	s.MustExec(`
	CREATE TABLE DEPT (dno INT NOT NULL PRIMARY KEY, loc VARCHAR, budget FLOAT);
	CREATE TABLE EMP (eno INT NOT NULL PRIMARY KEY, sal FLOAT, edno INT);
	CREATE TABLE PROJ (pno INT NOT NULL PRIMARY KEY, pdno INT, pmgrno INT);
	CREATE INDEX emp_edno ON EMP (edno);
	CREATE INDEX proj_pdno ON PROJ (pdno);
	`)
	nDept := 2 + rng.Intn(6)
	nEmp := 5 + rng.Intn(30)
	nProj := 2 + rng.Intn(10)
	locs := []string{"NY", "SF", "LA"}
	for d := 1; d <= nDept; d++ {
		s.MustExec(fmt.Sprintf("INSERT INTO DEPT VALUES (%d, '%s', %d)",
			d, locs[rng.Intn(3)], 1000+rng.Intn(9000)))
	}
	for e := 1; e <= nEmp; e++ {
		edno := "NULL"
		if rng.Intn(10) > 0 { // some employees are unattached
			edno = fmt.Sprint(1 + rng.Intn(nDept))
		}
		sal := fmt.Sprint(500 + rng.Intn(4000))
		if e%7 == 0 { // restrictions meet NULL salaries (3VL)
			sal = "NULL"
		}
		s.MustExec(fmt.Sprintf("INSERT INTO EMP VALUES (%d, %s, %s)", e, sal, edno))
	}
	for p := 1; p <= nProj; p++ {
		pdno := "NULL"
		if rng.Intn(5) > 0 {
			pdno = fmt.Sprint(1 + rng.Intn(nDept))
		}
		s.MustExec(fmt.Sprintf("INSERT INTO PROJ VALUES (%d, %s, %d)",
			p, pdno, 1+rng.Intn(nEmp)))
	}
	return s
}

// propDefs are the components of propQuery: NY departments, their
// employees and projects, and the projects those employees manage.
const propDefs = `OUT OF
 Xdept AS (SELECT * FROM DEPT WHERE loc = 'NY'),
 Xemp AS EMP,
 Xproj AS PROJ,
 employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno),
 ownership AS (RELATE Xdept, Xproj WHERE Xdept.dno = Xproj.pdno),
 projmanagement AS (RELATE Xemp, Xproj WHERE Xemp.eno = Xproj.pmgrno)`

const propQuery = propDefs + "\nTAKE *"

// canonical renders a CO in an order-independent form for equality checks.
func canonical(co *xnf.CO) string {
	var parts []string
	for _, n := range co.Nodes {
		var rows []string
		for _, r := range n.Rows {
			rows = append(rows, r.String())
		}
		sort.Strings(rows)
		parts = append(parts, fmt.Sprintf("%s:%v", n.Name, rows))
	}
	for _, e := range co.Edges {
		p := co.Node(e.Parent)
		c := co.Node(e.Child)
		var conns []string
		for _, conn := range e.Conns {
			conns = append(conns, p.Rows[conn.P].String()+"->"+c.Rows[conn.C].String())
		}
		sort.Strings(conns)
		parts = append(parts, fmt.Sprintf("%s:%v", e.Name, conns))
	}
	sort.Strings(parts)
	return fmt.Sprint(parts)
}

// TestPropertyTopDownEqualsFullMaterialization: the topological extraction
// (shared subexpressions on) must produce exactly the CO that full candidate
// materialization produces — on random databases.
func TestPropertyTopDownEqualsFullMaterialization(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := randomCompany(t, rng)
		fast := mustCO(t, s, xnf.Options{})
		slow := mustCO(t, s, xnf.Options{NoSharedSubexpressions: true})
		if canonical(fast) != canonical(slow) {
			t.Fatalf("seed %d: extraction strategies disagree\nfast: %s\nslow: %s",
				seed, fast, slow)
		}
	}
}

// TestPropertySemiNaiveEqualsNaive: both reachability strategies agree.
func TestPropertySemiNaiveEqualsNaive(t *testing.T) {
	for seed := int64(100); seed < 115; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := randomCompany(t, rng)
		a := mustCO(t, s, xnf.Options{})
		b := mustCO(t, s, xnf.Options{NaiveFixpoint: true})
		if canonical(a) != canonical(b) {
			t.Fatalf("seed %d: fixpoint strategies disagree", seed)
		}
	}
}

// TestPropertyReachabilityInvariant: every evaluation result satisfies the
// reachability constraint and well-formedness.
func TestPropertyReachabilityInvariant(t *testing.T) {
	for seed := int64(200); seed < 225; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := randomCompany(t, rng)
		co := mustCO(t, s, xnf.Options{})
		if err := co.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := co.CheckReachability(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Cross-check against plain SQL: employees of NY departments.
		r, err := s.Exec(`SELECT COUNT(*) FROM EMP e, DEPT d
			WHERE e.edno = d.dno AND d.loc = 'NY'`)
		if err != nil {
			t.Fatal(err)
		}
		direct := int(r.Rows[0][0].Int())
		// Xemp includes employees reachable via employment only (no other
		// path leads to Xemp in this schema graph).
		if got := len(co.Node("Xemp").Rows); got != direct {
			t.Fatalf("seed %d: Xemp=%d, SQL count=%d", seed, got, direct)
		}
	}
}

func mustCO(t *testing.T, s *engine.Session, opts xnf.Options) *xnf.CO {
	t.Helper()
	co, err := evalWith(s, propQuery, opts)
	if err != nil {
		t.Fatal(err)
	}
	return co
}

// evalWith evaluates an XNF query with explicit evaluator options.
func evalWith(s *engine.Session, q string, opts xnf.Options) (*xnf.CO, error) {
	st, err := parser.ParseOne(q)
	if err != nil {
		return nil, err
	}
	box, err := qgm.NewBuilder(s.Engine().Catalog(), nil).BuildXNF(st.(*parser.XNFQuery))
	if err != nil {
		return nil, err
	}
	return xnf.NewEvaluator(s, opts).Evaluate(box.XNF)
}

// SQL renderings of propQuery's components over the same tables, in CO
// column order. sqlEmp joins each employee to its NY department d; sqlProj
// takes the predicate an employee must meet to make its projects reachable.
const (
	sqlDept = `SELECT d.dno, d.loc, d.budget FROM DEPT d WHERE d.loc = 'NY'`
	sqlEmp  = `SELECT e.eno, e.sal, e.edno FROM EMP e, DEPT d WHERE e.edno = d.dno AND d.loc = 'NY'`
	sqlProj = `SELECT pr.pno, pr.pdno, pr.pmgrno FROM PROJ pr
		WHERE EXISTS (SELECT * FROM DEPT d WHERE d.loc = 'NY' AND d.dno = pr.pdno)
		OR EXISTS (SELECT * FROM EMP e, DEPT d WHERE e.edno = d.dno AND d.loc = 'NY' AND e.eno = pr.pmgrno AND (%s))`
	sqlEmployment = `SELECT d.dno, d.loc, d.budget, e.eno, e.sal, e.edno FROM EMP e, DEPT d
		WHERE e.edno = d.dno AND d.loc = 'NY'`
)

// restrictionCase is one restriction of propQuery and, per component it
// changes, the hand-expanded SELECT that computes the same rows.
type restrictionCase struct {
	where string
	want  map[string]string // component → SQL; an edge's rows are parent ++ child columns
}

// nodeCase restricts Xemp by p, written over e: Xemp keeps the employees of
// NY departments that satisfy p, and Xproj the projects that NY departments
// own or that a kept employee manages.
func nodeCase(p string) restrictionCase {
	return restrictionCase{
		where: "Xemp e SUCH THAT " + p,
		want: map[string]string{
			"Xdept": sqlDept,
			"Xemp":  sqlEmp + " AND (" + p + ")",
			"Xproj": fmt.Sprintf(sqlProj, p),
		},
	}
}

// restrictionCases covers node restrictions with every scalar operator
// (3VL over NULL salaries included), an edge restriction, and path
// expressions under EXISTS and COUNT.
func restrictionCases() []restrictionCase {
	cases := []restrictionCase{}
	for _, p := range []string{
		"e.sal < 2000",
		"e.sal < 2000 AND e.eno > 5",
		"e.sal >= 3000 OR e.eno IN (1, 2, 3)",
		"NOT (e.sal > 1500)",
		"NOT (e.sal > 1500 OR e.eno < 4)",
		"e.eno NOT IN (2, 4, 6)",
		"e.eno NOT IN (1, NULL)",
		"e.sal IN (1000, NULL) OR e.eno IN (NULL, 3)",
		"e.sal IS NULL",
		"e.sal IS NOT NULL AND e.sal * 2 > 3000",
		"e.sal + e.eno * 10 > 2500",
		"e.sal - 100 < e.eno * 100",
		"-e.sal < -2000",
		"e.sal / 2 > 1000",
		"e.sal = NULL",
		"NOT (e.sal = NULL)",
		"e.sal <> 1000 OR e.sal IS NULL",
		"(e.sal > 1000) AND NOT (e.sal IS NULL OR e.sal > 3500)",
	} {
		cases = append(cases, nodeCase(p))
	}
	for _, k := range []int{2, 3, 5} {
		keep := fmt.Sprintf("e.sal < d.budget/%d", k)
		cases = append(cases, restrictionCase{
			where: "employment (d, e) SUCH THAT " + keep,
			want: map[string]string{
				"Xdept":      sqlDept,
				"Xemp":       sqlEmp + " AND " + keep,
				"employment": sqlEmployment + " AND " + keep,
				"Xproj":      fmt.Sprintf(sqlProj, keep),
			},
		})
	}
	for _, k := range []int{1000, 2500} {
		managed := fmt.Sprintf(`EXISTS (SELECT * FROM EMP e2, PROJ pr
			WHERE e2.edno = d.dno AND e2.sal > %d AND pr.pmgrno = e2.eno)`, k)
		path := fmt.Sprintf("EXISTS d->employment->(Xemp e WHERE e.sal > %d)->projmanagement->Xproj", k)
		cases = append(cases,
			restrictionCase{
				where: "Xdept d SUCH THAT " + path,
				want: map[string]string{
					"Xdept": sqlDept + " AND " + managed,
					"Xemp":  sqlEmp + " AND " + managed,
				},
			},
			restrictionCase{
				where: "Xdept d SUCH THAT NOT " + path,
				want: map[string]string{
					"Xdept": sqlDept + " AND NOT " + managed,
					"Xemp":  sqlEmp + " AND NOT " + managed,
				},
			})
	}
	// Step predicates that read the outer anchor, qualified and not.
	for _, outer := range []string{"d.budget", "budget"} {
		keep := `EXISTS (SELECT * FROM EMP e2 WHERE e2.edno = d.dno AND e2.sal > d.budget/5)`
		cases = append(cases, restrictionCase{
			where: "Xdept d SUCH THAT EXISTS d->employment->(Xemp e WHERE e.sal > " + outer + "/5)",
			want: map[string]string{
				"Xdept": sqlDept + " AND " + keep,
				"Xemp":  sqlEmp + " AND " + keep,
			},
		})
	}
	for _, k := range []int{1, 2, 3} {
		cases = append(cases, restrictionCase{
			where: fmt.Sprintf("Xdept d SUCH THAT COUNT(d->employment->projmanagement) >= %d", k),
			want: map[string]string{"Xdept": fmt.Sprintf(`SELECT d.dno, d.loc, d.budget
				FROM DEPT d, EMP e, PROJ pr WHERE d.loc = 'NY' AND e.edno = d.dno AND pr.pmgrno = e.eno
				GROUP BY d.dno, d.loc, d.budget HAVING COUNT(*) >= %d`, k)},
		})
	}
	// A backward step: the manager must be in instance0, an employee of a
	// NY department.
	cases = append(cases, restrictionCase{
		where: "Xproj pr SUCH THAT EXISTS pr->projmanagement",
		want: map[string]string{"Xproj": `SELECT pr.pno, pr.pdno, pr.pmgrno FROM PROJ pr WHERE EXISTS
			(SELECT * FROM EMP e, DEPT d WHERE e.edno = d.dno AND d.loc = 'NY' AND e.eno = pr.pmgrno)`},
	})
	cases = append(cases, restrictionCase{
		where: "Xdept d SUCH THAT COUNT(d->employment->projmanagement) = 0 OR d.budget > 8000",
		want: map[string]string{"Xdept": sqlDept + ` AND (d.budget > 8000 OR NOT EXISTS
			(SELECT * FROM EMP e, PROJ pr WHERE e.edno = d.dno AND pr.pmgrno = e.eno))`},
	})
	return cases
}

// TestPropertyRestrictionEqualsSQL: a restricted TAKE keeps exactly the
// rows the hand-expanded SELECT returns on the same data — node and edge
// restrictions, three-valued logic over NULLs, and path expressions over
// instance0. Each TAKE also runs with full candidate materialization, whose
// candidates include tuples outside instance0.
func TestPropertyRestrictionEqualsSQL(t *testing.T) {
	cases := restrictionCases()
	compared := 0
	for seed := int64(300); seed < 330; seed++ {
		s := randomCompany(t, rand.New(rand.NewSource(seed)))
		for _, c := range cases {
			q := propDefs + "\nWHERE " + c.where + "\nTAKE *"
			r, err := s.Exec(q)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, c.where, err)
			}
			full, err := evalWith(s, q, xnf.Options{NoSharedSubexpressions: true})
			if err != nil {
				t.Fatalf("seed %d: %s (full materialization): %v", seed, c.where, err)
			}
			for comp, sql := range c.want {
				want := sqlRows(t, s, sql)
				for _, co := range []*xnf.CO{r.CO, full} {
					got := componentRows(co, comp)
					compared += len(got)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d: WHERE %s: %s\n got %v\nwant %v", seed, c.where, comp, got, want)
					}
				}
			}
		}
	}
	if compared == 0 {
		t.Fatal("no restricted TAKE kept a row: the oracle compared nothing")
	}
}

// componentRows renders a node's rows, or an edge's connections as parent
// row ++ child row, sorted.
func componentRows(co *xnf.CO, name string) []string {
	var out []string
	if n := co.Node(name); n != nil {
		for _, r := range n.Rows {
			out = append(out, r.String())
		}
	} else {
		e := co.Edge(name)
		p, c := co.Node(e.Parent), co.Node(e.Child)
		for _, conn := range e.Conns {
			out = append(out, append(p.Rows[conn.P].Clone(), c.Rows[conn.C]...).String())
		}
	}
	sort.Strings(out)
	return out
}

// sqlRows runs q and renders its rows sorted.
func sqlRows(t *testing.T, s *engine.Session, q string) []string {
	t.Helper()
	r, err := s.Exec(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	var out []string
	for _, row := range r.Rows {
		out = append(out, row.String())
	}
	sort.Strings(out)
	return out
}

// TestRestrictionErrors pins each restriction error by a message substring.
func TestRestrictionErrors(t *testing.T) {
	s := randomCompany(t, rand.New(rand.NewSource(1)))
	const co = `OUT OF Xd AS DEPT, Xe AS EMP,
		employment AS (RELATE Xd, Xe WHERE Xd.dno = Xe.edno) WHERE `
	for _, c := range []struct{ q, want string }{
		{co + "Xd d SUCH THAT x.budget > 1 TAKE *", "unknown variable"},
		{co + "Xd d SUCH THAT d.bogus > 1 TAKE *", "not found"},
		{co + "Xd d SUCH THAT bogus > 1 TAKE *", "not found"},
		{`OUT OF Xd AS DEPT, Xd2 AS DEPT, twin AS (RELATE Xd, Xd2 WHERE Xd.dno = Xd2.dno)
			WHERE twin (a, b) SUCH THAT budget > 1 TAKE *`, "ambiguous"},
		{co + "Xd d SUCH THAT d.budget TAKE *", "want boolean"},
		{co + "Xd d SUCH THAT d->employment TAKE *", "bare path"},
		{co + "Xd d SUCH THAT SUM(d->employment->Xe) > 1 TAKE *", "only COUNT and EXISTS"},
		{co + "Xd d SUCH THAT COUNT(d.budget) > 1 TAKE *", "non-path arguments"},
		{co + "Xd d SUCH THAT EXISTS (SELECT * FROM EMP) TAKE *", "EXISTS subqueries are not supported"},
		{co + "Xd d SUCH THAT EXISTS d->employment->Xd TAKE *", "does not follow"},
		{co + "Xd d SUCH THAT EXISTS d->nosuch TAKE *", "neither a relationship nor"},
		{co + "Xd d SUCH THAT EXISTS zz->employment TAKE *", "neither a variable nor a component"},
		{co + "Nosuch SUCH THAT 1 = 1 TAKE *", "unknown component"},
	} {
		_, err := s.Exec(c.q)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s\n err = %v, want %q", c.q, err, c.want)
		}
	}
}

// TestRestrictionLike: LIKE and NOT LIKE in a node restriction keep the
// rows the same predicate keeps in a SELECT.
func TestRestrictionLike(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		s := randomCompany(t, rand.New(rand.NewSource(seed)))
		for _, p := range []string{
			"d.loc LIKE 'N%'", "d.loc NOT LIKE 'N%'", "d.loc LIKE '_F'",
			"d.loc LIKE '%A' OR d.loc LIKE 'NY'", "NOT (d.loc LIKE '%')",
		} {
			r, err := s.Exec("OUT OF Xd AS DEPT WHERE Xd d SUCH THAT " + p + " TAKE *")
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, p, err)
			}
			got := componentRows(r.CO, "Xd")
			if want := sqlRows(t, s, "SELECT * FROM DEPT d WHERE "+p); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: %s\n got %v\nwant %v", seed, p, got, want)
			}
		}
	}
}

// TestRestrictionNamesResolveWithoutTuples: a restriction's names resolve
// when it compiles, so a bad name errors even when no tuple is tested.
func TestRestrictionNamesResolveWithoutTuples(t *testing.T) {
	s := randomCompany(t, rand.New(rand.NewSource(1)))
	const empty = `OUT OF Xd AS (SELECT * FROM DEPT WHERE dno < 0), Xe AS EMP,
		employment AS (RELATE Xd, Xe WHERE Xd.dno = Xe.edno) WHERE `
	for _, c := range []struct{ q, want string }{
		{empty + "Xd d SUCH THAT d.bogus = 1 TAKE *", "not found"},
		{empty + "Xd d SUCH THAT EXISTS d->employment->(Xe e WHERE e.bogus > 1) TAKE *", "not found"},
		{empty + "employment (d, e) SUCH THAT x.sal > 1 TAKE *", "unknown variable"},
		{empty + "Xd d SUCH THAT EXISTS d->nosuch TAKE *", "neither a relationship nor"},
	} {
		_, err := s.Exec(c.q)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s\n err = %v, want %q", c.q, err, c.want)
		}
	}
}

// TestRestrictionRoleSteps: path steps named by a cyclic edge's roles
// traverse it in the role's direction (report: manager to report; manager:
// back), matching the SELECTs over the same management forest.
func TestRestrictionRoleSteps(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := engine.NewDefault().Session()
		s.MustExec("CREATE TABLE EMPM (eno INT NOT NULL PRIMARY KEY, mgrno INT)")
		for e := 1; e <= 20; e++ {
			mgr := "NULL"
			if e > 3 && rng.Intn(4) > 0 {
				mgr = fmt.Sprint(1 + rng.Intn(e-1))
			}
			s.MustExec(fmt.Sprintf("INSERT INTO EMPM VALUES (%d, %s)", e, mgr))
		}
		const defs = `OUT OF Xboss AS (SELECT * FROM EMPM WHERE mgrno IS NULL), Xemp AS EMPM,
			top AS (RELATE Xboss, Xemp WHERE Xboss.eno = Xemp.eno),
			manages AS (RELATE Xemp AS manager, Xemp AS report WHERE manager.eno = report.mgrno)
			WHERE Xboss b SUCH THAT `
		for _, c := range []struct{ path, sql string }{
			{"COUNT(b->top->report) >= 2", `SELECT b.eno, b.mgrno FROM EMPM b, EMPM r
				WHERE b.mgrno IS NULL AND r.mgrno = b.eno GROUP BY b.eno, b.mgrno HAVING COUNT(*) >= 2`},
			{"EXISTS b->top->report->manager", `SELECT b.eno, b.mgrno FROM EMPM b
				WHERE b.mgrno IS NULL AND EXISTS (SELECT * FROM EMPM r WHERE r.mgrno = b.eno)`},
			{"NOT EXISTS b->top->manager", `SELECT b.eno, b.mgrno FROM EMPM b WHERE b.mgrno IS NULL`},
		} {
			r, err := s.Exec(defs + c.path + " TAKE *")
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, c.path, err)
			}
			if got, want := componentRows(r.CO, "Xboss"), sqlRows(t, s, c.sql); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: %s\n got %v\nwant %v", seed, c.path, got, want)
			}
		}
	}
}

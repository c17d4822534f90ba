package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"sqlxnf/internal/storage"
	"sqlxnf/internal/types"
	"sqlxnf/internal/xnf"
)

// nodeMultiset renders a node's tuples with their RIDs, sorted: the form in
// which two derivations of one node compare equal whatever their access path.
func nodeMultiset(rows []types.Row, rids []storage.RID) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = fmt.Sprintf("%v %s", rids[i], row)
	}
	sort.Strings(out)
	return out
}

// scanTable visits every live tuple of a base table with its RID, under the
// session's snapshot (or the latest-committed view between statements).
func scanTable(s *Session, table string, fn func(rid storage.RID, row types.Row) (bool, error)) error {
	t, err := s.eng.cat.Table(table)
	if err != nil {
		return err
	}
	return t.Heap.ScanVis(t.Tag, s.visFunc(), fn)
}

func coNode(t *testing.T, co *xnf.CO, name string) []string {
	t.Helper()
	n := co.Node(name)
	if n == nil {
		t.Fatalf("composite object has no node %s", name)
	}
	return nodeMultiset(n.Rows, n.RIDs)
}

// TestTakeCompositeIndexLeadingColumn: an index whose leading column carries
// the node's predicate — or the top-down semi-join's IN list — is a prefix
// probe, not an exact-key probe: with C (cp, w) indexed, a root node
// `WHERE cp = 1` and a child derived through `Xp.pk = Xc.cp` return the same
// ten rows as without the index.
func TestTakeCompositeIndexLeadingColumn(t *testing.T) {
	const rootQ = `OUT OF Xc AS (SELECT * FROM C WHERE cp = 1) TAKE *`
	const childQ = `OUT OF Xp AS (SELECT * FROM P WHERE pk = 1), Xc AS C,
		pc AS (RELATE Xp, Xc WHERE Xp.pk = Xc.cp) TAKE *`
	take := func(t *testing.T, opts Options, index bool) (root, child []string) {
		s := New(opts).Session()
		s.MustExec(`CREATE TABLE P (pk INT NOT NULL PRIMARY KEY);
			CREATE TABLE C (ck INT NOT NULL PRIMARY KEY, cp INT, w INT)`)
		if index {
			s.MustExec(`CREATE INDEX c_cp_w ON C (cp, w)`)
		}
		s.MustExec(`INSERT INTO P VALUES (1), (2), (3)`)
		for i := 0; i < 30; i++ {
			s.MustExec(fmt.Sprintf(`INSERT INTO C VALUES (%d, %d, %d)`, i, 1+i%3, i%7))
		}
		return coNode(t, s.MustExec(rootQ).CO, "Xc"), coNode(t, s.MustExec(childQ).CO, "Xc")
	}
	noIndexes := DefaultOptions()
	noIndexes.Optimizer.NoIndexes = true
	wantRoot, wantChild := take(t, DefaultOptions(), false)
	if len(wantRoot) != 10 || len(wantChild) != 10 {
		t.Fatalf("without the index: root %d rows, child %d rows, want 10 and 10", len(wantRoot), len(wantChild))
	}
	for _, c := range []struct {
		name string
		opts Options
	}{{"indexed", DefaultOptions()}, {"indexed, NoIndexes", noIndexes}} {
		root, child := take(t, c.opts, true)
		if !slices.Equal(root, wantRoot) {
			t.Errorf("%s: root node WHERE cp = 1 returned %d rows %v, want %v", c.name, len(root), root, wantRoot)
		}
		if !slices.Equal(child, wantChild) {
			t.Errorf("%s: top-down child returned %d rows %v, want %v", c.name, len(child), child, wantChild)
		}
	}
}

// TestExplainTake: EXPLAIN of an XNF query prints, after the operator dump,
// the full-derivation plan of every node — compiled by the helper that runs
// node queries, so the access path is the one a checkout would use — and
// executes nothing. The hidden RID column shows only as the scan's +rid mark.
func TestExplainTake(t *testing.T) {
	s := newCompany(t)
	s.MustExec(`CREATE INDEX emp_edno ON EMP (edno)`)
	before := s.Engine().Stats().Eval.NodeQueries
	r := s.MustExec(`EXPLAIN OUT OF
		Xdept AS (SELECT * FROM DEPT WHERE dno = 1),
		Xemp AS (SELECT eno, ename FROM EMP WHERE edno = 2),
		Xskills AS (SELECT * FROM SKILLS WHERE sname = 's3'),
		employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.eno)
		TAKE *`)
	for _, want := range []string{
		"-- QGM (XNF operator) --",
		"-- node XDEPT --", "IndexScan DEPT using DEPT_PK",
		"-- node XEMP --", "IndexScan EMP using emp_edno", "Project [eno ename]",
		"-- node XSKILLS --", "SeqScan SKILLS", "Filter",
		"+rid",
	} {
		if !strings.Contains(strings.ToUpper(r.Explain), strings.ToUpper(want)) {
			t.Errorf("EXPLAIN lacks %q:\n%s", want, r.Explain)
		}
	}
	if strings.Contains(r.Explain, types.RIDColumn.Name) {
		t.Errorf("EXPLAIN prints the hidden RID column:\n%s", r.Explain)
	}
	if strings.Contains(r.Explain, "Gather") {
		t.Errorf("node derivation plans are serial; EXPLAIN shows a Gather:\n%s", r.Explain)
	}
	if after := s.Engine().Stats().Eval.NodeQueries; after != before {
		t.Errorf("EXPLAIN ran %d node queries", after-before)
	}
	if _, err := s.Exec(`EXPLAIN ANALYZE OUT OF Xdept AS DEPT TAKE *`); err == nil {
		t.Error("EXPLAIN ANALYZE of an XNF query succeeded")
	}
}

// TestTakeEqualsNodeSelects: the paper's operation is guarded by the same
// law as SELECT — an access path may not change a result. Over the company
// database and random two-level specs, every node of a TAKE * equals, as a
// multiset with RIDs, the hand-expanded SELECT of that node semi-joined to its
// parents, under the default engine, without indexes, and without shared
// subexpressions.
func TestTakeEqualsNodeSelects(t *testing.T) {
	noIndexes := DefaultOptions()
	noIndexes.Optimizer.NoIndexes = true
	noShare := DefaultOptions()
	noShare.XNF.NoSharedSubexpressions = true
	for _, c := range []struct {
		name string
		opts Options
	}{{"default", DefaultOptions()}, {"NoIndexes", noIndexes}, {"NoSharedSubexpressions", noShare}} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(19))
			s := New(c.opts).Session()
			s.MustExec(companyDDL)
			s.MustExec(`CREATE INDEX emp_edno_sal ON EMP (edno, sal);
				CREATE INDEX proj_pdno ON PROJ (pdno);
				CREATE INDEX skills_esno ON SKILLS (esno)`)
			for d := 1; d <= 12; d++ {
				s.MustExec(fmt.Sprintf(`INSERT INTO DEPT VALUES (%d, 'd%d', '%s', %d, NULL)`,
					d, d, []string{"NY", "SF", "LA"}[d%3], 1000*d))
			}
			for e := 1; e <= 120; e++ {
				edno := fmt.Sprint(1 + rng.Intn(14)) // 13, 14: no such department
				if e%17 == 0 {
					edno = "NULL"
				}
				s.MustExec(fmt.Sprintf(`INSERT INTO EMP VALUES (%d, 'e%d', %d, 'staff', %s, NULL)`,
					e, e, 1000+100*rng.Intn(20), edno))
			}
			for p := 1; p <= 40; p++ {
				s.MustExec(fmt.Sprintf(`INSERT INTO PROJ VALUES (%d, 'p%d', %d, %d, NULL)`, p, p, 100*p, 1+rng.Intn(12)))
			}
			for k := 1; k <= 200; k++ {
				s.MustExec(fmt.Sprintf(`INSERT INTO SKILLS VALUES (%d, 's%d', %d, NULL)`, k, k%9, 1+rng.Intn(130)))
			}
			if rng.Intn(2) == 0 {
				s.MustExec(`ANALYZE`)
			}
			// The RID a SELECT of a node's tuple must report: where the base table
			// holds the tuple with that primary key (column 0).
			ridOf := map[string]map[int64]storage.RID{}
			for _, table := range []string{"DEPT", "EMP", "PROJ", "SKILLS"} {
				byKey := map[int64]storage.RID{}
				if err := scanTable(s, table, func(rid storage.RID, row types.Row) (bool, error) {
					byKey[row[0].Int()] = rid
					return false, nil
				}); err != nil {
					t.Fatal(err)
				}
				ridOf[table] = byKey
			}
			selectNode := func(table, sql string) []string {
				res := s.MustExec(sql)
				rids := make([]storage.RID, len(res.Rows))
				for i, row := range res.Rows {
					rids[i] = ridOf[table][row[0].Int()]
				}
				return nodeMultiset(res.Rows, rids)
			}
			// Column names are unique across the four tables, so one predicate text
			// serves the node definition and the EXISTS that stands for the
			// semi-join to that node.
			deptPreds := []string{"dno = %d", "dno IN (%d, 3, 3, NULL)", "dmgrno IS NULL AND dno > %d", "loc = 'NY' AND dno <> %d", "dno < %d"}
			empPreds := []string{"eno > 0", "sal >= 2000", "sal IN (1500, 1500.0, 2500, NULL)", "edno IN (1, 2, 13)", "ename <> 'e7'"}
			for iter := 0; iter < 40; iter++ {
				deptPred := fmt.Sprintf(deptPreds[rng.Intn(len(deptPreds))], 1+rng.Intn(12))
				empPred := empPreds[rng.Intn(len(empPreds))]
				take := fmt.Sprintf(`OUT OF Xdept AS (SELECT * FROM DEPT WHERE %s),
					Xemp AS (SELECT * FROM EMP WHERE %s), Xproj AS PROJ, Xskills AS SKILLS,
					employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno),
					ownership AS (RELATE Xdept, Xproj WHERE Xdept.dno = Xproj.pdno),
					empproperty AS (RELATE Xemp, Xskills WHERE Xemp.eno = Xskills.esno)
					TAKE *`, deptPred, empPred)
				co := s.MustExec(take).CO
				for _, n := range []struct{ node, table, sql string }{
					{"Xdept", "DEPT", "SELECT * FROM DEPT WHERE " + deptPred},
					{"Xemp", "EMP", "SELECT * FROM EMP WHERE " + empPred +
						" AND EXISTS (SELECT 1 FROM DEPT WHERE dno = EMP.edno AND " + deptPred + ")"},
					{"Xproj", "PROJ", "SELECT * FROM PROJ WHERE EXISTS (SELECT 1 FROM DEPT WHERE dno = PROJ.pdno AND " + deptPred + ")"},
					{"Xskills", "SKILLS", "SELECT * FROM SKILLS WHERE EXISTS (SELECT 1 FROM EMP, DEPT WHERE eno = SKILLS.esno AND " +
						empPred + " AND dno = edno AND " + deptPred + ")"},
				} {
					got, want := coNode(t, co, n.node), selectNode(n.table, n.sql)
					if !slices.Equal(got, want) {
						t.Fatalf("iteration %d, node %s: TAKE has %d tuples, %s has %d\n take: %v\n want: %v\n%s",
							iter, n.node, len(got), n.sql, len(want), got, want, take)
					}
				}
			}
		})
	}
}

// TestTakeEdgesEqualEdgeSelects: TAKE edges against their hand-expanded
// SELECTs. Over random data and root predicates, the connections of every
// edge of a TAKE * equal, as a multiset, the rows of its RELATE predicate
// joined over the CO's partner nodes: parent key, child key, attributes and,
// for the link-table edge, the heap RID of the link row (NilRID for the FK
// edge). The link edge has two conjuncts or an extra one on the link table,
// with and without an index on the link table, under the default engine,
// without indexes and without shared subexpressions. Every TAKE runs one
// edge query, the link edge's USING query, whose rows also narrow Xc on the
// top-down path.
func TestTakeEdgesEqualEdgeSelects(t *testing.T) {
	noIndexes := DefaultOptions()
	noIndexes.Optimizer.NoIndexes = true
	noShare := DefaultOptions()
	noShare.XNF.NoSharedSubexpressions = true
	for _, c := range []struct {
		name string
		opts Options
	}{{"default", DefaultOptions()}, {"NoIndexes", noIndexes}, {"NoSharedSubexpressions", noShare}} {
		for _, linkIndex := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/linkIndex=%v", c.name, linkIndex), func(t *testing.T) {
				opts := c.opts
				opts.COCacheBytes = -1 // every TAKE evaluates
				rng := rand.New(rand.NewSource(30))
				s := New(opts).Session()
				s.MustExec(`CREATE TABLE P (pid INT NOT NULL PRIMARY KEY, pcat INT);
					CREATE TABLE F (fid INT NOT NULL PRIMARY KEY, fp INT);
					CREATE TABLE C (cid INT NOT NULL PRIMARY KEY);
					CREATE TABLE PC (lid INT, lp INT, lc INT, w FLOAT)`)
				if linkIndex {
					s.MustExec(`CREATE INDEX pc_lp ON PC (lp)`)
				}
				key := func(n int) string { // 1..n (past the referenced table when n exceeds it), sometimes NULL
					if rng.Intn(12) == 0 {
						return "NULL"
					}
					return fmt.Sprint(1 + rng.Intn(n))
				}
				for p := 1; p <= 10; p++ {
					s.MustExec(fmt.Sprintf(`INSERT INTO P VALUES (%d, %d)`, p, rng.Intn(3)))
				}
				for f := 1; f <= 40; f++ {
					s.MustExec(fmt.Sprintf(`INSERT INTO F VALUES (%d, %s)`, f, key(12)))
				}
				for k := 1; k <= 30; k++ {
					s.MustExec(fmt.Sprintf(`INSERT INTO C VALUES (%d)`, k))
				}
				// Few distinct (lp, lc) pairs among many link rows: one parent
				// and child are often joined by several link rows.
				for l := 1; l <= 150; l++ {
					s.MustExec(fmt.Sprintf(`INSERT INTO PC VALUES (%d, %s, %s, %d.%d)`, l, key(12), key(8), rng.Intn(2), rng.Intn(10)))
				}
				if rng.Intn(2) == 0 {
					s.MustExec(`ANALYZE`)
				}
				ridOf := map[int64]storage.RID{} // PC.lid → heap RID
				if err := scanTable(s, "PC", func(rid storage.RID, row types.Row) (bool, error) {
					ridOf[row[0].Int()] = rid
					return false, nil
				}); err != nil {
					t.Fatal(err)
				}
				render := func(p, c types.Value, attrs types.Row, rid storage.RID) string {
					return fmt.Sprintf("%v %v %v %v", p, c, attrs, rid)
				}
				selectEdge := func(sql string, link bool) []string {
					var out []string
					for _, row := range s.MustExec(sql).Rows {
						if link {
							out = append(out, render(row[0], row[1], row[2:3], ridOf[row[3].Int()]))
						} else {
							out = append(out, render(row[0], row[1], nil, storage.NilRID))
						}
					}
					sort.Strings(out)
					return out
				}
				coEdge := func(co *xnf.CO, name string) []string {
					e := co.Edge(name)
					if e == nil {
						t.Fatalf("composite object has no edge %s", name)
					}
					p, c := co.Node(e.Parent), co.Node(e.Child)
					var out []string
					for _, conn := range e.Conns {
						out = append(out, render(p.Rows[conn.P][0], c.Rows[conn.C][0], conn.Attrs, conn.LinkRID))
					}
					sort.Strings(out)
					return out
				}
				pPreds := []string{"pid = %d", "pid < %d", "pcat = %d", "pid IN (%d, 4, NULL)", "pid <> %d"}
				for iter := 0; iter < 30; iter++ {
					pPred := fmt.Sprintf(pPreds[rng.Intn(len(pPreds))], 1+rng.Intn(10))
					extra := ""
					if rng.Intn(2) == 0 {
						extra = fmt.Sprintf(" AND PC.w > %d.%d", rng.Intn(2), rng.Intn(10))
					}
					take := fmt.Sprintf(`OUT OF Xp AS (SELECT * FROM P WHERE %s), Xf AS F, Xc AS C,
						fk AS (RELATE Xp, Xf WHERE Xp.pid = Xf.fp),
						link AS (RELATE Xp, Xc WITH ATTRIBUTES PC.w USING PC
							WHERE Xp.pid = PC.lp AND Xc.cid = PC.lc%s)
						TAKE *`, pPred, extra)
					edgeQueries := s.Engine().Stats().Eval.EdgeQueries
					co := s.MustExec(take).CO
					if n := s.Engine().Stats().Eval.EdgeQueries - edgeQueries; n != 1 {
						t.Fatalf("iteration %d: %d edge queries, want 1 (the link edge's USING query)\n%s", iter, n, take)
					}
					for _, e := range []struct {
						name, sql string
						link      bool
					}{
						{"fk", "SELECT pid, fid FROM P, F WHERE " + pPred + " AND pid = fp", false},
						{"link", "SELECT pid, cid, w, lid FROM P, C, PC WHERE " + pPred + " AND pid = lp AND cid = lc" + extra, true},
					} {
						got, want := coEdge(co, e.name), selectEdge(e.sql, e.link)
						if !slices.Equal(got, want) {
							t.Fatalf("iteration %d, edge %s: TAKE has %d connections, %s has %d\n take: %v\n want: %v\n%s",
								iter, e.name, len(got), e.sql, len(want), got, want, take)
						}
					}
				}
			})
		}
	}
}

// edgeShape is one RELATE edge from Xp (over P) to Xc (over C) and the
// SELECT that lists its connections: pid, cid, the edge's attributes, then,
// for a link-table edge, PC.lid, which names the link row. Column names are
// unique across P, C, PC and Q, so the SELECT needs no qualifiers.
type edgeShape struct {
	name   string
	relate string // the RELATE clause after "RELATE Xp, Xc"
	attrs  string // the SELECT's attribute columns, each after ", "
	from   string // the SELECT's USING tables, each after ", "
	where  string // the SELECT's rendering of the RELATE predicate
	nAttrs int
	link   bool
}

// edgeShapes draws the edge oracle's shapes: an FK edge with a computed
// attribute, a link edge with attributes, a link edge with a conjunct on the
// link table alone, a two-table USING, a non-equi cross conjunct, and a
// correlated EXISTS.
func edgeShapes(rng *rand.Rand) []edgeShape {
	k := fmt.Sprintf("%d.%d", rng.Intn(2), rng.Intn(10))
	return []edgeShape{
		{name: "fk_attr", relate: "WITH ATTRIBUTES Xp.pv * 10 + Xc.cv AS s WHERE Xp.pk = Xc.cfk",
			attrs: ", pv * 10 + cv", where: "pk = cfk", nAttrs: 1},
		{name: "link_attrs", relate: "WITH ATTRIBUTES PC.w, PC.lid - Xc.cv AS d USING PC WHERE Xp.pk = PC.lp AND Xc.ck = PC.lc",
			attrs: ", w, lid - cv", from: ", PC", where: "pk = lp AND ck = lc", nAttrs: 2, link: true},
		{name: "link_u_only", relate: "WITH ATTRIBUTES PC.w USING PC WHERE Xp.pk = PC.lp AND Xc.ck = PC.lc AND PC.w > " + k,
			attrs: ", w", from: ", PC", where: "pk = lp AND ck = lc AND w > " + k, nAttrs: 1, link: true},
		{name: "two_using", relate: "WITH ATTRIBUTES l.w USING Q q, PC l WHERE Xp.pk = q.qp AND q.qr = l.lid AND Xc.ck = l.lc AND l.w >= " + k,
			attrs: ", w", from: ", Q, PC", where: "pk = qp AND qr = lid AND ck = lc AND w >= " + k, nAttrs: 1},
		{name: "non_equi", relate: "WHERE Xp.pk < Xc.ck", where: "pk < ck"},
		{name: "exists", relate: "WHERE Xp.pk = Xc.ck AND EXISTS (SELECT 1 FROM PC WHERE PC.lp = Xp.pk AND PC.lc <> Xc.cv AND PC.w > " + k + ")",
			where: "pk = ck AND EXISTS (SELECT 1 FROM PC WHERE lp = P.pk AND lc <> C.cv AND w > " + k + ")"},
	}
}

// newEdgeWorld loads the edge oracle's random database: join keys are
// NULL now and then, repeat across rows, and meet across INT and FLOAT
// columns (a FLOAT key is sometimes not integral and then matches no INT).
// It returns the session and the heap RID of every PC row by its lid.
func newEdgeWorld(t testing.TB, opts Options, rng *rand.Rand) (*Session, map[int64]storage.RID) {
	t.Helper()
	opts.COCacheBytes = -1 // every TAKE evaluates
	s := New(opts).Session()
	s.MustExec(`CREATE TABLE P (pid INT NOT NULL PRIMARY KEY, pk INT, pv INT);
		CREATE TABLE C (cid INT NOT NULL PRIMARY KEY, cfk FLOAT, ck INT, cv INT);
		CREATE TABLE PC (lid INT, lp FLOAT, lc INT, w FLOAT);
		CREATE TABLE Q (qid INT, qp INT, qr INT)`)
	if rng.Intn(2) == 0 {
		s.MustExec(`CREATE INDEX pc_lp ON PC (lp); CREATE INDEX c_ck ON C (ck)`)
	}
	key := func(float bool) string {
		switch {
		case rng.Intn(10) == 0:
			return "NULL"
		case float && rng.Intn(6) == 0:
			return fmt.Sprintf("%d.5", 1+rng.Intn(8))
		case float:
			return fmt.Sprintf("%d.0", 1+rng.Intn(8))
		}
		return fmt.Sprint(1 + rng.Intn(8))
	}
	var sb strings.Builder
	for p := 1; p <= 10; p++ {
		fmt.Fprintf(&sb, "INSERT INTO P VALUES (%d, %s, %s);", p, key(false), key(false))
	}
	for c := 1; c <= 30; c++ {
		fmt.Fprintf(&sb, "INSERT INTO C VALUES (%d, %s, %s, %s);", c, key(true), key(false), key(false))
	}
	for l := 1; l <= 120; l++ {
		fmt.Fprintf(&sb, "INSERT INTO PC VALUES (%d, %s, %s, %d.%d);", l, key(true), key(false), rng.Intn(2), rng.Intn(10))
	}
	for q := 1; q <= 40; q++ {
		fmt.Fprintf(&sb, "INSERT INTO Q VALUES (%d, %s, %d);", q, key(false), 1+rng.Intn(120))
	}
	s.MustExec(sb.String())
	if rng.Intn(2) == 0 {
		s.MustExec(`ANALYZE`)
	}
	ridOf := map[int64]storage.RID{}
	if err := scanTable(s, "PC", func(rid storage.RID, row types.Row) (bool, error) {
		ridOf[row[0].Int()] = rid
		return false, nil
	}); err != nil {
		t.Fatal(err)
	}
	return s, ridOf
}

// checkEdgeShapes composes every edge shape three ways and holds the edge's
// connections, as a multiset, equal to the rows of its hand-expanded
// SELECT. The three compositions: one acyclic level (top-down
// extraction); the same level plus a self-loop on Xc (full
// materialization); and the edge added over a view whose restriction keeps
// the view from merging into the query. iter numbers the view.
func checkEdgeShapes(t testing.TB, s *Session, ridOf map[int64]storage.RID, rng *rand.Rand, iter int) {
	t.Helper()
	render := func(p, c types.Value, attrs types.Row, rid storage.RID) string {
		return fmt.Sprintf("%v %v %v %v", p, c, attrs, rid)
	}
	pPreds := []string{"pid = %d", "pid < %d", "pk = %d", "pid IN (%d, 4, NULL)", "pid <> %d", "pk IS NULL OR pid > %d"}
	pPred := fmt.Sprintf(pPreds[rng.Intn(len(pPreds))], 1+rng.Intn(10))
	nodes := fmt.Sprintf("Xp AS (SELECT * FROM P WHERE %s), Xc AS C", pPred)
	view := fmt.Sprintf("EDGE_VIEW_%d", iter)
	s.MustExec(fmt.Sprintf("CREATE VIEW %s AS OUT OF %s WHERE Xc SUCH THAT cv <> 2 TAKE *", view, nodes))
	for _, sh := range edgeShapes(rng) {
		edge := "e AS (RELATE Xp, Xc " + sh.relate + ")"
		link := ""
		if sh.link {
			link = ", lid"
		}
		sel := "SELECT pid, cid" + sh.attrs + link + " FROM P, C" + sh.from + " WHERE (" + pPred + ") AND " + sh.where
		for _, comp := range []struct{ name, take, sql string }{
			{"top-down", "OUT OF " + nodes + ", " + edge + " TAKE *", sel},
			{"self-loop", "OUT OF " + nodes + ", " + edge + ", loop AS (RELATE Xc AS a, Xc AS b WHERE a.cid = b.cv) TAKE *", sel},
			{"view", "OUT OF " + view + ", " + edge + " TAKE *", sel + " AND cv <> 2"},
		} {
			var want []string
			for _, row := range s.MustExec(comp.sql).Rows {
				var attrs types.Row
				if sh.nAttrs > 0 {
					attrs = row[2 : 2+sh.nAttrs]
				}
				rid := storage.NilRID
				if sh.link {
					rid = ridOf[row[2+sh.nAttrs].Int()]
				}
				want = append(want, render(row[0], row[1], attrs, rid))
			}
			co := s.MustExec(comp.take).CO
			e := co.Edge("e")
			if e == nil {
				t.Fatalf("%s/%s: composite object has no edge e\n%s", sh.name, comp.name, comp.take)
			}
			p, c := co.Node(e.Parent), co.Node(e.Child)
			var got []string
			for _, conn := range e.Conns {
				var attrs types.Row
				if sh.nAttrs > 0 {
					attrs = conn.Attrs
				}
				got = append(got, render(p.Rows[conn.P][0], c.Rows[conn.C][0], attrs, conn.LinkRID))
			}
			sort.Strings(got)
			sort.Strings(want)
			if !slices.Equal(got, want) {
				t.Fatalf("%s/%s: TAKE has %d connections, the SELECT %d\n take: %v\n want: %v\n%s\n%s",
					sh.name, comp.name, len(got), len(want), got, want, comp.take, comp.sql)
			}
		}
	}
}

// TestEdgeShapesEqualRelateSelects: every connection of an edge — parent
// key, child key, attributes and LinkRID — equals, as a multiset, the rows
// of its RELATE predicate written as a SELECT over the partner tables and
// its USING tables, for the shapes of edgeShapes composed three ways
// (checkEdgeShapes), under the default engine, without indexes and without
// shared subexpressions. The SELECT shares no code with the evaluator's
// edge resolution.
func TestEdgeShapesEqualRelateSelects(t *testing.T) {
	noIndexes := DefaultOptions()
	noIndexes.Optimizer.NoIndexes = true
	noShare := DefaultOptions()
	noShare.XNF.NoSharedSubexpressions = true
	for _, c := range []struct {
		name string
		opts Options
	}{{"default", DefaultOptions()}, {"NoIndexes", noIndexes}, {"NoSharedSubexpressions", noShare}} {
		t.Run(c.name, func(t *testing.T) {
			for world := int64(0); world < 3; world++ {
				rng := rand.New(rand.NewSource(43 + world))
				s, ridOf := newEdgeWorld(t, c.opts, rng)
				for iter := 0; iter < 4; iter++ {
					checkEdgeShapes(t, s, ridOf, rng, iter)
				}
			}
		})
	}
}

// FuzzEdgeMatchesRelateSelect runs checkEdgeShapes over a database and
// predicates drawn from the input's seed bytes; the first byte also picks
// the engine options.
func FuzzEdgeMatchesRelateSelect(f *testing.F) {
	for _, seed := range [][]byte{{0}, {1, 7}, {2, 3, 9}, {0, 42, 42}, {1, 255, 0, 13}} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed []byte) {
		var n int64
		for _, b := range seed {
			n = n*131 + int64(b)
		}
		opts := DefaultOptions()
		if len(seed) > 0 {
			switch seed[0] % 3 {
			case 1:
				opts.Optimizer.NoIndexes = true
			case 2:
				opts.XNF.NoSharedSubexpressions = true
			}
		}
		rng := rand.New(rand.NewSource(n))
		s, ridOf := newEdgeWorld(t, opts, rng)
		checkEdgeShapes(t, s, ridOf, rng, 0)
	})
}

// TestDuplicateRelationshipRejected: a relationship name is declared once
// per composition, as a component table is. A second works is an error
// whichever way the composition evaluates: on one acyclic level, with a
// self-loop that forces full materialization, and re-declared over a view
// that already has it.
func TestDuplicateRelationshipRejected(t *testing.T) {
	s := newCompany(t)
	const works = `works AS (RELATE Xd, Xe WHERE Xd.dno = Xe.edno)`
	const works2 = `works AS (RELATE Xd, Xe WHERE Xd.dno = Xe.eno)`
	s.MustExec(`CREATE VIEW WORKS_VIEW AS OUT OF Xd AS DEPT, Xe AS EMP, ` + works + ` TAKE *`)
	for _, q := range []string{
		`OUT OF Xd AS DEPT, Xe AS EMP, ` + works + `, ` + works2 + ` TAKE *`,
		`OUT OF Xd AS DEPT, Xe AS EMP, ` + works + `, ` + works2 + `,
			boss AS (RELATE Xe AS a, Xe AS b WHERE a.eno = b.edno) TAKE *`,
		`OUT OF WORKS_VIEW, ` + works2 + ` TAKE *`,
	} {
		r, err := s.Exec(q)
		if err == nil || !strings.Contains(err.Error(), "xnf: duplicate relationship") {
			var co string
			if r != nil && r.CO != nil {
				co = r.CO.String()
			}
			t.Errorf("%s\n got %v %s, want a duplicate relationship error", q, err, co)
		}
	}
}

// TestEdgeOverProjectedViewNode: a relationship added over a view reads the
// view's node through the view's column projection. With the columns
// reordered, `Xd.dno` names the third column of the rows the view hands up,
// where the node's definition has it first; a column the view projects
// away is unknown.
func TestEdgeOverProjectedViewNode(t *testing.T) {
	s := newCompany(t)
	s.MustExec(`CREATE VIEW DEPT_NAMES AS OUT OF Xd AS DEPT, Xe AS EMP TAKE Xd(dname, loc, dno), Xe(*)`)
	co := s.MustExec(`OUT OF DEPT_NAMES, works AS (RELATE Xd, Xe WITH ATTRIBUTES Xd.loc WHERE Xd.dno = Xe.edno) TAKE *`).CO
	e := co.Edge("works")
	var got []string
	for _, c := range e.Conns {
		got = append(got, fmt.Sprintf("%v %v %v", co.Node("Xd").Rows[c.P][2], co.Node("Xe").Rows[c.C][0], c.Attrs))
	}
	var want []string
	for _, r := range s.MustExec(`SELECT dno, eno, loc FROM DEPT, EMP WHERE dno = edno`).Rows {
		want = append(want, fmt.Sprintf("%v %v %v", r[0], r[1], r[2:]))
	}
	sort.Strings(got)
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Errorf("works over the projected view: %v, want %v", got, want)
	}
	if _, err := s.Exec(`OUT OF DEPT_NAMES, works AS (RELATE Xd, Xe WHERE Xd.budget = Xe.sal) TAKE *`); err == nil ||
		!strings.Contains(err.Error(), `column "budget" not found`) {
		t.Errorf("a column the view projects away: got %v", err)
	}
}

// TestTopDownKeepsEqualRowsOfARIDlessChild: a child whose definition is a
// join carries no RIDs, so the top-down extraction merges what its fetches
// return by value. Equal rows of one fetch are distinct tuples of the
// derivation and all stay; a second fetch, through a second parent, adds
// only the copies beyond what one fetch already gave, since equal rows pass
// or fail a key filter together. So Xj holds what its SELECT returns, two
// 'a' rows and a 'b' row, and every relationship has one connection per row
// of its RELATE predicate written as a SELECT: on one acyclic level, with
// a second parent, and with a self-loop that never connects but forces full
// materialization.
func TestTopDownKeepsEqualRowsOfARIDlessChild(t *testing.T) {
	s := NewDefault().Session()
	s.MustExec(`CREATE TABLE DEPT (dno INT PRIMARY KEY, dname VARCHAR);
		CREATE TABLE EMP (eno INT PRIMARY KEY, edno INT, job VARCHAR);
		CREATE TABLE L (lid INT PRIMARY KEY, ldno INT, ljob VARCHAR);
		INSERT INTO DEPT VALUES (1, 'x'), (2, 'y');
		INSERT INTO EMP VALUES (10, 1, 'a'), (11, 1, 'a'), (12, 2, 'b');
		INSERT INTO L VALUES (100, 1, 'a'), (101, 2, 'b')`)
	rendered := func(rows []types.Row) []string {
		var out []string
		for _, r := range rows {
			out = append(out, r.String())
		}
		sort.Strings(out)
		return out
	}
	const xj = `SELECT e.job FROM EMP e, DEPT d WHERE e.edno = d.dno`
	wantXj := rendered(s.MustExec(xj).Rows)
	wantR := rendered(s.MustExec(`SELECT p.dno, e.job FROM DEPT p, EMP e, DEPT d, L
		WHERE e.edno = d.dno AND p.dno = L.ldno AND e.job = L.ljob`).Rows)
	base := `OUT OF Xd AS DEPT, Xj AS (` + xj + `), r AS (RELATE Xd, Xj USING L WHERE Xd.dno = L.ldno AND Xj.job = L.ljob)`
	for _, c := range []struct {
		name, take string
		edges      []string
	}{
		{"one level", base + ` TAKE *`, []string{"r"}},
		{"two parents", base + `, Xd2 AS DEPT, r2 AS (RELATE Xd2, Xj USING L WHERE Xd2.dno = L.ldno AND Xj.job = L.ljob) TAKE *`, []string{"r", "r2"}},
		{"self-loop", base + `, sl AS (RELATE Xj AS a, Xj AS b WHERE a.job = 'zz' AND b.job = 'zz') TAKE *`, []string{"r"}},
	} {
		co := s.MustExec(c.take).CO
		if got := rendered(co.Node("Xj").Rows); !slices.Equal(got, wantXj) {
			t.Errorf("%s: Xj = %v, want %v", c.name, got, wantXj)
		}
		for _, name := range c.edges {
			e := co.Edge(name)
			var conns []types.Row
			for _, cn := range e.Conns {
				conns = append(conns, types.Row{co.Node(e.Parent).Rows[cn.P][0], co.Node(e.Child).Rows[cn.C][0]})
			}
			if got := rendered(conns); !slices.Equal(got, wantR) {
				t.Errorf("%s: %s connects %v, want %v", c.name, name, got, wantR)
			}
		}
	}
}

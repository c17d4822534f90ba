package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sqlxnf/internal/optimizer"
)

// TestHashJoinBuildsOnSmallerInput: a hash join builds on the input estimated
// smaller. The filtered E side (est. 0.3 × 20 000) seeds the greedy order and
// builds; S (40 000) probes — serially, and as the morsel-driven probe
// pipeline of a shared parallel build.
func TestHashJoinBuildsOnSmallerInput(t *testing.T) {
	const q = "SELECT e.descr, COUNT(*) FROM E e, S s WHERE e.eno = s.esno AND e.sal > 5 GROUP BY e.descr ORDER BY e.descr"
	wantPlan := map[int]string{
		-1: "HashJoin #0=#0 [descr]\nSeqScan S [esno] (est rows=40000)\nFilter (#1 > 5)\nSeqScan E (est rows=20000)",
		4:  "HashJoin #0=#0 [descr] (shared build)\nMorselScan S [esno] (est rows=40000)\nFilter (#1 > 5)\nMorselScan E (est rows=20000)",
	}
	var results []string
	for _, dop := range []int{-1, 4} {
		e := New(Options{Optimizer: optimizer.Options{MaxDOP: dop}})
		s := e.Session()
		s.MustExec("CREATE TABLE E (eno INT PRIMARY KEY, sal INT, descr VARCHAR); CREATE TABLE S (sno INT PRIMARY KEY, esno INT)")
		for i := 0; i < 200; i++ {
			s.MustExec(fmt.Sprintf("INSERT INTO E VALUES (%d, %d, 'd%d'); INSERT INTO S VALUES (%d, %d), (%d, %d)",
				i, i%10, i%3, 2*i, i, 2*i+1, i))
		}
		for name, n := range map[string]int64{"E": 20_000, "S": 40_000} {
			tbl, err := e.Catalog().Table(name)
			if err != nil {
				t.Fatal(err)
			}
			tbl.SetRowCount(n)
		}
		plan := s.MustExec("EXPLAIN " + q).Explain
		lines := strings.Split(plan, "\n")
		for i, l := range lines {
			lines[i] = strings.TrimSpace(l)
		}
		if !strings.Contains(strings.Join(lines, "\n"), wantPlan[dop]) {
			t.Fatalf("MaxDOP %d: want the join\n%s\nin\n%s", dop, wantPlan[dop], plan)
		}
		var rows []string
		for _, r := range s.MustExec(q).Rows {
			rows = append(rows, r.String())
		}
		results = append(results, strings.Join(rows, " "))
	}
	counts := [3]int{}
	for i := 0; i < 200; i++ {
		if i%10 > 5 {
			counts[i%3] += 2
		}
	}
	want := fmt.Sprintf("(d0, %d) (d1, %d) (d2, %d)", counts[0], counts[1], counts[2])
	if results[0] != want || results[1] != want {
		t.Fatalf("results %q, want %q twice", results, want)
	}
}

// TestJoinAggReadsOnlyNeededColumns pins column pruning on the benchmark's
// hash_join_agg statement: the SKILLS access decodes only its join key, EMP
// only the three columns the statement names, and the join emits the
// grouping input itself — no Project sits between GroupAgg and HashJoin.
// Serial and parallel plans alike, and both compute the right groups.
func TestJoinAggReadsOnlyNeededColumns(t *testing.T) {
	const q = "SELECT e.descr, COUNT(*), SUM(e.sal) FROM EMP e, SKILLS s WHERE e.eno = s.esno AND e.sal > 3 GROUP BY e.descr ORDER BY e.descr"
	for _, dop := range []int{-1, 4} {
		e := New(Options{Optimizer: optimizer.Options{MaxDOP: dop}})
		s := e.Session()
		s.MustExec("CREATE TABLE EMP (eno INT NOT NULL PRIMARY KEY, ename VARCHAR, sal FLOAT, descr VARCHAR, edno INT); " +
			"CREATE TABLE SKILLS (sno INT NOT NULL PRIMARY KEY, sname VARCHAR, esno INT)")
		for i := 0; i < 60; i++ {
			s.MustExec(fmt.Sprintf("INSERT INTO EMP VALUES (%d, 'e%d', %d, 'd%d', %d); INSERT INTO SKILLS VALUES (%d, 's', %d), (%d, 's', %d)",
				i, i, i%7, i%2, i%5, 2*i, i, 2*i+1, i))
		}
		for name, n := range map[string]int64{"EMP": 20_000, "SKILLS": 40_000} {
			tbl, err := e.Catalog().Table(name)
			if err != nil {
				t.Fatal(err)
			}
			tbl.SetRowCount(n)
		}
		plan := s.MustExec("EXPLAIN " + q).Explain
		plan = plan[strings.Index(plan, "-- plan --"):]
		var lines []string
		for _, l := range strings.Split(plan, "\n") {
			lines = append(lines, strings.TrimSpace(l))
		}
		agg := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, "GroupAgg") })
		if agg < 0 || agg+1 == len(lines) || !strings.HasPrefix(lines[agg+1], "HashJoin") {
			t.Fatalf("MaxDOP %d: want HashJoin right under GroupAgg in\n%s", dop, plan)
		}
		for _, want := range []string{"Scan SKILLS [esno] (", "Scan EMP [eno sal descr] ("} {
			if !strings.Contains(plan, want) {
				t.Fatalf("MaxDOP %d: want %q in\n%s", dop, want, plan)
			}
		}
		var sums [2][2]float64 // per descr: COUNT(*), SUM(sal) over the join
		for i := 0; i < 60; i++ {
			if i%7 > 3 {
				sums[i%2][0] += 2
				sums[i%2][1] += 2 * float64(i%7)
			}
		}
		want := fmt.Sprintf("(d0, %v, %v) (d1, %v, %v)", sums[0][0], sums[0][1], sums[1][0], sums[1][1])
		var got []string
		for _, r := range s.MustExec(q).Rows {
			got = append(got, r.String())
		}
		if strings.Join(got, " ") != want {
			t.Fatalf("MaxDOP %d: rows %v, want %s", dop, got, want)
		}
	}
}

// Join-oracle tables: A(id, k, v), B(id, k, k2, v), C(id, k2, v). Keys draw
// from a small domain with NULLs, so joins see duplicates and NULL keys.
type joRow struct{ id, k, k2, v *int }

func joInt(p *int) string {
	if p == nil {
		return "NULL"
	}
	return fmt.Sprint(*p)
}

// joEq is SQL equality: unknown (false here) when either side is NULL.
func joEq(a, b *int) bool { return a != nil && b != nil && *a == *b }

// TestJoinOracle: randomized 2- and 3-table equi-joins — NULL keys,
// duplicates, a residual non-equi conjunct, single-table filters that move
// the estimates either way, SELECT * so every column offset is read — give
// a brute-force model's multiset under the default optimizer, without hash
// joins, without index joins, and at MaxDOP 2 and 4 with row counts that
// make the joins parallel.
func TestJoinOracle(t *testing.T) {
	configs := []struct {
		name  string
		opt   optimizer.Options
		rowsB int64 // a fake row count for B (0 = the real one)
	}{
		{"default", optimizer.Options{}, 0},
		{"nohash", optimizer.Options{NoHashJoins: true}, 0},
		{"noindexjoin", optimizer.Options{NoIndexJoins: true}, 0},
		{"dop2", optimizer.Options{MaxDOP: 2}, 30_000},
		{"dop4", optimizer.Options{MaxDOP: 4, NoIndexJoins: true}, 60_000},
	}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 12; round++ {
		val := func(domain int) *int {
			if rng.Intn(6) == 0 {
				return nil
			}
			n := rng.Intn(domain)
			return &n
		}
		gen := func(n int) []joRow {
			rows := make([]joRow, n)
			for i := range rows {
				id := i + 1
				rows[i] = joRow{id: &id, k: val(5), k2: val(4), v: val(10)}
			}
			return rows
		}
		A, B, C := gen(rng.Intn(40)), gen(rng.Intn(60)), gen(rng.Intn(30))
		ddl := []string{
			"CREATE TABLE A (id INT PRIMARY KEY, k INT, v INT)",
			"CREATE TABLE B (id INT PRIMARY KEY, k INT, k2 INT, v INT)",
			"CREATE TABLE C (id INT PRIMARY KEY, k2 INT, v INT)",
		}
		if rng.Intn(2) == 0 {
			ddl = append(ddl, "CREATE INDEX b_k ON B (k)")
		}
		if rng.Intn(2) == 0 {
			ddl = append(ddl, "CREATE INDEX c_k2 ON C (k2)")
		}
		for _, r := range A {
			ddl = append(ddl, fmt.Sprintf("INSERT INTO A VALUES (%s, %s, %s)", joInt(r.id), joInt(r.k), joInt(r.v)))
		}
		for _, r := range B {
			ddl = append(ddl, fmt.Sprintf("INSERT INTO B VALUES (%s, %s, %s, %s)", joInt(r.id), joInt(r.k), joInt(r.k2), joInt(r.v)))
		}
		for _, r := range C {
			ddl = append(ddl, fmt.Sprintf("INSERT INTO C VALUES (%s, %s, %s)", joInt(r.id), joInt(r.k2), joInt(r.v)))
		}
		sessions := make([]*Session, len(configs))
		for i, c := range configs {
			e := New(Options{Optimizer: c.opt})
			sessions[i] = e.Session()
			sessions[i].MustExec(strings.Join(ddl, ";\n"))
			if c.rowsB > 0 {
				tbl, err := e.Catalog().Table("B")
				if err != nil {
					t.Fatal(err)
				}
				tbl.SetRowCount(c.rowsB)
			}
		}

		for qi := 0; qi < 15; qi++ {
			sql, want := joQuery(rng, A, B, C)
			slices.Sort(want)
			for i, c := range configs {
				res, err := sessions[i].Exec(sql)
				if err != nil {
					t.Fatalf("round %d, %s: %s: %v", round, c.name, sql, err)
				}
				got := make([]string, len(res.Rows))
				for j, r := range res.Rows {
					got[j] = r.String()
				}
				slices.Sort(got)
				if !slices.Equal(got, want) {
					plan, _ := sessions[i].Exec("EXPLAIN " + sql)
					t.Fatalf("round %d, %s: %s\ngot  %v\nwant %v\n%s", round, c.name, sql, got, want, plan.Explain)
				}
			}
		}
	}
}

// joQuery draws one join and evaluates it by brute force.
func joQuery(rng *rand.Rand, A, B, C []joRow) (string, []string) {
	lim := rng.Intn(10)
	lit := func(p *int) bool { return p != nil && *p < lim } // "x.v < lim"
	var want []string
	switch rng.Intn(4) {
	case 0: // A ⋈ B on k, optional residual A.v < B.v, optional filter on A
		residual, filterA := rng.Intn(2) == 0, rng.Intn(2) == 0
		sql := "SELECT A.id, B.id, A.v FROM A, B WHERE A.k = B.k"
		if residual {
			sql += " AND A.v < B.v"
		}
		if filterA {
			sql += fmt.Sprintf(" AND A.v < %d", lim)
		}
		for _, a := range A {
			for _, b := range B {
				if !joEq(a.k, b.k) || residual && !(a.v != nil && b.v != nil && *a.v < *b.v) || filterA && !lit(a.v) {
					continue
				}
				want = append(want, fmt.Sprintf("(%s, %s, %s)", joInt(a.id), joInt(b.id), joInt(a.v)))
			}
		}
		return sql, want
	case 1: // SELECT * over B ⋈ A with a residual on both sides' columns
		sql := fmt.Sprintf("SELECT * FROM B, A WHERE B.k = A.k AND B.v <> A.v AND B.k2 < %d", lim)
		for _, b := range B {
			for _, a := range A {
				if joEq(b.k, a.k) && b.v != nil && a.v != nil && *b.v != *a.v && b.k2 != nil && *b.k2 < lim {
					want = append(want, fmt.Sprintf("(%s, %s, %s, %s, %s, %s, %s)",
						joInt(b.id), joInt(b.k), joInt(b.k2), joInt(b.v), joInt(a.id), joInt(a.k), joInt(a.v)))
				}
			}
		}
		return sql, want
	default: // A ⋈ B ⋈ C, optionally with a three-table residual and a filter on C
		residual, filterC := rng.Intn(2) == 0, rng.Intn(2) == 0
		sql := "SELECT C.v, A.id, B.id, C.id, B.k2 FROM A, B, C WHERE A.k = B.k AND B.k2 = C.k2"
		if residual {
			sql += " AND A.v + C.v > B.v"
		}
		if filterC {
			sql += fmt.Sprintf(" AND C.v < %d", lim)
		}
		for _, a := range A {
			for _, b := range B {
				for _, c := range C {
					if !joEq(a.k, b.k) || !joEq(b.k2, c.k2) || filterC && !lit(c.v) {
						continue
					}
					if residual && !(a.v != nil && c.v != nil && b.v != nil && *a.v+*c.v > *b.v) {
						continue
					}
					want = append(want, fmt.Sprintf("(%s, %s, %s, %s, %s)",
						joInt(c.v), joInt(a.id), joInt(b.id), joInt(c.id), joInt(b.k2)))
				}
			}
		}
		return sql, want
	}
}

package engine

import (
	"fmt"
	"sync"
	"testing"

	"sqlxnf/internal/types"
)

// TestExtractLiterals pins the extractor's key shape and literal vector.
func TestExtractLiterals(t *testing.T) {
	cases := []struct {
		src   string
		key   string
		binds []types.Value
		ok    bool
	}{
		{"SELECT dname FROM DEPT WHERE dno = 7",
			"SELECT DNAME FROM DEPT WHERE DNO = ?",
			[]types.Value{types.NewInt(7)}, true},
		{"select dname from dept where dno=123", // case/space variants share a key
			"SELECT DNAME FROM DEPT WHERE DNO = ?",
			[]types.Value{types.NewInt(123)}, true},
		{"SELECT * FROM T WHERE s = 'it''s' AND f < 1.5e2",
			"SELECT * FROM T WHERE S = ? AND F < ?",
			[]types.Value{types.NewString("it's"), types.NewFloat(150)}, true},
		{"SELECT a FROM T WHERE b = -5", // sign stays in the key
			"SELECT A FROM T WHERE B = - ?",
			[]types.Value{types.NewInt(5)}, true},
		{"SELECT a FROM T LIMIT 10", // LIMIT literal is structural
			"SELECT A FROM T LIMIT 10", nil, true},
		{"SELECT a FROM T WHERE b = 2 LIMIT 10",
			"SELECT A FROM T WHERE B = ? LIMIT 10",
			[]types.Value{types.NewInt(2)}, true},
		{"SELECT a FROM T WHERE b IN (1, 2, 3)", // IN arity stays in the key
			"SELECT A FROM T WHERE B IN ( ? , ? , ? )",
			[]types.Value{types.NewInt(1), types.NewInt(2), types.NewInt(3)}, true},
		{"SELECT a FROM T WHERE b IS NOT NULL AND c = TRUE", // keywords stay
			"SELECT A FROM T WHERE B IS NOT NULL AND C = TRUE", nil, true},
		{"SELECT a FROM T WHERE b = 1;", // trailing semicolon trimmed
			"SELECT A FROM T WHERE B = ?",
			[]types.Value{types.NewInt(1)}, true},
		{"SELECT a, /* c */ b FROM T -- tail\nWHERE a = 1", // comments vanish
			"SELECT A , B FROM T WHERE A = ?",
			[]types.Value{types.NewInt(1)}, true},
		{`SELECT x FROM "ALL_DEPS.Xemp" WHERE x = 1`, // quoted idents keep quotes
			`SELECT X FROM "ALL_DEPS.XEMP" WHERE X = ?`,
			[]types.Value{types.NewInt(1)}, true},
		// Structural-literal statements are not parameterized.
		{"SELECT edno, COUNT(*) FROM EMP GROUP BY edno", "", nil, false},
		{"SELECT a FROM T ORDER BY 2", "", nil, false},
		{"SELECT MAX(sal) FROM EMP", "", nil, false},
		{"SELECT a FROM T HAVING a > 1", "", nil, false},
		// Lexically broken text falls back too.
		{"SELECT 'unterminated", "", nil, false},
		{"SELECT a # b", "", nil, false},
	}
	for _, c := range cases {
		key, binds, ok := extractLiterals(c.src)
		if ok != c.ok {
			t.Errorf("%q: ok = %v, want %v", c.src, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if key != c.key {
			t.Errorf("%q: key = %q, want %q", c.src, key, c.key)
		}
		if len(binds) != len(c.binds) {
			t.Errorf("%q: binds = %v, want %v", c.src, binds, c.binds)
			continue
		}
		for i := range binds {
			if !types.Equal(binds[i], c.binds[i]) || binds[i].Kind() != c.binds[i].Kind() {
				t.Errorf("%q: bind %d = %v (%v), want %v (%v)", c.src, i,
					binds[i], binds[i].Kind(), c.binds[i], c.binds[i].Kind())
			}
		}
	}
}

// TestParameterizedCacheOneEntryManyLiterals is the headline acceptance
// test: 100 point lookups differing only in the constant must occupy exactly
// one cache entry, hit the cache at least 99 times, and return per-binding
// results identical to cold compiles.
func TestParameterizedCacheOneEntryManyLiterals(t *testing.T) {
	e, s := cacheFixture(t)
	cold := New(Options{PlanCacheSize: -1})
	cs := cold.Session()
	seedLike(t, cs)

	for i := 0; i < 100; i++ {
		eno := 10 + i%30 // existing and missing keys alike
		q := fmt.Sprintf("SELECT ename, sal FROM EMP WHERE eno = %d", eno)
		got := s.MustExec(q)
		want := cs.MustExec(q)
		if rowsFingerprint(got) != rowsFingerprint(want) {
			t.Fatalf("binding %d diverges from cold compile:\n%s\nvs\n%s",
				eno, rowsFingerprint(got), rowsFingerprint(want))
		}
	}
	st := e.PlanCacheStats()
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1 (distinct literals must share the shape entry)", st.Entries)
	}
	if st.Hits < 99 {
		t.Fatalf("hits = %d, want >= 99", st.Hits)
	}
	if st.Evictions != 0 {
		t.Fatalf("evictions = %d, want 0 (distinct literals must not evict each other)", st.Evictions)
	}
}

// seedLike mirrors cacheFixture's data into another engine's session so the
// cold-compile reference engine holds identical rows.
func seedLike(t *testing.T, s *Session) {
	t.Helper()
	s.MustExec(`CREATE TABLE DEPT (dno INT PRIMARY KEY, dname VARCHAR);
		CREATE TABLE EMP (eno INT PRIMARY KEY, ename VARCHAR, sal FLOAT, edno INT);
		CREATE INDEX emp_edno ON EMP (edno)`)
	for d := 1; d <= 5; d++ {
		s.MustExec(fmt.Sprintf("INSERT INTO DEPT VALUES (%d, 'd%d')", d, d))
		for i := 0; i < 6; i++ {
			eno := d*10 + i
			s.MustExec(fmt.Sprintf("INSERT INTO EMP VALUES (%d, 'e%d', %d, %d)",
				eno, eno, 1000+eno*10, d))
		}
	}
}

// TestParameterizedCacheBindsEverywhere exercises bindings in joins, string
// comparisons, EXISTS subqueries and IN lists against cold compiles.
func TestParameterizedCacheBindsEverywhere(t *testing.T) {
	_, s := cacheFixture(t)
	cold := New(Options{PlanCacheSize: -1})
	cs := cold.Session()
	seedLike(t, cs)

	shapes := []string{
		"SELECT e.ename FROM DEPT d, EMP e WHERE d.dno = e.edno AND d.dname = '%s'",
		"SELECT ename FROM EMP WHERE sal > %s AND sal <= %s",
		"SELECT dname FROM DEPT WHERE EXISTS (SELECT eno FROM EMP WHERE edno = dno AND sal > %s)",
		"SELECT ename FROM EMP WHERE edno IN (%s, %s)",
	}
	args := [][][]interface{}{
		{{"d1"}, {"d4"}, {"nosuch"}},
		{{"1100", "1300"}, {"1400", "1500.5"}, {"0", "9999"}},
		{{"1200"}, {"1500"}, {"99999"}},
		{{"1", "3"}, {"2", "5"}, {"4", "4"}},
	}
	for si, shape := range shapes {
		for _, a := range args[si] {
			q := fmt.Sprintf(shape, a...)
			got := s.MustExec(q)
			want := cs.MustExec(q)
			if rowsFingerprint(got) != rowsFingerprint(want) {
				t.Fatalf("%s:\ncached %q\ncold   %q", q, rowsFingerprint(got), rowsFingerprint(want))
			}
		}
	}
}

// TestBindGuardRecompile: a cached range plan compiled for a selective
// binding must stay correct — and recompile rather than blindly reuse the
// index — when a later binding selects most of the table.
func TestBindGuardRecompile(t *testing.T) {
	e := NewDefault()
	s := e.Session()
	s.MustExec("CREATE TABLE R (id INT PRIMARY KEY, v INT)")
	for i := 0; i < 500; i++ {
		s.MustExec(fmt.Sprintf("INSERT INTO R VALUES (%d, %d)", i, i))
	}
	s.MustExec("CREATE INDEX r_v ON R (v)")
	s.MustExec("ANALYZE R")

	// Compile the shape with a highly selective range: the plan caches with
	// an index scan and a bind guard on the interpolated selectivity.
	if n := len(s.MustExec("SELECT id FROM R WHERE v > 495").Rows); n != 4 {
		t.Fatalf("narrow binding rows = %d, want 4", n)
	}
	// Wildly different binding: the guard must reject and recompile; the
	// result must still be exact.
	if n := len(s.MustExec("SELECT id FROM R WHERE v > 5").Rows); n != 494 {
		t.Fatalf("wide binding rows = %d, want 494", n)
	}
	// Conforming binding afterwards still uses the cached entry.
	st0 := e.PlanCacheStats()
	if n := len(s.MustExec("SELECT id FROM R WHERE v > 490").Rows); n != 9 {
		t.Fatalf("conforming binding rows = %d, want 9", n)
	}
	st1 := e.PlanCacheStats()
	if st1.Hits != st0.Hits+1 || st1.Entries != st0.Entries {
		t.Fatalf("conforming binding should hit the cached entry: %+v -> %+v", st0, st1)
	}
}

// TestBindGuardRecompileParsePath: the guard fallback on the parse path
// (the statement last in a script, so the parser-skipping probe misses)
// recompiles from the AST it already has, with the same exact result.
func TestBindGuardRecompileParsePath(t *testing.T) {
	e := NewDefault()
	s := e.Session()
	s.MustExec("CREATE TABLE R (id INT PRIMARY KEY, v INT)")
	for i := 0; i < 500; i++ {
		s.MustExec(fmt.Sprintf("INSERT INTO R VALUES (%d, %d)", i, i))
	}
	s.MustExec("CREATE INDEX r_v ON R (v)")
	s.MustExec("ANALYZE R")
	const prefix = "SELECT id FROM R WHERE id = -1;\n"
	if n := len(s.MustExec(prefix + "SELECT id FROM R WHERE v > 495").Rows); n != 4 {
		t.Fatalf("narrow binding rows = %d, want 4", n)
	}
	st0 := e.PlanCacheStats()
	if n := len(s.MustExec(prefix + "SELECT id FROM R WHERE v > 5").Rows); n != 494 {
		t.Fatalf("wide binding rows = %d, want 494", n)
	}
	if st1 := e.PlanCacheStats(); st1.Hits != st0.Hits+2 || st1.Entries != st0.Entries {
		t.Fatalf("both statements should hit their entries and the wide binding recompile outside the cache: %+v -> %+v", st0, st1)
	}
}

// TestBindGuardAcceptsOwnBinding: a composite eq+range plan's guard must
// re-check with the equality prefix's selectivity included — the compile
// cost used prefixSel·rangeSel, so a guard built from the range part alone
// would reject even the original binding and recompile every execution
// (regression for exactly that bug).
func TestBindGuardAcceptsOwnBinding(t *testing.T) {
	e := NewDefault()
	s := e.Session()
	s.MustExec("CREATE TABLE CG (a INT, b INT)")
	// 100 distinct a values × 20 b values: eqSel(a)=0.01, and b > 8
	// interpolates to ~0.58 — index cost with the prefix is tiny, but the
	// range part alone would read as costlier than the seq scan
	// (0.58·2000·2 + 4 > 2000), flipping the reconstructed decision.
	for i := 0; i < 2000; i++ {
		s.MustExec(fmt.Sprintf("INSERT INTO CG VALUES (%d, %d)", i%100, i/100))
	}
	s.MustExec("CREATE INDEX cg_ab ON CG (a, b)")
	s.MustExec("ANALYZE CG")

	q := "SELECT b FROM CG WHERE a = 42 AND b > 8"
	if n := len(s.MustExec(q).Rows); n != 11 {
		t.Fatalf("rows = %d, want 11 (b in 9..19)", n)
	}
	key, binds, ok := extractLiterals(q)
	if !ok {
		t.Fatal("statement should be parameterizable")
	}
	ent := e.plans.peek(key, e.cat.Epoch())
	if ent == nil {
		t.Fatal("statement should have cached")
	}
	if len(ent.guards) != 1 {
		t.Fatalf("guards = %+v, want exactly the range guard", ent.guards)
	}
	tbl, err := e.cat.Table("CG")
	if err != nil {
		t.Fatal(err)
	}
	g := ent.guards[0]
	if !g.ChoseIndex {
		t.Fatalf("compile should have chosen the composite index: %+v", g)
	}
	if !g.Check(tbl, binds[g.Param]) {
		t.Fatalf("guard rejects the binding it was compiled from: %+v", g)
	}
	// And the conforming re-execution really takes the cached plan.
	st0 := e.PlanCacheStats()
	if n := len(s.MustExec(q).Rows); n != 11 {
		t.Fatalf("re-execution rows = %d, want 11", n)
	}
	if st1 := e.PlanCacheStats(); st1.Hits != st0.Hits+1 {
		t.Fatalf("re-execution should hit: %+v -> %+v", st0, st1)
	}
}

// TestParameterizedCacheConcurrentDisjointRanges: N sessions execute the
// same statement shape with disjoint constants through the shared cache;
// every session must see exactly its own rows (no cross-session binding
// bleed). Run under -race in CI.
func TestParameterizedCacheConcurrentDisjointRanges(t *testing.T) {
	e := NewDefault()
	s := e.Session()
	s.MustExec("CREATE TABLE KV (k INT PRIMARY KEY, owner INT, payload VARCHAR)")
	const sessions = 8
	const keysPer = 25
	for g := 0; g < sessions; g++ {
		for i := 0; i < keysPer; i++ {
			k := g*1000 + i
			s.MustExec(fmt.Sprintf("INSERT INTO KV VALUES (%d, %d, 'p%d')", k, g, k))
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := e.Session()
			for rep := 0; rep < 3; rep++ {
				for i := 0; i < keysPer; i++ {
					k := g*1000 + i
					r, err := sess.Exec(fmt.Sprintf("SELECT owner, payload FROM KV WHERE k = %d", k))
					if err != nil {
						errs <- err
						return
					}
					if len(r.Rows) != 1 {
						errs <- fmt.Errorf("session %d key %d: %d rows", g, k, len(r.Rows))
						return
					}
					if r.Rows[0][0].Int() != int64(g) || r.Rows[0][1].Str() != fmt.Sprintf("p%d", k) {
						errs <- fmt.Errorf("session %d key %d: got foreign row %v (binding bleed)",
							g, k, r.Rows[0])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := e.PlanCacheStats()
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1 (all sessions share one statement shape)", st.Entries)
	}
	if st.Hits < sessions*keysPer {
		t.Fatalf("hits = %d, want >= %d", st.Hits, sessions*keysPer)
	}
}

package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sqlxnf/internal/lock"
)

// Differential harness for the parameterized plan cache: randomized
// SELECT/DML statements run against two engines seeded with identical data —
// a reference engine with the plan cache disabled (every statement compiles
// cold) and the engine under test with the cache enabled. SELECTs execute
// twice on the cached engine, so the first run populates the
// parameter-shaped entry and the second takes the bind-at-execute hit path;
// all three results must agree as multisets. A single mis-bound parameter
// slot silently returns wrong rows, which is exactly the class of bug this
// net exists to catch. On a mismatch the harness shrinks the statement —
// dropping predicate conjuncts and projection columns while the mismatch
// reproduces — and reports the minimal failing SQL.

// diffPair is the engine-under-test plus its cold-compiling reference.
type diffPair struct {
	cached *Session
	ref    *Session
}

func newDiffPair(t *testing.T, seed int64) *diffPair {
	t.Helper()
	p := &diffPair{
		cached: NewDefault().Session(),
		ref:    New(Options{PlanCacheSize: -1}).Session(),
	}
	ddl := `CREATE TABLE T1 (a INT PRIMARY KEY, b INT, c FLOAT, d VARCHAR, e INT);
		CREATE INDEX t1_b ON T1 (b);
		CREATE INDEX t1_eb ON T1 (e, b);
		CREATE TABLE T2 (k INT PRIMARY KEY, v INT, w VARCHAR)`
	p.cached.MustExec(ddl)
	p.ref.MustExec(ddl)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 120; i++ {
		b := fmt.Sprintf("%d", rng.Intn(20)-10)
		if rng.Intn(6) == 0 {
			b = "NULL"
		}
		c := fmt.Sprintf("%.2f", rng.Float64()*20-10)
		if rng.Intn(7) == 0 {
			c = "NULL"
		}
		d := fmt.Sprintf("'s%d'", rng.Intn(8))
		switch rng.Intn(10) {
		case 0:
			d = "NULL"
		case 1:
			d = "''"
		case 2:
			d = "'it''s'"
		}
		stmt := fmt.Sprintf("INSERT INTO T1 VALUES (%d, %s, %s, %s, %d)",
			i, b, c, d, rng.Intn(5))
		p.cached.MustExec(stmt)
		p.ref.MustExec(stmt)
	}
	for k := 0; k < 30; k++ {
		stmt := fmt.Sprintf("INSERT INTO T2 VALUES (%d, %d, 'w%d')", k, rng.Intn(10)-5, k%4)
		p.cached.MustExec(stmt)
		p.ref.MustExec(stmt)
	}
	return p
}

// outcome canonicalizes a statement result: the sorted multiset of row
// renderings, or the fact that execution errored (both engines must agree on
// error-ness; exact messages may differ in wrapping).
func outcome(r *Result, err error) string {
	if err != nil {
		return "<error>"
	}
	lines := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		lines[i] = row.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// check runs one SELECT on the reference engine and twice on the cached
// engine, reporting "" on agreement or a description of the first
// disagreement.
func (p *diffPair) check(sql string) string {
	want := outcome(p.ref.Exec(sql))
	cold := outcome(p.cached.Exec(sql))
	if cold != want {
		return fmt.Sprintf("cache-population run diverged:\n  ref:    %q\n  cached: %q", want, cold)
	}
	hit := outcome(p.cached.Exec(sql))
	if hit != want {
		return fmt.Sprintf("cache-hit run diverged:\n  ref: %q\n  hit: %q", want, hit)
	}
	return ""
}

// diffCase is one generated SELECT, kept decomposed so it can shrink.
type diffCase struct {
	proj     []string
	from     string
	conjs    []string
	distinct bool
	limitAll bool // append LIMIT 1000 (exercises the structural literal)
}

func (c *diffCase) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if c.distinct {
		b.WriteString("DISTINCT ")
	}
	b.WriteString(strings.Join(c.proj, ", "))
	b.WriteString(" FROM ")
	b.WriteString(c.from)
	if len(c.conjs) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(c.conjs, " AND "))
	}
	if c.limitAll {
		b.WriteString(" LIMIT 1000")
	}
	return b.String()
}

// genCase draws a random SELECT over the seeded tables. Literal pools lean
// on the edge cases the net must cover: NULL, negative ints, empty strings,
// floats, quoted quotes, and SQL keywords inside strings.
func genCase(rng *rand.Rand) *diffCase {
	ints := []string{"-5", "0", "3", "7", "-10", "123456", "NULL"}
	floats := []string{"-2.25", "0.0", "1.5", "9.75", "NULL", "2e1"}
	strs := []string{"''", "'s1'", "'s5'", "'it''s'", "'WHERE'", "NULL"}
	pick := func(pool []string) string { return pool[rng.Intn(len(pool))] }

	c := &diffCase{from: "T1 t", distinct: rng.Intn(4) == 0, limitAll: rng.Intn(5) == 0}
	projPool := []string{"t.a", "t.b", "t.c", "t.d", "t.e", "t.b + 1", "-t.a"}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		c.proj = append(c.proj, projPool[rng.Intn(len(projPool))])
	}
	conjPool := []func() string{
		func() string { return "t.b = " + pick(ints) },
		func() string { return "t.b <> " + pick(ints) },
		func() string { return "t.b > " + pick(ints) },
		func() string { return "t.c < " + pick(floats) },
		func() string { return "t.c >= " + pick(floats) },
		func() string { return "t.d = " + pick(strs) },
		func() string { return "t.b IS NULL" },
		func() string { return "t.d IS NOT NULL" },
		func() string { return fmt.Sprintf("t.b IN (%s, %s, %s)", pick(ints), pick(ints), pick(ints)) },
		func() string { return fmt.Sprintf("t.b BETWEEN %s AND %s", pick(ints), pick(ints)) },
		func() string { return fmt.Sprintf("t.e = %d AND t.b = %s", rng.Intn(5), pick(ints)) },
		func() string { return "t.d LIKE 's%'" },
		func() string {
			return fmt.Sprintf("EXISTS (SELECT k FROM T2 WHERE v = t.e AND k > %s)", pick(ints))
		},
	}
	for n := rng.Intn(4); n > 0; n-- {
		c.conjs = append(c.conjs, conjPool[rng.Intn(len(conjPool))]())
	}
	if rng.Intn(5) == 0 {
		// Join shape: T1 against T2 on the low-cardinality column.
		c.from = "T1 t, T2 u"
		c.conjs = append(c.conjs, "t.e = u.k")
		c.proj = append(c.proj, "u.w")
	}
	return c
}

// shrink minimizes a failing case: greedily drop conjuncts, projection
// columns, DISTINCT and LIMIT while the mismatch still reproduces.
func (p *diffPair) shrink(c *diffCase) *diffCase {
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(c.conjs); i++ {
			trial := *c
			trial.conjs = append(append([]string{}, c.conjs[:i]...), c.conjs[i+1:]...)
			if p.check(trial.SQL()) != "" {
				c = &trial
				changed = true
				break
			}
		}
		if changed {
			continue
		}
		for i := 0; len(c.proj) > 1 && i < len(c.proj); i++ {
			trial := *c
			trial.proj = append(append([]string{}, c.proj[:i]...), c.proj[i+1:]...)
			if p.check(trial.SQL()) != "" {
				c = &trial
				changed = true
				break
			}
		}
		if changed {
			continue
		}
		if c.distinct {
			trial := *c
			trial.distinct = false
			if p.check(trial.SQL()) != "" {
				c = &trial
				changed = true
			}
		}
		if c.limitAll {
			trial := *c
			trial.limitAll = false
			if p.check(trial.SQL()) != "" {
				c = &trial
				changed = true
			}
		}
	}
	return c
}

// TestDifferentialSelects: randomized SELECT shapes, cold vs parameterized
// cache hit.
func TestDifferentialSelects(t *testing.T) {
	const rounds = 300
	p := newDiffPair(t, 42)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < rounds; i++ {
		c := genCase(rng)
		if msg := p.check(c.SQL()); msg != "" {
			minimal := p.shrink(c)
			t.Fatalf("differential mismatch (round %d): %s\nfull SQL:    %s\nminimal SQL: %s",
				i, msg, c.SQL(), minimal.SQL())
		}
	}
	// The run must actually have exercised the parameterized hit path.
	st := p.cached.Engine().PlanCacheStats()
	if st.Hits == 0 {
		t.Fatalf("harness never hit the plan cache: %+v", st)
	}
}

// TestDifferentialDML interleaves INSERT/UPDATE/DELETE with repeated SELECT
// probes: DML applies once per engine, and the shared probe statements —
// which hit the parameterized cache on the cached engine — must agree with
// cold compiles after every mutation (cached plans read live heaps).
func TestDifferentialDML(t *testing.T) {
	p := newDiffPair(t, 7)
	rng := rand.New(rand.NewSource(2))
	probes := []string{
		"SELECT a, b, d FROM T1 WHERE b >= -3",
		"SELECT a FROM T1 WHERE e = 2 AND b = 1",
		"SELECT a, c FROM T1 WHERE d = 'it''s'",
		"SELECT a FROM T1 WHERE b IS NULL",
	}
	for i := 0; i < 120; i++ {
		var stmt string
		switch rng.Intn(3) {
		case 0:
			stmt = fmt.Sprintf("INSERT INTO T1 VALUES (%d, %d, %0.2f, 'n%d', %d)",
				1000+i, rng.Intn(20)-10, rng.Float64()*10-5, rng.Intn(4), rng.Intn(5))
		case 1:
			stmt = fmt.Sprintf("UPDATE T1 SET b = %d WHERE a = %d", rng.Intn(20)-10, rng.Intn(130))
		case 2:
			stmt = fmt.Sprintf("DELETE FROM T1 WHERE a = %d", rng.Intn(130))
		}
		refRes, refErr := p.ref.Exec(stmt)
		gotRes, gotErr := p.cached.Exec(stmt)
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("DML error divergence on %q: ref=%v cached=%v", stmt, refErr, gotErr)
		}
		if refErr == nil && refRes.RowsAffected != gotRes.RowsAffected {
			t.Fatalf("DML rows-affected divergence on %q: ref=%d cached=%d",
				stmt, refRes.RowsAffected, gotRes.RowsAffected)
		}
		probe := probes[i%len(probes)]
		if msg := p.check(probe); msg != "" {
			t.Fatalf("probe %q diverged after %q: %s", probe, stmt, msg)
		}
	}
	st := p.cached.Engine().PlanCacheStats()
	if st.Hits == 0 {
		t.Fatalf("DML harness never hit the plan cache: %+v", st)
	}
}

// TestDifferentialXNFCoCache extends the harness to the composite-object
// cache: randomized interleavings of XNF TAKE checkouts, FROM "VIEW.NODE"
// selects, and DML on component tables run against two engines — the
// engine under test with the CO cache (and plan cache) enabled, and a
// reference engine with both disabled so every checkout re-materializes
// cold. Node rows and CO fingerprints must agree as multisets after every
// step: a stale entry surviving a component-table mutation, a mis-tracked
// dependency, or a shared materialization leaking a private mutation all
// surface as a divergence here. Besides the flat view ORG the mix reads
// ORG_ALLOC, a view over ORG adding an attributed relationship through a
// link table (the Fig. 3 shape), and a TAKE whose node reads FROM "ORG.Xe",
// so a miss resolves nested view specs; its ANALYZE/CREATE INDEX arm bumps
// the catalog epoch under all of them.
func TestDifferentialXNFCoCache(t *testing.T) {
	cached := NewDefault().Session()
	refOpts := DefaultOptions()
	refOpts.PlanCacheSize = -1
	refOpts.COCacheBytes = -1
	ref := New(refOpts).Session()

	ddl := `CREATE TABLE DEPT (dno INT PRIMARY KEY, dname VARCHAR, budget INT);
		CREATE TABLE EMP (eno INT PRIMARY KEY, ename VARCHAR, sal INT, edno INT);
		CREATE INDEX emp_edno ON EMP (edno);
		CREATE TABLE ALLOC (adno INT, aeno INT, share INT);
		CREATE VIEW ORG AS
		 OUT OF Xd AS DEPT, Xe AS (SELECT eno, ename, sal, edno FROM EMP WHERE sal >= 0),
		  works AS (RELATE Xd, Xe WHERE Xd.dno = Xe.edno)
		 TAKE *;
		CREATE VIEW ORG_ALLOC AS
		 OUT OF ORG,
		  funds AS (RELATE Xd, Xe WITH ATTRIBUTES a.share USING ALLOC a
		   WHERE Xd.dno = a.adno AND Xe.eno = a.aeno)
		 TAKE *`
	cached.MustExec(ddl)
	ref.MustExec(ddl)
	rng := rand.New(rand.NewSource(11))
	seed := func(stmt string) {
		cached.MustExec(stmt)
		ref.MustExec(stmt)
	}
	for d := 1; d <= 6; d++ {
		seed(fmt.Sprintf("INSERT INTO DEPT VALUES (%d, 'd%d', %d)", d, d, 1000*d))
	}
	for i := 0; i < 40; i++ {
		seed(fmt.Sprintf("INSERT INTO EMP VALUES (%d, 'e%d', %d, %d)", i, i, rng.Intn(5000), 1+rng.Intn(6)))
	}
	for i := 0; i < 30; i++ {
		seed(fmt.Sprintf("INSERT INTO ALLOC VALUES (%d, %d, %d)", 1+rng.Intn(6), rng.Intn(40), rng.Intn(100)))
	}

	takes := []string{
		"OUT OF ORG TAKE *",
		"OUT OF ORG WHERE Xe e SUCH THAT e.sal > 2000 TAKE *",
		"OUT OF ORG TAKE Xd(*), works, Xe(eno, sal)",
		"OUT OF ORG_ALLOC TAKE *",
		"OUT OF ORG_ALLOC WHERE Xd d SUCH THAT d.dno <= 3 TAKE Xd(*), funds, Xe(eno)",
		`OUT OF Xd AS DEPT, Xr AS (SELECT eno, sal, edno FROM "ORG.Xe" WHERE sal > 2500),
		  rich AS (RELATE Xd, Xr WHERE Xd.dno = Xr.edno)
		 TAKE *`,
	}
	nodeSelects := []string{
		`SELECT eno, sal FROM "ORG.Xe" WHERE sal > 1000`,
		`SELECT COUNT(*) FROM "ORG.Xe"`,
		`SELECT d.dname, e.ename FROM "ORG.Xd" d, "ORG.Xe" e WHERE d.dno = e.edno`,
		`SELECT COUNT(*) FROM "ORG_ALLOC.Xe" WHERE sal < 2500`,
	}
	// Epoch bumps: ANALYZE, or a new index while names last.
	epochStmts := []string{
		"ANALYZE EMP",
		"CREATE INDEX emp_sal ON EMP (sal)",
		"ANALYZE ALLOC",
		"CREATE INDEX alloc_aeno ON ALLOC (aeno)",
		"ANALYZE",
	}
	nextENO := 1000
	for round := 0; round < 200; round++ {
		switch rng.Intn(9) {
		case 0: // INSERT into a component table
			stmt := fmt.Sprintf("INSERT INTO EMP VALUES (%d, 'n%d', %d, %d)",
				nextENO, nextENO, rng.Intn(5000), 1+rng.Intn(6))
			nextENO++
			seed(stmt)
		case 1: // UPDATE a component column (including the FK)
			col, val := "sal", rng.Intn(5000)
			if rng.Intn(3) == 0 {
				col, val = "edno", 1+rng.Intn(6)
			}
			seed(fmt.Sprintf("UPDATE EMP SET %s = %d WHERE eno = %d", col, val, rng.Intn(nextENO)))
		case 2: // DELETE from a component table
			seed(fmt.Sprintf("DELETE FROM EMP WHERE eno = %d", rng.Intn(nextENO)))
		case 3: // DML on the link table only ORG_ALLOC reads
			if rng.Intn(2) == 0 {
				seed(fmt.Sprintf("INSERT INTO ALLOC VALUES (%d, %d, %d)", 1+rng.Intn(6), rng.Intn(nextENO), rng.Intn(100)))
			} else {
				seed(fmt.Sprintf("UPDATE ALLOC SET share = %d WHERE aeno = %d", rng.Intn(100), rng.Intn(nextENO)))
			}
		case 4: // schema/statistics epoch bump
			stmt := epochStmts[len(epochStmts)-1]
			if len(epochStmts) > 1 {
				stmt, epochStmts = epochStmts[0], epochStmts[1:]
			}
			seed(stmt)
		case 5: // node-ref select, run twice on the cached engine (hit path)
			q := nodeSelects[rng.Intn(len(nodeSelects))]
			want := outcome(ref.Exec(q))
			if got := outcome(cached.Exec(q)); got != want {
				t.Fatalf("round %d: node-ref cold diverged on %q:\n ref:    %q\n cached: %q", round, q, want, got)
			}
			if got := outcome(cached.Exec(q)); got != want {
				t.Fatalf("round %d: node-ref hit diverged on %q vs %q", round, q, want)
			}
		default: // TAKE checkout, compared as CO fingerprints
			q := takes[rng.Intn(len(takes))]
			refCO, err := ref.Exec(q)
			if err != nil {
				t.Fatalf("round %d: reference TAKE failed: %v", round, err)
			}
			gotCO, err := cached.Exec(q)
			if err != nil {
				t.Fatalf("round %d: cached TAKE failed: %v", round, err)
			}
			if coFingerprint(refCO.CO) != coFingerprint(gotCO.CO) {
				t.Fatalf("round %d: TAKE diverged on %q:\nref:\n%s\ncached:\n%s",
					round, q, coFingerprint(refCO.CO), coFingerprint(gotCO.CO))
			}
		}
	}
	st := cached.Engine().COCacheStats()
	if st.Hits == 0 || st.Invalidations == 0 || st.Evictions == 0 {
		t.Fatalf("harness missed hits, invalidations or epoch evictions: %+v", st)
	}
}

// TestDifferentialInterleavedTx extends the net to interleaved explicit
// transactions under MVCC: several sessions run randomized BEGIN ...
// COMMIT/ROLLBACK batches concurrently against one engine, and every
// transaction that actually committed is replayed, serially and in commit
// order, on a twin engine. The workload is constrained so snapshot-isolated
// commit order is state-equivalent to serial execution — shared keys are
// only UPDATEd (first-committer-wins orders all writers of a key), and each
// worker INSERTs/DELETEs only inside its own private key range — so the
// final table fingerprints must match exactly. Along the way each open
// transaction re-runs its SELECT probes and demands identical rows, which
// pins snapshot stability under concurrent committers. Statement failures
// are tolerated only when they are the documented retryable outcomes
// (write-write conflict, deadlock victim, lock timeout) or a unique-key
// violation; any other error fails the test.
func TestDifferentialInterleavedTx(t *testing.T) {
	const (
		workers  = 4
		txPerWkr = 40
		baseKeys = 24
	)
	ddl := `CREATE TABLE W1 (id INT PRIMARY KEY, n INT, g INT);
		CREATE TABLE W2 (id INT PRIMARY KEY, n INT, g INT)`
	var seedStmts []string
	for k := 0; k < baseKeys; k++ {
		seedStmts = append(seedStmts,
			fmt.Sprintf("INSERT INTO W1 VALUES (%d, %d, %d)", k, k*3, k%5),
			fmt.Sprintf("INSERT INTO W2 VALUES (%d, %d, %d)", k, -k, k%3))
	}

	live := NewDefault()
	ls := live.Session()
	ls.MustExec(ddl)
	for _, s := range seedStmts {
		ls.MustExec(s)
	}

	// committed collects each committed transaction's statements; commitMu is
	// held across COMMIT + append so slice order is engine commit order.
	var (
		commitMu  sync.Mutex
		committed [][]string
		aborted   atomic.Int64
	)
	retryable := func(err error) bool {
		return errors.Is(err, ErrWriteConflict) ||
			errors.Is(err, lock.ErrDeadlock) ||
			errors.Is(err, lock.ErrLockTimeout) ||
			strings.Contains(err.Error(), "violates unique index")
	}

	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := live.Session()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			privBase := 1000 * (w + 1)
			for txn := 0; txn < txPerWkr; txn++ {
				stmts := genTxStmts(rng, w, privBase, baseKeys)
				if _, err := s.Exec("BEGIN"); err != nil {
					errCh <- fmt.Errorf("worker %d: BEGIN: %v", w, err)
					return
				}
				ok := true
				for _, stmt := range stmts {
					if strings.HasPrefix(stmt, "SELECT") {
						r1, e1 := s.Exec(stmt)
						r2, e2 := s.Exec(stmt)
						if e1 != nil || e2 != nil {
							errCh <- fmt.Errorf("worker %d: probe %q: %v / %v", w, stmt, e1, e2)
							return
						}
						if outcome(r1, nil) != outcome(r2, nil) {
							errCh <- fmt.Errorf("worker %d: snapshot drifted between two runs of %q", w, stmt)
							return
						}
						continue
					}
					if _, err := s.Exec(stmt); err != nil {
						if !retryable(err) {
							errCh <- fmt.Errorf("worker %d: unexpected error on %q: %v", w, stmt, err)
							return
						}
						// The engine rolled the transaction back; discard it.
						aborted.Add(1)
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				if rng.Intn(8) == 0 {
					if _, err := s.Exec("ROLLBACK"); err != nil {
						errCh <- fmt.Errorf("worker %d: ROLLBACK: %v", w, err)
						return
					}
					continue
				}
				commitMu.Lock()
				if _, err := s.Exec("COMMIT"); err == nil {
					committed = append(committed, stmts)
				} else if !retryable(err) {
					commitMu.Unlock()
					errCh <- fmt.Errorf("worker %d: COMMIT: %v", w, err)
					return
				}
				commitMu.Unlock()
			}
			errCh <- nil
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	if len(committed) == 0 {
		t.Fatal("no transaction ever committed")
	}
	t.Logf("interleaved run: %d committed, %d conflict-aborted", len(committed), aborted.Load())

	// Serial replay on a twin, in commit order. Every statement that was part
	// of a committed transaction must replay cleanly.
	twin := NewDefault()
	ts := twin.Session()
	ts.MustExec(ddl)
	for _, s := range seedStmts {
		ts.MustExec(s)
	}
	for i, stmts := range committed {
		ts.MustExec("BEGIN")
		for _, stmt := range stmts {
			if _, err := ts.Exec(stmt); err != nil {
				t.Fatalf("replay tx %d: %q failed serially: %v", i, stmt, err)
			}
		}
		ts.MustExec("COMMIT")
	}

	for _, tbl := range []string{"W1", "W2"} {
		q := "SELECT id, n, g FROM " + tbl
		want := outcome(ts.Exec(q))
		got := outcome(ls.Exec(q))
		if got != want {
			t.Fatalf("final state of %s diverged from serial commit-order replay:\nreplay: %q\nlive:   %q",
				tbl, want, got)
		}
	}
}

// genTxStmts draws one transaction body. Shared base keys see UPDATEs only;
// worker w INSERTs/DELETEs solely inside [privBase, privBase+50) so no other
// session ever creates or removes a key this one targets — the constraint
// that makes serial commit-order replay exact under snapshot isolation.
func genTxStmts(rng *rand.Rand, w, privBase, baseKeys int) []string {
	var stmts []string
	for n := 1 + rng.Intn(4); n > 0; n-- {
		tbl := "W1"
		if rng.Intn(2) == 0 {
			tbl = "W2"
		}
		switch rng.Intn(6) {
		case 0:
			stmts = append(stmts, fmt.Sprintf("UPDATE %s SET n = n + %d WHERE id = %d",
				tbl, 1+rng.Intn(9), rng.Intn(baseKeys)))
		case 1:
			stmts = append(stmts, fmt.Sprintf("UPDATE %s SET n = %d, g = %d WHERE id = %d",
				tbl, rng.Intn(1000), rng.Intn(7), rng.Intn(baseKeys)))
		case 2:
			stmts = append(stmts, fmt.Sprintf("INSERT INTO %s VALUES (%d, %d, %d)",
				tbl, privBase+rng.Intn(50), rng.Intn(100), w))
		case 3:
			stmts = append(stmts, fmt.Sprintf("DELETE FROM %s WHERE id = %d",
				tbl, privBase+rng.Intn(50)))
		case 4:
			stmts = append(stmts, fmt.Sprintf("SELECT id, n FROM %s WHERE g = %d", tbl, rng.Intn(7)))
		default:
			stmts = append(stmts, fmt.Sprintf("SELECT COUNT(*), SUM(n) FROM %s", tbl))
		}
	}
	return stmts
}

package engine

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"sqlxnf/internal/cache"
	"sqlxnf/internal/types"
	"sqlxnf/internal/xnf"
)

// coFixture seeds an engine with the DEPT/EMP schema plus a disjoint TAGS
// table, an XNF view over the former, and one over the latter.
func coFixture(t *testing.T, opts ...func(*Options)) (*Engine, *Session) {
	t.Helper()
	o := DefaultOptions()
	for _, f := range opts {
		f(&o)
	}
	e := New(o)
	s := e.Session()
	s.MustExec(`CREATE TABLE DEPT (dno INT PRIMARY KEY, dname VARCHAR);
		CREATE TABLE EMP (eno INT PRIMARY KEY, ename VARCHAR, sal FLOAT, edno INT);
		CREATE INDEX emp_edno ON EMP (edno);
		CREATE TABLE TAGS (tid INT PRIMARY KEY, label VARCHAR)`)
	for d := 1; d <= 4; d++ {
		s.MustExec(fmt.Sprintf("INSERT INTO DEPT VALUES (%d, 'd%d')", d, d))
		for i := 0; i < 5; i++ {
			eno := d*10 + i
			s.MustExec(fmt.Sprintf("INSERT INTO EMP VALUES (%d, 'e%d', %d, %d)", eno, eno, 1000+eno, d))
		}
	}
	for i := 1; i <= 6; i++ {
		s.MustExec(fmt.Sprintf("INSERT INTO TAGS VALUES (%d, 't%d')", i, i))
	}
	s.MustExec(`CREATE VIEW DEPS AS
		OUT OF Xd AS DEPT, Xe AS EMP, emp AS (RELATE Xd, Xe WHERE Xd.dno = Xe.edno) TAKE *`)
	s.MustExec(`CREATE VIEW TAGV AS OUT OF Xt AS TAGS TAKE *`)
	return e, s
}

// coFingerprint canonicalizes a CO: every node's rows and every edge's
// connections (resolved to endpoint row renderings) as sorted multisets.
func coFingerprint(co *xnf.CO) string {
	var parts []string
	for _, n := range co.Nodes {
		lines := make([]string, len(n.Rows))
		for i, r := range n.Rows {
			lines[i] = r.String()
		}
		parts = append(parts, "node "+strings.ToUpper(n.Name)+"\n"+strings.Join(sortedCopy(lines), "\n"))
	}
	for _, e := range co.Edges {
		p, c := co.Node(e.Parent), co.Node(e.Child)
		lines := make([]string, len(e.Conns))
		for i, conn := range e.Conns {
			lines[i] = p.Rows[conn.P].String() + "->" + c.Rows[conn.C].String() + "/" + conn.Attrs.String()
		}
		parts = append(parts, "edge "+strings.ToUpper(e.Name)+"\n"+strings.Join(sortedCopy(lines), "\n"))
	}
	return strings.Join(sortedCopy(parts), "\n---\n")
}

func sortedCopy(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}

// coExact renders, in stored order, everything a writer could change in a
// CO: node rows, RIDs and column maps; edge connections with their
// endpoints, attributes and link-row RIDs.
func coExact(co *xnf.CO) string {
	var b strings.Builder
	for _, n := range co.Nodes {
		fmt.Fprintf(&b, "node %s %v base=%s colmap=%v root=%v rids=%v\n",
			n.Name, n.Schema, n.BaseTable, n.ColMap, n.Root, n.RIDs)
		for _, r := range n.Rows {
			b.WriteString(r.String() + "\n")
		}
	}
	for _, e := range co.Edges {
		fmt.Fprintf(&b, "edge %s %s->%s %v\n", e.Name, e.Parent, e.Child, e.AttrSchema)
		for _, c := range e.Conns {
			fmt.Fprintf(&b, "%d->%d %s %v\n", c.P, c.C, c.Attrs.String(), c.LinkRID)
		}
	}
	return b.String()
}

// coGuard catches writers into served COs. A cache hit hands every
// checkout the same resident CO, so the guard fingerprints each CO it is
// given and re-checks it when the same CO comes back and in verify: a
// fingerprint that moved means someone wrote into a CO that is read-only.
// Safe for concurrent use.
type coGuard struct {
	mu   sync.Mutex
	held map[*xnf.CO]string
}

func (g *coGuard) hold(t *testing.T, co *xnf.CO) {
	fp := coExact(co)
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.held == nil {
		g.held = map[*xnf.CO]string{}
	}
	if was, ok := g.held[co]; ok && was != fp {
		t.Errorf("a served CO changed between checkouts:\nwas:\n%s\nnow:\n%s", was, fp)
	}
	g.held[co] = fp
}

// verify re-fingerprints every held CO.
func (g *coGuard) verify(t *testing.T) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for co, was := range g.held {
		if now := coExact(co); now != was {
			t.Errorf("a served CO changed after it was handed out:\nwas:\n%s\nnow:\n%s", was, now)
		}
	}
}

const takeDeps = "OUT OF DEPS TAKE *"

// TestCOCacheTakeHit: repeated TAKE checkouts serve the cached
// materialization; component-table DML invalidates and the refetch sees
// the change.
func TestCOCacheTakeHit(t *testing.T) {
	e, s := coFixture(t)
	co0 := s.MustExec(takeDeps).CO
	st0 := e.COCacheStats()
	if st0.Misses != 1 || st0.Entries != 1 {
		t.Fatalf("first checkout stats = %+v", st0)
	}
	co1 := s.MustExec(takeDeps).CO
	st1 := e.COCacheStats()
	if st1.Hits != st0.Hits+1 {
		t.Fatalf("second checkout did not hit: %+v", st1)
	}
	if coFingerprint(co0) != coFingerprint(co1) {
		t.Fatal("cached checkout differs from cold materialization")
	}
	// DML to EMP invalidates; the refetch includes the new employee.
	s.MustExec("INSERT INTO EMP VALUES (999, 'new', 5000, 2)")
	co2 := s.MustExec(takeDeps).CO
	st2 := e.COCacheStats()
	if st2.Invalidations != 1 {
		t.Fatalf("DML did not invalidate: %+v", st2)
	}
	if len(co2.Node("Xe").Rows) != len(co1.Node("Xe").Rows)+1 {
		t.Fatalf("refetch missed the inserted employee: %d -> %d",
			len(co1.Node("Xe").Rows), len(co2.Node("Xe").Rows))
	}
}

// TestCOCacheFastPathTerminatedText: the parser-skipping fast path must
// hit for ';'-terminated input (what xnfsh submits) — the stored key comes
// from parser-delimited statement text, which ends before the terminator.
func TestCOCacheFastPathTerminatedText(t *testing.T) {
	e, s := coFixture(t)
	s.MustExec(takeDeps + ";")
	base := coFingerprint(s.MustExec(takeDeps).CO)
	hits0 := e.COCacheStats().Hits
	for _, variant := range []string{takeDeps + ";", takeDeps + " ;\n", "  " + takeDeps + ";;"} {
		r := s.MustExec(variant)
		if coFingerprint(r.CO) != base {
			t.Fatalf("terminated variant %q returned a different CO", variant)
		}
	}
	if st := e.COCacheStats(); st.Hits != hits0+3 {
		t.Fatalf("terminated variants missed the fast path: hits %d -> %d (stats %+v)",
			hits0, st.Hits, st)
	}
}

// TestCOCacheCommentNewlineKeysApart: two TAKEs that differ only by the
// newline ending a `--` comment — in the second the comment swallows the
// node restriction — must not share a CO-cache entry. Each checkout, on the
// fast path and on the parse path, must equal a fresh engine's.
func TestCOCacheCommentNewlineKeysApart(t *testing.T) {
	pair := []string{
		"OUT OF Xd AS DEPT --c\nWHERE Xd SUCH THAT dno = 1\nTAKE *",
		"OUT OF Xd AS DEPT --c WHERE Xd SUCH THAT dno = 1\nTAKE *",
	}
	paths := map[string]func(string) string{
		"fast path":  func(q string) string { return q },
		"parse path": func(q string) string { return "SELECT dname FROM DEPT WHERE dno = 0;\n" + q },
	}
	for name, script := range paths {
		_, s := coFixture(t)
		for _, q := range pair {
			_, fresh := coFixture(t)
			want := coFingerprint(fresh.MustExec(q).CO)
			for rep := 0; rep < 2; rep++ {
				if got := coFingerprint(s.MustExec(script(q)).CO); got != want {
					t.Errorf("%s: %q checked out\n%s\na fresh engine\n%s", name, q, got, want)
				}
			}
		}
	}
}

// residentKeys lists the CO-cache keys, sorted.
func residentKeys(e *Engine) []string {
	var keys []string
	for _, en := range e.COCacheEntries() {
		keys = append(keys, en.Key)
	}
	sort.Strings(keys)
	return keys
}

// TestCOCacheInvalidationPrecision: a commit to one CO's component table
// drops exactly the entries that read it, at the commit; an entry over
// disjoint tables stays resident and keeps serving hits.
func TestCOCacheInvalidationPrecision(t *testing.T) {
	e, s := coFixture(t)
	s.MustExec("OUT OF TAGV TAKE *")
	tagOnly := residentKeys(e)
	s.MustExec(takeDeps)
	if got := residentKeys(e); len(got) != 2 {
		t.Fatalf("resident after two checkouts: %q", got)
	}
	s.MustExec("INSERT INTO EMP VALUES (999, 'new', 5000, 2)") // touches DEPS only
	if got := residentKeys(e); strings.Join(got, "|") != strings.Join(tagOnly, "|") {
		t.Fatalf("after DML to EMP resident = %q, want only %q", got, tagOnly)
	}
	if st := e.COCacheStats(); st.Invalidations != 1 {
		t.Fatalf("DML to EMP dropped %d entries, want 1: %+v", st.Invalidations, st)
	}
	hits0 := e.COCacheStats().Hits
	s.MustExec("OUT OF TAGV TAKE *") // must still hit
	s.MustExec("OUT OF TAGV TAKE *")
	if st := e.COCacheStats(); st.Hits != hits0+2 || st.Invalidations != 1 {
		t.Fatalf("non-dependent entry stopped hitting after unrelated DML: %+v", st)
	}
}

// TestCommitPurgesStaleCOs: the commit of a write to EMP removes every
// EMP-dependent entry and its resident bytes at once, before any checkout
// touches them; an uncommitted or rolled-back write removes nothing, and an
// entry over TAGS keeps hitting throughout.
func TestCommitPurgesStaleCOs(t *testing.T) {
	e, s := coFixture(t)
	s.MustExec("OUT OF TAGV TAKE *")
	tagOnly := e.COCacheStats()
	s.MustExec(takeDeps)
	s.MustExec("OUT OF Xe AS EMP TAKE *")
	full := e.COCacheStats()
	if full.Entries != 3 || full.ResidentBytes <= tagOnly.ResidentBytes {
		t.Fatalf("three checkouts left %+v", full)
	}
	for _, end := range []string{"ROLLBACK", "COMMIT"} {
		s.MustExec("BEGIN")
		s.MustExec("INSERT INTO EMP VALUES (999, 'new', 5000, 2)")
		if st := e.COCacheStats(); st.Entries != 3 {
			t.Fatalf("an uncommitted write dropped entries: %+v", st)
		}
		s.MustExec(end)
	}
	st := e.COCacheStats()
	if st.Entries != 1 || st.ResidentBytes != tagOnly.ResidentBytes {
		t.Fatalf("after the commit: %d entries, %d resident bytes; want 1 and %d (TAGV alone)",
			st.Entries, st.ResidentBytes, tagOnly.ResidentBytes)
	}
	if st.Invalidations != 2 {
		t.Fatalf("commit dropped %d entries, want the 2 over EMP", st.Invalidations)
	}
	s.MustExec("OUT OF TAGV TAKE *")
	if got := e.COCacheStats().Hits; got != st.Hits+1 {
		t.Fatal("the entry over TAGS stopped hitting")
	}
	if n := len(s.MustExec(takeDeps).CO.Node("Xe").Rows); n != 21 {
		t.Fatalf("refetch after the purge has %d employees, want 21", n)
	}
}

// TestCOCacheHitSharesResidentCO: a checkout hands out the cache-resident
// CO itself, on every path that serves it — the miss that stored it, the
// parser-skipping fast path, the parse path (a multi-statement script), an
// explicit transaction and another session.
func TestCOCacheHitSharesResidentCO(t *testing.T) {
	e, s := coFixture(t)
	resident := s.MustExec(takeDeps).CO
	hits := e.COCacheStats().Hits
	var guard coGuard
	guard.hold(t, resident)
	for _, c := range []struct {
		name string
		sess *Session
		sql  string
	}{
		{"fast path", s, takeDeps},
		{"parse path", s, takeDeps + "; " + takeDeps},
		{"other session", e.Session(), takeDeps},
	} {
		if co := c.sess.MustExec(c.sql).CO; co != resident {
			t.Fatalf("%s: checkout returned a different CO than the resident one", c.name)
		}
	}
	s.MustExec("BEGIN")
	if co := s.MustExec(takeDeps).CO; co != resident {
		t.Fatal("explicit transaction: checkout returned a different CO than the resident one")
	}
	s.MustExec("COMMIT")
	// The script runs two checkouts: five hits in all.
	if got := e.COCacheStats().Hits; got != hits+5 {
		t.Fatalf("hits = %d, want %d", got, hits+5)
	}
	guard.verify(t)
}

// TestCOCacheHitCostIndependentOfSize: a warm checkout costs the same
// allocations and bytes whether the resident CO holds 10 tuples or 1 000 —
// nothing on the hit path copies the CO.
func TestCOCacheHitCostIndependentOfSize(t *testing.T) {
	e := NewDefault()
	s := e.Session()
	s.MustExec(`CREATE TABLE SMALL (id INT PRIMARY KEY, v INT);
		CREATE TABLE BIG (id INT PRIMARY KEY, v INT)`)
	for i := 0; i < 1000; i++ {
		if i < 10 {
			s.MustExec(fmt.Sprintf("INSERT INTO SMALL VALUES (%d, %d)", i, i))
		}
		s.MustExec(fmt.Sprintf("INSERT INTO BIG VALUES (%d, %d)", i, i))
	}
	const runs = 200
	perHit := func(q string, tuples int) (allocs, bytes float64) {
		if n := s.MustExec(q).CO.Size(); n != tuples {
			t.Fatalf("%q: CO has %d tuples, want %d", q, n, tuples)
		}
		hits := e.COCacheStats().Hits
		allocs = testing.AllocsPerRun(runs, func() { s.MustExec(q) })
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			s.MustExec(q)
		}
		runtime.ReadMemStats(&m1)
		// AllocsPerRun adds one warm-up call.
		if got := e.COCacheStats().Hits - hits; got != 2*runs+1 {
			t.Fatalf("%q: %d hits, want %d", q, got, 2*runs+1)
		}
		return allocs, float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	}
	smallAllocs, smallBytes := perHit("OUT OF Xs AS SMALL TAKE *", 10)
	bigAllocs, bigBytes := perHit("OUT OF Xb AS BIG TAKE *", 1000)
	t.Logf("per hit: 10 tuples %.0f allocs %.0f B, 1000 tuples %.0f allocs %.0f B",
		smallAllocs, smallBytes, bigAllocs, bigBytes)
	if bigAllocs-smallAllocs > 1 {
		t.Errorf("a 1000-tuple hit allocates %.0f times, a 10-tuple hit %.0f", bigAllocs, smallAllocs)
	}
	if bigBytes-smallBytes >= 1024 {
		t.Errorf("a 1000-tuple hit allocates %.0f B, a 10-tuple hit %.0f B", bigBytes, smallBytes)
	}
}

// TestCOCacheDisabled: a negative budget turns the subsystem off.
func TestCOCacheDisabled(t *testing.T) {
	e, s := coFixture(t, func(o *Options) { o.COCacheBytes = -1 })
	s.MustExec(takeDeps)
	s.MustExec(takeDeps)
	if st := e.COCacheStats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("disabled CO cache has activity: %+v", st)
	}
	// Node references still work (uncached path).
	if got := len(s.MustExec(`SELECT eno FROM "DEPS.Xe"`).Rows); got != 20 {
		t.Fatalf("node-ref rows = %d, want 20", got)
	}
}

// TestCOCacheViewSharedAcrossStatements: a TAKE over the view and a
// node-ref SELECT share the "VIEW:DEPS" materialization with the view's
// own checkout.
func TestCOCacheNodeRefSharesViewEntry(t *testing.T) {
	e, s := coFixture(t)
	s.MustExec(`SELECT COUNT(*) FROM "DEPS.Xe"`) // materializes VIEW:DEPS
	misses0 := e.COCacheStats().Misses
	s.MustExec(`SELECT COUNT(*) FROM "DEPS.Xd"`) // same view, other node
	st := e.COCacheStats()
	if st.Misses != misses0 {
		t.Fatalf("second node of the same view re-materialized: %+v", st)
	}
	if st.Hits == 0 {
		t.Fatalf("node-ref execution did not hit the view entry: %+v", st)
	}
}

// TestCOCacheNodeRefFreshAfterDML re-pins the original regression: node-ref
// queries must never serve a stale snapshot, now from the cache layer.
func TestCOCacheNodeRefFreshAfterDML(t *testing.T) {
	_, s := coFixture(t)
	q := `SELECT COUNT(*) FROM "DEPS.Xe"`
	n0 := s.MustExec(q).Rows[0][0].Int()
	s.MustExec("INSERT INTO EMP VALUES (998, 'x', 100, 1)")
	if n1 := s.MustExec(q).Rows[0][0].Int(); n1 != n0+1 {
		t.Fatalf("node-ref query served stale data: %d -> %d", n0, n1)
	}
	s.MustExec("DELETE FROM EMP WHERE eno = 998")
	if n2 := s.MustExec(q).Rows[0][0].Int(); n2 != n0 {
		t.Fatalf("node-ref query stale after delete: %d, want %d", n2, n0)
	}
}

// TestCOCacheUncommittedWritesStayPrivate: a transaction's own writes are
// visible to its checkouts, but a concurrent session blocks on locks and
// sees only the committed (or rolled-back) state afterwards.
func TestCOCacheRollbackInvalidates(t *testing.T) {
	e, s := coFixture(t)
	before := len(s.MustExec(takeDeps).CO.Node("Xe").Rows)
	s.MustExec("BEGIN")
	s.MustExec("INSERT INTO EMP VALUES (999, 'ghost', 1, 1)")
	// The transaction's own checkout sees its uncommitted insert.
	if got := len(s.MustExec(takeDeps).CO.Node("Xe").Rows); got != before+1 {
		t.Fatalf("own uncommitted write invisible: %d, want %d", got, before+1)
	}
	s.MustExec("ROLLBACK")
	// The in-transaction checkout was private (the transaction wrote EMP)
	// and versions bump only at commit, so the entry from before the
	// transaction still serves the committed state.
	if got := len(s.MustExec(takeDeps).CO.Node("Xe").Rows); got != before {
		t.Fatalf("rolled-back write leaked into the cache: %d, want %d", got, before)
	}
	_ = e
}

// TestUnservedCheckoutCountsNoHit: a transaction whose snapshot predates the
// resident entry is not served by it. Its checkout evaluates under the
// snapshot, returns the old state, and counts one miss and no hit, neither
// in the cache's counters nor on the entry.
func TestUnservedCheckoutCountsNoHit(t *testing.T) {
	e, s := coFixture(t)
	s.MustExec(takeDeps)
	a := e.Session()
	a.MustExec("BEGIN")
	a.MustExec("SELECT COUNT(*) FROM DEPT")
	s.MustExec("UPDATE EMP SET sal = sal + 1000 WHERE eno = 10")
	s.MustExec(takeDeps)
	entryHits := func() int64 {
		for _, en := range e.COCacheEntries() {
			if en.Key == "CO:"+takeDeps {
				return en.Hits
			}
		}
		t.Fatal("no resident entry for the TAKE")
		return 0
	}
	st0, hits0 := e.COCacheStats(), entryHits()
	co := a.MustExec(takeDeps).CO
	a.MustExec("COMMIT")
	var sal float64
	for _, r := range co.Node("Xe").Rows {
		if r[0].Int() == 10 {
			sal = r[2].Float()
		}
	}
	if sal != 1010 {
		t.Fatalf("the transaction's checkout read sal = %v, want its snapshot's 1010", sal)
	}
	st := e.COCacheStats()
	if st.Hits != st0.Hits || entryHits() != hits0 || st.Misses != st0.Misses+1 {
		t.Fatalf("unserved checkout: hits %d -> %d, entry hits %d -> %d, misses %d -> %d; want +0, +0, +1",
			st0.Hits, st.Hits, hits0, entryHits(), st0.Misses, st.Misses)
	}
}

// TestCOCacheConcurrentSessions drives TAKE checkouts, node-ref SELECTs and
// DML from many sessions against one engine (run with -race): results must
// stay internally consistent and the suite must be data-race free. Sessions
// on different goroutines share resident COs, so the checkout arms
// fingerprint every CO they receive (coGuard), load it into a navigation
// cache and write into the loaded copy; every held CO is checked again at
// the end.
func TestCOCacheConcurrentSessions(t *testing.T) {
	e, s := coFixture(t)
	// DEPTAGS adds a link-table edge with attributes over tables no arm
	// writes, so its entry keeps serving hits to every goroutine.
	s.MustExec(`CREATE TABLE DT (ddno INT, dtid INT, w INT);
		INSERT INTO DT VALUES (1, 1, 10), (1, 2, 20), (2, 2, 30), (3, 5, 40);
		CREATE VIEW DEPTAGS AS
		 OUT OF Xd AS DEPT, Xt AS TAGS,
		  tagged AS (RELATE Xd, Xt WITH ATTRIBUTES DT.w USING DT
		   WHERE Xd.dno = DT.ddno AND Xt.tid = DT.dtid)
		 TAKE *`)
	var guard coGuard
	checkout := func(sess *Session, q string) error {
		r, err := sess.Exec(q)
		if err != nil {
			return err
		}
		guard.hold(t, r.CO)
		if err := r.CO.Validate(); err != nil {
			return err
		}
		if err := r.CO.CheckReachability(); err != nil {
			return err
		}
		c, err := cache.Load(sess, r.CO)
		if err != nil {
			return err
		}
		for _, n := range c.Nodes() {
			for _, tp := range n.Tuples {
				tp.Row[0] = types.NewString("scribbled")
			}
		}
		for _, ed := range c.Edges() {
			for _, l := range ed.Links {
				for i := range l.Attrs {
					l.Attrs[i] = types.NewInt(-1)
				}
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := e.Session()
			for i := 0; i < 30; i++ {
				switch (g + i) % 5 {
				case 0:
					if err := checkout(sess, takeDeps); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := sess.Exec(`SELECT ename FROM "DEPS.Xe" WHERE sal > 0`); err != nil {
						t.Error(err)
						return
					}
				case 2:
					if err := checkout(sess, "OUT OF TAGV TAKE *"); err != nil {
						t.Error(err)
						return
					}
				case 3:
					eno := 2000 + g*100 + i
					if _, err := sess.Exec(fmt.Sprintf(
						"INSERT INTO EMP VALUES (%d, 'c%d', 1500, %d)", eno, eno, 1+i%4)); err != nil {
						t.Error(err)
						return
					}
				case 4:
					if err := checkout(sess, "OUT OF DEPTAGS TAKE *"); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	guard.verify(t)
	// The final checkout reflects every committed insert.
	final := e.Session().MustExec(takeDeps).CO
	emp, err := e.Catalog().Table("EMP")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(final.Node("Xe").Rows); int64(got) != emp.RowCount() {
		t.Fatalf("final CO has %d employees, table has %d", got, emp.RowCount())
	}
	if st := e.COCacheStats(); st.Hits == 0 {
		t.Fatalf("concurrent checkouts never shared a resident CO: %+v", st)
	}
}

// TestNodeRefInDMLPredicates: UPDATE and DELETE predicates may embed an
// EXISTS subquery over FROM "VIEW.NODE"; their execution contexts must
// carry the node-reference handle (regression: the DML paths built bare
// contexts and failed with "no NodeRows handle bound").
func TestNodeRefInDMLPredicates(t *testing.T) {
	_, s := coFixture(t)
	r := s.MustExec(`UPDATE EMP SET sal = 1 WHERE EXISTS (
		SELECT eno FROM "DEPS.Xe" x WHERE x.eno = EMP.eno AND x.edno = 1)`)
	if r.RowsAffected != 5 {
		t.Fatalf("UPDATE via node-ref EXISTS affected %d rows, want 5", r.RowsAffected)
	}
	r = s.MustExec(`DELETE FROM EMP WHERE EXISTS (
		SELECT eno FROM "DEPS.Xe" x WHERE x.eno = EMP.eno AND x.sal = 1)`)
	if r.RowsAffected != 5 {
		t.Fatalf("DELETE via node-ref EXISTS affected %d rows, want 5", r.RowsAffected)
	}
	if got := s.MustExec("SELECT COUNT(*) FROM EMP").Rows[0][0].Int(); got != 15 {
		t.Fatalf("EMP rows after delete = %d, want 15", got)
	}
}

// TestExplainNodeRefCoCache: EXPLAIN surfaces the CO-cache state of
// node-reference plans.
func TestExplainNodeRefCoCache(t *testing.T) {
	e, s := coFixture(t)
	// Cold engine: the first resolution materializes (miss at build time).
	ex0 := s.MustExec(`EXPLAIN SELECT ename FROM "DEPS.Xe"`).Explain
	if !strings.Contains(ex0, "NodeRef DEPS.Xe (co-cache miss)") {
		t.Fatalf("first EXPLAIN missing co-cache miss marker:\n%s", ex0)
	}
	ex1 := s.MustExec(`EXPLAIN SELECT ename FROM "DEPS.Xe"`).Explain
	if !strings.Contains(ex1, "NodeRef DEPS.Xe (co-cache hit)") {
		t.Fatalf("second EXPLAIN missing co-cache hit marker:\n%s", ex1)
	}
	_ = e
}

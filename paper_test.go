package sqlxnf

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sqlxnf/internal/lw90"
	"sqlxnf/internal/oo1"
	"sqlxnf/internal/workload"
)

// TestPaperFigures pins what each paper experiment E1–E13 computes, one
// subtest per figure or section of the paper (PAPER.md) its name gives:
// the composite objects of Figures 1–8 and §3–§4, their counts and
// the cost counters the paper's claims rest on. The Benchmark E* functions
// (bench_test.go) time the same experiments; this test holds their
// semantics. Every engine runs without the CO cache, so each TAKE is a real
// materialization.
func TestPaperFigures(t *testing.T) {
	cfg := benchCompanyConfig()

	t.Run("E1_Fig1Construct", func(t *testing.T) {
		db := companyDB(t, cfg)
		co := mustCO(t, db, workload.CompanyCOQuery(cfg, 7))
		wantCO(t, co, "CO{Xdept*:1 Xemp:10 Xproj:3 Xskills:10 employment(Xdept->Xemp):10 "+
			"ownership(Xdept->Xproj):3 empproperty(Xemp->Xskills):10}")
		if err := co.CheckReachability(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("E2_RepIndependence", func(t *testing.T) {
		var shapes []string
		for _, link := range []bool{false, true} {
			c := cfg
			c.LinkTable = link
			co := mustCO(t, companyDB(t, c), workload.CompanyCOQuery(c, 7))
			if emp, conn := len(co.Node("Xemp").Rows), co.ConnCount(); emp != 10 || conn != 23 {
				t.Fatalf("link=%v: emp=%d conn=%d, want 10 and 23", link, emp, conn)
			}
			shapes = append(shapes, co.String())
		}
		if shapes[0] != shapes[1] {
			t.Fatalf("representations differ:\n%s\n%s", shapes[0], shapes[1])
		}
	})

	t.Run("E3_ViewsOverViews", func(t *testing.T) {
		db := companyViewsDB(t)
		wantCO(t, mustCO(t, db, "OUT OF ALL_DEPS TAKE *"),
			"CO{Xdept*:30 Xemp:300 Xproj:90 employment(Xdept->Xemp):300 ownership(Xdept->Xproj):90}")
		org := mustCO(t, db, "OUT OF ALL_DEPS_ORG TAKE *")
		wantCO(t, org, "CO{Xdept*:30 Xproj:90 Xemp:300 ownership(Xdept->Xproj):90 "+
			"membership(Xproj->Xemp):300 employment(Xdept->Xemp):300}")
		if got := org.Edge("membership").AttrSchema.Names(); !reflect.DeepEqual(got, []string{"percentage"}) {
			t.Fatalf("membership attributes = %v", got)
		}
	})

	t.Run("E4_Restriction", func(t *testing.T) {
		db := companyViewsDB(t)
		wantCO(t, mustCO(t, db, "OUT OF ALL_DEPS WHERE Xemp e SUCH THAT e.sal < 2000 TAKE *"),
			"CO{Xdept*:30 Xemp:79 Xproj:90 employment(Xdept->Xemp):79 ownership(Xdept->Xproj):90}")
		wantCO(t, mustCO(t, db, `OUT OF ALL_DEPS
			WHERE employment (d, e) SUCH THAT e.sal < d.budget/200
			TAKE Xdept(*), Xemp(*), employment`),
			"CO{Xdept*:30 Xemp:105 employment(Xdept->Xemp):105}")
	})

	t.Run("E5_RecursiveCO", func(t *testing.T) {
		db := companyViewsDB(t)
		wantCO(t, mustCO(t, db, `OUT OF EXT_ALL_DEPS_ORG
			WHERE Xdept SUCH THAT loc = 'NY'
			TAKE Xdept(*), employment, Xemp(*), projmanagement, membership(*), Xproj(*)`),
			"CO{Xdept*:6 Xemp:182 Xproj:45 projmanagement(Xemp->Xproj):45 "+
				"membership(Xproj->Xemp):151 employment(Xdept->Xemp):60}")
	})

	t.Run("E6_PathExpr", func(t *testing.T) {
		db := companyViewsDB(t)
		count := mustCO(t, db, `OUT OF EXT_ALL_DEPS_ORG
			WHERE Xdept d SUCH THAT COUNT(d->employment->projmanagement) >= 1 TAKE *`)
		exists := mustCO(t, db, `OUT OF EXT_ALL_DEPS_ORG
			WHERE Xdept d SUCH THAT
			 EXISTS d->employment->(Xemp e WHERE e.sal > 2000)->projmanagement->Xproj TAKE *`)
		if c, e := len(count.Node("Xdept").Rows), len(exists.Node("Xdept").Rows); c != 30 || e != 28 {
			t.Fatalf("COUNT path keeps %d departments, EXISTS path %d; want 30 and 28", c, e)
		}
	})

	t.Run("E7_Closure", func(t *testing.T) {
		db := companyViewsDB(t)
		// (4) NF→NF and (3) XNF→NF return tables; (1) NF→XNF and
		// (2) XNF→XNF return composite objects.
		if n := mustQuery(t, db, "SELECT COUNT(*) FROM EMP WHERE sal > 2000").Rows[0][0].Int(); n != 221 {
			t.Fatalf("NF→NF count = %d, want 221", n)
		}
		wantCO(t, mustCO(t, db, workload.CompanyCOQuery(cfg, 3)),
			"CO{Xdept*:1 Xemp:10 Xproj:3 Xskills:10 employment(Xdept->Xemp):10 "+
				"ownership(Xdept->Xproj):3 empproperty(Xemp->Xskills):10}")
		wantCO(t, mustCO(t, db, "OUT OF ALL_DEPS WHERE Xemp e SUCH THAT e.sal > 2000 TAKE *"),
			"CO{Xdept*:30 Xemp:221 Xproj:90 employment(Xdept->Xemp):221 ownership(Xdept->Xproj):90}")
		if n := mustQuery(t, db, `SELECT COUNT(*) FROM "ALL_DEPS.Xemp"`).Rows[0][0].Int(); n != 300 {
			t.Fatalf("XNF→NF count = %d, want 300", n)
		}
	})

	t.Run("E8_CursorOps", func(t *testing.T) {
		db := companyViewsDB(t)
		c, err := db.QueryCache("OUT OF ALL_DEPS TAKE *")
		if err != nil {
			t.Fatal(err)
		}
		cur, _ := c.Open("Xemp")
		scanned := 0
		for cur.Next() {
			scanned++
		}
		hops := 0
		cur, _ = c.Open("Xdept")
		for cur.Next() {
			dep, _ := cur.OpenDependent("employment")
			for dep.Next() {
				hops++
			}
		}
		if scanned != 300 || hops != 300 {
			t.Fatalf("scan %d, 1-hop navigation %d; want 300 and 300", scanned, hops)
		}
		cur, _ = c.Open("Xemp")
		cur.Next()
		tup := cur.Tuple()
		if err := c.Update(tup, "sal", NewFloat(1234)); err != nil {
			t.Fatal(err)
		}
		r := mustQuery(t, db, "SELECT sal FROM EMP WHERE eno = "+tup.MustValue("eno").SQLLiteral())
		if len(r.Rows) != 1 || r.Rows[0][0].Float() != 1234 || c.Stats.WriteBacks != 1 {
			t.Fatalf("write-back not visible: rows=%v stats=%+v", r.Rows, c.Stats)
		}
	})

	t.Run("E9_CompilePipeline", func(t *testing.T) {
		db := companyDB(t, cfg)
		sql := "SELECT d.dname, e.ename FROM DEPT d, EMP e WHERE d.dno = e.edno AND e.sal > 2000"
		ex := mustQuery(t, db, "EXPLAIN "+sql).Explain
		for _, section := range []string{"-- QGM --", "-- after rewrite --", "-- plan --"} {
			if !strings.Contains(ex, section) {
				t.Fatalf("EXPLAIN lacks %q:\n%s", section, ex)
			}
		}
		plan := ex[strings.Index(ex, "-- plan --")+len("-- plan --\n"):]
		want := `HashJoin #2=#0 [dname ename]
  Filter (#1 > 2000)
    SeqScan EMP [ename sal edno] (est rows=300)
  SeqScan DEPT [dno dname] (est rows=30)
`
		if plan != want {
			t.Fatalf("plan:\n%s\nwant:\n%s", plan, want)
		}
		if n := len(mustQuery(t, db, sql).Rows); n != 221 {
			t.Fatalf("query returned %d rows", n)
		}
	})

	t.Run("E10_OO1", func(t *testing.T) {
		const parts = 2000
		db := openPaper()
		s := db.Session()
		if err := oo1.Load(s, oo1.Config{Parts: parts, Seed: 42}); err != nil {
			t.Fatal(err)
		}
		c, err := oo1.LoadCache(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, start := range []int{1, 1000, 2000} {
			viaCache, err := oo1.TraverseCache(c, start, 7)
			if err != nil {
				t.Fatal(err)
			}
			viaSQL, err := oo1.TraverseSQL(s, start, 7)
			if err != nil {
				t.Fatal(err)
			}
			// 3 connections per part: 1+3+…+3^7 visits at depth 7.
			if viaCache != viaSQL || viaCache.Visited != 3280 {
				t.Fatalf("traverse from %d: cache %+v, SQL %+v", start, viaCache, viaSQL)
			}
		}
		viaCache, err := oo1.LookupCache(c, rand.New(rand.NewSource(2)), parts, 1000)
		if err != nil {
			t.Fatal(err)
		}
		viaSQL, err := oo1.LookupSQL(s, rand.New(rand.NewSource(2)), parts, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if viaCache != viaSQL || viaCache == 0 {
			t.Fatalf("lookup: cache sum %d, SQL sum %d", viaCache, viaSQL)
		}
	})

	t.Run("E11_Extraction", func(t *testing.T) {
		design := lw90Design()
		for _, tc := range []struct {
			comps, tuples int
			lw90Queries   int64
		}{{4, 21, 6}, {16, 81, 18}, {64, 321, 66}} {
			db := openPaper()
			s := db.Session()
			// 20 designs keep the (model-3, version 1) working set and cut the
			// load; selectivity is not pinned.
			cfg := workload.DesignConfig{Designs: 20, CompsPerDesign: tc.comps, SubsPerComp: 4, Seed: 7}
			if _, err := workload.LoadDesign(s, cfg); err != nil {
				t.Fatal(err)
			}
			before := db.Stats().StatementsTotal
			co := mustCO(t, db, workload.WorkingSetQuery("model-3", 1))
			if n := db.Stats().StatementsTotal - before; n != 1 {
				t.Fatalf("XNF extraction ran %d statements", n)
			}
			objs, st, err := lw90.Instantiate(s, design, "model = 'model-3' AND version = 1")
			if err != nil {
				t.Fatal(err)
			}
			if co.Size() != tc.tuples || lw90.Count(objs) != tc.tuples || st.Queries != tc.lw90Queries {
				t.Fatalf("%d comps: XNF %d tuples, LW90 %d objects in %d queries; want %d tuples, %d queries",
					tc.comps, co.Size(), lw90.Count(objs), st.Queries, tc.tuples, tc.lw90Queries)
			}
		}
	})

	t.Run("E12_Clustering", func(t *testing.T) {
		// Page reads over 20 cold-pool extractions: 2.0 per extract
		// CO-clustered, 17.35 per-table, at every pool size.
		for _, pool := range []int{8, 32, 128} {
			for _, tc := range []struct {
				clustered bool
				reads     int64
			}{{true, 40}, {false, 347}} {
				db := openPaper(WithBufferPool(pool))
				cfg := workload.CompanyConfig{Departments: 100, EmpsPerDept: 20,
					ProjsPerDept: 5, SkillsPerEmp: 0, Seed: 3, Clustered: tc.clustered, Scatter: true}
				if _, err := workload.LoadCompany(db.Session(), cfg); err != nil {
					t.Fatal(err)
				}
				eng := db.Engine()
				var reads int64
				for i := 0; i < 20; i++ {
					if err := eng.BufferPool().DropAll(); err != nil {
						t.Fatal(err)
					}
					eng.Disk().ResetStats()
					mustCO(t, db, workload.CompanyCOQuery(cfg, 1+i))
					reads += eng.Disk().Stats().Reads
				}
				if reads != tc.reads {
					t.Fatalf("pool %d clustered=%v: %d page reads, want %d",
						pool, tc.clustered, reads, tc.reads)
				}
			}
		}
	})

	t.Run("E13_CSE", func(t *testing.T) {
		// Node derivations are NodeQueries plus the partner re-derivations
		// the recompute ablation runs before each edge query.
		var shapes []string
		var derivations []int64
		for _, opts := range [][]Option{nil, {WithoutCommonSubexpressions()}} {
			db := companyDB(t, cfg, opts...)
			shapes = append(shapes, mustCO(t, db, workload.CompanyCOQuery(cfg, 11)).String())
			ev := db.Stats().Eval
			derivations = append(derivations, ev.NodeQueries+ev.RecomputedNodes)
		}
		if shapes[0] != shapes[1] {
			t.Fatalf("shared and recomputed COs differ:\n%s\n%s", shapes[0], shapes[1])
		}
		if derivations[0] != 4 || derivations[1] != 10 {
			t.Fatalf("node derivations: shared %d, recomputed %d; want 4 and 10", derivations[0], derivations[1])
		}
	})
}

// TestPaperBenchmarksMaterialize guards the paper benchmarks against timing
// CO-cache hits: two runs of one TAKE through the shared helper must both
// reach the evaluator.
func TestPaperBenchmarksMaterialize(t *testing.T) {
	cfg := benchCompanyConfig()
	db := companyDB(t, cfg)
	q := workload.CompanyCOQuery(cfg, 7)
	mustCO(t, db, q)
	once := db.Stats().Eval.NodeQueries
	mustCO(t, db, q)
	st := db.Stats()
	if st.COCache.Hits != 0 || once == 0 || st.Eval.NodeQueries != 2*once {
		t.Fatalf("CO cache hits %d; node queries %d after one run, %d after two",
			st.COCache.Hits, once, st.Eval.NodeQueries)
	}
}

// companyViewsDB loads the benchmark company database with the Fig. 3 views.
func companyViewsDB(t *testing.T) *DB {
	t.Helper()
	db := companyDB(t, benchCompanyConfig())
	companyViews(t, db)
	return db
}

func mustCO(t *testing.T, db *DB, q string) *CO {
	t.Helper()
	co, err := db.QueryCO(q)
	if err != nil {
		t.Fatal(err)
	}
	return co
}

func mustQuery(t *testing.T, db *DB, q string) *Result {
	t.Helper()
	r, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func wantCO(t *testing.T, co *CO, want string) {
	t.Helper()
	if got := co.String(); got != want {
		t.Fatalf("CO = %s\nwant %s", got, want)
	}
}

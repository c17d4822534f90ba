// Benchmarks timing every paper experiment E1–E13 of TestPaperFigures
// (paper_test.go). Each benchmark corresponds to a figure or a performance
// claim of the paper (PAPER.md), named in its comment; TestPaperFigures
// pins what each experiment computes. Every engine here runs without the
// CO cache, so the benchmarks time composite-object materialization, not
// cache hits; BenchmarkCOCheckoutHit (bench_co_test.go) is the cache-hit
// arm.
package sqlxnf

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sqlxnf/internal/lw90"
	"sqlxnf/internal/oo1"
	"sqlxnf/internal/parser"
	"sqlxnf/internal/qgm"
	"sqlxnf/internal/rewrite"
	"sqlxnf/internal/workload"
)

// openPaper opens an engine for the paper experiments: the CO cache is off
// so repeated TAKEs re-materialize instead of hitting the cache.
func openPaper(opts ...Option) *DB {
	return Open(append([]Option{WithoutCOCache()}, opts...)...)
}

// companyDB loads a company database for the paper experiments.
func companyDB(tb testing.TB, cfg workload.CompanyConfig, opts ...Option) *DB {
	tb.Helper()
	db := openPaper(opts...)
	if _, err := workload.LoadCompany(db.Session(), cfg); err != nil {
		tb.Fatal(err)
	}
	return db
}

func benchCompanyConfig() workload.CompanyConfig {
	return workload.CompanyConfig{Departments: 30, EmpsPerDept: 10, ProjsPerDept: 3, SkillsPerEmp: 1, Seed: 1}
}

// E1 — Fig. 1: constructing the 'company organizational unit' CO with
// reachability and shared skills.
func BenchmarkE1_Fig1Construct(b *testing.B) {
	cfg := benchCompanyConfig()
	db := companyDB(b, cfg)
	q := workload.CompanyCOQuery(cfg, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		co, err := db.QueryCO(q)
		if err != nil {
			b.Fatal(err)
		}
		if co.Size() == 0 {
			b.Fatal("empty CO")
		}
	}
}

// E2 — Fig. 2: the same CO from the implicit-FK representation (CDB1) and
// the explicit link-table representation (CDB2).
func BenchmarkE2_RepIndependence(b *testing.B) {
	for _, arm := range []struct {
		name string
		link bool
	}{{"fk", false}, {"link_table", true}} {
		b.Run(arm.name, func(b *testing.B) {
			cfg := benchCompanyConfig()
			cfg.LinkTable = arm.link
			db := companyDB(b, cfg)
			q := workload.CompanyCOQuery(cfg, 7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.QueryCO(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// companyViews installs ALL_DEPS / ALL_DEPS_ORG / EXT_ALL_DEPS_ORG.
func companyViews(tb testing.TB, db *DB) {
	tb.Helper()
	db.MustExec(`CREATE TABLE EMPPROJ (epeno INT, eppno INT, percentage FLOAT)`)
	// Wire some memberships: employee k works on project k%numProjects.
	s := db.Session()
	r := db.MustExec("SELECT eno FROM EMP")
	p := db.MustExec("SELECT pno FROM PROJ")
	for i, row := range r.Rows {
		proj := p.Rows[i%len(p.Rows)][0]
		s.MustExec(fmt.Sprintf("INSERT INTO EMPPROJ VALUES (%v, %v, %d)", row[0], proj, 10+i%90))
	}
	db.MustExec(`CREATE VIEW ALL_DEPS AS
	OUT OF Xdept AS DEPT, Xemp AS EMP, Xproj AS PROJ,
	 employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno),
	 ownership AS (RELATE Xdept, Xproj WHERE Xdept.dno = Xproj.pdno)
	TAKE *`)
	db.MustExec(`CREATE VIEW ALL_DEPS_ORG AS
	OUT OF ALL_DEPS,
	 membership AS (RELATE Xproj, Xemp
		WITH ATTRIBUTES ep.percentage
		USING EMPPROJ ep
		WHERE Xproj.pno = ep.eppno AND Xemp.eno = ep.epeno)
	TAKE *`)
	db.MustExec(`CREATE VIEW EXT_ALL_DEPS_ORG AS
	OUT OF ALL_DEPS_ORG,
	 projmanagement AS (RELATE Xemp, Xproj WHERE Xemp.eno = Xproj.pmgrno)
	TAKE *`)
}

// E3 — Fig. 3: evaluating a view over a view with an attributed
// relationship.
func BenchmarkE3_ViewsOverViews(b *testing.B) {
	db := companyDB(b, benchCompanyConfig())
	companyViews(b, db)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.QueryCO("OUT OF ALL_DEPS_ORG TAKE *"); err != nil {
			b.Fatal(err)
		}
	}
}

// E4 — §3.3: node restriction and edge restriction.
func BenchmarkE4_Restriction(b *testing.B) {
	db := companyDB(b, benchCompanyConfig())
	companyViews(b, db)
	b.Run("node", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.QueryCO("OUT OF ALL_DEPS WHERE Xemp e SUCH THAT e.sal < 2000 TAKE *"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("edge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.QueryCO(`OUT OF ALL_DEPS
				WHERE employment (d, e) SUCH THAT e.sal < d.budget/100
				TAKE Xdept(*), Xemp(*), employment`); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E5 — Fig. 4/5: recursive CO evaluation with restriction and projection.
func BenchmarkE5_RecursiveCO(b *testing.B) {
	db := companyDB(b, benchCompanyConfig())
	companyViews(b, db)
	q := `OUT OF EXT_ALL_DEPS_ORG
		WHERE Xdept SUCH THAT loc = 'NY'
		TAKE Xdept(*), employment, Xemp(*), projmanagement, membership(*), Xproj(*)`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.QueryCO(q); err != nil {
			b.Fatal(err)
		}
	}
}

// E5 ablation — semi-naive vs naive reachability fixpoint on the recursive
// CO of the paper's §3.4 (Fig. 4/5); TestPaperFigures' E5 pins that CO.
func BenchmarkE5_FixpointAblation(b *testing.B) {
	for _, arm := range []struct {
		name string
		opts []Option
	}{{"semi_naive", nil}, {"naive", []Option{WithNaiveFixpoint()}}} {
		b.Run(arm.name, func(b *testing.B) {
			db := companyDB(b, benchCompanyConfig(), arm.opts...)
			companyViews(b, db)
			q := "OUT OF EXT_ALL_DEPS_ORG TAKE *"
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.QueryCO(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E5 ablation, deep-chain arm: a 3000-tuple successor chain gives the
// reachability fixpoint a 3000-round diameter — the regime where semi-naive
// frontier propagation beats re-scanning every connection each round.
func BenchmarkE5_FixpointDeepChain(b *testing.B) {
	for _, arm := range []struct {
		name string
		opts []Option
	}{{"semi_naive", nil}, {"naive", []Option{WithNaiveFixpoint()}}} {
		b.Run(arm.name, func(b *testing.B) {
			db := openPaper(arm.opts...)
			s := db.Session()
			db.MustExec("CREATE TABLE CHAIN (id INT PRIMARY KEY, next INT)")
			const n = 3000
			for i := 0; i < n; i += 200 {
				var sb strings.Builder
				sb.WriteString("INSERT INTO CHAIN VALUES ")
				for j := i; j < i+200 && j < n; j++ {
					if j > i {
						sb.WriteString(", ")
					}
					fmt.Fprintf(&sb, "(%d, %d)", j, j+1)
				}
				s.MustExec(sb.String())
			}
			// Anchor at the head; succ is cyclic at the schema level, so the
			// evaluator must run the instance-level fixpoint for reachability.
			q := `OUT OF
				Xhead AS (SELECT * FROM CHAIN WHERE id = 0),
				Xnode AS CHAIN,
				first AS (RELATE Xhead, Xnode WHERE Xhead.id = Xnode.id),
				succ AS (RELATE Xnode AS cur, Xnode AS nxt WHERE cur.next = nxt.id)
			TAKE *`
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				co, err := db.QueryCO(q)
				if err != nil {
					b.Fatal(err)
				}
				if len(co.Node("Xnode").Rows) != n {
					b.Fatalf("chain reachability broken: %d", len(co.Node("Xnode").Rows))
				}
			}
		})
	}
}

// E6 — §3.5: path expressions in restrictions (COUNT and qualified EXISTS).
func BenchmarkE6_PathExpr(b *testing.B) {
	db := companyDB(b, benchCompanyConfig())
	companyViews(b, db)
	b.Run("count", func(b *testing.B) {
		q := `OUT OF EXT_ALL_DEPS_ORG
			WHERE Xdept d SUCH THAT COUNT(d->employment->projmanagement) >= 1
			TAKE *`
		for i := 0; i < b.N; i++ {
			if _, err := db.QueryCO(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("qualified_exists", func(b *testing.B) {
		q := `OUT OF EXT_ALL_DEPS_ORG
			WHERE Xdept d SUCH THAT
			 EXISTS d->employment->(Xemp e WHERE e.sal > 2000)->projmanagement->Xproj
			TAKE *`
		for i := 0; i < b.N; i++ {
			if _, err := db.QueryCO(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E7 — Fig. 6: the four closure classes.
func BenchmarkE7_Closure(b *testing.B) {
	db := companyDB(b, benchCompanyConfig())
	companyViews(b, db)
	b.Run("nf_to_nf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Query("SELECT COUNT(*) FROM EMP WHERE sal > 2000"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nf_to_xnf", func(b *testing.B) {
		q := workload.CompanyCOQuery(benchCompanyConfig(), 3)
		for i := 0; i < b.N; i++ {
			if _, err := db.QueryCO(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("xnf_to_xnf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.QueryCO("OUT OF ALL_DEPS WHERE Xemp e SUCH THAT e.sal > 2000 TAKE *"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("xnf_to_nf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(`SELECT COUNT(*) FROM "ALL_DEPS.Xemp"`); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E8 — §3.7/§4.2: cursor navigation and udi operations over the cache.
func BenchmarkE8_CursorOps(b *testing.B) {
	db := companyDB(b, benchCompanyConfig())
	companyViews(b, db)
	c, err := db.QueryCache("OUT OF ALL_DEPS TAKE *")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("independent_scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cur, _ := c.Open("Xemp")
			n := 0
			for cur.Next() {
				n++
			}
		}
	})
	b.Run("dependent_navigation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cur, _ := c.Open("Xdept")
			for cur.Next() {
				dep, _ := cur.OpenDependent("employment")
				for dep.Next() {
				}
			}
		}
	})
	b.Run("update_writeback", func(b *testing.B) {
		cur, _ := c.Open("Xemp")
		cur.Next()
		t := cur.Tuple()
		for i := 0; i < b.N; i++ {
			if err := c.Update(t, "sal", NewFloat(float64(1000+i%100))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E9 — Fig. 8: the compilation pipeline, stage by stage.
func BenchmarkE9_CompilePipeline(b *testing.B) {
	db := companyDB(b, benchCompanyConfig())
	sql := `SELECT d.dname, e.ename FROM DEPT d, EMP e WHERE d.dno = e.edno AND e.sal > 2000`
	cat := db.Engine().Catalog()
	b.Run("parse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := parser.ParseOne(sql); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("semantic_qgm", func(b *testing.B) {
		st, _ := parser.ParseOne(sql)
		sel := st.(*parser.SelectStmt)
		for i := 0; i < b.N; i++ {
			if _, err := qgm.NewBuilder(cat, nil).BuildSelect(sel); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rewrite", func(b *testing.B) {
		st, _ := parser.ParseOne(sql)
		sel := st.(*parser.SelectStmt)
		for i := 0; i < b.N; i++ {
			box, _ := qgm.NewBuilder(cat, nil).BuildSelect(sel)
			rewrite.Rewrite(box, rewrite.DefaultOptions())
		}
	})
	b.Run("end_to_end", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(sql); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E10 — the headline claim: cache navigation vs SQL-per-step on the Cattell
// OO1 workload.
func oo1Setup(b *testing.B, parts int) (*DB, *Cache) {
	b.Helper()
	db := openPaper()
	s := db.Session()
	if err := oo1.Load(s, oo1.Config{Parts: parts, Seed: 42}); err != nil {
		b.Fatal(err)
	}
	c, err := oo1.LoadCache(s)
	if err != nil {
		b.Fatal(err)
	}
	return db, c
}

func BenchmarkE10_OO1_TraverseCache(b *testing.B) {
	_, c := oo1Setup(b, 2000)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := 1 + rng.Intn(2000)
		if _, err := oo1.TraverseCache(c, start, 7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10_OO1_TraverseSQL(b *testing.B) {
	db, _ := oo1Setup(b, 2000)
	s := db.Session()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := 1 + rng.Intn(2000)
		if _, err := oo1.TraverseSQL(s, start, 7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10_OO1_LookupCache(b *testing.B) {
	_, c := oo1Setup(b, 2000)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oo1.LookupCache(c, rng, 2000, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10_OO1_LookupSQL(b *testing.B) {
	db, _ := oo1Setup(b, 2000)
	s := db.Session()
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oo1.LookupSQL(s, rng, 2000, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10_OO1_InsertSQL(b *testing.B) {
	db, _ := oo1Setup(b, 2000)
	s := db.Session()
	rng := rand.New(rand.NewSource(3))
	next := 1000000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := oo1.InsertSQL(s, rng, next, 100, 2000); err != nil {
			b.Fatal(err)
		}
		next += 100
	}
}

// E11 — working-set extraction: one set-oriented XNF query vs per-object
// instantiation (LW90) at high selectivity.
func designSetup(b *testing.B) *DB {
	b.Helper()
	db := openPaper()
	cfg := workload.DesignConfig{Designs: 1000, CompsPerDesign: 6, SubsPerComp: 4, Seed: 7}
	if _, err := workload.LoadDesign(db.Session(), cfg); err != nil {
		b.Fatal(err)
	}
	return db
}

func BenchmarkE11_Extraction_XNF(b *testing.B) {
	db := designSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model := fmt.Sprintf("model-%d", i%250)
		co, err := db.QueryCO(workload.WorkingSetQuery(model, 1))
		if err != nil {
			b.Fatal(err)
		}
		if co.Size() == 0 {
			b.Fatal("empty working set")
		}
	}
}

// lw90Design is the design → component → subcomponent object model the
// LW90 baseline instantiates one parent at a time.
func lw90Design() *lw90.ObjectType {
	sub := &lw90.ObjectType{Name: "Sub", Table: "SUBCOMP", KeyCol: "sid"}
	comp := &lw90.ObjectType{Name: "Component", Table: "COMPONENTS", KeyCol: "cid",
		Children: []lw90.ChildSpec{{Name: "subs", Type: sub, FKCol: "scid"}}}
	return &lw90.ObjectType{Name: "Design", Table: "DESIGNS", KeyCol: "did",
		Children: []lw90.ChildSpec{{Name: "components", Type: comp, FKCol: "cdid"}}}
}

func BenchmarkE11_Extraction_LW90(b *testing.B) {
	db := designSetup(b)
	s := db.Session()
	design := lw90Design()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model := fmt.Sprintf("model-%d", i%250)
		objs, _, err := lw90.Instantiate(s, design, fmt.Sprintf("model = '%s' AND version = 1", model))
		if err != nil {
			b.Fatal(err)
		}
		if lw90.Count(objs) == 0 {
			b.Fatal("empty instantiation")
		}
	}
}

// E12 — §4: composite-object clustering vs per-table layout, measured in
// cold-buffer page reads per working-set extraction.
func BenchmarkE12_Clustering(b *testing.B) {
	for _, arm := range []struct {
		name      string
		clustered bool
	}{{"clustered", true}, {"per_table", false}} {
		b.Run(arm.name, func(b *testing.B) {
			db := openPaper(WithBufferPool(16)) // small pool → real I/O
			cfg := workload.CompanyConfig{Departments: 100, EmpsPerDept: 20,
				ProjsPerDept: 5, SkillsPerEmp: 0, Seed: 3, Clustered: arm.clustered, Scatter: true}
			if _, err := workload.LoadCompany(db.Session(), cfg); err != nil {
				b.Fatal(err)
			}
			eng := db.Engine()
			b.ResetTimer()
			var reads int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := eng.BufferPool().DropAll(); err != nil {
					b.Fatal(err)
				}
				eng.Disk().ResetStats()
				b.StartTimer()
				if _, err := db.QueryCO(workload.CompanyCOQuery(cfg, 1+i%100)); err != nil {
					b.Fatal(err)
				}
				reads += eng.Disk().Stats().Reads
			}
			b.ReportMetric(float64(reads)/float64(b.N), "page-reads/op")
		})
	}
}

// E13 — §4.3: common subexpression sharing across the generated node/edge
// queries, against the recompute ablation.
func BenchmarkE13_CSE(b *testing.B) {
	for _, arm := range []struct {
		name string
		opts []Option
	}{{"shared", nil}, {"recomputed", []Option{WithoutCommonSubexpressions()}}} {
		b.Run(arm.name, func(b *testing.B) {
			cfg := benchCompanyConfig()
			db := companyDB(b, cfg, arm.opts...)
			q := workload.CompanyCOQuery(cfg, 11)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.QueryCO(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

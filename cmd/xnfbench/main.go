// xnfbench regenerates the paper's experiments (DESIGN.md E1–E13) and
// prints one section per experiment with the measured rows/series the
// reproduction reports in EXPERIMENTS.md.
//
// Usage:
//
//	xnfbench              # run every experiment
//	xnfbench -exp e10     # run one experiment
//	xnfbench -scale 2     # scale workload sizes
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sqlxnf"
	"sqlxnf/internal/catalog"
	"sqlxnf/internal/engine"
	"sqlxnf/internal/exec"
	"sqlxnf/internal/lw90"
	"sqlxnf/internal/oo1"
	"sqlxnf/internal/storage"
	"sqlxnf/internal/types"
	"sqlxnf/internal/workload"
)

var (
	expFlag   = flag.String("exp", "", "run only the named experiment (e1..e13)")
	scaleFlag = flag.Int("scale", 1, "workload scale factor")
	jsonFlag  = flag.Bool("json", false, "also write machine-readable BENCH_<exp>.json files for experiments that support it")
)

func main() {
	flag.Parse()
	exps := []struct {
		id   string
		name string
		run  func(scale int)
	}{
		{"e1", "Fig. 1 — CO construction with reachability", runE1},
		{"e2", "Fig. 2 — representation independence", runE2},
		{"e3", "Fig. 3 — views over views, attributed relationship", runE3},
		{"e4", "§3.3 — node and edge restriction", runE4},
		{"e5", "Fig. 4/5 — recursive CO with restriction", runE5},
		{"e6", "§3.5 — path expressions", runE6},
		{"e7", "Fig. 6 — closure: four query classes", runE7},
		{"e8", "§3.7 — cache cursors and udi operations", runE8},
		{"e9", "Fig. 8 — compilation pipeline", runE9},
		{"e10", "Cattell OO1 — cache navigation vs SQL-per-step", runE10},
		{"e11", "Intro — working-set extraction vs per-object instantiation", runE11},
		{"e12", "§4 — composite-object clustering (page I/O)", runE12},
		{"e13", "§4.3 — common subexpression sharing", runE13},
		{"e15", "Prepared-plan cache — repeated queries, hit vs cold compile", runE15},
		{"e16", "Parameterized prepared statements — one compile, many bindings", runE16},
		{"e17", "Morsel-driven parallel execution — multicore scan, join, aggregation", runE17},
		{"e18", "Composite-object cache — repeated checkout vs cold materialization", runE18},
		{"e19", "MVCC snapshot reads — reader throughput under a sustained writer", runE19},
		{"e21", "Durable WAL — commit throughput by sync policy and writer count", runE21},
		{"e23", "Observability — statement-tracing overhead and unified metrics snapshot", runE23},
	}
	ran := false
	for _, e := range exps {
		if *expFlag != "" && !strings.EqualFold(*expFlag, e.id) {
			continue
		}
		fmt.Printf("==== %s: %s ====\n", strings.ToUpper(e.id), e.name)
		e.run(*scaleFlag)
		fmt.Println()
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *expFlag)
		os.Exit(1)
	}
}

// timeIt measures avg wall time of fn over n runs.
func timeIt(n int, fn func()) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return time.Since(start) / time.Duration(n)
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func companyCfg(scale int) workload.CompanyConfig {
	return workload.CompanyConfig{Departments: 30 * scale, EmpsPerDept: 10,
		ProjsPerDept: 3, SkillsPerEmp: 1, Seed: 1}
}

func loadCompany(cfg workload.CompanyConfig, opts ...sqlxnf.Option) *sqlxnf.DB {
	// The paper-reproduction experiments (E1–E13) time composite-object
	// *materialization*; the CO cache would turn their repeated runs into
	// cache fetches and measure the wrong thing, so it stays off here. E18
	// measures the cache itself on its own engine.
	opts = append([]sqlxnf.Option{sqlxnf.WithoutCOCache()}, opts...)
	db := sqlxnf.Open(opts...)
	must(workload.LoadCompany(db.Session(), cfg))
	return db
}

func runE1(scale int) {
	cfg := companyCfg(scale)
	db := loadCompany(cfg)
	co := must(db.QueryCO(workload.CompanyCOQuery(cfg, 7)))
	d := timeIt(20, func() { must(db.QueryCO(workload.CompanyCOQuery(cfg, 7))) })
	fmt.Printf("  database: %d departments x %d employees\n", cfg.Departments, cfg.EmpsPerDept)
	fmt.Printf("  CO of department 7: %s\n", co)
	fmt.Printf("  construction time: %v\n", d)
	fmt.Printf("  reachability constraint verified: %v\n", co.CheckReachability() == nil)
}

func runE2(scale int) {
	fmt.Printf("  %-14s %-24s %s\n", "representation", "CO (dept 7)", "time")
	for _, link := range []bool{false, true} {
		cfg := companyCfg(scale)
		cfg.LinkTable = link
		db := loadCompany(cfg)
		co := must(db.QueryCO(workload.CompanyCOQuery(cfg, 7)))
		d := timeIt(20, func() { must(db.QueryCO(workload.CompanyCOQuery(cfg, 7))) })
		name := "CDB1 (FK)"
		if link {
			name = "CDB2 (link)"
		}
		fmt.Printf("  %-14s emp=%-3d conn=%-10d %v\n", name,
			len(co.Node("Xemp").Rows), co.ConnCount(), d)
	}
	fmt.Println("  → identical abstraction from both representations (Fig. 2)")
}

func installViews(db *sqlxnf.DB) {
	s := db.Session()
	db.MustExec(`CREATE TABLE EMPPROJ (epeno INT, eppno INT, percentage FLOAT)`)
	emps := db.MustExec("SELECT eno FROM EMP")
	projs := db.MustExec("SELECT pno FROM PROJ")
	for i, row := range emps.Rows {
		s.MustExec(fmt.Sprintf("INSERT INTO EMPPROJ VALUES (%v, %v, %d)",
			row[0], projs.Rows[i%len(projs.Rows)][0], 10+i%90))
	}
	db.MustExec(`CREATE VIEW ALL_DEPS AS
	OUT OF Xdept AS DEPT, Xemp AS EMP, Xproj AS PROJ,
	 employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno),
	 ownership AS (RELATE Xdept, Xproj WHERE Xdept.dno = Xproj.pdno)
	TAKE *;
	CREATE VIEW ALL_DEPS_ORG AS
	OUT OF ALL_DEPS,
	 membership AS (RELATE Xproj, Xemp WITH ATTRIBUTES ep.percentage
		USING EMPPROJ ep WHERE Xproj.pno = ep.eppno AND Xemp.eno = ep.epeno)
	TAKE *;
	CREATE VIEW EXT_ALL_DEPS_ORG AS
	OUT OF ALL_DEPS_ORG,
	 projmanagement AS (RELATE Xemp, Xproj WHERE Xemp.eno = Xproj.pmgrno)
	TAKE *`)
}

func runE3(scale int) {
	db := loadCompany(companyCfg(scale))
	installViews(db)
	base := must(db.QueryCO("OUT OF ALL_DEPS TAKE *"))
	org := must(db.QueryCO("OUT OF ALL_DEPS_ORG TAKE *"))
	d := timeIt(10, func() { must(db.QueryCO("OUT OF ALL_DEPS_ORG TAKE *")) })
	fmt.Printf("  ALL_DEPS:      %s\n", base)
	fmt.Printf("  ALL_DEPS_ORG:  %s\n", org)
	fmt.Printf("  evaluation:    %v\n", d)
	fmt.Printf("  membership attribute schema: %v\n", org.Edge("membership").AttrSchema.Names())
}

func runE4(scale int) {
	db := loadCompany(companyCfg(scale))
	installViews(db)
	node := must(db.QueryCO("OUT OF ALL_DEPS WHERE Xemp e SUCH THAT e.sal < 2000 TAKE *"))
	edge := must(db.QueryCO(`OUT OF ALL_DEPS
		WHERE employment (d, e) SUCH THAT e.sal < d.budget/200
		TAKE Xdept(*), Xemp(*), employment`))
	fmt.Printf("  node restriction (sal<2000):  %s\n", node)
	fmt.Printf("  edge restriction + projection: %s\n", edge)
}

func runE5(scale int) {
	db := loadCompany(companyCfg(scale))
	installViews(db)
	q := `OUT OF EXT_ALL_DEPS_ORG
		WHERE Xdept SUCH THAT loc = 'NY'
		TAKE Xdept(*), employment, Xemp(*), projmanagement, membership(*), Xproj(*)`
	co := must(db.QueryCO(q))
	d := timeIt(10, func() { must(db.QueryCO(q)) })
	fmt.Printf("  Fig. 5 result: %s\n", co)
	fmt.Printf("  evaluation:    %v (recursive schema graph, fixpoint reachability)\n", d)
}

func runE6(scale int) {
	db := loadCompany(companyCfg(scale))
	installViews(db)
	count := must(db.QueryCO(`OUT OF EXT_ALL_DEPS_ORG
		WHERE Xdept d SUCH THAT COUNT(d->employment->projmanagement) >= 1 TAKE *`))
	exists := must(db.QueryCO(`OUT OF EXT_ALL_DEPS_ORG
		WHERE Xdept d SUCH THAT
		 EXISTS d->employment->(Xemp e WHERE e.sal > 2000)->projmanagement->Xproj TAKE *`))
	fmt.Printf("  COUNT(path) restriction keeps %d departments\n", len(count.Node("Xdept").Rows))
	fmt.Printf("  qualified EXISTS path keeps   %d departments\n", len(exists.Node("Xdept").Rows))
}

func runE7(scale int) {
	cfg := companyCfg(scale)
	db := loadCompany(cfg)
	installViews(db)
	rows := []struct {
		class string
		run   func()
	}{
		{"(4) NF→NF  ", func() { must(db.Query("SELECT COUNT(*) FROM EMP WHERE sal > 2000")) }},
		{"(1) NF→XNF ", func() { must(db.QueryCO(workload.CompanyCOQuery(cfg, 3))) }},
		{"(2) XNF→XNF", func() { must(db.QueryCO("OUT OF ALL_DEPS WHERE Xemp e SUCH THAT e.sal > 2000 TAKE *")) }},
		{"(3) XNF→NF ", func() { must(db.Query(`SELECT COUNT(*) FROM "ALL_DEPS.Xemp"`)) }},
	}
	fmt.Printf("  %-12s %s\n", "class", "time")
	for _, r := range rows {
		fmt.Printf("  %-12s %v\n", r.class, timeIt(10, r.run))
	}
}

func runE8(scale int) {
	db := loadCompany(companyCfg(scale))
	installViews(db)
	c := must(db.QueryCache("OUT OF ALL_DEPS TAKE *"))
	scan := timeIt(50, func() {
		cur, _ := c.Open("Xemp")
		for cur.Next() {
		}
	})
	nav := timeIt(50, func() {
		cur, _ := c.Open("Xdept")
		for cur.Next() {
			dep, _ := cur.OpenDependent("employment")
			for dep.Next() {
			}
		}
	})
	cur, _ := c.Open("Xemp")
	cur.Next()
	tup := cur.Tuple()
	upd := timeIt(50, func() {
		if err := c.Update(tup, "sal", sqlxnf.NewFloat(1234)); err != nil {
			panic(err)
		}
	})
	fmt.Printf("  independent scan of Xemp:      %v\n", scan)
	fmt.Printf("  dependent navigation (1 hop):  %v\n", nav)
	fmt.Printf("  update with write-back:        %v\n", upd)
	fmt.Printf("  cache stats: %+v\n", c.Stats)
}

func runE9(scale int) {
	db := loadCompany(companyCfg(scale))
	sql := "SELECT d.dname, e.ename FROM DEPT d, EMP e WHERE d.dno = e.edno AND e.sal > 2000"
	r := must(db.Query("EXPLAIN " + sql))
	fmt.Println("  EXPLAIN output (QGM → rewrite → plan):")
	for _, line := range strings.Split(strings.TrimRight(r.Explain, "\n"), "\n") {
		fmt.Println("   ", line)
	}
	fmt.Printf("  end-to-end: %v\n", timeIt(20, func() { must(db.Query(sql)) }))
}

func runE10(scale int) {
	parts := 2000 * scale
	db := sqlxnf.Open()
	s := db.Session()
	if err := oo1.Load(s, oo1.Config{Parts: parts, Seed: 42}); err != nil {
		panic(err)
	}
	c := must(oo1.LoadCache(s))
	rng := rand.New(rand.NewSource(1))
	const depth = 7
	cacheT := timeIt(5, func() {
		must(oo1.TraverseCache(c, 1+rng.Intn(parts), depth))
	})
	sqlT := timeIt(3, func() {
		must(oo1.TraverseSQL(s, 1+rng.Intn(parts), depth))
	})
	lkCache := timeIt(5, func() { must(oo1.LookupCache(c, rng, parts, 1000)) })
	lkSQL := timeIt(3, func() { must(oo1.LookupSQL(s, rng, parts, 1000)) })
	fmt.Printf("  OO1 database: %d parts, %d connections\n", parts, parts*3)
	fmt.Printf("  %-22s %-14s %-14s %s\n", "operation", "XNF cache", "regular SQL", "speedup")
	fmt.Printf("  %-22s %-14v %-14v %.0fx\n", "traversal (depth 7)", cacheT, sqlT, float64(sqlT)/float64(cacheT))
	fmt.Printf("  %-22s %-14v %-14v %.0fx\n", "lookup (1000 parts)", lkCache, lkSQL, float64(lkSQL)/float64(lkCache))
	fmt.Println("  → the paper's 'orders of magnitude over the regular SQL interface'")
}

func runE11(scale int) {
	sub := &lw90.ObjectType{Name: "Sub", Table: "SUBCOMP", KeyCol: "sid"}
	comp := &lw90.ObjectType{Name: "Component", Table: "COMPONENTS", KeyCol: "cid",
		Children: []lw90.ChildSpec{{Name: "subs", Type: sub, FKCol: "scid"}}}
	design := &lw90.ObjectType{Name: "Design", Table: "DESIGNS", KeyCol: "did",
		Children: []lw90.ChildSpec{{Name: "components", Type: comp, FKCol: "cdid"}}}
	fmt.Printf("  %-10s %-10s %-14s %-10s %-14s %-8s %s\n",
		"ws size", "XNF time", "XNF queries", "LW90 time", "LW90 queries", "ratio", "selectivity")
	for _, comps := range []int{4, 16, 64} {
		db := sqlxnf.Open(sqlxnf.WithoutCOCache())
		s := db.Session()
		cfg := workload.DesignConfig{Designs: 500 * scale, CompsPerDesign: comps, SubsPerComp: 4, Seed: 7}
		total := must(workload.LoadDesign(s, cfg))
		co := must(db.QueryCO(workload.WorkingSetQuery("model-3", 1)))
		xnfT := timeIt(10, func() { must(db.QueryCO(workload.WorkingSetQuery("model-3", 1))) })
		var queries int64
		lwT := timeIt(10, func() {
			_, st, err := lw90.Instantiate(s, design, "model = 'model-3' AND version = 1")
			if err != nil {
				panic(err)
			}
			queries = st.Queries
		})
		// One XNF statement; internally 3 node + 2 edge derivations.
		fmt.Printf("  %-10d %-10v %-14d %-10v %-14d %-8.1f %.4f%%\n",
			co.Size(), xnfT, 1, lwT, queries, float64(lwT)/float64(xnfT),
			100*float64(co.Size())/float64(total))
	}
	fmt.Println("  → set-oriented extraction wins increasingly with working-set size")
}

func runE12(scale int) {
	// Both layouts load with scattered (aged) insertion order; CO clustering
	// co-locates each department's tuples regardless, per-table layout
	// scatters them across pages. Extraction is one organizational unit,
	// cold buffer pool, counting physical page reads.
	fmt.Printf("  %-12s %-10s %-18s %s\n", "layout", "pool", "page reads/extract", "time/extract")
	for _, pool := range []int{8, 32, 128} {
		for _, clustered := range []bool{true, false} {
			db := sqlxnf.Open(sqlxnf.WithBufferPool(pool), sqlxnf.WithoutCOCache())
			cfg := workload.CompanyConfig{Departments: 100 * scale, EmpsPerDept: 20,
				ProjsPerDept: 5, SkillsPerEmp: 0, Seed: 3, Clustered: clustered, Scatter: true}
			must(workload.LoadCompany(db.Session(), cfg))
			eng := db.Engine()
			var reads int64
			const n = 20
			start := time.Now()
			for i := 0; i < n; i++ {
				if err := eng.BufferPool().DropAll(); err != nil {
					panic(err)
				}
				eng.Disk().ResetStats()
				must(db.QueryCO(workload.CompanyCOQuery(cfg, 1+i)))
				reads += eng.Disk().Stats().Reads
			}
			el := time.Since(start) / n
			name := "per-table"
			if clustered {
				name = "CO-cluster"
			}
			fmt.Printf("  %-12s %-10d %-18.1f %v\n", name, pool, float64(reads)/n, el)
		}
	}
}

// runE15 measures the repeated-query (prepared) workload: the same
// statements executed over and over against one engine, with the plan cache
// enabled (hit path: normalize → lock → pooled plan → execute) versus
// disabled (cold path: parse → QGM → rewrite → optimize → execute each
// call). Statistics are ANALYZEd so both arms plan with the same estimates.
func runE15(scale int) {
	cfg := workload.CompanyConfig{Departments: 50 * scale, EmpsPerDept: 20,
		ProjsPerDept: 5, SkillsPerEmp: 1, Seed: 9}
	queries := []struct {
		name string
		sql  string
	}{
		{"point lookup", "SELECT dname FROM DEPT WHERE dno = 7"},
		{"indexed join", "SELECT d.dname, e.ename FROM DEPT d, EMP e WHERE d.dno = e.edno AND e.sal > 2500"},
		{"group-agg", "SELECT edno, COUNT(*), AVG(sal) FROM EMP GROUP BY edno"},
	}
	const reps = 400
	fmt.Printf("  workload: %d departments x %d employees, %d executions per query\n",
		cfg.Departments, cfg.EmpsPerDept, reps)
	fmt.Printf("  %-14s %-14s %-14s %s\n", "query", "cold compile", "cache hit", "speedup")
	for _, q := range queries {
		var times [2]time.Duration
		for arm, opts := range [][]sqlxnf.Option{{sqlxnf.WithoutPlanCache()}, nil} {
			db := loadCompany(cfg, opts...)
			db.MustExec("ANALYZE")
			db.MustExec(q.sql) // warm: first execution compiles and caches
			times[arm] = timeIt(reps, func() { must(db.Query(q.sql)) })
		}
		fmt.Printf("  %-14s %-14v %-14v %.1fx\n", q.name, times[0], times[1],
			float64(times[0])/float64(times[1]))
	}
	db := loadCompany(cfg)
	db.MustExec("ANALYZE")
	for i := 0; i < 50; i++ {
		must(db.Query(queries[0].sql))
	}
	st := db.Engine().PlanCacheStats()
	fmt.Printf("  cache stats after 50 repeats: hits=%d misses=%d entries=%d\n",
		st.Hits, st.Misses, st.Entries)
	fmt.Println("  → repeated composite-object queries hit a cached physical plan, not the compiler")
}

// runE16 measures the parameterized prepared-statement workload: the same
// statement shape executed with a sweep of distinct constants. Literal
// extraction keys the plan cache on the statement shape (`dno = ?`), so the
// sweep compiles once and binds per execution — cache entries stay
// O(statement shapes) instead of O(distinct literals). The contrast arm runs
// a non-parameterizable shape (ORDER BY makes literals structural), which
// still keys per literal text exactly as the PR 2 cache did: a sweep wider
// than the cache churns it end to end.
func runE16(scale int) {
	cfg := workload.CompanyConfig{Departments: 300, EmpsPerDept: 4,
		ProjsPerDept: 2, SkillsPerEmp: 1, Seed: 9}
	db := loadCompany(cfg)
	db.MustExec("ANALYZE")
	const reps = 4000
	fmt.Printf("  workload: %d departments; %d executions per arm; cache capacity %d entries\n",
		cfg.Departments, reps, engine.DefaultPlanCacheSize)

	// Arm 1: repeated identical literal (the PR 2 hit path, now bound).
	db.MustExec("SELECT dname FROM DEPT WHERE dno = 7")
	fixed := timeIt(reps, func() { must(db.Query("SELECT dname FROM DEPT WHERE dno = 7")) })
	st0 := db.Engine().PlanCacheStats()

	// Arm 2: the same shape sweeping distinct constants — one entry, all
	// bind-at-execute hits.
	i := 0
	swept := timeIt(reps, func() {
		must(db.Query(fmt.Sprintf("SELECT dname FROM DEPT WHERE dno = %d", i%cfg.Departments)))
		i++
	})
	st1 := db.Engine().PlanCacheStats()

	// Contrast arm: a non-parameterizable shape keys per literal text; a
	// sweep wider than the cache capacity recompiles and evicts constantly.
	j := 0
	literalKeyed := timeIt(reps, func() {
		must(db.Query(fmt.Sprintf(
			"SELECT dname FROM DEPT WHERE dno = %d ORDER BY dname", j%cfg.Departments)))
		j++
	})
	st2 := db.Engine().PlanCacheStats()

	fmt.Printf("  %-34s %-12s %s\n", "arm", "avg/exec", "cache deltas")
	fmt.Printf("  %-34s %-12v (baseline)\n", "same literal, repeated", fixed)
	fmt.Printf("  %-34s %-12v entries +%d, hits +%d, evictions +%d\n",
		"distinct literals, parameterized", swept,
		st1.Entries-st0.Entries, st1.Hits-st0.Hits, st1.Evictions-st0.Evictions)
	fmt.Printf("  %-34s %-12v entries +%d, misses +%d, evictions +%d\n",
		"distinct literals, literal-keyed", literalKeyed,
		st2.Entries-st1.Entries, st2.Misses-st1.Misses, st2.Evictions-st1.Evictions)
	fmt.Printf("  swept-bind overhead vs fixed-literal hit: %.2fx (acceptance bound 1.5x)\n",
		float64(swept)/float64(fixed))
	fmt.Println("  → one compile serves every binding; entries stay O(statement shapes)")
}

// runE17 measures morsel-driven parallel execution at the exec level (plans
// built by hand, no SQL): the 100k-row scan+filter, hash-join, and group-agg
// workloads at DOP=1 versus DOP=4 over the same plans — serial operators
// against Gather pipelines with MorselScan leaves, shared parallel hash
// builds, and per-worker aggregation tables. On a machine with ≥4 cores the
// parallel arms target ≥2.5× on these workloads; the printout records this
// machine's core count so single-core runs read as what they are.
func runE17(scale int) {
	n := 100_000 * scale
	bp := storage.NewBufferPool(storage.NewDisk(), 1<<16)
	cat := catalog.New(bp)
	schema := types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "val", Kind: types.KindInt},
		{Name: "grp", Kind: types.KindInt},
		{Name: "name", Kind: types.KindString},
	}
	t := must(cat.CreateTable("T", schema, ""))
	for i := 0; i < n; i++ {
		row := types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 1000)),
			types.NewInt(int64(i % 64)),
			types.NewString(fmt.Sprintf("name-%d", i%100)),
		}
		must(t.Heap.Insert(t.Tag, row))
	}
	const dop = 4
	aggOut := types.Schema{
		{Name: "grp", Kind: types.KindInt},
		{Name: "s", Kind: types.KindInt},
		{Name: "c", Kind: types.KindInt},
	}
	aggs := []exec.AggDef{{Kind: exec.AggSum, ArgIdx: 1}, {Kind: exec.AggCountStar, ArgIdx: -1}}
	cases := []struct {
		name     string
		serial   func() exec.Plan
		parallel func() exec.Plan
	}{
		{"scan+filter",
			func() exec.Plan {
				return &exec.Filter{
					Child: &exec.SeqScan{Table: t},
					Pred:  exec.BinOp{Op: "<", L: exec.Col{Idx: 1}, R: exec.Const{V: types.NewInt(500)}},
				}
			},
			func() exec.Plan {
				return exec.NewGather(&exec.Filter{
					Child: &exec.MorselScan{Table: t},
					Pred:  exec.BinOp{Op: "<", L: exec.Col{Idx: 1}, R: exec.Const{V: types.NewInt(500)}},
				}, dop)
			}},
		{"hash join",
			func() exec.Plan {
				return exec.NewHashJoin(
					&exec.SeqScan{Table: t}, &exec.SeqScan{Table: t},
					[]exec.Expr{exec.Col{Idx: 1}}, []exec.Expr{exec.Col{Idx: 0}}, nil)
			},
			func() exec.Plan {
				j := exec.NewHashJoin(
					&exec.MorselScan{Table: t}, &exec.MorselScan{Table: t},
					[]exec.Expr{exec.Col{Idx: 1}}, []exec.Expr{exec.Col{Idx: 0}}, nil)
				j.Shared = true
				return exec.NewGather(j, dop)
			}},
		{"group-agg",
			func() exec.Plan {
				return &exec.GroupAgg{Child: &exec.SeqScan{Table: t},
					KeyIdxs: []int{2}, Aggs: aggs, Out: aggOut}
			},
			func() exec.Plan {
				return &exec.GroupAgg{Child: &exec.MorselScan{Table: t},
					KeyIdxs: []int{2}, Aggs: aggs, Out: aggOut, DOP: dop}
			}},
	}
	drain := func(p exec.Plan) int {
		rows := must(exec.Collect(exec.NewContext(), p))
		return len(rows)
	}
	rec := benchRecord{Experiment: "e17", Rows: n, DOP: dop,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	fmt.Printf("  table: %d rows; DOP=%d on %d core(s) (GOMAXPROCS=%d)\n",
		n, dop, rec.NumCPU, rec.GOMAXPROCS)
	fmt.Printf("  %-12s %-12s %-12s %s\n", "workload", "serial", "parallel", "speedup")
	for _, c := range cases {
		var ns, np int
		serialT := timeIt(3, func() { ns = drain(c.serial()) })
		parT := timeIt(3, func() { np = drain(c.parallel()) })
		if ns != np {
			panic(fmt.Sprintf("e17 %s: serial %d rows, parallel %d", c.name, ns, np))
		}
		speedup := float64(serialT) / float64(parT)
		fmt.Printf("  %-12s %-12v %-12v %.2fx\n", c.name, serialT, parT, speedup)
		rec.Workloads = append(rec.Workloads, benchWorkload{
			Name: c.name, SerialNs: serialT.Nanoseconds(),
			ParallelNs: parT.Nanoseconds(), Speedup: speedup,
		})
	}
	if rec.GOMAXPROCS < dop {
		fmt.Printf("  → fewer than %d schedulable cores: goroutines interleave, speedups read ~1x by construction\n", dop)
	} else {
		fmt.Println("  → morsel workers share one atomic page-range cursor; Gather re-serializes (EXECUTOR.md)")
	}
	writeJSON(rec)
}

// runE18 measures the composite-object cache on the repeated-checkout
// workload of the paper's introduction (examples/design_workingset's
// shape): a design with its components and subcomponents checked out over
// and over, as an interactive application would. Arms: cold materialization
// (CO cache disabled), cached fetch (warm entry), and invalidate-then-
// refetch (one component-table DML before every checkout). A fourth phase
// checks invalidation precision: while DML churns the design tables, a CO
// over a disjoint table keeps serving hits.
func runE18(scale int) {
	cfg := workload.DesignConfig{Designs: 500 * scale, CompsPerDesign: 16, SubsPerComp: 4, Seed: 7}
	q := workload.WorkingSetQuery("model-3", 1)
	const reps = 200

	// medianTimeIt guards against this box's scheduler/GC noise: several
	// trials of timeIt, median reported.
	medianTimeIt := func(trials, n int, fn func()) time.Duration {
		ts := make([]time.Duration, trials)
		for i := range ts {
			runtime.GC()
			ts[i] = timeIt(n, fn)
		}
		for i := 1; i < len(ts); i++ {
			for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
				ts[j], ts[j-1] = ts[j-1], ts[j]
			}
		}
		return ts[trials/2]
	}

	// Arm 1: cold — every checkout re-materializes.
	coldDB := sqlxnf.Open(sqlxnf.WithoutCOCache())
	must(workload.LoadDesign(coldDB.Session(), cfg))
	co := must(coldDB.QueryCO(q))
	coldT := medianTimeIt(5, reps/4, func() { must(coldDB.QueryCO(q)) })

	// Arms 2 and 3 share one cache-enabled engine.
	db := sqlxnf.Open()
	must(workload.LoadDesign(db.Session(), cfg))
	db.MustExec(`CREATE TABLE NOTES (nid INT PRIMARY KEY, body VARCHAR);
		INSERT INTO NOTES VALUES (1, 'independent');
		CREATE VIEW NOTEV AS OUT OF Xn AS NOTES TAKE *`)
	must(db.QueryCO(q)) // warm
	cachedT := medianTimeIt(5, reps, func() { must(db.QueryCO(q)) })

	// Arm 3: a DML to one component table before every checkout — each
	// fetch invalidates and re-materializes. The DML itself runs outside
	// the clock; the arm times the refetch.
	var invalTotal time.Duration
	const invalReps = reps / 4
	for flip := 0; flip < invalReps; flip++ {
		db.MustExec(fmt.Sprintf("UPDATE SUBCOMP SET payload = 'flip-%d' WHERE sid = 1", flip))
		start := time.Now()
		must(db.QueryCO(q))
		invalTotal += time.Since(start)
	}
	invalT := invalTotal / invalReps

	// Precision phase: churn SUBCOMP while fetching the disjoint NOTES CO —
	// its hit counter must keep rising (its entry never invalidates).
	must(db.QueryCO("OUT OF NOTEV TAKE *")) // warm the disjoint entry
	st0 := db.Engine().COCacheStats()
	for i := 0; i < 20; i++ {
		db.MustExec(fmt.Sprintf("UPDATE SUBCOMP SET payload = 'churn-%d' WHERE sid = 2", i))
		must(db.QueryCO("OUT OF NOTEV TAKE *"))
	}
	st1 := db.Engine().COCacheStats()
	hitsRose := st1.Hits >= st0.Hits+20

	speedup := float64(coldT) / float64(cachedT)
	fmt.Printf("  working set: %s (%d tuples); %d checkouts per arm\n", co, co.Size(), reps)
	fmt.Printf("  %-28s %-14s\n", "arm", "avg/checkout")
	fmt.Printf("  %-28s %-14v\n", "cold materialization", coldT)
	fmt.Printf("  %-28s %-14v (%.1fx vs cold; acceptance bound 10x)\n", "cached fetch", cachedT, speedup)
	fmt.Printf("  %-28s %-14v\n", "invalidate then refetch", invalT)
	fmt.Printf("  non-dependent entry kept hitting through 20 component-table updates: %v\n", hitsRose)
	fmt.Printf("  co-cache stats: %+v\n", st1)
	writeJSONFile("BENCH_e18.json", e18Record{
		Experiment: "e18", WorkingSetTuples: co.Size(), Reps: reps,
		ColdNs: coldT.Nanoseconds(), CachedNs: cachedT.Nanoseconds(),
		Speedup: speedup, InvalidateRefetchNs: invalT.Nanoseconds(),
		NonDependentHitsRose: hitsRose,
	})
	fmt.Println("  → repeated CO checkouts run at cache-hit speed; DML invalidates only dependents")
}

// runE21 measures durable commit throughput across the WAL sync policies at
// rising writer concurrency. Each writer commits single-row inserts into a
// private table (no lock contention — the experiment isolates the log).
// SyncAlways pays one fsync per commit; SyncGroupCommit shares each fsync
// among every committer queued behind it, so its advantage grows with
// writers; SyncNone is the no-durability ceiling.
func runE21(scale int) {
	commitsPer := 150 * scale
	policies := []struct {
		name   string
		policy sqlxnf.SyncPolicy
	}{
		{"always", sqlxnf.SyncAlways},
		{"group-commit", sqlxnf.SyncGroupCommit},
		{"none", sqlxnf.SyncNone},
	}
	writerCounts := []int{1, 4, 16}
	rec := e21Record{Experiment: "e21", CommitsPerWriter: commitsPer,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	persec := map[string]map[int]float64{}
	fmt.Printf("  %d commits/writer, single-row inserts into per-writer tables\n", commitsPer)
	fmt.Printf("  %-14s %-8s %-14s %-12s %-10s\n", "policy", "writers", "commits/sec", "avg/commit", "fsyncs")
	for _, p := range policies {
		persec[p.name] = map[int]float64{}
		for _, nw := range writerCounts {
			dir, err := os.MkdirTemp("", "e21-*")
			if err != nil {
				panic(err)
			}
			db := must(sqlxnf.OpenDir(dir,
				sqlxnf.WithSyncPolicy(p.policy), sqlxnf.WithCheckpointBytes(-1)))
			for w := 0; w < nw; w++ {
				db.MustExec(fmt.Sprintf("CREATE TABLE W%d (id INT PRIMARY KEY, v VARCHAR)", w))
			}
			var wg sync.WaitGroup
			start := time.Now()
			for w := 0; w < nw; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					s := db.Session()
					for i := 0; i < commitsPer; i++ {
						s.MustExec(fmt.Sprintf("INSERT INTO W%d VALUES (%d, 'r%d')", w, i, i))
					}
				}(w)
			}
			wg.Wait()
			elapsed := time.Since(start)
			total := nw * commitsPer
			cps := float64(total) / elapsed.Seconds()
			fsyncs := db.Engine().WALStats().File.Syncs
			must(0, db.Close())
			must(0, os.RemoveAll(dir))
			persec[p.name][nw] = cps
			fmt.Printf("  %-14s %-8d %-14.0f %-12v %-10d\n",
				p.name, nw, cps, elapsed/time.Duration(total), fsyncs)
			rec.Cells = append(rec.Cells, e21Cell{Policy: p.name, Writers: nw,
				Commits: total, ElapsedNs: elapsed.Nanoseconds(),
				CommitsPerSec: cps, Fsyncs: fsyncs})
		}
	}
	ratio := persec["group-commit"][16] / persec["always"][16]
	rec.GroupVsAlways16 = ratio
	fmt.Printf("  group-commit vs always at 16 writers: %.1fx (acceptance bound 2x)\n", ratio)
	writeJSONFile("BENCH_e21.json", rec)
	fmt.Println("  → group commit amortizes the fsync across concurrent committers")
}

// runE23 measures what per-statement tracing costs and dumps the unified
// metrics snapshot. Two engines run the same cached point query: one with
// tracing off (no slow-query threshold — the fast path must stay free), one
// with a threshold high enough that every statement records a trace but
// none ever logs. A mixed workload then exercises the traced engine so the
// BENCH json captures a populated snapshot: per-class statement histograms,
// cache counters, and WAL/MVCC state in one coherent read.
func runE23(scale int) {
	const reps = 2000
	setup := func(opts ...sqlxnf.Option) *sqlxnf.DB {
		db := sqlxnf.Open(opts...)
		db.MustExec("CREATE TABLE K (id INT PRIMARY KEY, v INT)")
		for i := 0; i < 100*scale; i++ {
			db.MustExec(fmt.Sprintf("INSERT INTO K VALUES (%d, %d)", i, i))
		}
		return db
	}
	point := func(db *sqlxnf.DB) time.Duration {
		s := db.Session()
		s.MustExec("SELECT v FROM K WHERE id = 42") // warm the plan cache
		return timeIt(reps, func() { s.MustExec("SELECT v FROM K WHERE id = 42") })
	}
	off := setup()
	offNs := point(off)
	must(0, off.Close())
	on := setup(sqlxnf.WithSlowQueryThreshold(time.Hour)) // trace everything, log nothing
	onNs := point(on)
	overhead := float64(onNs-offNs) / float64(offNs) * 100
	fmt.Printf("  cached point query x%d: tracing off %v/stmt, on %v/stmt (%.1f%% overhead)\n",
		reps, offNs, onNs, overhead)

	// Mixed workload so the snapshot has every class populated.
	s := on.Session()
	for i := 0; i < 20*scale; i++ {
		s.MustExec(fmt.Sprintf("SELECT v FROM K WHERE id = %d", i%100))
		s.MustExec("SELECT COUNT(*) FROM K WHERE v > 10")
		s.MustExec("SELECT COUNT(*) FROM K A, K B WHERE A.id = B.v")
		s.MustExec(fmt.Sprintf("UPDATE K SET v = v + 1 WHERE id = %d", i%100))
	}
	snap := on.Stats()
	fmt.Printf("  snapshot: %d statements across %d classes, %.0f/s\n",
		snap.StatementsTotal, len(snap.Statements), snap.StatementsPerSecond)
	for name, cs := range snap.Statements {
		fmt.Printf("    %-6s count=%-6d p50=%v p99=%v\n", name, cs.Count,
			time.Duration(cs.P50US)*time.Microsecond, time.Duration(cs.P99US)*time.Microsecond)
	}
	must(0, on.Close())
	writeJSONFile("BENCH_e23.json", e23Record{
		Experiment: "e23", Reps: reps,
		TracingOffNs: offNs.Nanoseconds(), TracingOnNs: onNs.Nanoseconds(),
		OverheadPct: overhead, Snapshot: snap,
	})
	fmt.Println("  → tracing is opt-in per engine; the off path stays on the prepared fast path")
}

// e23Record is the machine-readable result of the observability experiment:
// the tracing-overhead comparison plus the full unified metrics snapshot.
type e23Record struct {
	Experiment   string             `json:"experiment"`
	Reps         int                `json:"reps"`
	TracingOffNs int64              `json:"tracing_off_ns_per_stmt"`
	TracingOnNs  int64              `json:"tracing_on_ns_per_stmt"`
	OverheadPct  float64            `json:"overhead_pct"`
	Snapshot     sqlxnf.EngineStats `json:"metrics_snapshot"`
}

// e21Record is the machine-readable result of the durability experiment.
type e21Record struct {
	Experiment       string    `json:"experiment"`
	CommitsPerWriter int       `json:"commits_per_writer"`
	NumCPU           int       `json:"num_cpu"`
	GOMAXPROCS       int       `json:"gomaxprocs"`
	Cells            []e21Cell `json:"cells"`
	GroupVsAlways16  float64   `json:"group_vs_always_16_writers"`
}

type e21Cell struct {
	Policy        string  `json:"policy"`
	Writers       int     `json:"writers"`
	Commits       int     `json:"commits"`
	ElapsedNs     int64   `json:"elapsed_ns"`
	CommitsPerSec float64 `json:"commits_per_sec"`
	Fsyncs        int64   `json:"fsyncs"`
}

// e18Record is the machine-readable result of the CO-cache experiment.
type e18Record struct {
	Experiment           string  `json:"experiment"`
	WorkingSetTuples     int     `json:"working_set_tuples"`
	Reps                 int     `json:"reps"`
	ColdNs               int64   `json:"cold_ns"`
	CachedNs             int64   `json:"cached_ns"`
	Speedup              float64 `json:"speedup"`
	InvalidateRefetchNs  int64   `json:"invalidate_refetch_ns"`
	NonDependentHitsRose bool    `json:"non_dependent_hits_rose"`
}

// benchRecord is the machine-readable result the -json flag writes, so the
// perf trajectory stays diffable across PRs.
type benchRecord struct {
	Experiment string          `json:"experiment"`
	Rows       int             `json:"rows"`
	DOP        int             `json:"dop"`
	NumCPU     int             `json:"num_cpu"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Workloads  []benchWorkload `json:"workloads"`
}

type benchWorkload struct {
	Name       string  `json:"name"`
	SerialNs   int64   `json:"serial_ns"`
	ParallelNs int64   `json:"parallel_ns"`
	Speedup    float64 `json:"speedup"`
}

// writeJSON writes BENCH_<exp>.json into the working directory when -json
// is set.
func writeJSON(rec benchRecord) {
	writeJSONFile(fmt.Sprintf("BENCH_%s.json", rec.Experiment), rec)
}

// writeJSONFile marshals any experiment record when -json is set.
func writeJSONFile(path string, v any) {
	if !*jsonFlag {
		return
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		panic(err)
	}
	fmt.Printf("  wrote %s\n", path)
}

func runE13(scale int) {
	fmt.Printf("  %-12s %-12s %s\n", "strategy", "time", "node queries (incl. recomputed)")
	for _, shared := range []bool{true, false} {
		var opts []sqlxnf.Option
		if !shared {
			opts = append(opts, sqlxnf.WithoutCommonSubexpressions())
		}
		cfg := companyCfg(scale)
		db := loadCompany(cfg, opts...)
		q := workload.CompanyCOQuery(cfg, 11)
		d := timeIt(10, func() { must(db.QueryCO(q)) })
		name := "shared"
		if !shared {
			name = "recomputed"
		}
		fmt.Printf("  %-12s %-12v\n", name, d)
	}
	fmt.Println("  → sharing node materializations across edge queries wins (§4.3)")
}

// runE19 measures reader throughput under a sustained DML writer. One
// writer session runs back-to-back explicit transactions, each a ~50ms
// burst of single-row UPDATEs, so the table's exclusive lock is held most
// of the wall clock. N reader sessions run a fixed aggregate query in a
// loop. Under snapshot isolation readers never block and each statement sees
// the last committed batch. The cache dimension toggles the plan and CO
// caches to show reader throughput is not an artifact of either. The
// committed BENCH_e19.json is the frozen last recording that still carried
// the pre-MVCC shared-lock read path as a baseline arm (readers waited for
// the writer's commit); that path is gone, so `make bench` runs e19 without
// -json and leaves the file alone.
func runE19(scale int) {
	rows := 800 * scale
	const readers = 4
	window := 400 * time.Millisecond
	batch := 50 * time.Millisecond

	type cell struct {
		Arm           string  `json:"arm"`
		Caches        string  `json:"caches"`
		ReaderOps     int64   `json:"reader_ops"`
		ReadsPerSec   float64 `json:"reads_per_sec"`
		WriterCommits int64   `json:"writer_commits"`
		WriterUpdates int64   `json:"writer_updates"`
	}
	rec := struct {
		Experiment string `json:"experiment"`
		Rows       int    `json:"rows"`
		Readers    int    `json:"readers"`
		WindowNs   int64  `json:"window_ns"`
		NumCPU     int    `json:"num_cpu"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Cells      []cell `json:"cells"`
	}{Experiment: "e19", Rows: rows, Readers: readers, WindowNs: window.Nanoseconds(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}

	arms := []struct {
		arm, caches string
		opts        []sqlxnf.Option
	}{
		{"mvcc", "on", nil},
		{"mvcc", "off", []sqlxnf.Option{sqlxnf.WithoutPlanCache(), sqlxnf.WithoutCOCache()}},
	}
	fmt.Printf("  %d rows, 1 writer (%v update bursts), %d readers, %v window\n",
		rows, batch, readers, window)
	fmt.Printf("  %-10s %-8s %-12s %-14s %-10s %-10s\n",
		"arm", "caches", "reader ops", "reads/sec", "commits", "updates")
	for _, a := range arms {
		db := sqlxnf.Open(a.opts...)
		db.MustExec(`CREATE TABLE R (id INT PRIMARY KEY, v INT, g INT)`)
		db.MustExec(`CREATE INDEX r_g ON R (g)`)
		for i := 0; i < rows; i++ {
			db.MustExec(fmt.Sprintf("INSERT INTO R VALUES (%d, %d, %d)", i, i, i%readers))
		}

		var (
			readerOps, commits, updates int64
			wg                          sync.WaitGroup
		)
		stop := make(chan struct{})
		wg.Add(1)
		go func() { // the sustained writer
			defer wg.Done()
			s := db.Session()
			rng := rand.New(rand.NewSource(19))
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.MustExec("BEGIN")
				for burst := time.Now(); time.Since(burst) < batch; {
					s.MustExec(fmt.Sprintf("UPDATE R SET v = v + 1 WHERE id = %d", rng.Intn(rows)))
					updates++
				}
				s.MustExec("COMMIT")
				commits++
				time.Sleep(500 * time.Microsecond) // a window for waiting readers
			}
		}()
		var readerWg sync.WaitGroup
		start := time.Now()
		for r := 0; r < readers; r++ {
			readerWg.Add(1)
			go func(r int) {
				defer readerWg.Done()
				s := db.Session()
				q := fmt.Sprintf("SELECT COUNT(*), SUM(v) FROM R WHERE g = %d", r)
				var ops int64
				for time.Since(start) < window {
					s.MustExec(q)
					ops++
					time.Sleep(100 * time.Microsecond)
				}
				atomic.AddInt64(&readerOps, ops)
			}(r)
		}
		readerWg.Wait()
		elapsed := time.Since(start)
		close(stop)
		wg.Wait()
		must(0, db.Close())

		rps := float64(readerOps) / elapsed.Seconds()
		fmt.Printf("  %-10s %-8s %-12d %-14.0f %-10d %-10d\n",
			a.arm, a.caches, readerOps, rps, commits, updates)
		rec.Cells = append(rec.Cells, cell{Arm: a.arm, Caches: a.caches,
			ReaderOps: readerOps, ReadsPerSec: rps,
			WriterCommits: commits, WriterUpdates: updates})
	}
	writeJSONFile("BENCH_e19.json", rec)
	fmt.Println("  → snapshot reads never wait for the writer's exclusive lock")
}

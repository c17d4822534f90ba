package sqlxnf

import (
	"fmt"
	"testing"
)

func TestPublicAPIQuickPath(t *testing.T) {
	db := Open()
	db.MustExec(`
	CREATE TABLE DEPT (dno INT PRIMARY KEY, dname VARCHAR, loc VARCHAR);
	CREATE TABLE EMP (eno INT PRIMARY KEY, ename VARCHAR, sal FLOAT, edno INT);
	INSERT INTO DEPT VALUES (1, 'toys', 'NY'), (2, 'tools', 'SF');
	INSERT INTO EMP VALUES (10, 'ann', 1200, 1), (11, 'bob', 900, 1), (12, 'cid', 2000, 2);
	`)
	r, err := db.Query("SELECT ename FROM EMP WHERE sal > 1000 ORDER BY ename")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 || r.Rows[0][0].Str() != "ann" {
		t.Fatalf("rows = %v", r.Rows)
	}
	co, err := db.QueryCO(`OUT OF
		Xdept AS DEPT, Xemp AS EMP,
		employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno)
		TAKE *`)
	if err != nil {
		t.Fatal(err)
	}
	if co.Node("Xemp") == nil || len(co.Node("Xemp").Rows) != 3 {
		t.Fatalf("co = %v", co)
	}
	// Cache navigation.
	c, err := db.OpenCache(co)
	if err != nil {
		t.Fatal(err)
	}
	cur, _ := c.Open("Xdept")
	total := 0
	for cur.Next() {
		dep, _ := cur.OpenDependent("employment")
		for dep.Next() {
			total++
		}
	}
	if total != 3 {
		t.Errorf("navigated %d employees", total)
	}
}

func TestQueryCORequiresXNF(t *testing.T) {
	db := Open()
	db.MustExec("CREATE TABLE T (a INT)")
	if _, err := db.QueryCO("SELECT * FROM T"); err == nil {
		t.Error("QueryCO over plain SELECT should fail")
	}
}

func TestOptionsApply(t *testing.T) {
	db := Open(WithBufferPool(8), WithoutCommonSubexpressions(), WithoutIndexes())
	if db.Engine().BufferPool().Capacity() != 8 {
		t.Error("buffer pool option ignored")
	}
	if !db.Engine().Options().XNF.NoSharedSubexpressions {
		t.Error("CSE option ignored")
	}
	if !db.Engine().Options().Optimizer.NoIndexes {
		t.Error("index option ignored")
	}
	// The ablated engine still answers queries.
	db.MustExec("CREATE TABLE T (a INT PRIMARY KEY); INSERT INTO T VALUES (1), (2)")
	r, err := db.Query("SELECT COUNT(*) FROM T")
	if err != nil || r.Rows[0][0].Int() != 2 {
		t.Fatalf("ablated query: %v %v", r, err)
	}
}

func TestQueryCacheCombined(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE P (id INT PRIMARY KEY, name VARCHAR);
		INSERT INTO P VALUES (1, 'x'), (2, 'y')`)
	c, err := db.QueryCache("OUT OF Xp AS P TAKE *")
	if err != nil {
		t.Fatal(err)
	}
	cur, _ := c.Open("Xp")
	n := 0
	for cur.Next() {
		n++
	}
	if n != 2 {
		t.Errorf("cached tuples = %d", n)
	}
}

// TestOpenCacheLeavesResidentCOIntact: a TAKE hit hands out the CO cache's
// resident CO, so the navigation cache loaded from it must copy what an
// application may write — tuple rows and link attributes. Edits made in one
// loaded cache never reach the next checkout.
func TestOpenCacheLeavesResidentCOIntact(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE P (pid INT PRIMARY KEY, pname VARCHAR);
		CREATE TABLE C (cid INT PRIMARY KEY);
		CREATE TABLE PC (lp INT, lc INT, w FLOAT);
		INSERT INTO P VALUES (1, 'p1');
		INSERT INTO C VALUES (10), (20);
		INSERT INTO PC VALUES (1, 10, 0.5), (1, 20, 0.7)`)
	q := `OUT OF Xp AS P, Xc AS C,
		link AS (RELATE Xp, Xc WITH ATTRIBUTES PC.w USING PC
		 WHERE Xp.pid = PC.lp AND Xc.cid = PC.lc)
		TAKE *`
	co, err := db.QueryCO(q)
	if err != nil {
		t.Fatal(err)
	}
	// values renders what the loaded cache copies: node rows and link
	// attributes.
	values := func(co *CO) string {
		out := fmt.Sprint(co.Node("Xp").Rows)
		for _, cn := range co.Edge("link").Conns {
			out += " " + cn.Attrs.String()
		}
		return out
	}
	want := values(co)
	c, err := db.OpenCache(co)
	if err != nil {
		t.Fatal(err)
	}
	links := c.Edge("link").Links
	if len(links) != 2 || len(links[0].Attrs) != 1 {
		t.Fatalf("loaded links = %d", len(links))
	}
	for _, l := range links {
		l.Attrs[0] = NewFloat(-1)
	}
	for _, tp := range c.Node("Xp").Tuples {
		tp.Row[1] = NewString("scribbled")
	}

	hits := db.Engine().COCacheStats().Hits
	again, err := db.QueryCO(q)
	if err != nil {
		t.Fatal(err)
	}
	if db.Engine().COCacheStats().Hits != hits+1 || again != co {
		t.Fatal("second checkout did not serve the resident CO")
	}
	if got := values(again); got != want {
		t.Fatalf("edits in the loaded cache reached the resident CO:\nwant %s\ngot  %s", want, got)
	}
}

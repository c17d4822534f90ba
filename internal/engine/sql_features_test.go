package engine

import (
	"fmt"
	"strings"
	"testing"
)

func featureDB(t *testing.T) *Session {
	t.Helper()
	s := NewDefault().Session()
	s.MustExec(`
	CREATE TABLE ITEMS (id INT NOT NULL PRIMARY KEY, name VARCHAR, price FLOAT, cat VARCHAR);
	INSERT INTO ITEMS VALUES
	 (1, 'apple', 1.5, 'fruit'),
	 (2, 'banana', 0.5, 'fruit'),
	 (3, 'carrot', 0.8, 'veg'),
	 (4, 'donut', 2.5, NULL),
	 (5, 'apricot', 3.0, 'fruit');
	`)
	return s
}

func TestInsertSelect(t *testing.T) {
	s := featureDB(t)
	s.MustExec("CREATE TABLE CHEAP (id INT, name VARCHAR)")
	r := s.MustExec("INSERT INTO CHEAP SELECT id, name FROM ITEMS WHERE price < 1")
	if r.RowsAffected != 2 {
		t.Fatalf("inserted %d", r.RowsAffected)
	}
	q, _ := s.Exec("SELECT COUNT(*) FROM CHEAP")
	if q.Rows[0][0].Int() != 2 {
		t.Errorf("count = %v", q.Rows[0][0])
	}
	// Column-list insert with defaults NULL.
	s.MustExec("INSERT INTO CHEAP (id) VALUES (99)")
	q, _ = s.Exec("SELECT name FROM CHEAP WHERE id = 99")
	if !q.Rows[0][0].IsNull() {
		t.Error("unlisted column should be NULL")
	}
}

func TestLikeBetweenInIsNull(t *testing.T) {
	s := featureDB(t)
	q := s.MustExec("SELECT name FROM ITEMS WHERE name LIKE 'ap%' ORDER BY name")
	if len(q.Rows) != 2 || q.Rows[0][0].Str() != "apple" || q.Rows[1][0].Str() != "apricot" {
		t.Errorf("LIKE rows = %v", q.Rows)
	}
	q = s.MustExec("SELECT COUNT(*) FROM ITEMS WHERE price BETWEEN 0.5 AND 1.5")
	if q.Rows[0][0].Int() != 3 {
		t.Errorf("BETWEEN count = %v", q.Rows[0][0])
	}
	q = s.MustExec("SELECT COUNT(*) FROM ITEMS WHERE cat IN ('fruit', 'veg')")
	if q.Rows[0][0].Int() != 4 {
		t.Errorf("IN count = %v", q.Rows[0][0])
	}
	q = s.MustExec("SELECT name FROM ITEMS WHERE cat IS NULL")
	if len(q.Rows) != 1 || q.Rows[0][0].Str() != "donut" {
		t.Errorf("IS NULL rows = %v", q.Rows)
	}
	// NOT IN with NULL member filters everything (3VL).
	q = s.MustExec("SELECT COUNT(*) FROM ITEMS WHERE cat NOT IN ('fruit')")
	if q.Rows[0][0].Int() != 1 { // only 'veg'; NULL cat is Unknown
		t.Errorf("NOT IN count = %v", q.Rows[0][0])
	}
}

func TestDistinctAndOrderHidden(t *testing.T) {
	s := featureDB(t)
	q := s.MustExec("SELECT DISTINCT cat FROM ITEMS")
	if len(q.Rows) != 3 { // fruit, veg, NULL
		t.Errorf("distinct rows = %v", q.Rows)
	}
	// ORDER BY a column not in the select list (hidden sort column).
	q = s.MustExec("SELECT name FROM ITEMS ORDER BY price DESC LIMIT 2")
	if len(q.Rows) != 2 || q.Rows[0][0].Str() != "apricot" || q.Rows[1][0].Str() != "donut" {
		t.Errorf("hidden order rows = %v", q.Rows)
	}
	if len(q.Schema) != 1 || q.Schema[0].Name != "name" {
		t.Errorf("hidden sort column leaked into schema: %v", q.Schema)
	}
	// DISTINCT + hidden ORDER BY is refused (would change semantics).
	if _, err := s.Exec("SELECT DISTINCT cat FROM ITEMS ORDER BY price"); err == nil {
		t.Error("DISTINCT with non-projected order key should fail")
	}
}

func TestOrderByPositionAndAlias(t *testing.T) {
	s := featureDB(t)
	q := s.MustExec("SELECT name, price * 2 AS dbl FROM ITEMS ORDER BY dbl LIMIT 1")
	if q.Rows[0][0].Str() != "banana" {
		t.Errorf("alias order = %v", q.Rows)
	}
	q = s.MustExec("SELECT name, price FROM ITEMS ORDER BY 2 DESC LIMIT 1")
	if q.Rows[0][0].Str() != "apricot" {
		t.Errorf("positional order = %v", q.Rows)
	}
}

func TestArithmeticAndConcat(t *testing.T) {
	s := featureDB(t)
	q := s.MustExec("SELECT name || '!' AS x, price + 1, price % 1 FROM ITEMS WHERE id = 1")
	row := q.Rows[0]
	if row[0].Str() != "apple!" || row[1].Float() != 2.5 {
		t.Errorf("row = %v", row)
	}
	// Division by zero surfaces as an error, not a panic.
	if _, err := s.Exec("SELECT 1 / 0 FROM ITEMS"); err == nil {
		t.Error("division by zero should error")
	}
}

func TestSQLViewOverView(t *testing.T) {
	s := featureDB(t)
	s.MustExec("CREATE VIEW FRUIT AS SELECT * FROM ITEMS WHERE cat = 'fruit'")
	s.MustExec("CREATE VIEW CHEAPFRUIT AS SELECT name FROM FRUIT WHERE price < 2")
	q := s.MustExec("SELECT COUNT(*) FROM CHEAPFRUIT")
	if q.Rows[0][0].Int() != 2 {
		t.Errorf("view-over-view count = %v", q.Rows[0][0])
	}
	// The rewrite merges both views away: plan contains only base scans.
	r := s.MustExec("EXPLAIN SELECT COUNT(*) FROM CHEAPFRUIT")
	if strings.Count(r.Explain, "SeqScan") < 1 || strings.Contains(r.Explain, "xnfnode") {
		t.Errorf("explain:\n%s", r.Explain)
	}
	// Dropping the inner view breaks the outer (late binding).
	s.MustExec("DROP VIEW FRUIT")
	if _, err := s.Exec("SELECT * FROM CHEAPFRUIT"); err == nil {
		t.Error("dangling view reference should fail at use")
	}
}

func TestUpdateWithExpressionsAndConstraints(t *testing.T) {
	s := featureDB(t)
	s.MustExec("UPDATE ITEMS SET price = price * 10, cat = 'bulk' WHERE cat = 'veg'")
	q := s.MustExec("SELECT price, cat FROM ITEMS WHERE id = 3")
	if q.Rows[0][0].Float() != 8 || q.Rows[0][1].Str() != "bulk" {
		t.Errorf("row = %v", q.Rows[0])
	}
	// PK collision by update.
	if _, err := s.Exec("UPDATE ITEMS SET id = 1 WHERE id = 2"); err == nil {
		t.Error("PK-violating update should fail")
	}
	// NOT NULL violation by update.
	if _, err := s.Exec("UPDATE ITEMS SET id = NULL WHERE id = 2"); err == nil {
		t.Error("NULL into NOT NULL should fail")
	}
}

func TestMultiRowTransactionsAcrossStatements(t *testing.T) {
	s := featureDB(t)
	s.MustExec(`BEGIN;
		UPDATE ITEMS SET price = 0 WHERE cat = 'fruit';
		DELETE FROM ITEMS WHERE cat IS NULL;
		INSERT INTO ITEMS VALUES (10, 'kiwi', 4.0, 'fruit');
		COMMIT`)
	q := s.MustExec("SELECT COUNT(*) FROM ITEMS")
	if q.Rows[0][0].Int() != 5 {
		t.Errorf("count = %v", q.Rows[0][0])
	}
	q = s.MustExec("SELECT SUM(price) FROM ITEMS WHERE cat = 'fruit'")
	if q.Rows[0][0].Float() != 4.0 {
		t.Errorf("sum = %v", q.Rows[0][0])
	}
}

func TestErrorsSurfaceCleanly(t *testing.T) {
	s := featureDB(t)
	for _, sql := range []string{
		"SELECT * FROM MISSING",
		"INSERT INTO ITEMS VALUES (1)",             // arity
		"INSERT INTO ITEMS VALUES (1, 2, 3, 4)",    // kind (name int)
		"UPDATE ITEMS SET missing = 1",             // unknown col
		"DELETE FROM ITEMS WHERE missing = 1",      // unknown col
		"CREATE TABLE ITEMS (x INT)",               // duplicate table
		"CREATE INDEX items_pk ON ITEMS (missing)", // missing col
		"DROP TABLE MISSING",                       //
		"SELECT price FROM ITEMS GROUP BY cat",     // non-grouped
		"COMMIT",                                   // no tx
		"ROLLBACK",                                 // no tx
	} {
		if _, err := s.Exec(sql); err == nil {
			t.Errorf("expected error for %q", sql)
		}
	}
	// The session stays usable after errors.
	if _, err := s.Exec("SELECT COUNT(*) FROM ITEMS"); err != nil {
		t.Fatalf("session wedged: %v", err)
	}
}

func TestXNFDeleteWithLinkRows(t *testing.T) {
	s := NewDefault().Session()
	s.MustExec(`
	CREATE TABLE P (pid INT PRIMARY KEY, pname VARCHAR);
	CREATE TABLE C (cid INT PRIMARY KEY, cname VARCHAR);
	CREATE TABLE PC (lp INT, lc INT, w FLOAT);
	INSERT INTO P VALUES (1, 'a'), (2, 'b');
	INSERT INTO C VALUES (10, 'x'), (20, 'y');
	INSERT INTO PC VALUES (1, 10, 0.5), (1, 20, 0.7), (2, 20, 0.9);
	`)
	// Delete the CO rooted at parent 1: removes p1, reachable children, and
	// their link rows.
	r := s.MustExec(`OUT OF
		Xp AS (SELECT * FROM P WHERE pid = 1),
		Xc AS C,
		link AS (RELATE Xp, Xc USING PC WHERE Xp.pid = PC.lp AND Xc.cid = PC.lc)
		DELETE *`)
	// p1 + c10 + c20 + 2 link rows = 5 deletions.
	if r.RowsAffected != 5 {
		t.Fatalf("deleted %d", r.RowsAffected)
	}
	q := s.MustExec("SELECT COUNT(*) FROM PC")
	if q.Rows[0][0].Int() != 1 {
		t.Errorf("link rows left = %v", q.Rows[0][0])
	}
	q = s.MustExec("SELECT COUNT(*) FROM C")
	if q.Rows[0][0].Int() != 0 {
		t.Errorf("children left = %v (both were reachable)", q.Rows[0][0])
	}
}

// TestXNFDeleteLinkRowsByIdentity: CO DELETE removes exactly the link rows
// behind the CO's connections. A link row that fails the edge predicate is
// no connection and survives, though it joins the same parent and child as
// one that is.
func TestXNFDeleteLinkRowsByIdentity(t *testing.T) {
	s := NewDefault().Session()
	s.MustExec(`
	CREATE TABLE P (pid INT PRIMARY KEY);
	CREATE TABLE C (cid INT PRIMARY KEY);
	CREATE TABLE PC (lp INT, lc INT, w FLOAT);
	INSERT INTO P VALUES (1), (2);
	INSERT INTO C VALUES (10), (20);
	INSERT INTO PC VALUES (1, 20, 0.1), (1, 10, 0.5), (1, 20, 0.7), (2, 20, 0.9);
	`)
	r := s.MustExec(`OUT OF
		Xp AS (SELECT * FROM P WHERE pid = 1),
		Xc AS C,
		link AS (RELATE Xp, Xc USING PC WHERE Xp.pid = PC.lp AND Xc.cid = PC.lc AND PC.w > 0.6)
		DELETE *`)
	// p1 + c20 + the (1, 20, 0.7) link row; c10 is unreachable.
	if r.RowsAffected != 3 {
		t.Fatalf("deleted %d, want 3", r.RowsAffected)
	}
	q := s.MustExec("SELECT lp, lc, w FROM PC ORDER BY w")
	if got := fmt.Sprint(q.Rows); got != "[(1, 20, 0.1) (1, 10, 0.5) (2, 20, 0.9)]" {
		t.Errorf("link rows left = %s", got)
	}
}

func TestXNFDeleteRequiresUpdatableNodes(t *testing.T) {
	s := featureDB(t)
	// A node over a join has no single-table provenance: DELETE refused.
	if _, err := s.Exec(`OUT OF
		X AS (SELECT a.id AS i FROM ITEMS a, ITEMS b WHERE a.id = b.id)
		DELETE *`); err == nil {
		t.Error("CO DELETE over non-updatable node should fail")
	}
}

func TestXNFDeleteRollsBack(t *testing.T) {
	s := featureDB(t)
	s.MustExec("BEGIN")
	r := s.MustExec("OUT OF X AS (SELECT * FROM ITEMS WHERE cat = 'fruit') DELETE *")
	if r.RowsAffected != 3 {
		t.Fatalf("deleted %d", r.RowsAffected)
	}
	q := s.MustExec("SELECT COUNT(*) FROM ITEMS")
	if q.Rows[0][0].Int() != 2 {
		t.Fatalf("mid-tx count = %v", q.Rows[0][0])
	}
	s.MustExec("ROLLBACK")
	q = s.MustExec("SELECT COUNT(*) FROM ITEMS")
	if q.Rows[0][0].Int() != 5 {
		t.Errorf("post-rollback count = %v (CO DELETE must be transactional)", q.Rows[0][0])
	}
	// And the index agrees after rollback.
	q = s.MustExec("SELECT name FROM ITEMS WHERE id = 1")
	if len(q.Rows) != 1 || q.Rows[0][0].Str() != "apple" {
		t.Errorf("index after rollback = %v", q.Rows)
	}
}

func TestXNFQueryInsideTransactionSeesOwnWrites(t *testing.T) {
	s := featureDB(t)
	s.MustExec("BEGIN")
	s.MustExec("INSERT INTO ITEMS VALUES (6, 'fig', 2.0, 'fruit')")
	r := s.MustExec("OUT OF X AS (SELECT * FROM ITEMS WHERE cat = 'fruit') TAKE *")
	if len(r.CO.Node("X").Rows) != 4 {
		t.Errorf("CO must see the transaction's own insert: %d", len(r.CO.Node("X").Rows))
	}
	s.MustExec("COMMIT")
}

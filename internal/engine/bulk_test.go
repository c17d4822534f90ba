package engine

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sqlxnf/internal/storage"
	"sqlxnf/internal/types"
	"sqlxnf/internal/wal"
)

// tableImage is what a rolled-back write must leave as it found and two
// equivalent loads must build alike: every physical row version with its
// RID, stamps and encoding, every index's (key, RID) entries in tree order,
// the live row count and the statistics sketch.
type tableImage struct {
	rows    []string
	indexes map[string][]string
	count   int64
	stats   any
}

func imageOf(t *testing.T, e *Engine, table string) tableImage {
	t.Helper()
	tab, err := e.Catalog().Table(table)
	if err != nil {
		t.Fatal(err)
	}
	img := tableImage{indexes: map[string][]string{}, count: tab.RowCount()}
	if st := tab.Stats(); st != nil {
		img.stats = *st
	}
	every := func(storage.RowVer) bool { return true }
	err = tab.Heap.ScanVis(tab.Tag, every, func(rid storage.RID, row types.Row) (bool, error) {
		img.rows = append(img.rows, fmt.Sprintf("%v %+v %x", rid, tab.Heap.Version(rid), row.Encode(nil)))
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range tab.Indexes {
		ix.Tree.Scan(nil, nil, true, true, func(key []byte, rid storage.RID) bool {
			img.indexes[ix.Name] = append(img.indexes[ix.Name], hex.EncodeToString(key)+"@"+rid.String())
			return true
		})
	}
	return img
}

func sameImage(t *testing.T, label string, got, want tableImage) {
	t.Helper()
	if !reflect.DeepEqual(got.rows, want.rows) {
		t.Errorf("%s: heap holds %d row versions, want %d (or they differ)", label, len(got.rows), len(want.rows))
	}
	if !reflect.DeepEqual(got.indexes, want.indexes) {
		for name := range want.indexes {
			t.Errorf("%s: index %s holds %d entries, want %d (or they differ)", label, name, len(got.indexes[name]), len(want.indexes[name]))
		}
	}
	if got.count != want.count {
		t.Errorf("%s: row count %d, want %d", label, got.count, want.count)
	}
	if !reflect.DeepEqual(got.stats, want.stats) {
		t.Errorf("%s: statistics sketch\n%+v\nwant\n%+v", label, got.stats, want.stats)
	}
}

// valuesStmts splits rows into multi-row INSERTs of at most 500 rows.
func valuesStmts(table string, rows []string) []string {
	var out []string
	for lo := 0; lo < len(rows); lo += 500 {
		hi := min(lo+500, len(rows))
		out = append(out, "INSERT INTO "+table+" VALUES "+strings.Join(rows[lo:hi], ","))
	}
	return out
}

// TestRollbackRestoresBulkInsertedTable: a transaction inserts 5 000 rows
// (its undo list spans several chunks) into a table with a unique and a
// non-unique index, updates and deletes some of them and some committed
// rows, and rolls back. The heap, both indexes, the row count and the
// sketch must be what they were. The committed rows already span every
// value the transaction writes, so the sketch's min and max, which a
// rollback does not shrink, stay put too; its NULL counts must reverse.
// There are more committed rows than inserted ones, so the statistics do
// not drift far enough for a query inside the transaction to re-ANALYZE.
func TestRollbackRestoresBulkInsertedTable(t *testing.T) {
	e := NewDefault()
	s := e.Session()
	s.MustExec("CREATE TABLE B (id INT PRIMARY KEY, k INT, name VARCHAR, f FLOAT); CREATE INDEX b_k ON B (k)")
	committed := []string{"(0, 0, 'a', -1000000)", "(1000000, 1000, 'zzz', 1000000)", "(500, NULL, NULL, 0)"}
	for i := 0; i < 5200; i++ {
		committed = append(committed, fmt.Sprintf("(%d, %d, 'c%d', %d.5)", 10000+i, i%1000, i, i))
	}
	for _, q := range valuesStmts("B", committed) {
		s.MustExec(q)
	}
	s.MustExec("ANALYZE B")
	pre := imageOf(t, e, "B")
	probes := func() string {
		var b strings.Builder
		for _, q := range []string{
			"SELECT id, k, name FROM B WHERE id = 10300",
			"SELECT id, k, name FROM B WHERE id = 2010",
			"SELECT COUNT(*) FROM B WHERE k = 7",
			"SELECT COUNT(*) FROM B WHERE k = 999",
			"SELECT COUNT(*), COUNT(name), SUM(f) FROM B",
		} {
			for _, row := range s.MustExec(q).Rows {
				b.WriteString(row.String())
			}
			b.WriteByte(';')
		}
		return b.String()
	}
	preProbes := probes()

	var rows []string
	for i := 0; i < 5000; i++ {
		name := fmt.Sprintf("'n%d'", i)
		if i%10 == 0 {
			name = "NULL"
		}
		rows = append(rows, fmt.Sprintf("(%d, %d, %s, %d)", 2000+i, i%999, name, i-2500))
	}
	s.MustExec("BEGIN")
	for _, q := range valuesStmts("B", rows) {
		s.MustExec(q)
	}
	s.MustExec("UPDATE B SET k = k + 1, name = NULL WHERE id % 7 = 0")
	s.MustExec("UPDATE B SET id = id + 100000 WHERE id >= 2000 AND id < 2100")
	s.MustExec("DELETE FROM B WHERE id % 5 = 1")
	if got := s.MustExec("SELECT COUNT(*) FROM B").Rows[0][0].Int(); got == pre.count {
		t.Fatalf("the transaction sees %d rows, as many as before it wrote", got)
	}
	s.MustExec("ROLLBACK")

	sameImage(t, "after ROLLBACK", imageOf(t, e, "B"), pre)
	if got := probes(); got != preProbes {
		t.Errorf("index probes after ROLLBACK:\n%s\nwant\n%s", got, preProbes)
	}
}

// TestFailedMultiRowInsertLeavesNothing: a duplicate key at row k of a
// multi-row INSERT fails the statement, and rows 1..k-1, inserted before
// the probe found the duplicate, are gone with it: the duplicate of a
// committed row, the duplicate of an earlier row of the same statement,
// and the same inside an explicit transaction, which rolls back whole.
func TestFailedMultiRowInsertLeavesNothing(t *testing.T) {
	e := NewDefault()
	s := e.Session()
	s.MustExec("CREATE TABLE D (id INT PRIMARY KEY, v VARCHAR); CREATE INDEX d_v ON D (v)")
	s.MustExec("INSERT INTO D VALUES (7, 'seven'), (9000, 'nine thousand')")
	pre := imageOf(t, e, "D")
	rows := func(n int, last string) string {
		var vals []string
		for i := 0; i < n; i++ {
			vals = append(vals, fmt.Sprintf("(%d, 'r%d')", 10+i, i))
		}
		return "INSERT INTO D VALUES " + strings.Join(append(vals, last), ", ")
	}
	for _, c := range []struct{ name, sql string }{
		{"committed key", rows(1500, "(9000, 'dup')")},
		{"earlier row", rows(1500, "(10, 'dup')")},
		{"first row", "INSERT INTO D VALUES (7, 'dup'), (8, 'eight')"},
	} {
		if _, err := s.Exec(c.sql); err == nil || !strings.Contains(err.Error(), "violates unique index") {
			t.Fatalf("%s: INSERT returned %v, want a unique violation", c.name, err)
		}
		sameImage(t, c.name, imageOf(t, e, "D"), pre)
	}
	s.MustExec("BEGIN")
	s.MustExec("INSERT INTO D VALUES (1, 'one')")
	if _, err := s.Exec(rows(1200, "(11, 'dup')")); err == nil {
		t.Fatal("INSERT with a duplicate key succeeded inside a transaction")
	}
	if s.InTx() {
		t.Fatal("the failed INSERT left its transaction open")
	}
	sameImage(t, "explicit transaction", imageOf(t, e, "D"), pre)
}

// TestLiteralAndExpressionValuesLoadAlike: the same rows, once as literal
// VALUES items and once as constant expressions (1+0, 'ab' || ”, ...),
// build the same heap (RIDs, stamps and cell bytes), the same index entries
// and the same log bytes. A literal skips the expression pipeline, so this
// holds only if it coerces (an INT into a FLOAT column) and lands exactly
// where the evaluated value does.
func TestLiteralAndExpressionValuesLoadAlike(t *testing.T) {
	type value struct{ lit, expr string }
	row := func(i int) []value {
		name := value{fmt.Sprintf("'name-%d'", i%37), fmt.Sprintf("'name-' || '%d'", i%37)}
		if i%11 == 0 {
			name = value{"NULL", "NULL || ''"}
		}
		return []value{
			{fmt.Sprint(i), fmt.Sprintf("%d + 0", i)},
			name,
			{fmt.Sprint(i % 13), fmt.Sprintf("%d * 1", i%13)}, // an INT into the FLOAT column
			{fmt.Sprintf("%d.25", i), fmt.Sprintf("%d.25 - 0", i)},
			{fmt.Sprint(i % 5), fmt.Sprintf("(%d + 1) - 1", i%5)},
		}
	}
	load := func(arm func(value) string) (*Engine, []byte) {
		opts := DefaultOptions()
		opts.DataDir = t.TempDir()
		opts.Sync = wal.SyncNone
		e, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = e.Close() })
		s := e.Session()
		s.MustExec("CREATE TABLE L (id INT PRIMARY KEY, name VARCHAR, f FLOAT, g FLOAT, h INT); CREATE INDEX l_name ON L (name); CREATE INDEX l_fh ON L (f, h)")
		var rows []string
		for i := 0; i < 1500; i++ {
			var items []string
			for _, v := range row(i) {
				items = append(items, arm(v))
			}
			rows = append(rows, "("+strings.Join(items, ", ")+")")
		}
		s.MustExec("BEGIN")
		for _, q := range valuesStmts("L", rows) {
			s.MustExec(q)
		}
		s.MustExec("COMMIT")
		segs, err := filepath.Glob(filepath.Join(opts.DataDir, "wal-*.seg"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no WAL segments (%v)", err)
		}
		var log []byte
		for _, seg := range segs {
			b, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			log = append(log, b...)
		}
		return e, log
	}
	litEng, litLog := load(func(v value) string { return v.lit })
	exprEng, exprLog := load(func(v value) string { return v.expr })
	lit := imageOf(t, litEng, "L")
	if len(lit.rows) != 1500 {
		t.Fatalf("literal load holds %d rows, want 1500", len(lit.rows))
	}
	sameImage(t, "literal vs expression VALUES", lit, imageOf(t, exprEng, "L"))
	if !reflect.DeepEqual(litLog, exprLog) {
		t.Errorf("log bytes differ: %d literal, %d expression", len(litLog), len(exprLog))
	}
	if got := litEng.Session().MustExec("SELECT g FROM L WHERE id = 14").Rows[0][0]; got.Kind() != types.KindFloat {
		t.Errorf("an INT literal in a FLOAT column reads back as %v", got.Kind())
	}
}

package engine

import (
	"strings"
	"testing"
)

// TestOrderByNaN: a NaN in an ORDER BY key sorts above every number
// ascending and before them descending (PostgreSQL's rule), and the other
// rows come out in order around it. types.Compare finds a NaN equal to every
// number, so a sort built on it alone misordered the rows around the NaN.
// The rule holds for a key behind a tied first key too, where the sort's
// row comparator decides.
func TestOrderByNaN(t *testing.T) {
	s := New(Options{}).Session()
	s.MustExec("CREATE TABLE T (k INT NOT NULL PRIMARY KEY, x FLOAT)")
	// x * 1e300 overflows to +Inf for x = 1e300 only, and Inf - Inf is NaN.
	s.MustExec("INSERT INTO T VALUES (1, 2.0), (2, 1e300), (3, 1.0), (4, 3.0), (5, 0.5)")
	const y = "x * 1e300 - x * 1e300 + x AS y"
	for q, want := range map[string]string{
		"SELECT k, " + y + " FROM T ORDER BY y":                          "(5, 0.5) (3, 1) (1, 2) (4, 3) (2, NaN)",
		"SELECT k, " + y + " FROM T ORDER BY y DESC":                     "(2, NaN) (4, 3) (1, 2) (3, 1) (5, 0.5)",
		"SELECT k, " + y + " FROM T ORDER BY y LIMIT 2":                  "(5, 0.5) (3, 1)",
		"SELECT k, k - k AS g, " + y + " FROM T ORDER BY g, y":           "(5, 0, 0.5) (3, 0, 1) (1, 0, 2) (4, 0, 3) (2, 0, NaN)",
		"SELECT k, k - k AS g, " + y + " FROM T ORDER BY g DESC, y DESC": "(2, 0, NaN) (4, 0, 3) (1, 0, 2) (3, 0, 1) (5, 0, 0.5)",
	} {
		var got []string
		for _, r := range s.MustExec(q).Rows {
			got = append(got, r.String())
		}
		if g := strings.Join(got, " "); g != want {
			t.Errorf("%s\n got %s\nwant %s", q, g, want)
		}
	}
}

// TestMinMaxNaN: MIN and MAX fold by the order ORDER BY sorts by, so a NaN
// is the largest number and the answer does not depend on row order: MIN is
// 0.5 and MAX is NaN whether the NaN row comes first or second.
// types.Compare finds a NaN equal to every number, so a fold by it depends
// on which row comes first.
func TestMinMaxNaN(t *testing.T) {
	for _, rows := range []string{
		"(1, 1e300), (2, 2.0), (3, 1.0), (4, 3.0), (5, 0.5)",
		"(1, 2.0), (2, 1e300), (3, 1.0), (4, 3.0), (5, 0.5)",
	} {
		s := New(Options{}).Session()
		s.MustExec("CREATE TABLE T (k INT NOT NULL PRIMARY KEY, x FLOAT)")
		s.MustExec("INSERT INTO T VALUES " + rows)
		for q, want := range map[string]string{
			"SELECT MIN(y), MAX(y) FROM (SELECT x * 1e300 - x * 1e300 + x AS y FROM T) d":                           "(0.5, NaN)",
			"SELECT g, MIN(y), MAX(y) FROM (SELECT k - k AS g, x * 1e300 - x * 1e300 + x AS y FROM T) d GROUP BY g": "(0, 0.5, NaN)",
		} {
			var got []string
			for _, r := range s.MustExec(q).Rows {
				got = append(got, r.String())
			}
			if g := strings.Join(got, " "); g != want {
				t.Errorf("rows %s: %s\n got %s\nwant %s", rows, q, g, want)
			}
		}
	}
}

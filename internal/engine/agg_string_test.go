package engine

import (
	"fmt"
	"strings"
	"testing"

	"sqlxnf/internal/optimizer"
)

// TestAggregatesOverStrings: COUNT, MIN, MAX and COUNT(DISTINCT) read a
// VARCHAR column without adding it up. Each aggregate folds only what its
// kind reads, so a group that sees two strings does not fail as arithmetic
// — serially, and through the parallel GROUP BY whose worker tables merge.
// SUM and AVG over strings fail the statement.
func TestAggregatesOverStrings(t *testing.T) {
	const n = 10_000
	name := func(i int) string { return fmt.Sprintf("s%03d", i*7%500) }
	type group struct {
		count    int
		min, max string
		distinct map[string]bool
	}
	all, byKey := group{distinct: map[string]bool{}}, map[int]*group{}
	for i := 0; i < n; i++ {
		if i%13 == 0 {
			continue // s is NULL
		}
		s := name(i)
		g := byKey[i%5]
		if g == nil {
			g = &group{distinct: map[string]bool{}}
			byKey[i%5] = g
		}
		for _, g := range []*group{&all, g} {
			g.count++
			if g.min == "" || s < g.min {
				g.min = s
			}
			if s > g.max {
				g.max = s
			}
			g.distinct[s] = true
		}
	}
	var grouped []string
	for k := 0; k < 5; k++ {
		g := byKey[k]
		grouped = append(grouped, fmt.Sprintf("(%d, %d, %s, %s, %d)", k, g.count, g.min, g.max, len(g.distinct)))
	}
	want := map[string]string{
		"SELECT COUNT(s) FROM T":          fmt.Sprintf("(%d)", all.count),
		"SELECT MIN(s), MAX(s) FROM T":    fmt.Sprintf("(%s, %s)", all.min, all.max),
		"SELECT COUNT(DISTINCT s) FROM T": fmt.Sprintf("(%d)", len(all.distinct)),
		"SELECT k, COUNT(s), MIN(s), MAX(s), COUNT(DISTINCT s) FROM T GROUP BY k ORDER BY k": strings.Join(grouped, " "),
	}
	for _, dop := range []int{-1, 4} {
		e := New(Options{Optimizer: optimizer.Options{MaxDOP: dop}})
		s := e.Session()
		s.MustExec("CREATE TABLE T (id INT PRIMARY KEY, k INT, s VARCHAR)")
		var sb strings.Builder
		for i := 0; i < n; i++ {
			if sb.Len() == 0 {
				sb.WriteString("INSERT INTO T VALUES ")
			} else {
				sb.WriteString(", ")
			}
			v := "'" + name(i) + "'"
			if i%13 == 0 {
				v = "NULL"
			}
			fmt.Fprintf(&sb, "(%d, %d, %s)", i, i%5, v)
			if i%500 == 499 {
				s.MustExec(sb.String())
				sb.Reset()
			}
		}
		s.MustExec("ANALYZE T")
		if plan := s.MustExec("EXPLAIN SELECT k, MIN(s) FROM T GROUP BY k").Explain; dop > 1 && !strings.Contains(plan, "(parallel=") {
			t.Fatalf("MaxDOP %d: the GROUP BY does not run in parallel:\n%s", dop, plan)
		}
		// SUM and AVG add: a string is an error even when a group holds
		// only one, where SUM used to return it and AVG to panic.
		for _, q := range []string{"SELECT SUM(s) FROM T WHERE id = 1", "SELECT AVG(s) FROM T WHERE id = 1", "SELECT SUM(s) FROM T"} {
			if _, err := s.Exec(q); err == nil || !strings.Contains(err.Error(), "numeric") {
				t.Errorf("MaxDOP %d: %s: err %v, want a numeric-operand error", dop, q, err)
			}
		}
		for q, w := range want {
			var rows []string
			for _, r := range s.MustExec(q).Rows {
				rows = append(rows, r.String())
			}
			if got := strings.Join(rows, " "); got != w {
				t.Errorf("MaxDOP %d: %s\n got %s\nwant %s", dop, q, got, w)
			}
		}
	}
}

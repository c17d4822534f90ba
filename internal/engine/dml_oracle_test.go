package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"sqlxnf/internal/optimizer"
	"sqlxnf/internal/rewrite"
	"sqlxnf/internal/storage"
	"sqlxnf/internal/types"
)

// Metamorphic DML oracle. The access path of a searched UPDATE/DELETE is not
// allowed to change its result: the same statement runs on engines opened
// with different optimizer configurations — default, indexes off, parallel
// scans forced, rewrites off — and against a brute-force Go model that
// evaluates the predicate row by row with SQL's three-valued logic. After
// every statement all engines must report the same RowsAffected, have removed
// exactly the RIDs the model matched, and hold identical heaps (same rows at
// the same RIDs): mutation order is RID order whatever the plan delivered.
// Every generated WHERE clause also runs as a SELECT on every engine, cold and
// then as a plan-cache hit, against the same model.

// mmCols is the one table shape the generator uses; what varies per world is
// the data, the index set and whether statistics exist. a and u hold unique
// non-NULL values, d is non-NULL, b/c/s hold NULLs.
var mmCols = []string{"a", "b", "c", "d", "u", "s"}

const (
	mmA = iota
	mmB
	mmC
	mmD
	mmU
	mmS
)

// mmPred is a generated WHERE clause: SQL text for the engines, eval for the
// model.
type mmPred interface {
	sql(q string) string
	eval(row types.Row) types.Tri
}

type mmCmp struct {
	col int
	op  string
	val types.Value
}

func (p mmCmp) sql(q string) string { return q + mmCols[p.col] + " " + p.op + " " + p.val.SQLLiteral() }
func (p mmCmp) eval(row types.Row) types.Tri {
	v := row[p.col]
	if v.IsNull() || p.val.IsNull() {
		return types.Unknown
	}
	c := mmCompare(v, p.val)
	switch p.op {
	case "=":
		return types.TriOf(c == 0)
	case "<>":
		return types.TriOf(c != 0)
	case "<":
		return types.TriOf(c < 0)
	case "<=":
		return types.TriOf(c <= 0)
	case ">":
		return types.TriOf(c > 0)
	default:
		return types.TriOf(c >= 0)
	}
}

func mmCompare(a, b types.Value) int {
	if a.Kind() == types.KindString {
		return strings.Compare(a.Str(), b.Str())
	}
	switch { // INT and FLOAT compare by value; the table's ints are exact as floats
	case a.Float() < b.Float():
		return -1
	case a.Float() > b.Float():
		return 1
	}
	return 0
}

// mmLit renders a literal; a FLOAT keeps its decimal point so it parses back
// as a FLOAT even when whole.
func mmLit(v types.Value) string {
	if v.Kind() == types.KindFloat {
		return strconv.FormatFloat(v.Float(), 'f', 1, 64)
	}
	return v.SQLLiteral()
}

type mmBetween struct {
	col    int
	lo, hi int64
}

func (p mmBetween) sql(q string) string {
	return fmt.Sprintf("%s%s BETWEEN %d AND %d", q, mmCols[p.col], p.lo, p.hi)
}
func (p mmBetween) eval(row types.Row) types.Tri {
	v := row[p.col]
	if v.IsNull() {
		return types.Unknown
	}
	return types.TriOf(v.Int() >= p.lo && v.Int() <= p.hi)
}

// mmIn is col [NOT] IN (vals..., itemCols...): constants, then column
// references (a list holding one is never an index probe).
type mmIn struct {
	col      int
	vals     []types.Value
	itemCols []int
	negate   bool
}

func (p mmIn) sql(q string) string {
	lits := make([]string, len(p.vals), len(p.vals)+len(p.itemCols))
	for i, v := range p.vals {
		lits[i] = mmLit(v)
	}
	for _, c := range p.itemCols {
		lits = append(lits, q+mmCols[c])
	}
	not := ""
	if p.negate {
		not = "NOT "
	}
	return fmt.Sprintf("%s%s %sIN (%s)", q, mmCols[p.col], not, strings.Join(lits, ", "))
}
func (p mmIn) eval(row types.Row) types.Tri {
	v := row[p.col]
	res := types.False
	if v.IsNull() {
		res = types.Unknown
	} else {
		items := p.vals
		for _, c := range p.itemCols {
			items = append(slices.Clip(items), row[c])
		}
		for _, item := range items {
			if item.IsNull() {
				res = types.Unknown
			} else if mmCompare(v, item) == 0 {
				res = types.True
				break
			}
		}
	}
	if p.negate {
		return res.Not()
	}
	return res
}

type mmIsNull struct {
	col    int
	negate bool
}

func (p mmIsNull) sql(q string) string {
	if p.negate {
		return q + mmCols[p.col] + " IS NOT NULL"
	}
	return q + mmCols[p.col] + " IS NULL"
}
func (p mmIsNull) eval(row types.Row) types.Tri { return types.TriOf(row[p.col].IsNull() != p.negate) }

type mmBool struct {
	op   string // AND, OR
	l, r mmPred
}

func (p mmBool) sql(q string) string { return "(" + p.l.sql(q) + " " + p.op + " " + p.r.sql(q) + ")" }
func (p mmBool) eval(row types.Row) types.Tri {
	if p.op == "AND" {
		return p.l.eval(row).And(p.r.eval(row))
	}
	return p.l.eval(row).Or(p.r.eval(row))
}

type mmNot struct{ e mmPred }

func (p mmNot) sql(q string) string          { return "NOT (" + p.e.sql(q) + ")" }
func (p mmNot) eval(row types.Row) types.Tri { return p.e.eval(row).Not() }

// mmSet is one SET assignment: a constant (possibly NULL), or another int
// column plus a constant (src = col for `c = c + k`).
type mmSet struct {
	col int
	src int // -1: constant
	k   types.Value
}

func (a mmSet) sql(q string) string {
	if a.src < 0 {
		return mmCols[a.col] + " = " + a.k.SQLLiteral()
	}
	return fmt.Sprintf("%s = %s%s + %d", mmCols[a.col], q, mmCols[a.src], a.k.Int())
}
func (a mmSet) apply(old types.Row) types.Value {
	if a.src < 0 {
		return a.k
	}
	if old[a.src].IsNull() {
		return types.Null()
	}
	return types.NewInt(old[a.src].Int() + a.k.Int())
}

// mmStmt is one generated statement.
type mmStmt struct {
	kind  string // INSERT, UPDATE, DELETE
	alias string
	where mmPred // nil = no WHERE
	sets  []mmSet
	row   types.Row // INSERT
}

func (st *mmStmt) SQL() string {
	tbl, q := "R", ""
	if st.alias != "" {
		tbl, q = "R "+st.alias, st.alias+"."
	}
	where := ""
	if st.where != nil {
		where = " WHERE " + st.where.sql(q)
	}
	switch st.kind {
	case "INSERT":
		lits := make([]string, len(st.row))
		for i, v := range st.row {
			lits[i] = v.SQLLiteral()
		}
		return "INSERT INTO R VALUES (" + strings.Join(lits, ", ") + ")"
	case "UPDATE":
		sets := make([]string, len(st.sets))
		for i, a := range st.sets {
			sets[i] = a.sql(q)
		}
		return "UPDATE " + tbl + " SET " + strings.Join(sets, ", ") + where
	default:
		return "DELETE FROM " + tbl + where
	}
}

// mmGen draws statements over a table whose a/u values live in [0, span).
type mmGen struct {
	rng  *rand.Rand
	span int64
}

func (g *mmGen) intIn(n int64) types.Value { return types.NewInt(g.rng.Int63n(n)) }
func (g *mmGen) str() types.Value          { return types.NewString(fmt.Sprintf("v%d", g.rng.Intn(6))) }

// colVal draws a comparison constant for col from the column's own domain,
// so predicates select something.
func (g *mmGen) colVal(col int) types.Value {
	if g.rng.Intn(12) == 0 {
		return types.Null()
	}
	switch col {
	case mmA, mmU:
		return g.intIn(g.span)
	case mmB:
		return g.intIn(8)
	case mmC:
		return g.intIn(40)
	case mmD:
		return g.intIn(5)
	default:
		return g.str()
	}
}

// inList draws col [NOT] IN (...) over the list shapes an index probe has to
// get right: repeated items, NULL items, nothing but NULLs, FLOAT items on an
// INT column (whole: equal to that INT; fractional: equal to nothing), and a
// column reference among the items.
func (g *mmGen) inList(col int) mmIn {
	p := mmIn{col: col, negate: g.rng.Intn(5) == 0}
	for n := 1 + g.rng.Intn(5); n > 0; n-- {
		v := g.colVal(col)
		switch r := g.rng.Intn(8); {
		case r == 0 && len(p.vals) > 0:
			v = p.vals[g.rng.Intn(len(p.vals))]
		case r == 1 && col != mmS && !v.IsNull():
			v = types.NewFloat(float64(v.Int()) + 0.5*float64(g.rng.Intn(2)))
		}
		p.vals = append(p.vals, v)
	}
	switch r := g.rng.Intn(10); {
	case r == 0:
		for i := range p.vals {
			p.vals[i] = types.Null()
		}
	case r == 1 && col != mmS:
		p.itemCols = []int{[]int{mmB, mmC, mmD}[g.rng.Intn(3)]}
	}
	return p
}

// redraw returns p with every non-NULL constant drawn again from its column's
// domain, INT staying INT and FLOAT FLOAT: the same statement shape with other
// values, which is what a plan-cache hit rebinds.
func (g *mmGen) redraw(p mmPred) mmPred {
	again := func(col int, old types.Value) types.Value {
		v := g.colVal(col)
		for v.IsNull() {
			v = g.colVal(col)
		}
		switch old.Kind() {
		case types.KindNull:
			return old
		case types.KindFloat:
			return types.NewFloat(float64(v.Int()) + 0.5*float64(g.rng.Intn(2)))
		}
		return v
	}
	switch x := p.(type) {
	case mmCmp:
		x.val = again(x.col, x.val)
		return x
	case mmBetween:
		x.lo = again(x.col, types.NewInt(0)).Int()
		x.hi = x.lo + g.rng.Int63n(6)
		return x
	case mmIn:
		x.vals = slices.Clone(x.vals)
		for i, v := range x.vals {
			x.vals[i] = again(x.col, v)
		}
		return x
	case mmBool:
		return mmBool{op: x.op, l: g.redraw(x.l), r: g.redraw(x.r)}
	case mmNot:
		return mmNot{e: g.redraw(x.e)}
	}
	return p
}

func (g *mmGen) leaf() mmPred {
	col := g.rng.Intn(len(mmCols))
	switch g.rng.Intn(7) {
	case 0, 1:
		return mmCmp{col: col, op: "=", val: g.colVal(col)}
	case 2:
		ops := []string{"<>", "<", "<=", ">", ">="}
		return mmCmp{col: col, op: ops[g.rng.Intn(len(ops))], val: g.colVal(col)}
	case 3:
		if col == mmS {
			return mmIsNull{col: col, negate: g.rng.Intn(2) == 0}
		}
		lo := g.colVal(col)
		if lo.IsNull() {
			lo = types.NewInt(0)
		}
		return mmBetween{col: col, lo: lo.Int(), hi: lo.Int() + g.rng.Int63n(6)}
	case 4:
		return g.inList(col)
	case 5: // a list right after an equality prefix of r_db, r_dca or r_bc
		pair := [][2]int{{mmD, mmB}, {mmD, mmC}, {mmB, mmC}}[g.rng.Intn(3)]
		return mmBool{op: "AND", l: mmCmp{col: pair[0], op: "=", val: g.colVal(pair[0])}, r: g.inList(pair[1])}
	default:
		return mmIsNull{col: col, negate: g.rng.Intn(2) == 0}
	}
}

func (g *mmGen) pred(depth int) mmPred {
	if depth > 0 {
		switch g.rng.Intn(5) {
		case 0, 1:
			return mmBool{op: "AND", l: g.pred(depth - 1), r: g.pred(depth - 1)}
		case 2:
			return mmBool{op: "OR", l: g.pred(depth - 1), r: g.pred(depth - 1)}
		case 3:
			return mmNot{e: g.pred(depth - 1)}
		}
	}
	return g.leaf()
}

func (g *mmGen) randomRow() types.Row {
	orNull := func(v types.Value) types.Value {
		if g.rng.Intn(7) == 0 {
			return types.Null()
		}
		return v
	}
	return types.Row{g.intIn(g.span), orNull(g.intIn(8)), orNull(g.intIn(40)), g.intIn(5), g.intIn(g.span), orNull(g.str())}
}

func (g *mmGen) stmt() *mmStmt {
	st := &mmStmt{}
	if g.rng.Intn(3) == 0 {
		st.alias = "x"
	}
	if g.rng.Intn(12) != 0 { // the rest have no WHERE
		st.where = g.pred(g.rng.Intn(3))
	}
	switch r := g.rng.Intn(10); {
	case r < 3:
		st.kind = "INSERT"
		st.row = g.randomRow()
	case r < 8:
		st.kind = "UPDATE"
		for n := 1 + g.rng.Intn(2); n > 0; n-- {
			var a mmSet
			switch g.rng.Intn(7) {
			case 0: // key-changing, may collide
				a = mmSet{col: mmA, src: mmA, k: types.NewInt(g.span * int64(1+g.rng.Intn(3)))}
			case 1:
				a = mmSet{col: mmU, src: -1, k: g.intIn(g.span)}
			case 2:
				a = mmSet{col: mmB, src: -1, k: g.colVal(mmB)}
			case 3:
				a = mmSet{col: mmC, src: mmC, k: types.NewInt(int64(g.rng.Intn(5)) - 2)}
			case 4:
				a = mmSet{col: mmC, src: mmB, k: types.NewInt(1)}
			case 5:
				a = mmSet{col: mmD, src: -1, k: g.intIn(5)}
			default:
				a = mmSet{col: mmS, src: -1, k: g.colVal(mmS)}
			}
			if len(st.sets) == 1 && st.sets[0].col == a.col {
				break // one assignment per column
			}
			st.sets = append(st.sets, a)
		}
	default:
		st.kind = "DELETE"
		if st.where == nil && g.rng.Intn(4) != 0 {
			st.where = g.leaf() // unqualified DELETE empties the table: keep it rare
		}
	}
	return st
}

// mmTable is a table's visible contents in RID order.
type mmTable struct {
	rids []storage.RID
	rows []types.Row
}

func mmSnapshot(t *testing.T, s *Session) *mmTable {
	t.Helper()
	tb := &mmTable{}
	err := scanTable(s, "R", func(rid storage.RID, row types.Row) (bool, error) {
		tb.rids = append(tb.rids, rid)
		tb.rows = append(tb.rows, row)
		return false, nil
	})
	if err != nil {
		t.Fatalf("scanning R: %v", err)
	}
	return tb
}

// mmExpect is the model's verdict on one statement against the pre-state.
type mmExpect struct {
	fails    bool          // unique violation: every engine must error, nothing changes
	affected []storage.RID // sorted; matched rows of an UPDATE/DELETE
	rows     []types.Row   // expected post-state, as a multiset
}

// mmModel evaluates st against pre the slow way. Matches are processed in
// RID order, one row at a time, with unique constraints checked against the
// running state — the engine's incremental semantics (an UPDATE that passes
// through a duplicate fails even if the final state would be unique).
func mmModel(pre *mmTable, st *mmStmt, uniqueCols []int) mmExpect {
	rows := slices.Clone(pre.rows)
	counts := make([]map[int64]int, len(mmCols))
	for _, c := range uniqueCols {
		counts[c] = map[int64]int{}
		for _, r := range rows {
			counts[c][r[c].Int()]++
		}
	}
	unchanged := mmExpect{fails: true, rows: pre.rows}
	if st.kind == "INSERT" {
		for _, c := range uniqueCols {
			if counts[c][st.row[c].Int()] > 0 {
				return unchanged
			}
		}
		return mmExpect{rows: append(rows, st.row)}
	}
	var matched []int
	for i, r := range rows {
		if st.where == nil || st.where.eval(r) == types.True {
			matched = append(matched, i)
		}
	}
	sort.Slice(matched, func(i, k int) bool { return pre.rids[matched[i]].Pack() < pre.rids[matched[k]].Pack() })
	exp := mmExpect{}
	for _, i := range matched {
		exp.affected = append(exp.affected, pre.rids[i])
	}
	if st.kind == "DELETE" {
		dead := map[int]bool{}
		for _, i := range matched {
			dead[i] = true
		}
		for i, r := range rows {
			if !dead[i] {
				exp.rows = append(exp.rows, r)
			}
		}
		return exp
	}
	for _, i := range matched {
		old := rows[i]
		nr := old.Clone()
		for _, a := range st.sets {
			nr[a.col] = a.apply(old)
		}
		for _, c := range uniqueCols {
			if nr[c].Int() != old[c].Int() && counts[c][nr[c].Int()] > 0 {
				return unchanged
			}
		}
		for _, c := range uniqueCols {
			counts[c][old[c].Int()]--
			counts[c][nr[c].Int()]++
		}
		rows[i] = nr
	}
	exp.rows = rows
	return exp
}

func mmSortedStrings(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// mmWorld is one random table on every engine configuration.
type mmWorld struct {
	names      []string
	sess       []*Session
	uniqueCols []int
	gen        *mmGen
}

func newMMWorld(t *testing.T, seed int64, nRows int) *mmWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := &mmWorld{gen: &mmGen{rng: rng, span: int64(nRows) * 2}}
	add := func(name string, mutate func(*Options)) {
		o := DefaultOptions()
		mutate(&o)
		w.names = append(w.names, name)
		w.sess = append(w.sess, New(o).Session())
	}
	add("default", func(*Options) {})
	add("noindexes", func(o *Options) { o.Optimizer = optimizer.Options{NoIndexes: true} })
	add("dop4", func(o *Options) { o.Optimizer = optimizer.Options{MaxDOP: 4} })
	add("norewrite", func(o *Options) { o.Rewrite = rewrite.Options{NoMergeSelects: true, NoFoldConstants: true} })

	// Random index set: a is the primary key, a plain unique index, or bare;
	// the rest draw from single, composite and unique candidates.
	var ddl []string
	switch rng.Intn(3) {
	case 0:
		ddl = append(ddl, "CREATE TABLE R (a INT PRIMARY KEY, b INT, c INT, d INT, u INT, s VARCHAR)")
		w.uniqueCols = append(w.uniqueCols, mmA)
	case 1:
		ddl = append(ddl, "CREATE TABLE R (a INT, b INT, c INT, d INT, u INT, s VARCHAR)", "CREATE UNIQUE INDEX r_a ON R (a)")
		w.uniqueCols = append(w.uniqueCols, mmA)
	default:
		ddl = append(ddl, "CREATE TABLE R (a INT, b INT, c INT, d INT, u INT, s VARCHAR)")
	}
	if rng.Intn(2) == 0 {
		ddl = append(ddl, "CREATE UNIQUE INDEX r_u ON R (u)")
		w.uniqueCols = append(w.uniqueCols, mmU)
	}
	for _, ix := range []string{
		"CREATE INDEX r_b ON R (b)", "CREATE INDEX r_c ON R (c)", "CREATE INDEX r_s ON R (s)",
		"CREATE INDEX r_bc ON R (b, c)", "CREATE INDEX r_db ON R (d, b)", "CREATE INDEX r_dca ON R (d, c, a)",
	} {
		if rng.Intn(2) == 0 {
			ddl = append(ddl, ix)
		}
	}
	// Data: a and u are permutations (unique whether or not an index says so).
	as, us := rng.Perm(int(w.gen.span)), rng.Perm(int(w.gen.span))
	var load []string
	for lo := 0; lo < nRows; lo += 400 {
		var vals []string
		for i := lo; i < nRows && i < lo+400; i++ {
			row := w.gen.randomRow()
			row[mmA], row[mmU] = types.NewInt(int64(as[i])), types.NewInt(int64(us[i]))
			lits := make([]string, len(row))
			for k, v := range row {
				lits[k] = v.SQLLiteral()
			}
			vals = append(vals, "("+strings.Join(lits, ", ")+")")
		}
		load = append(load, "INSERT INTO R VALUES "+strings.Join(vals, ", "))
	}
	if rng.Intn(2) == 0 {
		load = append(load, "ANALYZE R")
	}
	for _, s := range w.sess {
		for _, stmt := range append(ddl, load...) {
			s.MustExec(stmt)
		}
	}
	return w
}

// step runs one statement everywhere and checks every engine against the
// model and against each other. pre is engine 0's state before the statement;
// the state after it is returned.
func (w *mmWorld) step(t *testing.T, pre *mmTable, st *mmStmt) *mmTable {
	t.Helper()
	sql := st.SQL()
	if st.where != nil {
		w.checkSelect(t, pre, st.alias, st.where)
	}
	exp := mmModel(pre, st, w.uniqueCols)
	var post0 *mmTable
	for i, s := range w.sess {
		res, err := s.Exec(sql)
		if (err != nil) != exp.fails {
			t.Fatalf("[%s] %s\n  error = %v, model expects failure = %v", w.names[i], sql, err, exp.fails)
		}
		if err == nil && st.kind != "INSERT" && res.RowsAffected != int64(len(exp.affected)) {
			t.Fatalf("[%s] %s\n  RowsAffected = %d, model matched %d", w.names[i], sql, res.RowsAffected, len(exp.affected))
		}
		post := mmSnapshot(t, s)
		if i == 0 {
			post0 = post
			continue
		}
		if !slices.Equal(post.rids, post0.rids) || !slices.EqualFunc(post.rows, post0.rows, types.Row.Equal) {
			t.Fatalf("[%s] heap diverged from [%s] after %s\n  %d rows vs %d", w.names[i], w.names[0], sql, len(post.rids), len(post0.rids))
		}
	}
	// Affected RID set: what was visible before and is gone now (an UPDATE
	// writes the new version at a new RID).
	still := make(map[storage.RID]bool, len(post0.rids))
	for _, rid := range post0.rids {
		still[rid] = true
	}
	var gone []storage.RID
	for _, rid := range pre.rids {
		if !still[rid] {
			gone = append(gone, rid)
		}
	}
	sort.Slice(gone, func(i, k int) bool { return gone[i].Pack() < gone[k].Pack() })
	if !slices.Equal(gone, exp.affected) {
		t.Fatalf("%s\n  affected RIDs %v, model expects %v", sql, gone, exp.affected)
	}
	if got, want := mmSortedStrings(post0.rows), mmSortedStrings(exp.rows); !slices.Equal(got, want) {
		t.Fatalf("%s\n  table contents diverge from the model: %d rows vs %d", sql, len(got), len(want))
	}
	return post0
}

// checkSelect runs SELECT * FROM R WHERE where on every engine, twice — the
// second execution is a plan-cache hit on the engines that cache plans — and
// compares each result, as a multiset, with the model's row-by-row evaluation
// over pre. Column a is unique, so equal multisets are equal RID sets.
func (w *mmWorld) checkSelect(t *testing.T, pre *mmTable, alias string, where mmPred) {
	t.Helper()
	q := ""
	if alias != "" {
		q = alias + "."
	}
	sql := "SELECT * FROM R " + alias + " WHERE " + where.sql(q)
	var want []types.Row
	for _, r := range pre.rows {
		if where.eval(r) == types.True {
			want = append(want, r)
		}
	}
	for i, s := range w.sess {
		for _, run := range []string{"cold", "repeat"} {
			res, err := s.Exec(sql)
			if err != nil {
				t.Fatalf("[%s, %s] %s\n  %v", w.names[i], run, sql, err)
			}
			if got, exp := mmSortedStrings(res.Rows), mmSortedStrings(want); !slices.Equal(got, exp) {
				t.Fatalf("[%s, %s] %s\n  returned %d rows %v\n  model has %d rows %v", w.names[i], run, sql, len(got), got, len(exp), exp)
			}
		}
	}
}

// TestMetamorphicDML: 24 random small worlds × 90 statements (2160 per
// configuration), then one table large enough for the dop4 engine to run its
// target scans under Gather.
func TestMetamorphicDML(t *testing.T) {
	indexed, inProbes, total := 0, 0, 0
	for world := 0; world < 24; world++ {
		w := newMMWorld(t, int64(100+world), 40+world*8)
		state := mmSnapshot(t, w.sess[0])
		for i := 0; i < 90; i++ {
			st := w.gen.stmt()
			if st.kind != "INSERT" {
				total++
				if r, err := w.sess[0].Exec("EXPLAIN " + st.SQL()); err == nil && strings.Contains(r.Explain, "IndexScan") {
					indexed++
					if strings.Contains(r.Explain, "in-list") {
						inProbes++
					}
				}
			}
			state = w.step(t, state, st)
		}
	}
	// The configurations must actually differ in access path.
	if indexed == 0 || indexed == total || inProbes == 0 {
		t.Fatalf("default engine chose IndexScan for %d of %d searched statements, %d of them IN-list probes; the oracle needs every path",
			indexed, total, inProbes)
	}
	t.Logf("%d searched statements: %d IndexScan, %d of them IN-list probes", total, indexed, inProbes)

	big := newMMWorld(t, 7, 12_000)
	if r := big.sess[2].MustExec("EXPLAIN UPDATE R SET d = 1 WHERE c + 0 = 5"); !strings.Contains(r.Explain, "Gather") {
		t.Fatalf("[%s] target scan of a 12k-row table is not parallel:\n%s", big.names[2], r.Explain)
	}
	state := mmSnapshot(t, big.sess[0])
	for i := 0; i < 30; i++ {
		st := big.gen.stmt()
		if st.kind == "DELETE" && st.where == nil {
			continue // keep the table above the parallel threshold
		}
		state = big.step(t, state, st)
	}
}

// TestMetamorphicInListRebind: a cached plan whose index probe is an IN list
// evaluates the list at Open, so a hit with other values of the same shape
// probes for those values. Each IN-list shape runs as a SELECT on every engine
// with three sets of values — cold, repeated, then rebound twice — against the
// model.
func TestMetamorphicInListRebind(t *testing.T) {
	const worlds, shapes = 8, 40
	var hits, probes int64
	for world := 0; world < worlds; world++ {
		w := newMMWorld(t, int64(500+world), 150)
		pre := mmSnapshot(t, w.sess[0])
		for i := 0; i < shapes; i++ {
			var p mmPred = w.gen.inList(w.gen.rng.Intn(len(mmCols)))
			switch w.gen.rng.Intn(3) {
			case 0:
				p = mmBool{op: "AND", l: w.gen.leaf(), r: p}
			case 1:
				lead := []int{mmD, mmB}[w.gen.rng.Intn(2)]
				p = mmBool{op: "AND", l: mmCmp{col: lead, op: "=", val: w.gen.colVal(lead)}, r: w.gen.inList(mmC)}
			}
			if r := w.sess[0].MustExec("EXPLAIN SELECT * FROM R WHERE " + p.sql("")); strings.Contains(r.Explain, "in-list") {
				probes++
			}
			for k := 0; k < 3; k++ {
				w.checkSelect(t, pre, "", p)
				p = w.gen.redraw(p)
			}
		}
		hits += w.sess[0].Engine().PlanCacheStats().Hits
	}
	// Six executions per shape: one compile, then a repeat and four more under
	// the same key when the rebinds hit.
	if hits < 4*worlds*shapes {
		t.Errorf("plan cache hit %d times over %d shapes; the rebinds are not hitting", hits, worlds*shapes)
	}
	if probes == 0 || probes == worlds*shapes {
		t.Errorf("%d of %d shapes probe an index with their list; the oracle needs both paths", probes, worlds*shapes)
	}
}

// Fixed MVCC cases for target sets reached through an index: old row versions
// keep their index entries until vacuum, and the probe must not match them.

func mvccDMLEngine(t *testing.T) *Engine {
	t.Helper()
	o := DefaultOptions()
	o.VacuumDeadRows = -1 // keep old versions and their index entries around
	e := New(o)
	s := e.Session()
	s.MustExec("CREATE TABLE K (id INT PRIMARY KEY, v INT)")
	for i := 0; i < 50; i++ {
		s.MustExec(fmt.Sprintf("INSERT INTO K VALUES (%d, %d)", i, i*10))
	}
	if r := s.MustExec("EXPLAIN UPDATE K SET v = 0 WHERE id = 7"); !strings.Contains(r.Explain, "IndexScan K using K_PK") {
		t.Fatalf("primary-key UPDATE does not probe the index:\n%s", r.Explain)
	}
	return e
}

func TestSearchedDMLSkipsOldVersions(t *testing.T) {
	s := mvccDMLEngine(t).Session()
	// Same row twice by primary key, no vacuum in between: the first update's
	// dead version still has an index entry under id = 7.
	for i := 1; i <= 2; i++ {
		if r := s.MustExec(fmt.Sprintf("UPDATE K SET v = %d WHERE id = 7", i)); r.RowsAffected != 1 {
			t.Fatalf("update #%d by primary key affected %d rows, want 1", i, r.RowsAffected)
		}
	}
	if got := s.MustExec("SELECT v FROM K WHERE id = 7").Rows; len(got) != 1 || got[0][0].Int() != 2 {
		t.Fatalf("after two updates: %v", got)
	}
	// Key-changing update: the old key's entry points at a dead version.
	if r := s.MustExec("UPDATE K SET id = 1007 WHERE id = 7"); r.RowsAffected != 1 {
		t.Fatalf("key-changing update affected %d", r.RowsAffected)
	}
	if r := s.MustExec("UPDATE K SET v = 99 WHERE id = 7"); r.RowsAffected != 0 {
		t.Fatalf("update by the old key affected %d rows, want 0", r.RowsAffected)
	}
	if r := s.MustExec("DELETE FROM K WHERE id = 7"); r.RowsAffected != 0 {
		t.Fatalf("delete by the old key affected %d rows, want 0", r.RowsAffected)
	}
	if r := s.MustExec("DELETE FROM K WHERE id = 1007"); r.RowsAffected != 1 {
		t.Fatalf("delete by the new key affected %d rows, want 1", r.RowsAffected)
	}
}

func TestSearchedDMLFindsOwnInserts(t *testing.T) {
	s := mvccDMLEngine(t).Session()
	s.MustExec("BEGIN")
	s.MustExec("INSERT INTO K VALUES (500, 1)")
	if r := s.MustExec("UPDATE K SET v = 2 WHERE id = 500"); r.RowsAffected != 1 {
		t.Fatalf("own insert not found through the index: affected %d", r.RowsAffected)
	}
	if r := s.MustExec("DELETE FROM K WHERE id = 500"); r.RowsAffected != 1 {
		t.Fatalf("own updated insert not found through the index: affected %d", r.RowsAffected)
	}
	s.MustExec("COMMIT")
	if got := s.MustExec("SELECT id FROM K WHERE id = 500").Rows; len(got) != 0 {
		t.Fatalf("row survived its delete: %v", got)
	}
}

func TestSearchedDMLIndexProbeConflict(t *testing.T) {
	e := mvccDMLEngine(t)
	s1, s2 := e.Session(), e.Session()
	s1.MustExec("BEGIN")
	s1.MustExec("SELECT v FROM K WHERE id = 7") // snapshot taken
	s2.MustExec("UPDATE K SET v = 71 WHERE id = 7")
	// s1's probe reaches the version its snapshot sees, which s2 has since
	// replaced and committed: first committer wins, no lost update.
	_, err := s1.Exec("UPDATE K SET v = 72 WHERE id = 7")
	if !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("update of a concurrently committed row: %v, want ErrWriteConflict", err)
	}
	if s1.InTx() {
		t.Fatal("conflicting transaction still open")
	}
	if got := s1.MustExec("SELECT v FROM K WHERE id = 7").Rows; len(got) != 1 || got[0][0].Int() != 71 {
		t.Fatalf("committed update lost: %v", got)
	}
}

// TestIndexRangeNullSemantics pins two optimizer/executor bugs the oracle
// found at its first run (both fail at the parent of PR 17, for SELECT too):
// NULLs sort first in the btree key encoding, so an index range without a
// lower bound of its own (`b < 5`) swept up every NULL-keyed row, and a NULL
// comparison constant used as a scan bound matched rows (`b = NULL` returned
// the NULL rows, `b >= NULL` everything) instead of nothing.
func TestIndexRangeNullSemantics(t *testing.T) {
	s := NewDefault().Session()
	s.MustExec("CREATE TABLE N (a INT, b INT, c INT); CREATE INDEX n_b ON N (b); CREATE INDEX n_cb ON N (c, b)")
	var vals []string
	for i := 0; i < 1000; i++ {
		b := fmt.Sprint(i)
		if i%10 == 0 {
			b = "NULL"
		}
		vals = append(vals, fmt.Sprintf("(%d, %s, %d)", i, b, i%2))
	}
	s.MustExec("INSERT INTO N VALUES " + strings.Join(vals, ", "))
	s.MustExec("ANALYZE N")
	for _, c := range []struct {
		where string
		want  int64
	}{
		{"b < 5", 4}, {"b <= 5", 5}, {"c = 1 AND b < 6", 3}, {"c = 0 AND b <= 6", 3},
		{"b = NULL", 0}, {"b > NULL", 0}, {"b >= NULL", 0}, {"b <= NULL", 0}, {"c = 1 AND b < NULL", 0},
	} {
		if r := s.MustExec("EXPLAIN SELECT a FROM N WHERE " + c.where); !strings.Contains(r.Explain, "IndexScan") {
			t.Fatalf("%s is not answered from an index:\n%s", c.where, r.Explain)
		}
		if got := s.MustExec("SELECT COUNT(*) FROM N WHERE " + c.where).Rows[0][0].Int(); got != c.want {
			t.Errorf("SELECT … WHERE %s: %d rows, want %d", c.where, got, c.want)
		}
		if got := s.MustExec("UPDATE N SET a = a WHERE " + c.where).RowsAffected; got != c.want {
			t.Errorf("UPDATE … WHERE %s: %d rows, want %d", c.where, got, c.want)
		}
	}
}

// TestExplainSearchedDML: EXPLAIN of a searched UPDATE/DELETE prints the three
// sections for the target plan and executes nothing; the RID column shows in
// no printed schema and no client-visible Result.Schema.
func TestExplainSearchedDML(t *testing.T) {
	s := NewDefault().Session()
	s.MustExec("CREATE TABLE E (id INT PRIMARY KEY, v INT, w VARCHAR)")
	for i := 0; i < 40; i++ {
		s.MustExec(fmt.Sprintf("INSERT INTO E VALUES (%d, %d, 'w%d')", i, i%7, i))
	}
	for _, c := range []struct{ sql, want string }{
		{"EXPLAIN UPDATE E SET v = v + 1 WHERE id = 3", "IndexScan E using E_PK"},
		{"EXPLAIN DELETE FROM E x WHERE x.id = 3", "IndexScan E using E_PK"},
		{"EXPLAIN UPDATE E SET v = 0 WHERE v = 3", "Filter"},
		{"EXPLAIN DELETE FROM E WHERE w = 'w1'", "Filter"},
	} {
		r := s.MustExec(c.sql)
		for _, want := range []string{"-- QGM --", "-- after rewrite --", "-- plan --", c.want} {
			if !strings.Contains(r.Explain, want) {
				t.Errorf("%s: missing %q in\n%s", c.sql, want, r.Explain)
			}
		}
		if c.want == "Filter" && !strings.Contains(r.Explain, "SeqScan E") && !strings.Contains(r.Explain, "MorselScan E") {
			t.Errorf("%s: no scan under the filter:\n%s", c.sql, r.Explain)
		}
		if strings.Contains(r.Explain, types.RIDColumn.Name) {
			t.Errorf("%s: the RID column leaks into EXPLAIN:\n%s", c.sql, r.Explain)
		}
		if len(r.Schema) != 0 || len(r.Rows) != 0 {
			t.Errorf("%s returned a schema or rows: %v", c.sql, r.Schema)
		}
	}
	if n := s.MustExec("SELECT COUNT(*) FROM E WHERE id = 3 AND v = 3").Rows[0][0].Int(); n != 1 {
		t.Fatal("EXPLAIN executed its statement")
	}
	for _, sql := range []string{"EXPLAIN ANALYZE UPDATE E SET v = 1 WHERE id = 3", "EXPLAIN ANALYZE DELETE FROM E WHERE id = 3"} {
		if _, err := s.Exec(sql); err == nil || !strings.Contains(err.Error(), "EXPLAIN ANALYZE supports SELECT") {
			t.Errorf("%s: %v, want the explicit refusal", sql, err)
		}
	}
	// No statement hands the hidden column to a client.
	for _, sql := range []string{"UPDATE E SET v = 9 WHERE id = 3", "DELETE FROM E WHERE id = 4", "SELECT * FROM E WHERE id = 3"} {
		r := s.MustExec(sql)
		if r.Schema.Index(types.RIDColumn.Name) >= 0 || slices.ContainsFunc(r.Schema, func(c types.Column) bool { return c.Hidden }) {
			t.Errorf("%s: Result.Schema carries the RID column: %v", sql, r.Schema)
		}
	}
	if _, err := s.Exec("UPDATE E SET v = 1 WHERE __rid = 1"); err == nil {
		t.Error("the hidden RID column resolves by name")
	}
}

package exec

import (
	"math/rand"
	"testing"

	"sqlxnf/internal/types"
)

func iv(v int64) types.Value           { return types.NewInt(v) }
func sv(s string) types.Value          { return types.NewString(s) }
func fv(f float64) types.Value         { return types.NewFloat(f) }
func bv(b bool) types.Value            { return types.NewBool(b) }
func rows(rs ...types.Row) []types.Row { return rs }

func valuesPlan(schema types.Schema, rs ...types.Row) *Values {
	return &Values{Out: schema, Rows: rs}
}

func intSchema(names ...string) types.Schema {
	s := make(types.Schema, len(names))
	for i, n := range names {
		s[i] = types.Column{Name: n, Kind: types.KindInt}
	}
	return s
}

func TestExprEvaluation(t *testing.T) {
	ctx := NewContext()
	row := types.Row{iv(10), sv("abc"), types.Null()}
	cases := []struct {
		name string
		e    Expr
		want types.Value
	}{
		{"col", Col{0}, iv(10)},
		{"const", Const{fv(1.5)}, fv(1.5)},
		{"arith", BinOp{"+", Col{0}, Const{iv(5)}}, iv(15)},
		{"cmp", BinOp{"<", Col{0}, Const{iv(20)}}, bv(true)},
		{"cmp null", BinOp{"=", Col{2}, Const{iv(1)}}, types.Null()},
		{"and short", BinOp{"AND", Const{bv(false)}, Col{2}}, bv(false)},
		{"or short", BinOp{"OR", Const{bv(true)}, Col{2}}, bv(true)},
		{"and unknown", BinOp{"AND", Const{bv(true)}, BinOp{"=", Col{2}, Const{iv(1)}}}, types.Null()},
		{"not", Not{Const{bv(false)}}, bv(true)},
		{"not null", Not{BinOp{"=", Col{2}, Const{iv(1)}}}, types.Null()},
		{"neg", Neg{Col{0}}, iv(-10)},
		{"isnull", IsNull{E: Col{2}}, bv(true)},
		{"isnotnull", IsNull{E: Col{0}, Negate: true}, bv(true)},
		{"in hit", InList{E: Col{0}, List: []Expr{Const{iv(3)}, Const{iv(10)}}}, bv(true)},
		{"in miss", InList{E: Col{0}, List: []Expr{Const{iv(3)}}}, bv(false)},
		{"in null", InList{E: Col{0}, List: []Expr{Const{types.Null()}}}, types.Null()},
		{"not in", InList{E: Col{0}, List: []Expr{Const{iv(3)}}, Negate: true}, bv(true)},
		{"like pct", BinOp{"LIKE", Col{1}, Const{sv("a%")}}, bv(true)},
		{"like under", BinOp{"LIKE", Col{1}, Const{sv("a_c")}}, bv(true)},
		{"like miss", BinOp{"LIKE", Col{1}, Const{sv("b%")}}, bv(false)},
		{"concat", BinOp{"||", Col{1}, Const{sv("!")}}, sv("abc!")},
	}
	for _, tc := range cases {
		got, err := tc.e.Eval(ctx, row)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !types.Equal(got, tc.want) && !(got.IsNull() && tc.want.IsNull()) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
	// Errors.
	if _, err := (Col{5}).Eval(ctx, row); err == nil {
		t.Error("out-of-range column should fail")
	}
	if _, err := (ParamRef{0}).Eval(&Context{}, nil); err == nil {
		t.Error("unbound param should fail")
	}
	if _, err := (BinOp{"LIKE", Col{0}, Const{sv("x")}}).Eval(ctx, row); err == nil {
		t.Error("LIKE on int should fail")
	}
}

func TestLikeMatchTable(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "%ell%", true},
		{"hello", "_ello", true},
		{"hello", "h_l_o", true}, // h,e←_,l,l←_,o
		{"hello", "h_x_o", false},
		{"hello", "", false},
		{"", "", true},
		{"", "%", true},
		{"abc", "%%", true},
		{"a%b", "a%b", true}, // % in pattern is a wildcard, still matches
	}
	for _, tc := range cases {
		if got := likeMatch(tc.s, tc.pat); got != tc.want {
			t.Errorf("likeMatch(%q, %q) = %v", tc.s, tc.pat, got)
		}
	}
}

// likeMatchDP is the dynamic-programming LIKE matcher likeMatch replaced:
// one []bool row per pattern byte. It stays as the differential oracle.
func likeMatchDP(s, pat string) bool {
	n, m := len(s), len(pat)
	dp := make([]bool, n+1)
	dp[0] = true
	for j := 0; j < m; j++ {
		p := pat[j]
		next := make([]bool, n+1)
		if p == '%' {
			any := false
			for i := 0; i <= n; i++ {
				if dp[i] {
					any = true
				}
				next[i] = any
			}
		} else {
			for i := 1; i <= n; i++ {
				if dp[i-1] && (p == '_' || s[i-1] == p) {
					next[i] = true
				}
			}
		}
		dp = next
	}
	return dp[n]
}

// TestLikeMatchAgainstDP: over random strings and patterns built from %, _
// and literals of a small alphabet (so literals often match), the greedy
// matcher agrees with the DP.
func TestLikeMatchAgainstDP(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	word := func(alphabet string, n int) string {
		b := make([]byte, rng.Intn(n+1))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for i := 0; i < 20000; i++ {
		s, pat := word("ab%_", 10), word("ab%_", 7)
		if got, want := likeMatch(s, pat), likeMatchDP(s, pat); got != want {
			t.Fatalf("likeMatch(%q, %q) = %v, DP says %v", s, pat, got, want)
		}
	}
}

// TestLikeMatchAllocatesNothing pins the matcher allocation-free: a LIKE
// filter tests it on every row.
func TestLikeMatchAllocatesNothing(t *testing.T) {
	e := BinOp{Op: "LIKE", L: Col{Idx: 0}, R: Const{V: types.NewString("%ab_c%")}}
	row := types.Row{types.NewString("xxabzcxxabyyyyabqc")}
	ctx := NewContext()
	var v types.Value
	allocs := testing.AllocsPerRun(100, func() {
		v, _ = e.Eval(ctx, row)
	})
	if allocs != 0 || !v.Bool() {
		t.Fatalf("LIKE '%%ab_c%%' = %v with %v allocations per evaluation, want true with 0", v, allocs)
	}
}

func TestFilterProjectLimitDistinct(t *testing.T) {
	src := valuesPlan(intSchema("a"),
		types.Row{iv(1)}, types.Row{iv(2)}, types.Row{iv(2)}, types.Row{iv(3)})
	plan := &Limit{N: 2, Child: &Distinct{Child: &Project{
		Child: &Filter{Child: src, Pred: BinOp{">", Col{0}, Const{iv(1)}}},
		Exprs: []Expr{Col{0}},
		Out:   intSchema("a"),
	}}}
	got, err := Collect(NewContext(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0][0].Int() != 2 || got[1][0].Int() != 3 {
		t.Errorf("rows = %v", got)
	}
}

func TestHashJoinWithNullsAndCollisions(t *testing.T) {
	left := valuesPlan(intSchema("l"),
		types.Row{iv(1)}, types.Row{iv(2)}, types.Row{types.Null()})
	right := valuesPlan(intSchema("r"),
		types.Row{iv(2)}, types.Row{iv(2)}, types.Row{types.Null()}, types.Row{iv(9)})
	j := NewHashJoin(left, right, []Expr{Col{0}}, []Expr{Col{0}}, nil)
	got, err := Collect(NewContext(), j)
	if err != nil {
		t.Fatal(err)
	}
	// Only l=2 matches, twice. NULL keys never join.
	if len(got) != 2 {
		t.Fatalf("rows = %v", got)
	}
	for _, r := range got {
		if r[0].Int() != 2 || r[1].Int() != 2 {
			t.Errorf("row = %v", r)
		}
	}
}

func TestNLJoinCrossAndPred(t *testing.T) {
	left := valuesPlan(intSchema("l"), types.Row{iv(1)}, types.Row{iv(2)})
	right := valuesPlan(intSchema("r"), types.Row{iv(10)}, types.Row{iv(20)})
	j := NewNLJoin(left, right, nil)
	got, _ := Collect(NewContext(), j)
	if len(got) != 4 {
		t.Errorf("cross join rows = %d", len(got))
	}
	j2 := NewNLJoin(valuesPlan(intSchema("l"), types.Row{iv(1)}, types.Row{iv(2)}),
		valuesPlan(intSchema("r"), types.Row{iv(10)}, types.Row{iv(20)}),
		BinOp{"<", BinOp{"*", Col{0}, Const{iv(10)}}, Col{1}})
	got, _ = Collect(NewContext(), j2)
	if len(got) != 1 || got[0][0].Int() != 1 || got[0][1].Int() != 20 {
		t.Errorf("pred join rows = %v", got)
	}
}

func TestSortNullsFirstAndDesc(t *testing.T) {
	src := valuesPlan(intSchema("a", "b"),
		types.Row{iv(2), iv(1)},
		types.Row{types.Null(), iv(2)},
		types.Row{iv(1), iv(3)},
		types.Row{iv(2), iv(0)},
	)
	s := &Sort{Child: src, Keys: []SortKey{{Idx: 0, Desc: false}, {Idx: 1, Desc: true}}}
	got, err := Collect(NewContext(), s)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"(NULL, 2)", "(1, 3)", "(2, 1)", "(2, 0)"}
	for i, r := range got {
		if r.String() != want[i] {
			t.Fatalf("sorted = %v, want %v", got, want)
		}
	}
}

func TestGroupAggAll(t *testing.T) {
	src := valuesPlan(intSchema("g", "v"),
		types.Row{iv(1), iv(10)},
		types.Row{iv(1), iv(10)},
		types.Row{iv(1), types.Null()},
		types.Row{iv(2), iv(5)},
	)
	g := &GroupAgg{
		Child:   src,
		KeyIdxs: []int{0},
		Aggs: []AggDef{
			{Kind: AggCountStar, ArgIdx: -1},
			{Kind: AggCount, ArgIdx: 1},
			{Kind: AggSum, ArgIdx: 1},
			{Kind: AggAvg, ArgIdx: 1},
			{Kind: AggMin, ArgIdx: 1},
			{Kind: AggMax, ArgIdx: 1},
			{Kind: AggCount, ArgIdx: 1, Distinct: true},
		},
		Out: intSchema("g", "cs", "c", "s", "a", "mn", "mx", "cd"),
	}
	got, err := Collect(NewContext(), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("groups = %v", got)
	}
	g1 := got[0]
	// group 1: count(*)=3, count(v)=2 (NULL skipped), sum=20, avg=10,
	// min=max=10, count(distinct v)=1.
	if g1[1].Int() != 3 || g1[2].Int() != 2 || g1[3].Int() != 20 ||
		g1[4].Float() != 10 || g1[5].Int() != 10 || g1[6].Int() != 10 || g1[7].Int() != 1 {
		t.Errorf("group1 = %v", g1)
	}
}

func TestGroupAggZeroRowsNoKeys(t *testing.T) {
	src := valuesPlan(intSchema("v"))
	g := &GroupAgg{
		Child: src,
		Aggs: []AggDef{
			{Kind: AggCountStar, ArgIdx: -1},
			{Kind: AggSum, ArgIdx: 0},
		},
		Out: intSchema("c", "s"),
	}
	got, err := Collect(NewContext(), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0].Int() != 0 || !got[0][1].IsNull() {
		t.Errorf("zero-row agg = %v", got)
	}
}

func TestExistsOpCorrelated(t *testing.T) {
	// Inner plan: values filtered by parameter equality.
	inner := &Filter{
		Child: valuesPlan(intSchema("x"), types.Row{iv(1)}, types.Row{iv(2)}),
		Pred:  BinOp{"=", Col{0}, ParamRef{0}},
	}
	ex := ExistsOp{Plan: inner, Corr: []Expr{Col{0}}}
	ctx := NewContext()
	v, err := ex.Eval(ctx, types.Row{iv(2)})
	if err != nil || !v.Bool() {
		t.Errorf("exists(2) = %v, %v", v, err)
	}
	v, _ = ex.Eval(ctx, types.Row{iv(9)})
	if v.Bool() {
		t.Error("exists(9) should be false")
	}
	neg := ExistsOp{Plan: inner, Corr: []Expr{Col{0}}, Negate: true}
	v, _ = neg.Eval(ctx, types.Row{iv(9)})
	if !v.Bool() {
		t.Error("not exists(9) should be true")
	}
	if ctx.Stats.SubqueryRuns != 3 {
		t.Errorf("subquery runs = %d", ctx.Stats.SubqueryRuns)
	}
}

func TestDumpRendering(t *testing.T) {
	plan := &Limit{N: 1, Child: &Filter{
		Child: valuesPlan(intSchema("a"), types.Row{iv(1)}),
		Pred:  BinOp{"=", Col{0}, Const{iv(1)}},
	}}
	out := Dump(plan)
	for _, frag := range []string{"Limit 1", "Filter", "Values (1 rows)"} {
		if !contains(out, frag) {
			t.Errorf("dump missing %q:\n%s", frag, out)
		}
	}
	if DumpExpr(InList{E: Col{0}, List: []Expr{Const{iv(1)}}}) == "" {
		t.Error("empty expr dump")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		}())
}

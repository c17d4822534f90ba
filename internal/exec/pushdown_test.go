package exec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sqlxnf/internal/catalog"
	"sqlxnf/internal/storage"
	"sqlxnf/internal/types"
)

// inProbeValues spans every kind class and the numeric edge cases the hash
// probe must answer exactly like the linear compare: INT/FLOAT pairs, -0/+0,
// NaN, infinities and integers beyond 2^53, where a FLOAT equals several INTs.
var inProbeValues = []types.Value{
	types.Null(),
	iv(0), iv(1), iv(2), iv(-3), iv(7), iv(1 << 53), iv(1<<53 + 1), iv(math.MaxInt64),
	fv(0), fv(math.Copysign(0, -1)), fv(2), fv(2.5), fv(-3), fv(7), fv(1 << 53),
	fv(math.NaN()), fv(math.Inf(1)), fv(math.Inf(-1)),
	sv(""), sv("a"), sv("b"), sv("t2"),
	bv(true), bv(false),
}

// randomInList draws a list of 0..20 items, usually of one kind class (so
// long lists take the hash path), sometimes mixed; a NULL now and then.
// Each item is a Const or, with binds, a BindRef into binds.
func randomInList(rng *rand.Rand, binds *[]types.Value) []Expr {
	var class func() types.Value
	pick := func(vs ...types.Value) func() types.Value {
		return func() types.Value { return vs[rng.Intn(len(vs))] }
	}
	switch rng.Intn(5) {
	case 0:
		class = func() types.Value { return iv(int64(rng.Intn(12) - 3)) }
	case 1:
		class = pick(inProbeValues[1:19]...) // every numeric
	case 2:
		class = pick(sv(""), sv("a"), sv("b"), sv("c"), sv("t2"), sv("zz"))
	case 3:
		class = pick(bv(true), bv(false))
	default:
		class = pick(inProbeValues...) // mixed classes
	}
	list := make([]Expr, rng.Intn(21))
	for i := range list {
		v := class()
		if rng.Intn(12) == 0 {
			v = types.Null()
		}
		if binds != nil && rng.Intn(2) == 0 {
			list[i] = BindRef{Idx: len(*binds)}
			*binds = append(*binds, v)
		} else {
			list[i] = Const{V: v}
		}
	}
	return list
}

// TestInListKernelMatchesLinear is the IN kernel's oracle: over random lists
// and every probe value, with and without NOT, the kernel (hash set or its
// linear fallback) passes a row exactly when InList.Eval says True, and
// fails with exactly InList.Eval's error; and a rebound list answers anew.
func TestInListKernelMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	hashed := 0
	for trial := 0; trial < 3000; trial++ {
		var binds []types.Value
		list := randomInList(rng, &binds)
		for _, negate := range []bool{false, true} {
			e := InList{E: Col{Idx: 0}, List: list, Negate: negate}
			k := compileKernel(e)
			if k.in == nil {
				t.Fatalf("%s did not compile to an IN kernel", DumpExpr(e))
			}
			ctx := NewContext()
			ctx.Binds = binds
			k.prepare(ctx)
			if k.in.hashed {
				hashed++
			}
			for _, v := range inProbeValues {
				row := types.Row{v}
				want, wantErr := EvalPred(ctx, e, row)
				got, gotErr := k.match(row)
				if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) || (wantErr == nil && got != want) {
					t.Fatalf("%v with binds %v on %v: kernel (%v, %v), linear (%v, %v)",
						DumpExpr(e), binds, v, got, gotErr, want, wantErr)
				}
			}
		}
	}
	if hashed < 500 {
		t.Fatalf("only %d kernels probed a hash set; the oracle barely reached it", hashed)
	}

	// A list of statement parameters resolves at every Open, so rebinding
	// the same compiled Filter changes its answer.
	list := make([]Expr, 10)
	for i := range list {
		list[i] = BindRef{Idx: i}
	}
	f := &Filter{
		Child: valuesPlan(intSchema("x"), types.Row{iv(5)}, types.Row{iv(15)}),
		Pred:  InList{E: Col{Idx: 0}, List: list},
	}
	for _, c := range []struct {
		base int64
		want string
	}{{0, "(5)"}, {10, "(15)"}, {100, ""}, {0, "(5)"}} {
		ctx := NewContext()
		for i := range list {
			ctx.Binds = append(ctx.Binds, iv(c.base+int64(i)))
		}
		got, err := Collect(ctx, f)
		if err != nil {
			t.Fatal(err)
		}
		if r := strings.Join(renderRows(got), " "); r != c.want {
			t.Fatalf("binds from %d: got %q, want %q", c.base, r, c.want)
		}
	}
}

// pushdownSchema is the parity table: an INT with NULLs, a small INT, a
// FLOAT, a VARCHAR with NULLs.
var pushdownSchema = types.Schema{
	{Name: "k", Kind: types.KindInt},
	{Name: "v", Kind: types.KindInt},
	{Name: "f", Kind: types.KindFloat},
	{Name: "s", Kind: types.KindString},
}

func pushdownRows(rng *rand.Rand, n int) []types.Row {
	out := make([]types.Row, n)
	for i := range out {
		k, s := iv(int64(rng.Intn(10))), sv(fmt.Sprintf("t%d", rng.Intn(5)))
		if rng.Intn(6) == 0 {
			k = types.Null()
		}
		if rng.Intn(7) == 0 {
			s = types.Null()
		}
		out[i] = types.Row{k, iv(int64(rng.Intn(100))), fv(float64(rng.Intn(8)) / 2), s}
	}
	return out
}

// randomConjunct draws one conjunct over pushdownSchema: a pushable shape
// (col op const|bind|col, IS [NOT] NULL, [NOT] IN) or a generic one (an OR
// tree, arithmetic, NOT, an EXISTS over a second table). ridIdx >= 0 is the
// RID column's index, which a conjunct may compare too.
func randomConjunct(rng *rand.Rand, binds *[]types.Value, other *catalog.Table, ridIdx int) Expr {
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	op := ops[rng.Intn(len(ops))]
	switch rng.Intn(11) {
	case 0:
		return BinOp{Op: op, L: Col{Idx: 1}, R: Const{V: iv(int64(rng.Intn(100)))}}
	case 1:
		return BinOp{Op: op, L: Const{V: fv(float64(rng.Intn(8)) / 2)}, R: Col{Idx: 2}}
	case 2:
		*binds = append(*binds, iv(int64(rng.Intn(10))))
		return BinOp{Op: op, L: Col{Idx: 0}, R: BindRef{Idx: len(*binds) - 1}}
	case 3:
		return BinOp{Op: op, L: Col{Idx: 0}, R: Col{Idx: 1}}
	case 4:
		return IsNull{E: Col{Idx: 3 * rng.Intn(2)}, Negate: rng.Intn(2) == 0}
	case 5:
		var list []Expr
		for i := rng.Intn(14); i >= 0; i-- {
			list = append(list, Const{V: iv(int64(rng.Intn(12)))})
		}
		return InList{E: Col{Idx: 0}, List: list, Negate: rng.Intn(3) == 0}
	case 6:
		var list []Expr
		for i := rng.Intn(10); i >= 0; i-- {
			list = append(list, Const{V: sv(fmt.Sprintf("t%d", rng.Intn(6)))})
		}
		return InList{E: Col{Idx: 3}, List: list, Negate: rng.Intn(3) == 0}
	case 7:
		return BinOp{Op: "OR",
			L: BinOp{Op: "<", L: Col{Idx: 1}, R: Const{V: iv(int64(rng.Intn(50)))}},
			R: BinOp{Op: "=", L: Col{Idx: 3}, R: Const{V: sv("t1")}}}
	case 8:
		return BinOp{Op: ">", L: BinOp{Op: "+", L: Col{Idx: 1}, R: Col{Idx: 2}}, R: Const{V: iv(int64(rng.Intn(100)))}}
	case 9:
		return ExistsOp{
			Plan: &Filter{Child: &SeqScan{Table: other},
				Pred: BinOp{Op: "=", L: Col{Idx: 0}, R: ParamRef{Idx: 0}}},
			Corr:   []Expr{Col{Idx: 0}},
			Negate: rng.Intn(2) == 0,
		}
	default:
		if ridIdx >= 0 {
			return BinOp{Op: op, L: Col{Idx: ridIdx}, R: Const{V: iv(int64(rng.Intn(6)) << 16)}}
		}
		return Not{E: BinOp{Op: "=", L: Col{Idx: 1}, R: Const{V: iv(int64(rng.Intn(100)))}}}
	}
}

func andAll(cs []Expr) Expr {
	pred := cs[0]
	for _, c := range cs[1:] {
		pred = BinOp{Op: "AND", L: pred, R: c}
	}
	return pred
}

// referenceScan is what a filtered scan must return: every visible row in
// physical order (with its packed RID appended when withRID), kept iff
// EvalPred passes it — no kernels, no pushdown.
func referenceScan(t *testing.T, ctx *Context, tab *catalog.Table, withRID bool, pred Expr) (kept []types.Row, visible int) {
	t.Helper()
	err := tab.Heap.Scan(tab.Tag, func(rid storage.RID, row types.Row) (bool, error) {
		visible++
		if withRID {
			row = append(row.Clone(), iv(rid.Pack()))
		}
		ok, err := EvalPred(ctx, pred, row)
		if ok {
			kept = append(kept, row)
		}
		return false, err
	})
	if err != nil {
		t.Fatal(err)
	}
	return kept, visible
}

// TestScanPushdownParity: a Filter over a heap scan returns exactly the rows
// and RIDs a plain Heap.Scan plus EvalPred keeps, whatever mix of pushed and
// generic conjuncts it holds: serially (in physical order, counting every
// visible row as scanned), under Gather at DOP 2 and 4, and as a correlated
// subplan reopened once per parameter value.
func TestScanPushdownParity(t *testing.T) {
	sizes := []int{0, 1, 60, 700, 2500}
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*7919 + 3))
		cat := testCatalog(t)
		tab := loadTable(t, cat, "T", pushdownSchema, pushdownRows(rng, sizes[trial%len(sizes)]))
		other := loadTable(t, cat, "O", intSchema("x"), []types.Row{{iv(2)}, {iv(5)}, {iv(7)}})
		for _, withRID := range []bool{false, true} {
			ridIdx := -1
			if withRID {
				ridIdx = len(pushdownSchema)
			}
			var binds []types.Value
			conj := make([]Expr, 1+rng.Intn(4))
			for i := range conj {
				conj[i] = randomConjunct(rng, &binds, other, ridIdx)
			}
			pred := andAll(conj)
			label := fmt.Sprintf("trial %d rid=%v n=%d %s", trial, withRID, sizes[trial%len(sizes)], DumpExpr(pred))
			newCtx := func() *Context {
				ctx := NewContext()
				ctx.Binds = binds
				return ctx
			}
			want, visible := referenceScan(t, newCtx(), tab, withRID, pred)

			ctx := newCtx()
			got, err := Collect(ctx, &Filter{Child: &SeqScan{Table: tab, WithRID: withRID}, Pred: pred})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if g, w := strings.Join(renderRows(got), " "), strings.Join(renderRows(want), " "); g != w {
				t.Fatalf("%s: serial scan\n got: %s\nwant: %s", label, g, w)
			}
			// Each EXISTS run scans O's three rows on top of T's.
			if want := int64(visible) + 3*ctx.Stats.SubqueryRuns; ctx.Stats.RowsScanned != want {
				t.Fatalf("%s: RowsScanned = %d, want every visible row (%d)", label, ctx.Stats.RowsScanned, want)
			}
			for _, dop := range []int{2, 4} {
				par, err := Collect(newCtx(), NewGather(&Filter{Child: &MorselScan{Table: tab, WithRID: withRID}, Pred: pred}, dop))
				if err != nil {
					t.Fatalf("%s dop %d: %v", label, dop, err)
				}
				assertSameMultiset(t, fmt.Sprintf("%s dop %d", label, dop), par, want)
			}

			// Correlated: the same Filter instance reopens per outer value,
			// with one more generic conjunct reading the parameter.
			sub := &Filter{Child: &SeqScan{Table: tab, WithRID: withRID},
				Pred: BinOp{Op: "AND", L: pred, R: BinOp{Op: "=", L: Col{Idx: 0}, R: ParamRef{Idx: 0}}}}
			for _, p := range []int64{3, 0, 9, 3} {
				ctx := newCtx()
				ctx.Params = []types.Value{iv(p)}
				got, err := Collect(ctx, sub)
				if err != nil {
					t.Fatalf("%s param %d: %v", label, p, err)
				}
				var wantP []types.Row
				for _, r := range want {
					if !r[0].IsNull() && r[0].Int() == p {
						wantP = append(wantP, r)
					}
				}
				if g, w := strings.Join(renderRows(got), " "), strings.Join(renderRows(wantP), " "); g != w {
					t.Fatalf("%s param %d: reopened subplan\n got: %s\nwant: %s", label, p, g, w)
				}
			}
		}
	}
}

// TestPushedScanRowsOwnTheirBytes: the rows a pushed-down scan keeps were
// tested on a borrowed decode that aliases the latched page; the kept copies
// must own their strings. Over a 2-frame buffer pool the scan's pages are
// evicted as it goes, and the page still resident at the end is overwritten
// in place (every row rewritten, last page first): every kept string must
// still read as inserted.
func TestPushedScanRowsOwnTheirBytes(t *testing.T) {
	cat := catalog.New(storage.NewBufferPool(storage.NewDisk(), 2))
	schema := types.Schema{{Name: "k", Kind: types.KindInt}, {Name: "s", Kind: types.KindString}}
	text := func(i int, fill string) string { return fmt.Sprintf("%05d-%s", i, strings.Repeat(fill, 60)) }
	var in []types.Row
	for i := 0; i < 400; i++ {
		in = append(in, types.Row{iv(int64(i)), sv(text(i, "a"))})
	}
	tab := loadTable(t, cat, "T", schema, in)
	// In-place rewrites keep every RID, so one walk serves both passes; it
	// runs first so that the page resident after each pushed scan is still
	// the frame that scan read.
	var rids []storage.RID
	if err := tab.Heap.Scan(tab.Tag, func(rid storage.RID, _ types.Row) (bool, error) {
		rids = append(rids, rid)
		return false, nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, withRID := range []bool{false, true} {
		got, err := Collect(NewContext(), &Filter{
			Child: &SeqScan{Table: tab, WithRID: withRID},
			Pred:  BinOp{Op: "<>", L: Col{Idx: 0}, R: Const{V: iv(7)}},
		})
		if err != nil {
			t.Fatal(err)
		}
		fill := "b"
		if withRID {
			fill = "a" // the first pass left "b": write back the original length
		}
		for i := len(rids) - 1; i >= 0; i-- {
			if _, err := tab.Heap.Update(tab.Tag, rids[i], types.Row{iv(int64(i)), sv(text(i, fill))}); err != nil {
				t.Fatal(err)
			}
		}
		if len(got) != len(in)-1 {
			t.Fatalf("rid=%v: kept %d rows, want %d", withRID, len(got), len(in)-1)
		}
		for _, r := range got {
			i := int(r[0].Int())
			want := text(i, "a")
			if withRID {
				want = text(i, "b")
			}
			if r[1].Str() != want {
				t.Fatalf("rid=%v: row %d reads %q after its page was overwritten, want %q", withRID, i, r[1].Str(), want)
			}
		}
	}
}

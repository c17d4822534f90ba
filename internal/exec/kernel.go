package exec

import (
	"fmt"
	"math"

	"sqlxnf/internal/types"
)

// Predicate kernels: the vectorized hot path of Filter.
//
// A predicate decomposes into its AND-conjuncts; each conjunct compiles to a
// kernel that filters a whole batch in one loop. Common shapes — `col op
// const|bind|col`, `col IS [NOT] NULL`, `col [NOT] IN (constants)` — run
// without expression-tree dispatch and read nothing but the row, so a
// Filter over a heap scan pushes them into the scan's page loop (see
// Filter.Open); everything else falls back to a generic kernel that still
// amortizes the operator-boundary virtual calls over the batch.
//
// Sequential conjunct filtering matches scalar AND semantics for results
// (a row passes iff every conjunct is True) and for False short-circuits;
// like the scalar path's short-circuit, a later conjunct is not evaluated
// for rows an earlier conjunct already dropped, so evaluation errors hiding
// behind a dropped row do not surface.

// predKernel is one vectorized conjunct.
type predKernel struct {
	want    uint8       // comparison shapes: bit c+1 set iff sign(Compare) c passes
	lc, rc  int         // column indexes; -1 means "use constV"
	constV  types.Value // constant side for col-vs-const shapes
	bindIdx int         // >= 0: constV resolves from ctx.Binds at Open
	bindErr error       // the unbound-parameter error, raised at the first row
	isnull  bool        // IS [NOT] NULL kernel (column lc)
	in      *inSet      // col [NOT] IN (list) kernel (column lc)
	negate  bool
	generic Expr // non-nil: fall back to per-row EvalPred
}

// pushable reports whether the kernel reads nothing but the row: such a
// kernel may run inside a scan's page loop, under the heap latch, on a
// borrowed row. Generic conjuncts may re-enter storage (subqueries), so
// they never run there.
func (k *predKernel) pushable() bool { return k.generic == nil }

// compileKernels flattens pred into conjunct kernels. A nil predicate
// compiles to no kernels (everything passes).
func compileKernels(pred Expr) []predKernel {
	if pred == nil {
		return nil
	}
	var out []predKernel
	var walk func(e Expr)
	walk = func(e Expr) {
		if b, ok := e.(BinOp); ok && b.Op == "AND" {
			walk(b.L)
			walk(b.R)
			return
		}
		out = append(out, compileKernel(e))
	}
	walk(pred)
	return out
}

// wantSign maps a comparison op to the Compare signs it passes.
var wantSign = map[string]uint8{
	"=": 1 << 1, "<>": 1<<0 | 1<<2, "<": 1 << 0, "<=": 1<<0 | 1<<1, ">": 1 << 2, ">=": 1<<1 | 1<<2,
}

// compileKernel compiles one conjunct, falling back to the generic kernel
// for shapes without a vectorized loop.
func compileKernel(e Expr) predKernel {
	switch x := e.(type) {
	case BinOp:
		want, ok := wantSign[x.Op]
		if !ok {
			break
		}
		// Negative column indexes fall through to the generic kernel: -1 is
		// the "constant side" sentinel, and the generic path is where
		// Col.Eval surfaces the out-of-range error.
		if lcol, ok := x.L.(Col); ok && lcol.Idx >= 0 {
			if rcol, ok := x.R.(Col); ok && rcol.Idx >= 0 {
				return predKernel{want: want, lc: lcol.Idx, rc: rcol.Idx, bindIdx: -1}
			}
			if c, ok := x.R.(Const); ok {
				return predKernel{want: want, lc: lcol.Idx, rc: -1, constV: c.V, bindIdx: -1}
			}
			if b, ok := x.R.(BindRef); ok {
				return predKernel{want: want, lc: lcol.Idx, rc: -1, bindIdx: b.Idx}
			}
		} else if c, ok := x.L.(Const); ok {
			if rcol, ok := x.R.(Col); ok && rcol.Idx >= 0 {
				return predKernel{want: want, lc: -1, rc: rcol.Idx, constV: c.V, bindIdx: -1}
			}
		} else if b, ok := x.L.(BindRef); ok {
			if rcol, ok := x.R.(Col); ok && rcol.Idx >= 0 {
				return predKernel{want: want, lc: -1, rc: rcol.Idx, bindIdx: b.Idx}
			}
		}
	case IsNull:
		if col, ok := x.E.(Col); ok && col.Idx >= 0 {
			return predKernel{isnull: true, lc: col.Idx, rc: -1, negate: x.Negate, bindIdx: -1}
		}
	case InList:
		if col, ok := x.E.(Col); ok && col.Idx >= 0 {
			if set := newInSet(x.List); set != nil {
				return predKernel{in: set, lc: col.Idx, rc: -1, negate: x.Negate, bindIdx: -1}
			}
		}
	}
	return predKernel{generic: e, bindIdx: -1}
}

// prepare resolves the kernel's statement parameters for one execution:
// Open calls it, so a rebound plan reads the new values.
func (k *predKernel) prepare(ctx *Context) {
	if k.bindIdx >= 0 {
		k.constV, k.bindErr = bindValue(ctx, k.bindIdx)
	}
	if k.in != nil {
		k.in.prepare(ctx)
	}
}

// bindValue resolves statement parameter :idx.
func bindValue(ctx *Context, idx int) (types.Value, error) {
	if idx >= len(ctx.Binds) {
		return types.Null(), fmt.Errorf("exec: statement parameter :%d unbound", idx)
	}
	return ctx.Binds[idx], nil
}

// apply appends the rows of in that satisfy the kernel to out.
func (k *predKernel) apply(ctx *Context, in, out []types.Row) ([]types.Row, error) {
	for _, r := range in {
		var ok bool
		var err error
		if k.generic != nil {
			ok, err = EvalPred(ctx, k.generic, r)
		} else {
			ok, err = k.match(r)
		}
		if err != nil {
			return out, err
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, nil
}

// match tests one row against a pushable kernel. It reads only the row, so
// a scan may call it on a borrowed row under the page latch.
func (k *predKernel) match(r types.Row) (bool, error) {
	if k.lc >= len(r) || k.rc >= len(r) {
		return false, fmt.Errorf("exec: column %d out of range (row arity %d)", max(k.lc, k.rc), len(r))
	}
	switch {
	case k.isnull:
		return r[k.lc].IsNull() != k.negate, nil
	case k.in != nil:
		t, err := k.in.probe(r[k.lc])
		if k.negate {
			t = t.Not()
		}
		return t == types.True, err
	}
	if k.bindErr != nil {
		return false, k.bindErr
	}
	lv, rv := k.constV, k.constV
	if k.lc >= 0 {
		lv = r[k.lc]
	}
	if k.rc >= 0 {
		rv = r[k.rc]
	}
	if lv.IsNull() || rv.IsNull() {
		return false, nil // comparison with NULL is Unknown: filtered out
	}
	var c int
	if lv.Kind() == types.KindInt && rv.Kind() == types.KindInt {
		li, ri := lv.Int(), rv.Int()
		switch {
		case li < ri:
			c = -1
		case li > ri:
			c = 1
		}
	} else {
		var err error
		if c, err = types.Compare(lv, rv); err != nil {
			return false, err
		}
	}
	return k.want&(1<<(c+1)) != 0, nil
}

// matchAll is a scan's page-loop test: a row is kept iff every pushed
// kernel passes it, checked in conjunct order.
func matchAll(ks []predKernel) func(types.Row) (bool, error) {
	return func(r types.Row) (bool, error) {
		for i := range ks {
			if ok, err := ks[i].match(r); !ok || err != nil {
				return false, err
			}
		}
		return true, nil
	}
}

// ---------------------------------------------------------------------------
// IN-list hash probe
// ---------------------------------------------------------------------------

// inHashMin is the list length from which an IN kernel probes a hash set;
// shorter lists compare linearly and build no maps at Open.
const inHashMin = 8

// exactFloatInts bounds the floats that equal exactly one INT: below 2^53 in
// magnitude, float64(i) == f holds only for i == int64(f).
const exactFloatInts = 1 << 53

// inSet is the value side of a `col [NOT] IN (list)` kernel whose list holds
// only constants and statement parameters. Open resolves the list; a list
// of inHashMin or more values of one kind class (numeric, string or bool)
// is also loaded into a hash set. A probe of that class is answered by the
// set; anything else — a probe of another class, a NaN on either side, a
// float too large to name one INT, a list mixing classes — compares
// linearly in list order, exactly as InList.Eval does, so answers and
// "cannot compare" errors stay the same.
type inSet struct {
	list  []Expr        // Const and BindRef items
	binds bool          // some item is a BindRef
	vals  []types.Value // list resolved for the current execution
	err   error         // an unbound parameter, raised at the first probe

	hashed bool
	class  types.Kind // KindInt (every numeric), KindString or KindBool
	null   bool       // the list holds a NULL
	nan    bool       // the list holds a NaN, which Compare finds equal to every number
	ints   map[int64]struct{}
	floats map[float64]struct{}
	strs   map[string]struct{}
	bools  [2]bool
}

// newInSet returns the value side of an IN kernel over list, or nil when
// some item is known only per row.
func newInSet(list []Expr) *inSet {
	s := &inSet{list: list}
	for _, e := range list {
		switch e.(type) {
		case Const:
		case BindRef:
			s.binds = true
		default:
			return nil
		}
	}
	return s
}

// kindClass maps a kind to its comparison class: INT and FLOAT compare with
// each other, every other kind only with itself.
func kindClass(k types.Kind) types.Kind {
	if k == types.KindFloat {
		return types.KindInt
	}
	return k
}

// prepare resolves the list. A list of constants resolves once and keeps
// its set across reopens; one with parameters resolves at every Open.
func (s *inSet) prepare(ctx *Context) {
	if s.vals != nil && !s.binds {
		return
	}
	s.vals, s.err = make([]types.Value, len(s.list)), nil
	for i, e := range s.list {
		switch x := e.(type) {
		case Const:
			s.vals[i] = x.V
		case BindRef:
			if v, err := bindValue(ctx, x.Idx); err != nil {
				s.err = err
			} else {
				s.vals[i] = v
			}
		}
	}
	s.build()
}

// build loads vals into the hash set when the list is long enough and of
// one kind class.
func (s *inSet) build() {
	s.hashed, s.null, s.nan, s.class = false, false, false, types.KindNull
	s.ints, s.floats, s.strs, s.bools = nil, nil, nil, [2]bool{}
	for _, v := range s.vals {
		if v.IsNull() {
			s.null = true
			continue
		}
		c := kindClass(v.Kind())
		if s.class != types.KindNull && s.class != c {
			return // mixed classes: every probe compares linearly
		}
		s.class = c
	}
	if len(s.vals) < inHashMin || s.class == types.KindNull {
		return
	}
	s.hashed = true
	for _, v := range s.vals {
		switch v.Kind() {
		case types.KindInt:
			if s.ints == nil {
				s.ints = make(map[int64]struct{}, len(s.vals))
			}
			s.ints[v.Int()] = struct{}{}
		case types.KindFloat:
			f := v.Float()
			if math.IsNaN(f) {
				s.nan = true
				continue
			}
			if s.floats == nil {
				s.floats = make(map[float64]struct{}, len(s.vals))
			}
			s.floats[f] = struct{}{} // map keys already equate -0 and +0
		case types.KindString:
			if s.strs == nil {
				s.strs = make(map[string]struct{}, len(s.vals))
			}
			s.strs[v.Str()] = struct{}{}
		case types.KindBool:
			s.bools[boolIdx(v.Bool())] = true
		}
	}
}

func boolIdx(b bool) int {
	if b {
		return 1
	}
	return 0
}

// probe evaluates v IN (list) under 3VL, before any NOT.
func (s *inSet) probe(v types.Value) (types.Tri, error) {
	if s.err != nil {
		return types.Unknown, s.err
	}
	if v.IsNull() {
		if len(s.vals) == 0 {
			return types.False, nil
		}
		return types.Unknown, nil
	}
	if s.hashed && kindClass(v.Kind()) == s.class {
		if hit, ok := s.lookup(v); ok {
			switch {
			case hit:
				return types.True, nil
			case s.null:
				return types.Unknown, nil
			}
			return types.False, nil
		}
	}
	result := types.False
	for _, lv := range s.vals {
		t, err := types.CompareTri("=", v, lv)
		if err != nil {
			return types.Unknown, err
		}
		if result = result.Or(t); result == types.True {
			break
		}
	}
	return result, nil
}

// lookup answers v = some list value from the hash set; ok=false leaves the
// probe to the linear compare. v is non-NULL and of the set's class.
func (s *inSet) lookup(v types.Value) (hit, ok bool) {
	switch v.Kind() {
	case types.KindInt:
		if s.nan {
			return false, false
		}
		i := v.Int()
		if _, hit = s.ints[i]; !hit && s.floats != nil {
			_, hit = s.floats[float64(i)]
		}
		return hit, true
	case types.KindFloat:
		f := v.Float()
		if s.nan || math.IsNaN(f) {
			return false, false
		}
		if _, hit = s.floats[f]; hit || s.ints == nil || f != math.Trunc(f) {
			return hit, true
		}
		if math.Abs(f) >= exactFloatInts {
			return false, false
		}
		_, hit = s.ints[int64(f)]
		return hit, true
	case types.KindString:
		_, hit = s.strs[v.Str()]
		return hit, true
	case types.KindBool:
		return s.bools[boolIdx(v.Bool())], true
	}
	return false, false
}

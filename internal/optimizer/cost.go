// Statistics-driven cost model. The optimizer consumes the catalog's live
// row counts and ANALYZE sketches (distinct counts, min/max) wherever they
// exist and falls back to the textbook constants where they don't: equality
// selectivity becomes 1/NDV, range selectivity interpolates against the
// observed min/max, equi-join selectivity becomes 1/max(NDV_l, NDV_r), and
// scan access paths are chosen by comparing estimated fetch costs instead of
// always preferring an index.
package optimizer

import (
	"math"

	"sqlxnf/internal/catalog"
	"sqlxnf/internal/qgm"
	"sqlxnf/internal/types"
)

// Cost model units: a sequential row visit costs 1; an index match costs a
// random heap fetch; a probe pays the tree descent; a row that an IN list
// filters pays one comparison per list item (exec.InList.Eval is linear:
// ~23 ns an item against ~200 ns a scanned row).
const (
	randomFetchCost   = 2.0
	indexProbeCost    = 4.0
	inListCompareCost = 0.1
)

// tableCard returns the live cardinality of a base table (>= 1).
func tableCard(t *catalog.Table) float64 {
	card := float64(t.RowCount())
	if card < 1 {
		card = 1
	}
	return card
}

// colNDV returns the estimated distinct count of a table column, ok=false
// when the table has not been ANALYZEd (or the column never held a value).
func colNDV(t *catalog.Table, col int) (float64, bool) {
	cs := t.Stats().Col(col)
	if cs == nil || cs.Distinct <= 0 {
		return 0, false
	}
	ndv := float64(cs.Distinct)
	// The sketch predates recent inserts; distinct counts can never exceed
	// the live row count's scale, but they can lag it. Good enough either way.
	return ndv, true
}

// notNullFrac returns the fraction of a column's rows that are non-NULL
// (NULLs satisfy neither equality nor range predicates).
func notNullFrac(t *catalog.Table, col int) float64 {
	cs := t.Stats().Col(col)
	if cs == nil {
		return 1
	}
	rows := tableCard(t)
	frac := 1 - float64(cs.Nulls)/rows
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return frac
}

// eqSelectivity estimates `col = const` selectivity on a base table:
// non-NULL fraction spread over the distinct values.
func eqSelectivity(t *catalog.Table, col int) float64 {
	if ndv, ok := colNDV(t, col); ok {
		return notNullFrac(t, col) / ndv
	}
	return selEquality
}

// rangeSelectivity estimates `col <cmp> val` selectivity on a base table by
// interpolating val against the ANALYZE min/max when both are numeric.
// Parameter-slot constants interpolate with their compile-time literal; the
// recorded BindGuard re-checks that assumption per binding.
func rangeSelectivity(t *catalog.Table, col int, cmp string, val qgm.Expr) float64 {
	cv, isConst := val.(*qgm.Const)
	if !isConst {
		return selRange
	}
	sel, _ := rangeSelectivityValue(t, col, cmp, cv.Val)
	return sel
}

// rangeSelectivityValue is rangeSelectivity over a concrete value. ok
// reports whether the estimate came from the min/max comparison (and so
// depends on the value) rather than the constant fallback.
//
// Numeric columns interpolate linearly against min/max. Non-numeric but
// orderable columns (strings, booleans) cannot interpolate, but the ordered
// min/max comparison still detects the out-of-range cases: a predicate whose
// constant falls at or beyond the observed extremes selects (almost) nothing
// or (almost) everything, which is the difference between picking a
// selective index and a useless sequential scan.
func rangeSelectivityValue(t *catalog.Table, col int, cmp string, v types.Value) (float64, bool) {
	cs := t.Stats().Col(col)
	if cs == nil || v.IsNull() || cs.Min.IsNull() || cs.Max.IsNull() {
		return selRange, false
	}
	if !v.IsNumeric() || !cs.Min.IsNumeric() || !cs.Max.IsNumeric() {
		return rangeSelectivityOrdered(t, col, cmp, v, cs)
	}
	lo, hi := cs.Min.Float(), cs.Max.Float()
	if hi <= lo {
		return selRange, false
	}
	frac := (v.Float() - lo) / (hi - lo)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	switch cmp {
	case "<", "<=":
	case ">", ">=":
		frac = 1 - frac
	default:
		return selRange, false
	}
	frac *= notNullFrac(t, col)
	// Clamp away from 0/1: the histogram-free sketch cannot distinguish an
	// empty range from a narrow one.
	return math.Min(math.Max(frac, 0.001), 1), true
}

// rangeSelectivityOrdered estimates range selectivity for orderable
// non-numeric columns from the ordered min/max comparison alone: out-of-range
// constants pin the estimate to ~0 or ~all-non-NULL rows; in-range constants
// keep the selRange fallback (no interpolation without a value metric).
func rangeSelectivityOrdered(t *catalog.Table, col int, cmp string, v types.Value, cs *catalog.ColumnStats) (float64, bool) {
	cmpMin, errMin := types.Compare(v, cs.Min)
	cmpMax, errMax := types.Compare(v, cs.Max)
	if errMin != nil || errMax != nil {
		return selRange, false // incomparable types: fall back
	}
	low, high := 0.001, math.Max(notNullFrac(t, col), 0.001)
	switch cmp {
	case "<":
		if cmpMin <= 0 { // v <= min: nothing is strictly below v
			return low, true
		}
		if cmpMax > 0 { // v > max: everything qualifies
			return high, true
		}
	case "<=":
		if cmpMin < 0 {
			return low, true
		}
		if cmpMax >= 0 {
			return high, true
		}
	case ">":
		if cmpMax >= 0 { // v >= max: nothing is strictly above v
			return low, true
		}
		if cmpMin < 0 {
			return high, true
		}
	case ">=":
		if cmpMax > 0 {
			return low, true
		}
		if cmpMin <= 0 {
			return high, true
		}
	}
	return selRange, false
}

// conjSelectivityOn estimates the selectivity of one pushed conjunct against
// a base table, using stats for the recognizable `col <cmp> const` shapes.
func conjSelectivityOn(t *catalog.Table, cj qgm.Expr) float64 {
	if col, cmp, val, ok := indexableConjunct(cj); ok {
		switch cmp {
		case "=":
			return eqSelectivity(t, col)
		case "IN":
			return math.Min(1, float64(len(val.(*qgm.InList).List))*eqSelectivity(t, col))
		}
		return rangeSelectivity(t, col, cmp, val)
	}
	return conjSelectivity(cj)
}

// baseOfQuant returns the base table a quantifier ranges over, or nil.
func baseOfQuant(box *qgm.Box, q int) *catalog.Table {
	if q < 0 || q >= len(box.Quants) {
		return nil
	}
	in := box.Quants[q].Input
	if in.Kind != qgm.KindBase {
		return nil
	}
	return in.Table
}

// sideNDV resolves the distinct count of one side of an equi-join conjunct
// when that side is a plain column of a base-table quantifier.
func sideNDV(box *qgm.Box, e qgm.Expr) (float64, bool) {
	cr, ok := e.(*qgm.ColRef)
	if !ok {
		return 0, false
	}
	t := baseOfQuant(box, cr.Quant)
	if t == nil {
		return 0, false
	}
	return colNDV(t, cr.Col)
}

// joinSelectivity estimates the selectivity of one join conjunct: for an
// equality, 1/max(NDV) over the sides that resolve to base columns with
// stats; otherwise the textbook constants.
func joinSelectivity(box *qgm.Box, cj qgm.Expr) float64 {
	b, ok := cj.(*qgm.Binary)
	if !ok {
		return selOther
	}
	if b.Op != "=" {
		switch b.Op {
		case "<", "<=", ">", ">=":
			return selRange
		}
		return selOther
	}
	maxNDV := 0.0
	if ndv, ok := sideNDV(box, b.L); ok && ndv > maxNDV {
		maxNDV = ndv
	}
	if ndv, ok := sideNDV(box, b.R); ok && ndv > maxNDV {
		maxNDV = ndv
	}
	if maxNDV > 0 {
		return 1 / maxNDV
	}
	return selEquality
}

// estimateBoxCard estimates the output cardinality of an arbitrary box —
// the replacement for the old fixed defaultCard on non-base inputs.
func (c *compiler) estimateBoxCard(box *qgm.Box) float64 {
	switch box.Kind {
	case qgm.KindBase:
		return tableCard(box.Table)
	case qgm.KindValues:
		if n := float64(len(box.ValueRows)); n >= 1 {
			return n
		}
		return 1
	case qgm.KindSelect:
		card := 1.0
		for _, q := range box.Quants {
			card *= c.estimateBoxCard(q.Input)
		}
		for _, cj := range qgm.Conjuncts(box.Pred) {
			used := qgm.QuantsUsed(cj)
			switch len(used) {
			case 0:
				// Constant or EXISTS-only conjunct: no idea; be gentle.
				card *= selOther
			case 1:
				var q int
				for u := range used {
					q = u
				}
				if t := baseOfQuant(box, q); t != nil {
					card *= conjSelectivityOn(t, cj)
				} else {
					card *= conjSelectivity(cj)
				}
			default:
				card *= joinSelectivity(box, cj)
			}
		}
		if box.Limit != nil && float64(*box.Limit) < card {
			card = float64(*box.Limit)
		}
		if card < 1 {
			card = 1
		}
		return card
	case qgm.KindGroup:
		if len(box.Quants) != 1 {
			return defaultCard
		}
		child := c.estimateBoxCard(box.Quants[0].Input)
		if len(box.GroupBy) == 0 {
			return 1
		}
		// Group count: product of key NDVs when known, else sqrt of input.
		est := 1.0
		known := true
		for _, k := range box.GroupBy {
			cr, ok := k.(*qgm.ColRef)
			if !ok {
				known = false
				break
			}
			t := baseOfQuant(box, cr.Quant)
			if t == nil {
				known = false
				break
			}
			ndv, ok := colNDV(t, cr.Col)
			if !ok {
				known = false
				break
			}
			est *= ndv
		}
		if !known {
			est = math.Sqrt(child)
		}
		if est > child {
			est = child
		}
		if est < 1 {
			est = 1
		}
		return est
	case qgm.KindUnion:
		sum := 0.0
		for _, in := range box.Inputs {
			sum += c.estimateBoxCard(in)
		}
		if sum < 1 {
			sum = 1
		}
		return sum
	case qgm.KindNodeRef:
		// The builder stamps the component table's row count at resolution
		// time — exact then, an estimate by the time a cached plan re-runs.
		if box.EstRows >= 1 {
			return float64(box.EstRows)
		}
		return 1
	default:
		return defaultCard
	}
}

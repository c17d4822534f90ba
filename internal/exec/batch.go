package exec

import (
	"sqlxnf/internal/types"
)

// BatchSize is the number of rows an operator aims to deliver per NextBatch
// call. 256 keeps a batch of row headers (24 B each) plus typical payloads
// comfortably inside L2 while amortizing the per-call virtual dispatch and
// per-batch allocations over enough rows that neither shows up in profiles.
const BatchSize = 256

// Batch contract
//
// A Plan is driven by Open, then repeated NextBatch calls, each returning up
// to about a batch of rows; an empty batch with a nil error means exhausted.
// Stats count work actually performed, so counters can exceed the rows a
// consumer finally keeps when a Limit truncates a speculatively produced
// batch. A returned batch is owned by the producing operator and only valid
// until its next NextBatch call: consumers may read it, and may retain the
// row values (rows are immutable once produced), but must copy the
// []types.Row header slice itself if they keep it.

// sliceBatch cuts the next up-to-BatchSize window out of a materialized row
// slice, advancing *pos. Emitting operators (Sort, GroupAgg, Values) use it
// to serve batches without copying.
func sliceBatch(rows []types.Row, pos *int) []types.Row {
	if *pos >= len(rows) {
		return nil
	}
	end := *pos + BatchSize
	if end > len(rows) {
		end = len(rows)
	}
	out := rows[*pos:end]
	*pos = end
	return out
}

// rowArena hands out fixed-arity rows carved from chunked allocations: one
// allocation per ~BatchSize rows instead of one per row. Rows escape to
// consumers, so chunks are never reused — Reset only drops the current
// partial chunk reference.
type rowArena struct {
	arity int
	free  []types.Value
	chunk int // rows per chunk; starts small, doubles up to BatchSize
}

func (a *rowArena) next() types.Row {
	if len(a.free) < a.arity {
		switch {
		case a.chunk == 0:
			a.chunk = 8
		case a.chunk < BatchSize:
			a.chunk *= 2
		}
		a.free = make([]types.Value, a.arity*a.chunk)
	}
	row := a.free[:a.arity:a.arity]
	a.free = a.free[a.arity:]
	return row
}

// concatInto writes l followed by r into a fresh arena row.
func (a *rowArena) concat(l, r types.Row) types.Row {
	row := a.next()
	copy(row, l)
	copy(row[len(l):], r)
	return row
}

// evalKeysInto evaluates join key expressions for one row into dst (len must
// equal len(keys)), avoiding the per-row allocation of the pre-batch
// executor. It reports null=true when any key is NULL (NULL keys never
// join). Plain column references skip expression dispatch entirely.
func evalKeysInto(ctx *Context, keys []Expr, row types.Row, dst types.Row) (null bool, err error) {
	for i, k := range keys {
		var v types.Value
		if c, ok := k.(Col); ok && c.Idx >= 0 && c.Idx < len(row) {
			v = row[c.Idx]
		} else {
			v, err = k.Eval(ctx, row)
			if err != nil {
				return false, err
			}
		}
		if v.IsNull() {
			return true, nil
		}
		dst[i] = v
	}
	return false, nil
}

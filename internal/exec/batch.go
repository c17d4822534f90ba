package exec

import (
	"slices"

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
// batch. A returned batch — its []types.Row slice and the rows' values — is
// owned by the producing operator and valid only until the producer's next
// NextBatch or Close: producers reuse their row memory from one batch to the
// next. A value copied out of a row stays valid (strings are heap strings
// that never alias a page). An operator that keeps a row past its next pull
// copies it: the HashJoin build, Sort, Distinct, NLJoin's inner side and
// Collect do; GroupAgg clones its group keys.

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

// keepBatch appends to rows a copy of every row of batch, their values
// carved from one allocation sized to the batch: how an operator keeps rows
// past its producer's next pull.
func keepBatch(rows, batch []types.Row) []types.Row {
	n := 0
	for _, r := range batch {
		n += len(r)
	}
	vals := make([]types.Value, n)
	rows = slices.Grow(rows, len(batch))
	for _, r := range batch {
		k := copy(vals, r)
		rows = append(rows, vals[:k:k])
		vals = vals[k:]
	}
	return rows
}

// concat writes l followed by r into a row carved from a.
func concat(a *types.Arena, l, r types.Row) types.Row {
	return append(append(a.Take(len(l)+len(r)), l...), r...)
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

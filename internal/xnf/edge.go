package xnf

import (
	"fmt"
	"iter"
	"sync/atomic"

	"sqlxnf/internal/exec"
	"sqlxnf/internal/optimizer"
	"sqlxnf/internal/qgm"
	"sqlxnf/internal/storage"
	"sqlxnf/internal/types"
)

// One resolver finds every relationship's connections from the parent and
// child tuples already derived (paper §4.3: "use them again to find the
// tuples of the associated children"). The RELATE predicate relates the
// parent (quantifier 0), the child (1) and U, the rows of the USING tables
// (2 on): equalities between sides become hash keys, conjuncts over U
// alone run in U's one host query, and the rest is a residual.

// edgePlan is an edge's predicate split for the resolver, and U's rows
// once fetched. U's row holds every column of every USING table, in order;
// uAt[i] is where USING quantifier i starts in it. uRIDs holds base RIDs
// when U is a selection over one base table, as a link table's is. Child
// column cCols[i] equals U column cProbe[i]. Parent column pCols[i] equals
// column pProbe[i] of U or, without USING, of the child.
type edgePlan struct {
	e             *qgm.XNFEdge
	uOut          types.Schema
	uAt           []int
	uOnly         []qgm.Expr // over U alone, numbered over the USING quantifiers
	residual      []qgm.Expr
	cCols, cProbe []int
	pCols, pProbe []int
	uRows         []types.Row
	uRIDs         []storage.RID
}

// planEdge splits e's predicate.
func planEdge(e *qgm.XNFEdge) edgePlan {
	pl := edgePlan{e: e}
	for _, u := range e.Using {
		pl.uAt = append(pl.uAt, len(pl.uOut))
		pl.uOut = append(pl.uOut, u.Input.Out...)
	}
	col := func(c *qgm.ColRef) int {
		if c.Quant < 2 {
			return c.Col
		}
		return pl.uAt[c.Quant-2] + c.Col
	}
	for _, cj := range qgm.Conjuncts(e.Pred) {
		if l, r, ok := keyPair(cj, len(e.Using) > 0); ok && l.Quant == 0 {
			pl.pCols, pl.pProbe = append(pl.pCols, col(l)), append(pl.pProbe, col(r))
		} else if ok {
			pl.cCols, pl.cProbe = append(pl.cCols, col(l)), append(pl.cProbe, col(r))
		} else if used := qgm.QuantsUsed(cj); len(used) > 0 && !used[0] && !used[1] {
			pl.uOnly = append(pl.uOnly, qgm.MapColRefs(cj, func(c *qgm.ColRef) qgm.Expr {
				return &qgm.ColRef{Quant: c.Quant - 2, Col: c.Col, Name: c.Name}
			}))
		} else {
			pl.residual = append(pl.residual, cj)
		}
	}
	return pl
}

// keyPair matches a hash-key conjunct `l = r` over two sides, l the
// parent's or the child's. With USING, a parent = child equality is no
// key: resolveEdge reaches the parents from U.
func keyPair(cj qgm.Expr, using bool) (l, r *qgm.ColRef, ok bool) {
	eq, _ := cj.(*qgm.Binary)
	if eq == nil || eq.Op != "=" {
		return nil, nil, false
	}
	l, lok := eq.L.(*qgm.ColRef)
	r, rok := eq.R.(*qgm.ColRef)
	if !lok || !rok {
		return nil, nil, false
	}
	if min(l.Quant, 2) > min(r.Quant, 2) {
		l, r = r, l
	}
	return l, r, min(l.Quant, 2) < min(r.Quant, 2) && (r.Quant != 1 || !using)
}

// fetchUsing runs pl's USING query into pl.uRows: every column of the
// USING tables under the conjuncts over U alone, narrowed to the parent's
// keys through the first parent = U equality.
func (ev *Evaluator) fetchUsing(pl *edgePlan, parent *gnode) error {
	box := &qgm.Box{Kind: qgm.KindSelect, Name: "using:" + pl.e.Name,
		Quants: pl.e.Using, Pred: qgm.Conjoin(pl.uOnly), Out: pl.uOut}
	for qi, u := range pl.e.Using {
		for ci, c := range u.Input.Out {
			box.Head = append(box.Head, qgm.HeadExpr{Name: c.Name, Expr: &qgm.ColRef{Quant: qi, Col: ci, Name: c.Name}})
		}
	}
	if len(pl.pCols) > 0 {
		box = wrapWithInFilter(box, pl.pProbe[0], distinctColumn(parent.rows, pl.pCols[0]))
	}
	var err error
	if pl.uRows, pl.uRIDs, err = ev.host.RunBox(box); err != nil {
		return fmt.Errorf("xnf: relationship %s: %w", pl.e.Name, err)
	}
	atomic.AddInt64(&ev.Stats.EdgeQueries, 1)
	return nil
}

// resolveEdge derives the connections of pl's edge between the
// materialized parent and child: one per (parent tuple, child tuple, U row)
// that satisfies the predicate, as the edge's SQL join returns them. The
// loop runs over U's rows (one empty row without USING), the children
// matching the row's keys, and the parents matching the keys of the row
// or, without USING, of the child.
func (ev *Evaluator) resolveEdge(pl *edgePlan, parent, child *gnode) (*gedge, error) {
	e := pl.e
	ge := &gedge{name: e.Name, parent: parent, child: child, parentRole: e.ParentRole, childRole: e.ChildRole,
		EdgeProvenance: e.EdgeProvenance}
	// The residual (nil when there is none) and the attributes, compiled
	// over parent ++ child ++ U. An attribute that is a plain column takes
	// the column's kind; any other stays untyped.
	var ctx *exec.Context
	var exprs []exec.Expr
	if len(pl.residual) > 0 || len(e.Attrs) > 0 {
		ctx = ev.host.NewExecContext()
		cols := parent.schema.Concat(child.schema).Concat(pl.uOut)
		offsets := map[int]int{0: 0, 1: len(parent.schema)}
		for i, at := range pl.uAt {
			offsets[2+i] = len(parent.schema) + len(child.schema) + at
		}
		src := []qgm.Expr{qgm.Conjoin(pl.residual)}
		for _, a := range e.Attrs {
			src = append(src, a.Expr)
			col := types.Column{Name: a.Name, Kind: types.KindNull}
			if cr, ok := a.Expr.(*qgm.ColRef); ok {
				col.Kind = cols[offsets[cr.Quant]+cr.Col].Kind
			}
			ge.attrSchema = append(ge.attrSchema, col)
		}
		for _, x := range src {
			var c exec.Expr
			var err error
			if x != nil {
				if c, err = optimizer.CompileExpr(x, offsets); err != nil {
					return nil, fmt.Errorf("xnf: relationship %s: %w", e.Name, err)
				}
			}
			exprs = append(exprs, c)
		}
	}
	using, uRows := len(e.Using) > 0, []types.Row{nil}
	if using {
		uRows = pl.uRows
	}
	cIdx, pIdx := newKeyIndex(child.rows, pl.cCols), newKeyIndex(parent.rows, pl.pCols)
	var flat types.Row
	for ui, urow := range uRows {
		rid := storage.NilRID
		if e.LinkTable != "" && pl.uRIDs != nil {
			rid = pl.uRIDs[ui]
		}
		for ci := range cIdx.matches(urow, pl.cProbe) {
			crow, probe := child.rows[ci], urow
			if !using {
				probe = crow
			}
			for pi := range pIdx.matches(probe, pl.pProbe) {
				conn := Conn{P: pi, C: ci, LinkRID: rid}
				if exprs != nil {
					flat = append(append(append(flat[:0], parent.rows[pi]...), crow...), urow...)
					keep, err := exec.EvalPred(ctx, exprs[0], flat)
					if keep && len(exprs) > 1 {
						conn.Attrs = make(types.Row, len(exprs)-1)
						for i := 0; i < len(conn.Attrs) && err == nil; i++ {
							conn.Attrs[i], err = exprs[i+1].Eval(ctx, flat)
						}
					}
					if err != nil {
						return nil, fmt.Errorf("xnf: relationship %s: %w", e.Name, err)
					}
					if !keep {
						continue
					}
				}
				ge.conns = append(ge.conns, conn)
			}
		}
	}
	ge.alive = allTrue(len(ge.conns))
	return ge, nil
}

// keyHash hashes row's values at cols; ok is false when one is NULL, since
// a NULL key matches nothing.
func keyHash(row types.Row, cols []int) (h uint64, ok bool) {
	h = 14695981039346656037
	for _, c := range cols {
		if row[c].IsNull() {
			return 0, false
		}
		h = (h ^ row[c].Hash()) * 1099511628211
	}
	return h, true
}

// keyIndex hashes rows on their values at cols, leaving out rows with a
// NULL there. Without key columns every row matches every probe.
type keyIndex struct {
	rows    []types.Row
	cols    []int
	buckets map[uint64][]int
}

func newKeyIndex(rows []types.Row, cols []int) keyIndex {
	ix := keyIndex{rows: rows, cols: cols}
	if len(cols) > 0 {
		ix.buckets = make(map[uint64][]int, len(rows))
		for i, row := range rows {
			if h, ok := keyHash(row, cols); ok {
				ix.buckets[h] = append(ix.buckets[h], i)
			}
		}
	}
	return ix
}

// matches yields, in row order, the positions of the rows whose key equals
// probe's values at cols.
func (ix keyIndex) matches(probe types.Row, cols []int) iter.Seq[int] {
	return func(yield func(int) bool) {
		if ix.buckets == nil {
			for i := range ix.rows {
				if !yield(i) {
					return
				}
			}
			return
		}
		h, ok := keyHash(probe, cols)
		if !ok {
			return
		}
	bucket:
		for _, i := range ix.buckets[h] {
			for j, c := range ix.cols {
				if !types.Equal(ix.rows[i][c], probe[cols[j]]) {
					continue bucket
				}
			}
			if !yield(i) {
				return
			}
		}
	}
}

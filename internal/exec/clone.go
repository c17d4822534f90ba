package exec

// Plan cloning backs the engine's prepared-plan cache: operators carry
// per-execution state (cursors, buffers, hash tables), so a cached plan is a
// template that must never run directly — each execution runs a structural
// clone with fresh state. Immutable compile-time artifacts (schemas, key
// index slices, expressions without subplans) are shared between clones;
// only operators and the expressions that embed subplans (ExistsOp) copy.

// Cloneable is implemented by plans that can produce fresh executable
// copies of themselves. All optimizer-emitted operators implement it; a
// plan containing anything else is simply uncacheable.
type Cloneable interface {
	Clone() Plan
}

// ClonePlan deep-copies a plan tree, returning ok=false when any node (or
// any EXISTS subplan) is not cloneable.
func ClonePlan(p Plan) (Plan, bool) {
	c, ok := p.(Cloneable)
	if !ok {
		return nil, false
	}
	out := c.Clone()
	if out == nil {
		return nil, false
	}
	return out, true
}

// cloneExpr rebuilds expressions that embed subplans. Expressions are
// otherwise immutable values and shared as-is; an ExistsOp's Plan opens and
// closes per evaluation, so it must not be shared between executions.
func cloneExpr(e Expr) (Expr, bool) {
	switch x := e.(type) {
	case nil:
		return nil, true
	case Col, Const, ParamRef, BindRef:
		return e, true
	case BinOp:
		l, ok := cloneExpr(x.L)
		if !ok {
			return nil, false
		}
		r, ok := cloneExpr(x.R)
		if !ok {
			return nil, false
		}
		return BinOp{Op: x.Op, L: l, R: r}, true
	case Not:
		inner, ok := cloneExpr(x.E)
		if !ok {
			return nil, false
		}
		return Not{E: inner}, true
	case Neg:
		inner, ok := cloneExpr(x.E)
		if !ok {
			return nil, false
		}
		return Neg{E: inner}, true
	case IsNull:
		inner, ok := cloneExpr(x.E)
		if !ok {
			return nil, false
		}
		return IsNull{E: inner, Negate: x.Negate}, true
	case InList:
		inner, ok := cloneExpr(x.E)
		if !ok {
			return nil, false
		}
		list := make([]Expr, len(x.List))
		for i, item := range x.List {
			var lok bool
			if list[i], lok = cloneExpr(item); !lok {
				return nil, false
			}
		}
		return InList{E: inner, List: list, Negate: x.Negate}, true
	case ExistsOp:
		sub, ok := ClonePlan(x.Plan)
		if !ok {
			return nil, false
		}
		corr := make([]Expr, len(x.Corr))
		for i, c := range x.Corr {
			var cok bool
			if corr[i], cok = cloneExpr(c); !cok {
				return nil, false
			}
		}
		return ExistsOp{Plan: sub, Corr: corr, Negate: x.Negate}, true
	default:
		// Unknown expression kind: refuse to clone rather than risk sharing
		// hidden state.
		return nil, false
	}
}

func cloneExprs(es []Expr) ([]Expr, bool) {
	if es == nil {
		return nil, true
	}
	out := make([]Expr, len(es))
	for i, e := range es {
		var ok bool
		if out[i], ok = cloneExpr(e); !ok {
			return nil, false
		}
	}
	return out, true
}

// Clone implements Cloneable.
func (s *SeqScan) Clone() Plan {
	return &SeqScan{Table: s.Table, EstRows: s.EstRows, Cols: s.Cols, WithRID: s.WithRID}
}

// Clone implements Cloneable.
func (s *IndexScan) Clone() Plan {
	lo, ok := cloneExprs(s.Lo)
	if !ok {
		return nil
	}
	hi, ok := cloneExprs(s.Hi)
	if !ok {
		return nil
	}
	in, ok := cloneExprs(s.In)
	if !ok {
		return nil
	}
	return &IndexScan{Table: s.Table, Index: s.Index, Lo: lo, Hi: hi, In: in,
		LoInc: s.LoInc, HiInc: s.HiInc, HiPrefix: s.HiPrefix, LoPrefix: s.LoPrefix, LoPastNull: s.LoPastNull,
		EstRows: s.EstRows, Cols: s.Cols, WithRID: s.WithRID}
}

// Clone implements Cloneable.
func (v *Values) Clone() Plan {
	return &Values{Out: v.Out, Rows: v.Rows}
}

// Clone implements Cloneable.
func (f *Filter) Clone() Plan {
	child, ok := ClonePlan(f.Child)
	if !ok {
		return nil
	}
	pred, ok := cloneExpr(f.Pred)
	if !ok {
		return nil
	}
	return &Filter{Child: child, Pred: pred}
}

// Clone implements Cloneable.
func (p *Project) Clone() Plan {
	child, ok := ClonePlan(p.Child)
	if !ok {
		return nil
	}
	exprs, ok := cloneExprs(p.Exprs)
	if !ok {
		return nil
	}
	return &Project{Child: child, Exprs: exprs, Out: p.Out}
}

// Clone implements Cloneable.
func (l *Limit) Clone() Plan {
	child, ok := ClonePlan(l.Child)
	if !ok {
		return nil
	}
	return &Limit{Child: child, N: l.N}
}

// Clone implements Cloneable.
func (d *Distinct) Clone() Plan {
	child, ok := ClonePlan(d.Child)
	if !ok {
		return nil
	}
	return &Distinct{Child: child}
}

// Clone implements Cloneable.
func (j *NLJoin) Clone() Plan {
	l, ok := ClonePlan(j.Left)
	if !ok {
		return nil
	}
	r, ok := ClonePlan(j.Right)
	if !ok {
		return nil
	}
	pred, ok := cloneExpr(j.Pred)
	if !ok {
		return nil
	}
	return &NLJoin{Left: l, Right: r, Pred: pred, out: j.out}
}

// Clone implements Cloneable.
func (j *HashJoin) Clone() Plan {
	l, ok := ClonePlan(j.Left)
	if !ok {
		return nil
	}
	r, ok := ClonePlan(j.Right)
	if !ok {
		return nil
	}
	lk, ok := cloneExprs(j.LeftKeys)
	if !ok {
		return nil
	}
	rk, ok := cloneExprs(j.RightKeys)
	if !ok {
		return nil
	}
	res, ok := cloneExpr(j.Residual)
	if !ok {
		return nil
	}
	return &HashJoin{Left: l, Right: r, LeftKeys: lk, RightKeys: rk,
		Residual: res, Emit: j.Emit, Shared: j.Shared, out: j.out, hash: j.hash}
}

// Clone implements Cloneable.
func (j *IndexJoin) Clone() Plan {
	l, ok := ClonePlan(j.Left)
	if !ok {
		return nil
	}
	keys, ok := cloneExprs(j.KeyExprs)
	if !ok {
		return nil
	}
	pred, ok := cloneExpr(j.Pred)
	if !ok {
		return nil
	}
	return &IndexJoin{Left: l, Table: j.Table, Index: j.Index, Cols: j.Cols, KeyExprs: keys,
		Pred: pred, EstRows: j.EstRows, out: j.out}
}

// Clone implements Cloneable.
func (s *Sort) Clone() Plan {
	child, ok := ClonePlan(s.Child)
	if !ok {
		return nil
	}
	return &Sort{Child: child, Keys: s.Keys}
}

// Clone implements Cloneable.
func (g *GroupAgg) Clone() Plan {
	child, ok := ClonePlan(g.Child)
	if !ok {
		return nil
	}
	return &GroupAgg{Child: child, KeyIdxs: g.KeyIdxs, Aggs: g.Aggs, Out: g.Out, DOP: g.DOP}
}

package qgm

// Deep cloning of XNF specs and box trees backs the composite-object
// materialization cache (internal/comat): a compiled spec is cached once and
// checked out per evaluation. The clone is required for correctness, not
// hygiene — the query-rewrite phase (rewrite.Rewrite) merges select boxes in
// place, so evaluating a shared spec directly would mutate the cached
// artifact under concurrent sessions. Catalog objects (*catalog.Table) and
// materialized value rows are immutable during evaluation and stay shared;
// boxes and expressions copy.

// cloner memoizes box copies so DAG-shaped trees (shared subboxes) keep
// their sharing structure in the clone.
type cloner struct {
	boxes map[*Box]*Box
}

// CloneXNFSpec deep-copies a spec for one private evaluation.
func CloneXNFSpec(s *XNFSpec) *XNFSpec {
	c := &cloner{boxes: map[*Box]*Box{}}
	return c.spec(s)
}

// CloneBox deep-copies a box tree.
func CloneBox(b *Box) *Box {
	c := &cloner{boxes: map[*Box]*Box{}}
	return c.box(b)
}

func (c *cloner) spec(s *XNFSpec) *XNFSpec {
	if s == nil {
		return nil
	}
	out := &XNFSpec{
		Take:     XNFTakeSpec{All: s.Take.All, Items: append([]XNFTakeItem(nil), s.Take.Items...)},
		Delete:   s.Delete,
		ViewRefs: append([]string(nil), s.ViewRefs...),
	}
	for _, base := range s.Bases {
		out.Bases = append(out.Bases, c.spec(base))
	}
	for _, n := range s.Nodes {
		out.Nodes = append(out.Nodes, &XNFNode{
			Name:      n.Name,
			Def:       c.box(n.Def),
			Schema:    n.Schema,
			BaseTable: n.BaseTable,
			ColMap:    append([]int(nil), n.ColMap...),
		})
	}
	for _, e := range s.Edges {
		ne := &XNFEdge{
			Name: e.Name, Parent: e.Parent, ParentRole: e.ParentRole,
			Child: e.Child, ChildRole: e.ChildRole,
			Pred:        c.expr(e.Pred),
			FKParentCol: e.FKParentCol, FKChildCol: e.FKChildCol,
			LinkTable: e.LinkTable, LinkParentCol: e.LinkParentCol,
			LinkChildCol: e.LinkChildCol, LinkParentKey: e.LinkParentKey,
			LinkChildKey: e.LinkChildKey,
		}
		for _, u := range e.Using {
			ne.Using = append(ne.Using, &Quantifier{Name: u.Name, Input: c.box(u.Input)})
		}
		for _, a := range e.Attrs {
			ne.Attrs = append(ne.Attrs, HeadExpr{Name: a.Name, Expr: c.expr(a.Expr)})
		}
		out.Edges = append(out.Edges, ne)
	}
	for _, r := range s.Restrictions {
		// RawPred is a parser AST: read-only during evaluation (the XNF
		// evaluator interprets it without transformation), so it is shared.
		out.Restrictions = append(out.Restrictions, XNFRestrictionSpec{
			Target: r.Target, IsEdge: r.IsEdge,
			Vars:    append([]string(nil), r.Vars...),
			RawPred: r.RawPred,
		})
	}
	return out
}

func (c *cloner) box(b *Box) *Box {
	if b == nil {
		return nil
	}
	if cp, ok := c.boxes[b]; ok {
		return cp
	}
	out := &Box{
		Kind: b.Kind, Name: b.Name, Out: b.Out,
		Table:      b.Table, // catalog object, shared
		RID:        b.RID,
		Distinct:   b.Distinct,
		OrderBy:    append([]OrderSpec(nil), b.OrderBy...),
		Limit:      b.Limit,
		NumParams:  b.NumParams,
		HiddenSort: b.HiddenSort,
		ValueRows:  b.ValueRows, // materialized rows are read-only, shared
		View:       b.View, Node: b.Node, EstRows: b.EstRows, COCached: b.COCached,
	}
	c.boxes[b] = out
	for _, q := range b.Quants {
		out.Quants = append(out.Quants, &Quantifier{Name: q.Name, Input: c.box(q.Input)})
	}
	out.Pred = c.expr(b.Pred)
	for _, h := range b.Head {
		out.Head = append(out.Head, HeadExpr{Name: h.Name, Expr: c.expr(h.Expr)})
	}
	for _, g := range b.GroupBy {
		out.GroupBy = append(out.GroupBy, c.expr(g))
	}
	for _, a := range b.Aggs {
		na := a
		na.Arg = c.expr(a.Arg)
		out.Aggs = append(out.Aggs, na)
	}
	for _, in := range b.Inputs {
		out.Inputs = append(out.Inputs, c.box(in))
	}
	out.XNF = c.spec(b.XNF)
	return out
}

func (c *cloner) expr(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *ColRef:
		cp := *x
		return &cp
	case *Const:
		cp := *x
		return &cp
	case *Param:
		cp := *x
		return &cp
	case *Binary:
		return &Binary{Op: x.Op, L: c.expr(x.L), R: c.expr(x.R)}
	case *Unary:
		return &Unary{Op: x.Op, E: c.expr(x.E)}
	case *IsNull:
		return &IsNull{E: c.expr(x.E), Negate: x.Negate}
	case *InList:
		out := &InList{E: c.expr(x.E), Negate: x.Negate}
		for _, item := range x.List {
			out.List = append(out.List, c.expr(item))
		}
		return out
	case *Exists:
		out := &Exists{Sub: c.box(x.Sub), Negate: x.Negate}
		for _, corr := range x.Corr {
			out.Corr = append(out.Corr, c.expr(corr))
		}
		return out
	default:
		// Unknown expression kinds would silently alias; there are none
		// today, and adding one without extending the cloner should fail
		// loudly in tests rather than corrupt a cached spec.
		panic("qgm: CloneXNFSpec cannot clone expression type " + e.String())
	}
}

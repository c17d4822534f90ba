package qgm

import (
	"fmt"
	"strings"

	"sqlxnf/internal/catalog"
	"sqlxnf/internal/parser"
	"sqlxnf/internal/types"
)

// maxViewDepth bounds view-over-view expansion.
const maxViewDepth = 32

// XNFNodeRef describes one resolved "view.node" reference: the node's
// schema, a cardinality estimate (its current row count), and whether the
// composite-object cache already held the view's materialization when the
// reference was resolved. The rows themselves are NOT part of the result —
// they bind at execute time through exec.Context.NodeRows, which is what
// makes node-reference plans cacheable.
type XNFNodeRef struct {
	View    string
	Node    string
	Schema  types.Schema
	EstRows int64
	Cached  bool
}

// XNFNodeResolver lets the builder resolve "view.node" table references in
// plain SQL FROM clauses (the paper's type (3) XNF→NF queries). The engine
// supplies an implementation backed by the composite-object cache.
type XNFNodeResolver func(view, node string) (*XNFNodeRef, error)

// Builder performs semantic checking: it resolves an AST against the catalog
// and produces QGM boxes.
type Builder struct {
	cat      *catalog.Catalog
	resolver XNFNodeResolver
	// ParamLiterals enables statement parameterization: literals carrying a
	// parser ordinal resolve to parameter-slot constants (Const.Param) that
	// bind at execute instead of baking into the plan. The engine turns it on
	// only for statements whose text-level literal extraction succeeded, so
	// ordinals always line up with the extracted binding vector. It is
	// force-disabled while a stored view expands: view-body literals belong
	// to the view definition, not to the statement's parameter vector.
	ParamLiterals bool
	depth         int
	boxSeq        int
}

// NewBuilder returns a builder over cat. resolver may be nil (type (3)
// queries then fail with a clear error).
func NewBuilder(cat *catalog.Catalog, resolver XNFNodeResolver) *Builder {
	return &Builder{cat: cat, resolver: resolver}
}

func (b *Builder) nextName(prefix string) string {
	b.boxSeq++
	return fmt.Sprintf("%s%d", prefix, b.boxSeq)
}

// scope tracks quantifier bindings during resolution; parent links implement
// correlation to the enclosing query block.
type scope struct {
	parent  *scope
	names   []string
	schemas []types.Schema
	// params accumulates correlation bindings for the box being built under
	// this scope: params[i] is the outer-scope expression feeding slot i.
	params *[]Expr
}

func (s *scope) add(name string, schema types.Schema) {
	s.names = append(s.names, name)
	s.schemas = append(s.schemas, schema)
}

// resolve finds a column in this scope only.
func (s *scope) resolve(qualifier, col string) (*ColRef, error) {
	if qualifier != "" {
		for qi, qn := range s.names {
			if strings.EqualFold(qn, qualifier) {
				ci := s.schemas[qi].Index(col)
				if ci < 0 {
					return nil, fmt.Errorf("qgm: column %q not found in %q", col, qualifier)
				}
				return &ColRef{Quant: qi, Col: ci, Name: col}, nil
			}
		}
		return nil, fmt.Errorf("qgm: unknown table or alias %q", qualifier)
	}
	found := (*ColRef)(nil)
	for qi := range s.names {
		ci := s.schemas[qi].Index(col)
		if ci < 0 {
			continue
		}
		if found != nil {
			return nil, fmt.Errorf("qgm: column %q is ambiguous", col)
		}
		found = &ColRef{Quant: qi, Col: ci, Name: col}
	}
	if found == nil {
		return nil, fmt.Errorf("qgm: column %q not found", col)
	}
	return found, nil
}

// kindOf returns the declared kind of a resolved column.
func (s *scope) kindOf(c *ColRef) types.Kind {
	return s.schemas[c.Quant][c.Col].Kind
}

// ---------------------------------------------------------------------------
// SELECT building
// ---------------------------------------------------------------------------

// BuildSelect resolves a SELECT statement into a box tree.
func (b *Builder) BuildSelect(sel *parser.SelectStmt) (*Box, error) {
	box, params, err := b.buildSelect(sel, nil)
	if err != nil {
		return nil, err
	}
	if len(params) != 0 {
		return nil, fmt.Errorf("qgm: top-level query cannot be correlated")
	}
	return box, nil
}

// buildSelect builds a select block. outer is the enclosing scope for
// correlated subqueries; the returned exprs are the outer-scope bindings of
// this box's parameter slots.
func (b *Builder) buildSelect(sel *parser.SelectStmt, outer *scope) (*Box, []Expr, error) {
	var params []Expr
	sc := &scope{parent: outer, params: &params}

	var quants []*Quantifier
	if len(sel.From) == 0 {
		// SELECT without FROM: a single-row VALUES source.
		vbox := &Box{Kind: KindValues, Name: b.nextName("values"),
			Out: types.Schema{{Name: "dummy", Kind: types.KindInt}}, ValueRows: [][]types.Value{{types.NewInt(0)}}}
		quants = append(quants, &Quantifier{Name: "__dual", Input: vbox})
		sc.add("__dual", vbox.Out)
	}
	for _, ref := range sel.From {
		q, err := b.buildTableRef(ref)
		if err != nil {
			return nil, nil, err
		}
		for _, existing := range quants {
			if strings.EqualFold(existing.Name, q.Name) {
				return nil, nil, fmt.Errorf("qgm: duplicate table alias %q", q.Name)
			}
		}
		quants = append(quants, q)
		sc.add(q.Name, q.Input.Out)
	}

	if hasAggregates(sel) {
		return b.buildGrouped(sel, sc, quants, &params)
	}

	box := &Box{Kind: KindSelect, Name: b.nextName("select"), Quants: quants, Distinct: sel.Distinct}
	if sel.Where != nil {
		pred, err := b.resolveExpr(sel.Where, sc)
		if err != nil {
			return nil, nil, err
		}
		box.Pred = pred
	}
	if sel.Having != nil {
		return nil, nil, fmt.Errorf("qgm: HAVING requires GROUP BY or aggregates")
	}
	if err := b.buildHead(box, sel, sc); err != nil {
		return nil, nil, err
	}
	if err := b.attachOrderLimit(box, sel, sc); err != nil {
		return nil, nil, err
	}
	box.NumParams = len(params)
	return box, params, nil
}

// buildTableRef resolves one FROM item into a quantifier.
func (b *Builder) buildTableRef(ref parser.TableRef) (*Quantifier, error) {
	if ref.Sub != nil {
		sub, params, err := b.buildSelect(ref.Sub, nil)
		if err != nil {
			return nil, err
		}
		if len(params) != 0 {
			return nil, fmt.Errorf("qgm: derived table cannot be correlated")
		}
		return &Quantifier{Name: ref.Alias, Input: sub}, nil
	}
	name := ref.Table
	// view.node dotted form arrives as a single identifier with a dot? No:
	// the parser produces Table names without dots, so check view existence
	// first, then tables.
	if b.cat.HasView(name) {
		v, _ := b.cat.View(name)
		if v.XNF {
			return nil, fmt.Errorf("qgm: XNF view %q used as a plain table; reference one of its nodes instead", name)
		}
		if b.depth >= maxViewDepth {
			return nil, fmt.Errorf("qgm: view nesting deeper than %d (cycle?)", maxViewDepth)
		}
		st, err := parser.ParseOne(v.Definition)
		if err != nil {
			return nil, fmt.Errorf("qgm: stored view %q fails to parse: %v", name, err)
		}
		vsel, ok := st.(*parser.SelectStmt)
		if !ok {
			return nil, fmt.Errorf("qgm: stored view %q is not a SELECT", name)
		}
		b.depth++
		pm := b.ParamLiterals
		b.ParamLiterals = false
		sub, params, err := b.buildSelect(vsel, nil)
		b.ParamLiterals = pm
		b.depth--
		if err != nil {
			return nil, fmt.Errorf("qgm: expanding view %q: %v", name, err)
		}
		if len(params) != 0 {
			return nil, fmt.Errorf("qgm: view %q cannot be correlated", name)
		}
		return &Quantifier{Name: ref.Binding(), Input: sub}, nil
	}
	if i := strings.IndexByte(name, '.'); i > 0 {
		// VIEW.NODE form for type (3) XNF→NF queries. The node resolves to a
		// NodeRef box — identity plus schema — instead of a build-time row
		// snapshot, so these plans cache and re-execute against the current
		// materialization.
		view, node := name[:i], name[i+1:]
		if b.resolver == nil {
			return nil, fmt.Errorf("qgm: no XNF resolver available for %q", name)
		}
		nr, err := b.resolver(view, node)
		if err != nil {
			return nil, err
		}
		vbox := &Box{Kind: KindNodeRef, Name: b.nextName("xnfnode"), Out: nr.Schema,
			View: nr.View, Node: nr.Node, EstRows: nr.EstRows, COCached: nr.Cached}
		alias := ref.Alias
		if alias == "" {
			alias = node
		}
		return &Quantifier{Name: alias, Input: vbox}, nil
	}
	t, err := b.cat.Table(name)
	if err != nil {
		return nil, err
	}
	return &Quantifier{Name: ref.Binding(), Input: NewBase(t, false)}, nil
}

// hasAggregates reports whether the statement needs a GROUP box.
func hasAggregates(sel *parser.SelectStmt) bool {
	if len(sel.GroupBy) > 0 || sel.Having != nil {
		return true
	}
	found := false
	for _, it := range sel.Items {
		if it.Expr != nil && exprHasAggregate(it.Expr) {
			found = true
		}
	}
	return found
}

func exprHasAggregate(e parser.Expr) bool {
	switch x := e.(type) {
	case *parser.FuncExpr:
		return true
	case *parser.BinaryExpr:
		return exprHasAggregate(x.L) || exprHasAggregate(x.R)
	case *parser.UnaryExpr:
		return exprHasAggregate(x.E)
	case *parser.IsNullExpr:
		return exprHasAggregate(x.E)
	case *parser.InExpr:
		if exprHasAggregate(x.E) {
			return true
		}
		for _, l := range x.List {
			if exprHasAggregate(l) {
				return true
			}
		}
	}
	return false
}

// buildHead resolves select items into the box head and output schema.
func (b *Builder) buildHead(box *Box, sel *parser.SelectStmt, sc *scope) error {
	for _, it := range sel.Items {
		switch {
		case it.Star && it.StarQualifier == "":
			for qi, schema := range sc.schemas {
				if sc.names[qi] == "__dual" {
					continue
				}
				for ci, col := range schema {
					box.Head = append(box.Head, HeadExpr{Name: col.Name,
						Expr: &ColRef{Quant: qi, Col: ci, Name: col.Name}})
					box.Out = append(box.Out, types.Column{Name: col.Name, Kind: col.Kind})
				}
			}
		case it.Star:
			qi := -1
			for i, n := range sc.names {
				if strings.EqualFold(n, it.StarQualifier) {
					qi = i
					break
				}
			}
			if qi < 0 {
				return fmt.Errorf("qgm: unknown qualifier %q in %s.*", it.StarQualifier, it.StarQualifier)
			}
			for ci, col := range sc.schemas[qi] {
				box.Head = append(box.Head, HeadExpr{Name: col.Name,
					Expr: &ColRef{Quant: qi, Col: ci, Name: col.Name}})
				box.Out = append(box.Out, types.Column{Name: col.Name, Kind: col.Kind})
			}
		default:
			e, err := b.resolveExpr(it.Expr, sc)
			if err != nil {
				return err
			}
			name := it.Alias
			if name == "" {
				if cr, ok := it.Expr.(*parser.ColumnRef); ok {
					name = cr.Name
				} else {
					name = fmt.Sprintf("col%d", len(box.Head)+1)
				}
			}
			box.Head = append(box.Head, HeadExpr{Name: name, Expr: e})
			box.Out = append(box.Out, types.Column{Name: name, Kind: b.inferKind(e, sc)})
		}
	}
	if len(box.Head) == 0 {
		return fmt.Errorf("qgm: SELECT list is empty")
	}
	return nil
}

// attachOrderLimit resolves ORDER BY against the box head and sets LIMIT.
// Keys absent from the select list become hidden trailing head columns that
// the optimizer trims after sorting.
func (b *Builder) attachOrderLimit(box *Box, sel *parser.SelectStmt, sc *scope) error {
	for _, oi := range sel.OrderBy {
		idx, err := b.resolveOrderKey(box, sel, oi.Expr)
		if err != nil {
			// Hidden sort column: resolve against the body scope.
			e, rerr := b.resolveExpr(oi.Expr, sc)
			if rerr != nil {
				return err // the original, clearer error
			}
			if box.Distinct {
				return fmt.Errorf("qgm: ORDER BY column must appear in the select list when DISTINCT is used")
			}
			idx = len(box.Head)
			name := fmt.Sprintf("__sort%d", box.HiddenSort)
			box.Head = append(box.Head, HeadExpr{Name: name, Expr: e})
			box.Out = append(box.Out, types.Column{Name: name, Kind: b.inferKind(e, sc)})
			box.HiddenSort++
		}
		box.OrderBy = append(box.OrderBy, OrderSpec{HeadIdx: idx, Desc: oi.Desc})
	}
	box.Limit = sel.Limit
	return nil
}

func (b *Builder) resolveOrderKey(box *Box, sel *parser.SelectStmt, e parser.Expr) (int, error) {
	// Positional: ORDER BY 2.
	if lit, ok := e.(*parser.Literal); ok && lit.Val.Kind() == types.KindInt {
		pos := int(lit.Val.Int())
		if pos < 1 || pos > len(box.Head) {
			return 0, fmt.Errorf("qgm: ORDER BY position %d out of range", pos)
		}
		return pos - 1, nil
	}
	// Alias or output column name.
	if cr, ok := e.(*parser.ColumnRef); ok && cr.Qualifier == "" {
		for i, h := range box.Head {
			if strings.EqualFold(h.Name, cr.Name) {
				return i, nil
			}
		}
	}
	// Textual match against the original select item expressions.
	want := e.String()
	for i, it := range sel.Items {
		if it.Expr != nil && it.Expr.String() == want {
			return i, nil
		}
	}
	return 0, fmt.Errorf("qgm: ORDER BY expression %s must appear in the select list", e.String())
}

// inferKind computes the static kind of a resolved expression.
func (b *Builder) inferKind(e Expr, sc *scope) types.Kind {
	switch x := e.(type) {
	case *ColRef:
		if sc != nil {
			return sc.kindOf(x)
		}
		return types.KindNull
	case *Const:
		return x.Val.Kind()
	case *Binary:
		switch x.Op {
		case "AND", "OR", "=", "<>", "<", "<=", ">", ">=", "LIKE":
			return types.KindBool
		case "||":
			return types.KindString
		case "/":
			return types.KindFloat
		default:
			lk, rk := b.inferKind(x.L, sc), b.inferKind(x.R, sc)
			if lk == types.KindFloat || rk == types.KindFloat {
				return types.KindFloat
			}
			return types.KindInt
		}
	case *Unary:
		if x.Op == "NOT" {
			return types.KindBool
		}
		return b.inferKind(x.E, sc)
	case *IsNull, *InList, *Exists:
		return types.KindBool
	case *Param:
		return types.KindNull
	default:
		return types.KindNull
	}
}

// resolveExpr turns a parser expression into a resolved QGM expression.
func (b *Builder) resolveExpr(e parser.Expr, sc *scope) (Expr, error) {
	switch x := e.(type) {
	case *parser.Literal:
		if b.ParamLiterals && x.Param > 0 {
			return &Const{Val: x.Val, Param: x.Param}, nil
		}
		return &Const{Val: x.Val}, nil
	case *parser.ColumnRef:
		return b.resolveColumn(x, sc)
	case *parser.BinaryExpr:
		l, err := b.resolveExpr(x.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := b.resolveExpr(x.R, sc)
		if err != nil {
			return nil, err
		}
		return &Binary{Op: x.Op, L: l, R: r}, nil
	case *parser.UnaryExpr:
		inner, err := b.resolveExpr(x.E, sc)
		if err != nil {
			return nil, err
		}
		return &Unary{Op: x.Op, E: inner}, nil
	case *parser.IsNullExpr:
		inner, err := b.resolveExpr(x.E, sc)
		if err != nil {
			return nil, err
		}
		return &IsNull{E: inner, Negate: x.Negate}, nil
	case *parser.InExpr:
		inner, err := b.resolveExpr(x.E, sc)
		if err != nil {
			return nil, err
		}
		list := make([]Expr, len(x.List))
		for i, l := range x.List {
			if list[i], err = b.resolveExpr(l, sc); err != nil {
				return nil, err
			}
		}
		return &InList{E: inner, List: list, Negate: x.Negate}, nil
	case *parser.ExistsExpr:
		if x.Path != nil {
			return nil, fmt.Errorf("qgm: path expression %s is only valid inside XNF queries", x.Path.String())
		}
		sub, corr, err := b.buildSelect(x.Sub, sc)
		if err != nil {
			return nil, err
		}
		return &Exists{Sub: sub, Corr: corr, Negate: x.Negate}, nil
	case *parser.FuncExpr:
		return nil, fmt.Errorf("qgm: aggregate %s not allowed here", x.Name)
	case *parser.PathExpr:
		return nil, fmt.Errorf("qgm: path expression %s is only valid inside XNF queries", x.String())
	default:
		return nil, fmt.Errorf("qgm: unsupported expression %T", e)
	}
}

// resolveColumn resolves against the local scope, then enclosing scopes
// (producing correlation parameters).
func (b *Builder) resolveColumn(cr *parser.ColumnRef, sc *scope) (Expr, error) {
	ref, err := sc.resolve(cr.Qualifier, cr.Name)
	if err == nil {
		return ref, nil
	}
	if sc.parent != nil {
		outerRef, oerr := sc.parent.resolve(cr.Qualifier, cr.Name)
		if oerr == nil {
			idx := len(*sc.params)
			*sc.params = append(*sc.params, outerRef)
			return &Param{Idx: idx, Name: cr.Name}, nil
		}
		if sc.parent.parent != nil {
			if _, deeperr := sc.parent.parent.resolve(cr.Qualifier, cr.Name); deeperr == nil {
				return nil, fmt.Errorf("qgm: correlation deeper than one level is not supported (%s)", cr)
			}
		}
	}
	return nil, err
}

// BuildTarget builds the target set of a searched UPDATE or DELETE as an
// ordinary single-table query, SELECT t.*, t.__rid FROM t [alias] WHERE
// where: every column of t, then the tuple's RID in the hidden column the
// base box exposes (Box.RID). A nil where selects every row. The predicate
// resolves like a SELECT's, EXISTS subqueries correlated to the row included.
func (b *Builder) BuildTarget(t *catalog.Table, alias string, where parser.Expr) (*Box, error) {
	if alias == "" {
		alias = t.Name
	}
	base := NewBase(t, true)
	var params []Expr
	sc := &scope{params: &params}
	sc.add(alias, base.Out)
	n := len(t.Schema)
	box := &Box{Kind: KindSelect, Name: b.nextName("target"), Out: base.Out[:n:n],
		Head: make([]HeadExpr, 0, n+1), Quants: []*Quantifier{{Name: alias, Input: base}}}
	if where != nil {
		pred, err := b.resolveExpr(where, sc)
		if err != nil {
			return nil, err
		}
		box.Pred = pred
	}
	for ci, col := range box.Out {
		box.Head = append(box.Head, HeadExpr{Name: col.Name, Expr: &ColRef{Quant: 0, Col: ci, Name: col.Name}})
	}
	box.exposeRID(base)
	return box, nil
}

// ResolveRowExpr resolves an expression against a single row binding (used
// by the engine for UPDATE SET expressions). All column references resolve
// to quantifier 0.
func (b *Builder) ResolveRowExpr(bindName string, schema types.Schema, e parser.Expr) (Expr, error) {
	var params []Expr
	sc := &scope{params: &params}
	sc.add(bindName, schema)
	out, err := b.resolveExpr(e, sc)
	if err != nil {
		return nil, err
	}
	if len(params) != 0 {
		return nil, fmt.Errorf("qgm: row expression cannot be correlated")
	}
	return out, nil
}

// ResolveConstExpr resolves an expression with no column references (INSERT
// VALUES items).
func (b *Builder) ResolveConstExpr(e parser.Expr) (Expr, error) {
	var params []Expr
	sc := &scope{params: &params}
	return b.resolveExpr(e, sc)
}

// ---------------------------------------------------------------------------
// Grouping
// ---------------------------------------------------------------------------

// buildGrouped splits an aggregate query into inner-select -> group -> outer
// select boxes, the classic QGM shape.
func (b *Builder) buildGrouped(sel *parser.SelectStmt, sc *scope, quants []*Quantifier, params *[]Expr) (*Box, []Expr, error) {
	// Inner select: join + where, projecting group keys and agg arguments.
	inner := &Box{Kind: KindSelect, Name: b.nextName("gsel"), Quants: quants}
	if sel.Where != nil {
		pred, err := b.resolveExpr(sel.Where, sc)
		if err != nil {
			return nil, nil, err
		}
		inner.Pred = pred
	}

	type keyInfo struct {
		render string
		idx    int // head index in inner
	}
	var keys []keyInfo
	for _, g := range sel.GroupBy {
		e, err := b.resolveExpr(g, sc)
		if err != nil {
			return nil, nil, err
		}
		name := fmt.Sprintf("g%d", len(keys))
		if cr, ok := g.(*parser.ColumnRef); ok {
			name = cr.Name
		}
		keys = append(keys, keyInfo{render: g.String(), idx: len(inner.Head)})
		inner.Head = append(inner.Head, HeadExpr{Name: name, Expr: e})
		inner.Out = append(inner.Out, types.Column{Name: name, Kind: b.inferKind(e, sc)})
	}

	// Collect aggregates from items and having in textual order.
	type aggInfo struct {
		render string
		spec   AggSpec
		argIdx int // head index in inner (-1 for COUNT(*))
	}
	var aggs []aggInfo
	var collect func(e parser.Expr) error
	collect = func(e parser.Expr) error {
		switch x := e.(type) {
		case *parser.FuncExpr:
			if x.PathArg != nil {
				return fmt.Errorf("qgm: path expression aggregate only valid inside XNF queries")
			}
			render := x.String()
			for _, a := range aggs {
				if a.render == render {
					return nil
				}
			}
			var spec AggSpec
			argIdx := -1
			if x.Star {
				spec = AggSpec{Kind: AggCountStar}
			} else {
				if len(x.Args) != 1 {
					return fmt.Errorf("qgm: aggregate %s takes exactly one argument", x.Name)
				}
				arg, err := b.resolveExpr(x.Args[0], sc)
				if err != nil {
					return err
				}
				var kind AggKind
				switch x.Name {
				case "COUNT":
					kind = AggCount
				case "SUM":
					kind = AggSum
				case "AVG":
					kind = AggAvg
				case "MIN":
					kind = AggMin
				case "MAX":
					kind = AggMax
				default:
					return fmt.Errorf("qgm: unknown aggregate %s", x.Name)
				}
				spec = AggSpec{Kind: kind, Distinct: x.Distinct}
				argIdx = len(inner.Head)
				name := fmt.Sprintf("a%d", len(aggs))
				inner.Head = append(inner.Head, HeadExpr{Name: name, Expr: arg})
				inner.Out = append(inner.Out, types.Column{Name: name, Kind: b.inferKind(arg, sc)})
			}
			aggs = append(aggs, aggInfo{render: render, spec: spec, argIdx: argIdx})
			return nil
		case *parser.BinaryExpr:
			if err := collect(x.L); err != nil {
				return err
			}
			return collect(x.R)
		case *parser.UnaryExpr:
			return collect(x.E)
		case *parser.IsNullExpr:
			return collect(x.E)
		case *parser.InExpr:
			if err := collect(x.E); err != nil {
				return err
			}
			for _, l := range x.List {
				if err := collect(l); err != nil {
					return err
				}
			}
			return nil
		default:
			return nil
		}
	}
	for _, it := range sel.Items {
		if it.Star {
			return nil, nil, fmt.Errorf("qgm: SELECT * cannot be combined with GROUP BY")
		}
		if err := collect(it.Expr); err != nil {
			return nil, nil, err
		}
	}
	if sel.Having != nil {
		if err := collect(sel.Having); err != nil {
			return nil, nil, err
		}
	}

	// Group box over the inner select. Output: key columns then aggregates.
	group := &Box{Kind: KindGroup, Name: b.nextName("group"),
		Quants: []*Quantifier{{Name: "__gin", Input: inner}}}
	for i, k := range keys {
		group.GroupBy = append(group.GroupBy, &ColRef{Quant: 0, Col: k.idx, Name: inner.Out[k.idx].Name})
		group.Out = append(group.Out, inner.Out[keys[i].idx])
	}
	for i, a := range aggs {
		spec := a.spec
		if a.argIdx >= 0 {
			spec.Arg = &ColRef{Quant: 0, Col: a.argIdx, Name: inner.Out[a.argIdx].Name}
		}
		group.Aggs = append(group.Aggs, spec)
		kind := types.KindInt
		switch spec.Kind {
		case AggAvg:
			kind = types.KindFloat
		case AggSum, AggMin, AggMax:
			if a.argIdx >= 0 {
				kind = inner.Out[a.argIdx].Kind
			}
		}
		group.Out = append(group.Out, types.Column{Name: fmt.Sprintf("agg%d", i), Kind: kind})
	}

	// Outer select over the group box: final projection + HAVING.
	outerScope := &scope{names: []string{"__g"}, schemas: []types.Schema{group.Out}, params: params, parent: sc.parent}
	outBox := &Box{Kind: KindSelect, Name: b.nextName("gout"),
		Quants: []*Quantifier{{Name: "__g", Input: group}}, Distinct: sel.Distinct}

	// resolvePost rewrites an item/having expression against group outputs.
	var resolvePost func(e parser.Expr) (Expr, error)
	resolvePost = func(e parser.Expr) (Expr, error) {
		// Whole-expression matches: aggregate or group key.
		render := e.String()
		for i, a := range aggs {
			if a.render == render {
				return &ColRef{Quant: 0, Col: len(keys) + i, Name: group.Out[len(keys)+i].Name}, nil
			}
		}
		for i, k := range keys {
			if k.render == render {
				return &ColRef{Quant: 0, Col: i, Name: group.Out[i].Name}, nil
			}
		}
		switch x := e.(type) {
		case *parser.Literal:
			return &Const{Val: x.Val}, nil
		case *parser.ColumnRef:
			// Unqualified name matching a group key's column name.
			for i := range keys {
				if strings.EqualFold(group.Out[i].Name, x.Name) {
					return &ColRef{Quant: 0, Col: i, Name: x.Name}, nil
				}
			}
			return nil, fmt.Errorf("qgm: column %s must appear in GROUP BY or inside an aggregate", x)
		case *parser.BinaryExpr:
			l, err := resolvePost(x.L)
			if err != nil {
				return nil, err
			}
			r, err := resolvePost(x.R)
			if err != nil {
				return nil, err
			}
			return &Binary{Op: x.Op, L: l, R: r}, nil
		case *parser.UnaryExpr:
			inner, err := resolvePost(x.E)
			if err != nil {
				return nil, err
			}
			return &Unary{Op: x.Op, E: inner}, nil
		case *parser.IsNullExpr:
			inner, err := resolvePost(x.E)
			if err != nil {
				return nil, err
			}
			return &IsNull{E: inner, Negate: x.Negate}, nil
		case *parser.InExpr:
			inner, err := resolvePost(x.E)
			if err != nil {
				return nil, err
			}
			list := make([]Expr, len(x.List))
			for i, l := range x.List {
				if list[i], err = resolvePost(l); err != nil {
					return nil, err
				}
			}
			return &InList{E: inner, List: list, Negate: x.Negate}, nil
		default:
			return nil, fmt.Errorf("qgm: unsupported expression %T after grouping", e)
		}
	}

	for _, it := range sel.Items {
		e, err := resolvePost(it.Expr)
		if err != nil {
			return nil, nil, err
		}
		name := it.Alias
		if name == "" {
			if cr, ok := it.Expr.(*parser.ColumnRef); ok {
				name = cr.Name
			} else {
				name = fmt.Sprintf("col%d", len(outBox.Head)+1)
			}
		}
		outBox.Head = append(outBox.Head, HeadExpr{Name: name, Expr: e})
		outBox.Out = append(outBox.Out, types.Column{Name: name, Kind: b.inferKind(e, outerScope)})
	}
	if sel.Having != nil {
		pred, err := resolvePost(sel.Having)
		if err != nil {
			return nil, nil, err
		}
		outBox.Pred = pred
	}
	if err := b.attachOrderLimit(outBox, sel, outerScope); err != nil {
		return nil, nil, err
	}
	outBox.NumParams = len(*params)
	return outBox, *params, nil
}

// ---------------------------------------------------------------------------
// XNF building
// ---------------------------------------------------------------------------

// BuildXNF resolves an XNF composite-object query into an XNF box.
func (b *Builder) BuildXNF(q *parser.XNFQuery) (*Box, error) {
	spec, err := b.buildXNFSpec(q)
	if err != nil {
		return nil, err
	}
	return &Box{Kind: KindXNF, Name: b.nextName("xnf"), XNF: spec}, nil
}

func (b *Builder) buildXNFSpec(q *parser.XNFQuery) (*XNFSpec, error) {
	spec := &XNFSpec{Delete: q.Delete}
	// First pass: collect nodes (view refs expand recursively; their
	// post-TAKE components join this level's candidates).
	for _, src := range q.Sources {
		switch {
		case src.ViewRef:
			sub, err := b.expandXNFView(src.Name)
			if err != nil {
				return nil, err
			}
			spec.ViewRefs = append(spec.ViewRefs, strings.ToUpper(src.Name))
			spec.Bases = append(spec.Bases, sub)
		case src.Select != nil:
			node, err := b.buildXNFNode(src.Name, src.Select)
			if err != nil {
				return nil, err
			}
			spec.Nodes = append(spec.Nodes, node)
		case src.TableName != "":
			// Short form: node ranges over the whole base table.
			t, err := b.cat.Table(src.TableName)
			if err != nil {
				return nil, err
			}
			sel := &Box{Kind: KindSelect, Name: b.nextName("node"),
				Quants: []*Quantifier{{Name: t.Name, Input: NewBase(t, false)}}}
			colMap := make([]int, len(t.Schema))
			for ci, col := range t.Schema {
				sel.Head = append(sel.Head, HeadExpr{Name: col.Name, Expr: &ColRef{Quant: 0, Col: ci, Name: col.Name}})
				sel.Out = append(sel.Out, types.Column{Name: col.Name, Kind: col.Kind})
				colMap[ci] = ci
			}
			spec.Nodes = append(spec.Nodes, &XNFNode{Name: src.Name, Def: sel, BaseTable: t.Name, ColMap: colMap})
		case src.Relate != nil:
			// Handled in the second pass, once all nodes are known.
		}
	}
	// Second pass: edges.
	for _, src := range q.Sources {
		if src.Relate == nil {
			continue
		}
		edge, err := b.buildXNFEdge(src.Name, src.Relate, spec)
		if err != nil {
			return nil, err
		}
		spec.Edges = append(spec.Edges, edge)
	}
	// Restrictions: validated against known components; predicates stay in
	// parser form because they may contain path expressions over the CO.
	for _, r := range q.Restrictions {
		isEdge := false
		if spec.FindEdge(r.Target) != nil {
			isEdge = true
		} else if spec.FindNode(r.Target) == nil {
			return nil, fmt.Errorf("qgm: restriction targets unknown component %q", r.Target)
		}
		if isEdge && len(r.Vars) != 0 && len(r.Vars) != 2 {
			return nil, fmt.Errorf("qgm: edge restriction on %q needs (parent, child) variables", r.Target)
		}
		if !isEdge && len(r.Vars) > 1 {
			return nil, fmt.Errorf("qgm: node restriction on %q takes at most one variable", r.Target)
		}
		spec.Restrictions = append(spec.Restrictions, XNFRestrictionSpec{
			Target: r.Target, IsEdge: isEdge, Vars: r.Vars, RawPred: r.Pred,
		})
	}
	// TAKE.
	if q.TakeAll || q.Delete {
		spec.Take = XNFTakeSpec{All: true}
	} else {
		spec.Take = XNFTakeSpec{}
		for _, item := range q.Take {
			if spec.FindNode(item.Name) == nil && spec.FindEdge(item.Name) == nil {
				return nil, fmt.Errorf("qgm: TAKE references unknown component %q", item.Name)
			}
			spec.Take.Items = append(spec.Take.Items, XNFTakeItem{
				Name: item.Name, AllCols: item.AllCols, Cols: item.Cols,
			})
		}
	}
	return spec, nil
}

// expandXNFView parses and builds the spec of a stored XNF view.
func (b *Builder) expandXNFView(name string) (*XNFSpec, error) {
	v, err := b.cat.View(name)
	if err != nil {
		return nil, err
	}
	if !v.XNF {
		return nil, fmt.Errorf("qgm: %q is a SQL view, not an XNF view", name)
	}
	if b.depth >= maxViewDepth {
		return nil, fmt.Errorf("qgm: XNF view nesting deeper than %d (cycle?)", maxViewDepth)
	}
	st, err := parser.ParseOne(v.Definition)
	if err != nil {
		return nil, fmt.Errorf("qgm: stored XNF view %q fails to parse: %v", name, err)
	}
	xq, ok := st.(*parser.XNFQuery)
	if !ok {
		return nil, fmt.Errorf("qgm: stored XNF view %q is not an XNF query", name)
	}
	b.depth++
	pm := b.ParamLiterals
	b.ParamLiterals = false
	spec, err := b.buildXNFSpec(xq)
	b.ParamLiterals = pm
	b.depth--
	return spec, err
}

// buildXNFNode builds a node definition and derives updatability provenance.
func (b *Builder) buildXNFNode(name string, sel *parser.SelectStmt) (*XNFNode, error) {
	box, params, err := b.buildSelect(sel, nil)
	if err != nil {
		return nil, fmt.Errorf("qgm: node %q: %v", name, err)
	}
	if len(params) != 0 {
		return nil, fmt.Errorf("qgm: node %q cannot be correlated", name)
	}
	node := &XNFNode{Name: name, Def: box}
	// Provenance: single base quantifier, plain column head.
	if box.Kind == KindSelect && len(box.Quants) == 1 && box.Quants[0].Input.Kind == KindBase {
		colMap := make([]int, len(box.Head))
		ok := true
		for i, h := range box.Head {
			cr, isCol := h.Expr.(*ColRef)
			if !isCol || cr.Quant != 0 {
				ok = false
				break
			}
			colMap[i] = cr.Col
		}
		if ok {
			node.BaseTable = box.Quants[0].Input.Table.Name
			node.ColMap = colMap
		}
	}
	return node, nil
}

// buildXNFEdge resolves a RELATE clause against the node set.
func (b *Builder) buildXNFEdge(name string, rc *parser.RelateClause, spec *XNFSpec) (*XNFEdge, error) {
	parent := spec.FindNode(rc.Parent)
	child := spec.FindNode(rc.Child)
	if parent == nil {
		return nil, fmt.Errorf("qgm: relationship %q: unknown parent node %q (well-formedness)", name, rc.Parent)
	}
	if child == nil {
		return nil, fmt.Errorf("qgm: relationship %q: unknown child node %q (well-formedness)", name, rc.Child)
	}
	edge := &XNFEdge{
		Name: name, Parent: parent.Name, ParentRole: rc.ParentRole,
		Child: child.Name, ChildRole: rc.ChildRole,
	}
	// Resolution scope: parent (as node name or role), child, using tables.
	sc := &scope{params: new([]Expr)}
	pName := rc.ParentRole
	if pName == "" {
		pName = parent.Name
	}
	cName := rc.ChildRole
	if cName == "" {
		cName = child.Name
	}
	if strings.EqualFold(pName, cName) {
		return nil, fmt.Errorf("qgm: relationship %q: cyclic relationship needs distinct role names", name)
	}
	sc.add(pName, spec.NodeSchema(parent.Name))
	sc.add(cName, spec.NodeSchema(child.Name))
	for _, u := range rc.Using {
		q, err := b.buildTableRef(u)
		if err != nil {
			return nil, fmt.Errorf("qgm: relationship %q USING: %v", name, err)
		}
		edge.Using = append(edge.Using, q)
		sc.add(q.Name, q.Input.Out)
	}
	if rc.Where != nil {
		pred, err := b.resolveExpr(rc.Where, sc)
		if err != nil {
			return nil, fmt.Errorf("qgm: relationship %q: %v", name, err)
		}
		edge.Pred = pred
	}
	for _, a := range rc.Attrs {
		e, err := b.resolveExpr(a.Expr, sc)
		if err != nil {
			return nil, fmt.Errorf("qgm: relationship %q attribute %q: %v", name, a.Name, err)
		}
		edge.Attrs = append(edge.Attrs, HeadExpr{Name: a.Name, Expr: e})
	}
	b.analyzeEdgeProvenance(edge, parent, child)
	return edge, nil
}

// analyzeEdgeProvenance detects foreign-key and link-table shapes so the
// API layer can implement connect/disconnect (paper §3.7): FK edges nullify
// or set the child's foreign key; M:N link edges delete or insert link rows.
func (b *Builder) analyzeEdgeProvenance(e *XNFEdge, parent, child *XNFNode) {
	conj := Conjuncts(e.Pred)
	// FK shape: no USING, single equality parent.col = child.col.
	if len(e.Using) == 0 && len(conj) == 1 && parent.BaseTable != "" && child.BaseTable != "" {
		if eq, ok := conj[0].(*Binary); ok && eq.Op == "=" {
			l, lok := eq.L.(*ColRef)
			r, rok := eq.R.(*ColRef)
			if lok && rok {
				var pcol, ccol *ColRef
				if l.Quant == 0 && r.Quant == 1 {
					pcol, ccol = l, r
				} else if l.Quant == 1 && r.Quant == 0 {
					pcol, ccol = r, l
				}
				if pcol != nil {
					e.FKParentCol = pcol.Name
					e.FKChildCol = ccol.Name
				}
			}
		}
	}
	// Link-table shape: one USING base table, predicate includes
	// parent.key = u.a and child.key = u.b.
	if len(e.Using) == 1 && e.Using[0].Input.Kind == KindBase {
		var pKey, pLink, cKey, cLink string
		for _, c := range conj {
			eq, ok := c.(*Binary)
			if !ok || eq.Op != "=" {
				continue
			}
			l, lok := eq.L.(*ColRef)
			r, rok := eq.R.(*ColRef)
			if !lok || !rok {
				continue
			}
			// Using quantifier index is 2 (after parent=0, child=1).
			switch {
			case l.Quant == 0 && r.Quant == 2:
				pKey, pLink = l.Name, r.Name
			case l.Quant == 2 && r.Quant == 0:
				pKey, pLink = r.Name, l.Name
			case l.Quant == 1 && r.Quant == 2:
				cKey, cLink = l.Name, r.Name
			case l.Quant == 2 && r.Quant == 1:
				cKey, cLink = r.Name, l.Name
			}
		}
		if pLink != "" && cLink != "" {
			link := e.Using[0].Input
			e.LinkTable = link.Table.Name
			e.LinkParentCol = pLink
			e.LinkChildCol = cLink
			e.LinkParentKey = pKey
			e.LinkChildKey = cKey
			e.LinkAttrCols = make([]string, len(e.Attrs))
			for i, a := range e.Attrs {
				if cr, ok := a.Expr.(*ColRef); ok && cr.Quant == 2 {
					e.LinkAttrCols[i] = link.Out[cr.Col].Name
				}
			}
		}
	}
}

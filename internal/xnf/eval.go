package xnf

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"sqlxnf/internal/qgm"
	"sqlxnf/internal/storage"
	"sqlxnf/internal/types"
)

// Evaluator materializes composite objects from XNF specs.
type Evaluator struct {
	host Host
	opts Options
	// Stats counts evaluator work for the benches.
	Stats EvalStats
}

// EvalStats counts evaluation work. Counters increment with atomic adds so
// concurrent workloads can read them race-free.
type EvalStats struct {
	NodeQueries     int64
	EdgeQueries     int64
	InlineEdges     int64 // edges resolved during topological extraction
	RecomputedNodes int64 // extra node derivations when CSE is off
	FixpointRounds  int64
}

// NewEvaluator returns an evaluator bound to a host.
func NewEvaluator(host Host, opts Options) *Evaluator {
	return &Evaluator{host: host, opts: opts}
}

// gnode is a candidate component table during evaluation.
type gnode struct {
	name      string
	schema    types.Schema
	rows      []types.Row
	rids      []storage.RID
	baseTable string
	colMap    []int
	alive     []bool
	in        []bool // reachable at the graph's last reach pass
}

// gedge is a candidate relationship during evaluation.
type gedge struct {
	name       string
	parent     *gnode
	child      *gnode
	parentRole string
	childRole  string
	attrSchema types.Schema
	conns      []Conn
	alive      []bool
	qgm.EdgeProvenance
}

// newGedge starts the candidate relationship e over parent and child.
func newGedge(e *qgm.XNFEdge, parent, child *gnode) *gedge {
	return &gedge{
		name: e.Name, parent: parent, child: child,
		parentRole: e.ParentRole, childRole: e.ChildRole,
		attrSchema: edgeAttrSchema(e, parent, child), EdgeProvenance: e.EdgeProvenance,
	}
}

// edgeAttrSchema types e's attributes: a plain column reference takes its
// column's kind, any other expression stays untyped.
func edgeAttrSchema(e *qgm.XNFEdge, parent, child *gnode) types.Schema {
	var out types.Schema
	for _, a := range e.Attrs {
		col := types.Column{Name: a.Name, Kind: types.KindNull}
		if cr, ok := a.Expr.(*qgm.ColRef); ok {
			switch cr.Quant {
			case 0:
				col.Kind = parent.schema[cr.Col].Kind
			case 1:
				col.Kind = child.schema[cr.Col].Kind
			default:
				if uq := cr.Quant - 2; uq < len(e.Using) {
					col.Kind = e.Using[uq].Input.Out[cr.Col].Kind
				}
			}
		}
		out = append(out, col)
	}
	return out
}

// egraph is the candidate instance graph of one composition level. Edges
// point at their partner nodes; names are looked up only while the graph is
// built, by a scan over the level's few components.
type egraph struct {
	nodes []*gnode
	edges []*gedge
}

// node finds a component table by name; SQL identifiers match
// case-insensitively.
func (g *egraph) node(name string) *gnode {
	for _, n := range g.nodes {
		if strings.EqualFold(n.name, name) {
			return n
		}
	}
	return nil
}

func (g *egraph) edge(name string) *gedge {
	for _, e := range g.edges {
		if strings.EqualFold(e.name, name) {
			return e
		}
	}
	return nil
}

// isRoot reports whether no edge of g enters n.
func (g *egraph) isRoot(n *gnode) bool {
	for _, e := range g.edges {
		if e.child == n {
			return false
		}
	}
	return true
}

// Evaluate materializes the composite object denoted by spec: composition,
// restrictions, structural projection, and the final reachability pass.
// Restriction-free view levels flatten into one graph first, so the
// topological extraction can exploit the whole schema graph.
func (ev *Evaluator) Evaluate(spec *qgm.XNFSpec) (*CO, error) {
	g, err := ev.compose(flattenSpec(spec), true)
	if err != nil {
		return nil, err
	}
	return ev.finalize(g)
}

// flattenSpec merges base levels that carry no restrictions and no column
// projection into their parent level. This is semantics-preserving: such a
// level contributes exactly its (kept) definitions, and reachability is
// applied at the outermost evaluation anyway — which is how Fig. 3's
// employees become reachable through a relationship added one level up.
func flattenSpec(spec *qgm.XNFSpec) *qgm.XNFSpec {
	out := &qgm.XNFSpec{
		Nodes:        append([]*qgm.XNFNode(nil), spec.Nodes...),
		Edges:        append([]*qgm.XNFEdge(nil), spec.Edges...),
		Restrictions: spec.Restrictions,
		Take:         spec.Take,
		Delete:       spec.Delete,
		ViewRefs:     spec.ViewRefs,
	}
	for _, base := range spec.Bases {
		fb := flattenSpec(base)
		if !mergeableLevel(fb) {
			out.Bases = append(out.Bases, fb)
			continue
		}
		for _, n := range fb.Nodes {
			if fb.TakeKeeps(n.Name) {
				out.Nodes = append(out.Nodes, n)
			}
		}
		for _, e := range fb.Edges {
			if fb.TakeKeeps(e.Name) && fb.TakeKeeps(e.Parent) && fb.TakeKeeps(e.Child) {
				out.Edges = append(out.Edges, e)
			}
		}
		out.Bases = append(out.Bases, fb.Bases...)
	}
	return out
}

// mergeableLevel reports whether a (flattened) level can merge upward:
// no restrictions (they need the level's own instance0) and no column
// projection (it would change node schemas mid-composition).
func mergeableLevel(s *qgm.XNFSpec) bool {
	if len(s.Restrictions) > 0 || len(s.Bases) > 0 {
		return false
	}
	for _, it := range s.Take.Items {
		if !it.AllCols {
			return false
		}
	}
	return true
}

// compose evaluates one composition level: candidates from bases and this
// level's definitions, restrictions against this level's instance0, and the
// structural projection. Reachability of the *result* is the caller's
// responsibility (finalize) — which is exactly why adding a relationship in
// a view over a view can make new tuples reachable (Fig. 3). isTop marks
// the outermost level, where candidate pruning by topological extraction is
// sound (no outer level can resurrect tuples).
func (ev *Evaluator) compose(spec *qgm.XNFSpec, isTop bool) (*egraph, error) {
	g := &egraph{}
	for _, base := range spec.Bases {
		bg, err := ev.compose(base, false)
		if err != nil {
			return nil, err
		}
		for _, n := range bg.nodes {
			if g.node(n.name) != nil {
				return nil, fmt.Errorf("xnf: duplicate component table %q in composition", n.name)
			}
			g.nodes = append(g.nodes, n)
		}
		for _, e := range bg.edges {
			if g.edge(e.name) != nil {
				return nil, fmt.Errorf("xnf: duplicate relationship %q in composition", e.name)
			}
			g.edges = append(g.edges, e)
		}
	}
	// Materialize this level's nodes. When the spec is a self-contained
	// acyclic constructor, extraction runs top-down: parent results feed
	// the child derivations (the paper's §4.3 — "when we generate the
	// tuples of a parent node, we output them, and also use them again to
	// find the tuples of the associated children"), so a selective root
	// touches only its working set instead of full candidate tables.
	// topoNodes fails on a cycle (or self-loop); without bases every edge
	// partner is one of spec.Nodes.
	var order []*qgm.XNFNode
	if isTop && !ev.opts.NoSharedSubexpressions && len(spec.Bases) == 0 {
		order, _ = topoNodes(spec)
	}
	if order != nil {
		if err := ev.materializeTopDown(spec, order, g); err != nil {
			return nil, err
		}
	} else {
		for _, node := range spec.Nodes {
			if g.node(node.Name) != nil {
				return nil, fmt.Errorf("xnf: duplicate component table %q", node.Name)
			}
			gn, err := ev.materializeFull(node)
			if err != nil {
				return nil, err
			}
			g.nodes = append(g.nodes, gn)
		}
	}
	// Derive this level's edges over the candidate node tables. Edges the
	// topological extraction already resolved (their connections fall out
	// of the semijoin fetch) are skipped.
	for _, edge := range spec.Edges {
		if g.edge(edge.Name) != nil {
			continue
		}
		ge, err := ev.evalEdge(edge, g, spec)
		if err != nil {
			return nil, err
		}
		g.edges = append(g.edges, ge)
	}
	// Restrictions apply against instance0 = reachability of the candidates.
	if len(spec.Restrictions) > 0 {
		ev.reach(g)
		for _, r := range spec.Restrictions {
			if err := ev.applyRestriction(g, r); err != nil {
				return nil, err
			}
		}
	}
	// Structural projection.
	if !spec.Take.All {
		if err := ev.applyTake(g, spec.Take); err != nil {
			return nil, err
		}
	}
	return g, nil
}

func allTrue(n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = true
	}
	return out
}

// materializeFull runs a node's full defining query.
func (ev *Evaluator) materializeFull(node *qgm.XNFNode) (*gnode, error) {
	rows, rids, err := ev.host.RunBox(node.Def)
	if err != nil {
		return nil, fmt.Errorf("xnf: node %s: %w", node.Name, err)
	}
	atomic.AddInt64(&ev.Stats.NodeQueries, 1)
	gn := &gnode{
		name: node.Name, schema: node.Def.Out, rows: rows, rids: rids,
		baseTable: node.BaseTable, colMap: node.ColMap,
		alive: allTrue(len(rows)),
	}
	if gn.rids == nil {
		gn.rids = make([]storage.RID, len(rows))
		for i := range gn.rids {
			gn.rids[i] = storage.NilRID
		}
	}
	return gn, nil
}

// materializeTopDown materializes nodes in topological order (topoNodes),
// deriving each child's candidates from its (already materialized) parents
// through the edge predicates' equi-join structure. Edges whose structure
// cannot be exploited force a full derivation of their child.
func (ev *Evaluator) materializeTopDown(spec *qgm.XNFSpec, order []*qgm.XNFNode, g *egraph) error {
	incoming := map[string][]*qgm.XNFEdge{}
	for _, e := range spec.Edges {
		incoming[strings.ToUpper(e.Child)] = append(incoming[strings.ToUpper(e.Child)], e)
	}
	for _, node := range order {
		if g.node(node.Name) != nil {
			return fmt.Errorf("xnf: duplicate component table %q", node.Name)
		}
		inc := incoming[strings.ToUpper(node.Name)]
		if len(inc) == 0 {
			gn, err := ev.materializeFull(node)
			if err != nil {
				return err
			}
			g.nodes = append(g.nodes, gn)
			continue
		}
		// Per incoming edge, derive a key filter from the parent's
		// materialization; any edge without usable structure forces the
		// full derivation.
		type fetch struct {
			col  string
			keys []types.Value
		}
		var fetches []fetch
		var links map[*qgm.XNFEdge]*linkRows // nil without link edges
		full := false
		for _, e := range inc {
			parent := g.node(e.Parent)
			if parent == nil {
				full = true // parent from a base level; be conservative
				break
			}
			switch {
			case e.FKChildCol != "" && len(e.Using) == 0:
				keys := distinctColumn(parent.rows, parent.schema.Index(e.FKParentCol))
				fetches = append(fetches, fetch{col: e.FKChildCol, keys: keys})
			case e.LinkTable != "":
				lr, lerr := ev.fetchLinks(e, parent)
				if lerr != nil {
					return lerr
				}
				if links == nil {
					links = map[*qgm.XNFEdge]*linkRows{}
				}
				links[e] = lr
				fetches = append(fetches, fetch{col: e.LinkChildKey, keys: distinctColumn(lr.rows, lr.cCol)})
			default:
				full = true
			}
			if full {
				break
			}
		}
		if full {
			gn, err := ev.materializeFull(node)
			if err != nil {
				return err
			}
			g.nodes = append(g.nodes, gn)
			continue
		}
		gn := &gnode{
			name: node.Name, schema: node.Def.Out,
			baseTable: node.BaseTable, colMap: node.ColMap,
		}
		seenRID := map[storage.RID]bool{}
		var seenRows map[uint64][]int
		for _, f := range fetches {
			box, berr := wrapWithInFilter(node.Def, f.col, f.keys)
			if berr != nil {
				return berr
			}
			rows, rids, rerr := ev.host.RunBox(box)
			if rerr != nil {
				return fmt.Errorf("xnf: node %s: %w", node.Name, rerr)
			}
			atomic.AddInt64(&ev.Stats.NodeQueries, 1)
			for i, row := range rows {
				var rid storage.RID = storage.NilRID
				if rids != nil {
					rid = rids[i]
				}
				if rid.Valid() {
					if seenRID[rid] {
						continue
					}
					seenRID[rid] = true
				} else {
					// Fall back to row-equality dedup.
					if seenRows == nil {
						seenRows = map[uint64][]int{}
					}
					h := row.Hash()
					dup := false
					for _, pi := range seenRows[h] {
						if gn.rows[pi].Equal(row) {
							dup = true
							break
						}
					}
					if dup {
						continue
					}
					seenRows[h] = append(seenRows[h], len(gn.rows))
				}
				gn.rows = append(gn.rows, row)
				gn.rids = append(gn.rids, rid)
			}
		}
		gn.alive = allTrue(len(gn.rows))
		g.nodes = append(g.nodes, gn)

		// Resolve connections for simple incoming edges directly from the
		// fetch structure: the child column values point back at parent
		// keys, so a hash match replaces the general edge join.
		for _, e := range inc {
			ev.resolveEdgeInline(e, g, links[e])
		}
	}
	return nil
}

// resolveEdgeInline derives an edge's connections without a join when its
// predicate is exactly the provenance equi-structure and its attributes (if
// any) live on the link table, whose rows links holds for a link-table edge.
// Unresolvable edges stay for evalEdge.
func (ev *Evaluator) resolveEdgeInline(e *qgm.XNFEdge, g *egraph, links *linkRows) {
	parent, child := g.node(e.Parent), g.node(e.Child)
	if parent == nil || child == nil {
		return
	}
	conjN := len(qgm.Conjuncts(e.Pred))
	switch {
	case e.FKChildCol != "" && len(e.Using) == 0 && conjN == 1 && len(e.Attrs) == 0:
		pIdx := parent.schema.Index(e.FKParentCol)
		cIdx := child.schema.Index(e.FKChildCol)
		if pIdx < 0 || cIdx < 0 {
			return
		}
		byKey := indexByValue(parent, pIdx)
		ge := newGedge(e, parent, child)
		for ci, row := range child.rows {
			v := row[cIdx]
			if v.IsNull() {
				continue
			}
			for _, pi := range lookupByValue(byKey, parent, pIdx, v) {
				ge.conns = append(ge.conns, Conn{P: pi, C: ci, LinkRID: storage.NilRID})
			}
		}
		ge.alive = allTrue(len(ge.conns))
		g.edges = append(g.edges, ge)
		atomic.AddInt64(&ev.Stats.InlineEdges, 1)
	case links != nil && conjN == 2 && e.AttrsOnLink():
		pKey := parent.schema.Index(e.LinkParentKey)
		cKey := child.schema.Index(e.LinkChildKey)
		if pKey < 0 || cKey < 0 {
			return
		}
		linkOut := e.Using[0].Input.Out
		attrCols := make([]int, len(e.LinkAttrCols))
		for i, col := range e.LinkAttrCols {
			attrCols[i] = linkOut.Index(col)
		}
		pByKey := indexByValue(parent, pKey)
		cByKey := indexByValue(child, cKey)
		ge := newGedge(e, parent, child)
		for i, row := range links.rows {
			var attrs types.Row
			if len(attrCols) > 0 {
				attrs = make(types.Row, len(attrCols))
				for j, col := range attrCols {
					attrs[j] = row[col]
				}
			}
			for _, pi := range lookupByValue(pByKey, parent, pKey, row[links.pCol]) {
				for _, ci := range lookupByValue(cByKey, child, cKey, row[links.cCol]) {
					ge.conns = append(ge.conns, Conn{P: pi, C: ci, Attrs: attrs, LinkRID: links.rids[i]})
				}
			}
		}
		ge.alive = allTrue(len(ge.conns))
		g.edges = append(g.edges, ge)
		atomic.AddInt64(&ev.Stats.InlineEdges, 1)
	}
}

// linkRows is a link-table edge's one fetch from its link table: the whole
// link rows whose parent column holds a key of the materialized parent, with
// their RIDs. It supplies both the child keys of the top-down extraction and
// the inline connections.
type linkRows struct {
	rows       []types.Row
	rids       []storage.RID
	pCol, cCol int // positions of the parent and child link columns
}

// fetchLinks reads the link rows of e that join parent's materialized keys.
func (ev *Evaluator) fetchLinks(e *qgm.XNFEdge, parent *gnode) (*linkRows, error) {
	link := e.Using[0].Input
	lr := &linkRows{pCol: link.Out.Index(e.LinkParentCol), cCol: link.Out.Index(e.LinkChildCol)}
	if lr.pCol < 0 || lr.cCol < 0 {
		return nil, fmt.Errorf("xnf: link provenance of %s is incomplete", e.Name)
	}
	box, err := wrapWithInFilter(link, e.LinkParentCol,
		distinctColumn(parent.rows, parent.schema.Index(e.LinkParentKey)))
	if err != nil {
		return nil, err
	}
	if lr.rows, lr.rids, err = ev.host.RunBox(box); err != nil {
		return nil, fmt.Errorf("xnf: relationship %s: %w", e.Name, err)
	}
	return lr, nil
}

// indexByValue hashes a node column for repeated lookups.
func indexByValue(n *gnode, col int) map[uint64][]int {
	out := make(map[uint64][]int, len(n.rows))
	for i, row := range n.rows {
		v := row[col]
		if v.IsNull() {
			continue
		}
		out[v.Hash()] = append(out[v.Hash()], i)
	}
	return out
}

// lookupByValue resolves a hash bucket with equality verification.
func lookupByValue(idx map[uint64][]int, n *gnode, col int, v types.Value) []int {
	var out []int
	for _, i := range idx[v.Hash()] {
		if types.Equal(n.rows[i][col], v) {
			out = append(out, i)
		}
	}
	return out
}

// topoNodes orders the spec's nodes parents-first.
func topoNodes(spec *qgm.XNFSpec) ([]*qgm.XNFNode, error) {
	indeg := map[string]int{}
	byName := map[string]*qgm.XNFNode{}
	for _, n := range spec.Nodes {
		indeg[strings.ToUpper(n.Name)] = 0
		byName[strings.ToUpper(n.Name)] = n
	}
	adj := map[string][]string{}
	for _, e := range spec.Edges {
		p, c := strings.ToUpper(e.Parent), strings.ToUpper(e.Child)
		adj[p] = append(adj[p], c)
		indeg[c]++
	}
	var queue []string
	for _, n := range spec.Nodes {
		if indeg[strings.ToUpper(n.Name)] == 0 {
			queue = append(queue, strings.ToUpper(n.Name))
		}
	}
	var out []*qgm.XNFNode
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		out = append(out, byName[cur])
		for _, m := range adj[cur] {
			indeg[m]--
			if indeg[m] == 0 {
				queue = append(queue, m)
			}
		}
	}
	if len(out) != len(spec.Nodes) {
		return nil, fmt.Errorf("xnf: schema graph is cyclic (topological extraction)")
	}
	return out, nil
}

// distinctColumn returns the distinct non-null values of column i of rows,
// in first-seen order; none when i < 0.
func distinctColumn(rows []types.Row, i int) []types.Value {
	if i < 0 {
		return nil
	}
	seen := map[uint64][]types.Value{}
	var out []types.Value
	for _, row := range rows {
		v := row[i]
		if v.IsNull() {
			continue
		}
		h := v.Hash()
		dup := false
		for _, p := range seen[h] {
			if types.Equal(p, v) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		seen[h] = append(seen[h], v)
		out = append(out, v)
	}
	return out
}

// wrapWithInFilter narrows a node derivation to rows whose output column
// col falls in keys. An empty key set yields an empty derivation.
func wrapWithInFilter(def *qgm.Box, col string, keys []types.Value) (*qgm.Box, error) {
	ci := def.Out.Index(col)
	if ci < 0 {
		return nil, fmt.Errorf("xnf: node output lacks join column %q", col)
	}
	if len(keys) == 0 {
		return &qgm.Box{Kind: qgm.KindValues, Name: def.Name + ":empty", Out: def.Out}, nil
	}
	list := make([]qgm.Expr, len(keys))
	for i, v := range keys {
		list[i] = &qgm.Const{Val: v}
	}
	outer := &qgm.Box{
		Kind:   qgm.KindSelect,
		Name:   def.Name + ":semijoin",
		Quants: []*qgm.Quantifier{{Name: "__n", Input: def}},
		Pred:   &qgm.InList{E: &qgm.ColRef{Quant: 0, Col: ci, Name: col}, List: list},
		Out:    def.Out.Clone(),
	}
	for i, c := range def.Out {
		outer.Head = append(outer.Head, qgm.HeadExpr{Name: c.Name,
			Expr: &qgm.ColRef{Quant: 0, Col: i, Name: c.Name}})
	}
	return outer, nil
}

// evalEdge derives connection instances by running a generated SQL query —
// the XNF semantic rewrite output for one relationship. With common
// subexpression sharing the partner node materializations feed the query
// directly; the ablation re-derives them from base tables first.
func (ev *Evaluator) evalEdge(edge *qgm.XNFEdge, g *egraph, spec *qgm.XNFSpec) (*gedge, error) {
	parent := g.node(edge.Parent)
	child := g.node(edge.Child)
	if parent == nil || child == nil {
		return nil, fmt.Errorf("xnf: relationship %s references missing partner tables (%s, %s)", edge.Name, edge.Parent, edge.Child)
	}
	if ev.opts.NoSharedSubexpressions {
		// Ablation: recompute the partner node derivations, modeling an
		// implementation without cross-query common subexpressions.
		for _, n := range []string{edge.Parent, edge.Child} {
			if def := findNodeDef(spec, n); def != nil {
				if _, _, err := ev.host.RunBox(def); err != nil {
					return nil, err
				}
				atomic.AddInt64(&ev.Stats.RecomputedNodes, 1)
			}
		}
	}
	// Build the edge query: SELECT p.__tid, c.__tid, [link.__rid,] attrs...
	// FROM <parent materialization> p, <child materialization> c, using...
	// WHERE <relate predicate>. A link table's quantifier ranges over the
	// base table with its hidden RID column: the link row's identity.
	pBox := valuesBoxWithTID(edge.Parent+"_m", parent)
	cBox := valuesBoxWithTID(edge.Child+"_m", child)
	quants := []*qgm.Quantifier{
		{Name: "__p", Input: pBox},
		{Name: "__c", Input: cBox},
	}
	quants = append(quants, edge.Using...)
	sel := &qgm.Box{Kind: qgm.KindSelect, Name: "edge:" + edge.Name, Quants: quants, Pred: edge.Pred}
	pTID := len(parent.schema)
	cTID := len(child.schema)
	sel.Head = append(sel.Head,
		qgm.HeadExpr{Name: "__ptid", Expr: &qgm.ColRef{Quant: 0, Col: pTID, Name: "__tid"}},
		qgm.HeadExpr{Name: "__ctid", Expr: &qgm.ColRef{Quant: 1, Col: cTID, Name: "__tid"}},
	)
	sel.Out = types.Schema{
		{Name: "__ptid", Kind: types.KindInt},
		{Name: "__ctid", Kind: types.KindInt},
	}
	if edge.LinkTable != "" {
		link := *edge.Using[0]
		link.Input = qgm.NewBase(link.Input.Table, true)
		quants[2] = &link
		rid := len(link.Input.Out) - 1
		sel.Head = append(sel.Head, qgm.HeadExpr{Name: types.RIDColumn.Name,
			Expr: &qgm.ColRef{Quant: 2, Col: rid, Name: types.RIDColumn.Name}})
		sel.Out = append(sel.Out, link.Input.Out[rid])
	}
	attrsAt := len(sel.Head)
	ge := newGedge(edge, parent, child)
	sel.Head = append(sel.Head, edge.Attrs...)
	sel.Out = append(sel.Out, ge.attrSchema...)
	rows, _, err := ev.host.RunBox(sel)
	if err != nil {
		return nil, fmt.Errorf("xnf: relationship %s: %v", edge.Name, err)
	}
	atomic.AddInt64(&ev.Stats.EdgeQueries, 1)
	for _, r := range rows {
		conn := Conn{P: int(r[0].Int()), C: int(r[1].Int()), LinkRID: storage.NilRID}
		if edge.LinkTable != "" {
			conn.LinkRID = storage.UnpackRID(r[2].Int())
		}
		if len(r) > attrsAt {
			conn.Attrs = r[attrsAt:].Clone()
		}
		ge.conns = append(ge.conns, conn)
	}
	ge.alive = allTrue(len(ge.conns))
	return ge, nil
}

// findNodeDef locates a node's defining box anywhere in the composition.
func findNodeDef(spec *qgm.XNFSpec, name string) *qgm.Box {
	if n := spec.FindNode(name); n != nil {
		return n.Def
	}
	return nil
}

// valuesBoxWithTID wraps a node materialization as a Values box whose rows
// carry a trailing tuple id, giving edge queries stable tuple identity.
func valuesBoxWithTID(name string, n *gnode) *qgm.Box {
	out := n.schema.Clone()
	out = append(out, types.Column{Name: "__tid", Kind: types.KindInt})
	rows := make([][]types.Value, len(n.rows))
	for i, r := range n.rows {
		row := make([]types.Value, 0, len(r)+1)
		row = append(row, r...)
		row = append(row, types.NewInt(int64(i)))
		rows[i] = row
	}
	return &qgm.Box{Kind: qgm.KindValues, Name: name, Out: out, ValueRows: rows}
}

// reach marks in each node's in flags the tuples reachable over alive
// connections. Roots are nodes without incoming edges; their alive tuples
// are reachable by definition. Semi-naive evaluation propagates a
// frontier; the naive ablation re-scans every connection each round.
func (ev *Evaluator) reach(g *egraph) {
	for _, n := range g.nodes {
		n.in = make([]bool, len(n.rows))
		if g.isRoot(n) {
			copy(n.in, n.alive)
		}
	}
	if ev.opts.NaiveFixpoint {
		for changed := true; changed; {
			atomic.AddInt64(&ev.Stats.FixpointRounds, 1)
			changed = false
			for _, e := range g.edges {
				for ci, conn := range e.conns {
					if e.alive[ci] && e.child.alive[conn.C] && e.parent.in[conn.P] && !e.child.in[conn.C] {
						e.child.in[conn.C] = true
						changed = true
					}
				}
			}
		}
		return
	}
	// Semi-naive: one adjacency pass builds per-tuple successor lists, then
	// a frontier worklist touches every connection exactly once. Targets
	// name nodes by their position in g.nodes.
	type target struct{ node, idx int }
	succ := make([][][]target, len(g.nodes))
	var frontier []target
	for ni, n := range g.nodes {
		succ[ni] = make([][]target, len(n.rows))
		for i, r := range n.in {
			if r {
				frontier = append(frontier, target{ni, i})
			}
		}
	}
	for _, e := range g.edges {
		p, c := slices.Index(g.nodes, e.parent), slices.Index(g.nodes, e.child)
		for ci, conn := range e.conns {
			if e.alive[ci] && e.parent.alive[conn.P] && e.child.alive[conn.C] {
				succ[p][conn.P] = append(succ[p][conn.P], target{c, conn.C})
			}
		}
	}
	for len(frontier) > 0 {
		atomic.AddInt64(&ev.Stats.FixpointRounds, 1)
		it := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, t := range succ[it.node][it.idx] {
			if in := g.nodes[t.node].in; !in[t.idx] {
				in[t.idx] = true
				frontier = append(frontier, t)
			}
		}
	}
}

// applyTake drops components not kept and applies column projection.
// Dropping a node implicitly drops relationships that reference it
// (well-formedness, paper §3.3).
func (ev *Evaluator) applyTake(g *egraph, take qgm.XNFTakeSpec) error {
	keepNode := map[*gnode]*qgm.XNFTakeItem{}
	keepEdge := map[*gedge]bool{}
	for i := range take.Items {
		item := &take.Items[i]
		if n := g.node(item.Name); n != nil {
			keepNode[n] = item
			continue
		}
		if e := g.edge(item.Name); e != nil {
			keepEdge[e] = true
			continue
		}
		return fmt.Errorf("xnf: TAKE references unknown component %q", item.Name)
	}
	var nodes []*gnode
	for _, n := range g.nodes {
		item, ok := keepNode[n]
		if !ok {
			continue
		}
		if !item.AllCols {
			if err := projectNode(n, item.Cols); err != nil {
				return err
			}
		}
		nodes = append(nodes, n)
	}
	var edges []*gedge
	for _, e := range g.edges {
		// Implicit drop when a partner table is gone.
		if keepEdge[e] && keepNode[e.parent] != nil && keepNode[e.child] != nil {
			edges = append(edges, e)
		}
	}
	g.nodes, g.edges = nodes, edges
	return nil
}

// projectNode narrows a node to the named columns, keeping provenance maps
// consistent.
func projectNode(n *gnode, cols []string) error {
	idxs := make([]int, len(cols))
	for i, c := range cols {
		p := n.schema.Index(c)
		if p < 0 {
			return fmt.Errorf("xnf: TAKE projects unknown column %q of %s", c, n.name)
		}
		idxs[i] = p
	}
	newSchema := make(types.Schema, len(idxs))
	for i, p := range idxs {
		newSchema[i] = n.schema[p]
	}
	for ri, row := range n.rows {
		nr := make(types.Row, len(idxs))
		for i, p := range idxs {
			nr[i] = row[p]
		}
		n.rows[ri] = nr
	}
	if n.colMap != nil {
		ncm := make([]int, len(idxs))
		for i, p := range idxs {
			ncm[i] = n.colMap[p]
		}
		n.colMap = ncm
	}
	n.schema = newSchema
	return nil
}

// finalize applies the reachability constraint to the composed graph and
// compacts it into the public CO form.
func (ev *Evaluator) finalize(g *egraph) (*CO, error) {
	ev.reach(g)
	co := &CO{}
	remap := make(map[*gnode][]int, len(g.nodes))
	for _, n := range g.nodes {
		ni := &NodeInstance{
			Name: n.name, Schema: n.schema, BaseTable: n.baseTable,
			ColMap: n.colMap, Root: g.isRoot(n),
		}
		rm := make([]int, len(n.rows))
		for i, row := range n.rows {
			rm[i] = -1
			if !n.member(i) {
				continue
			}
			rm[i] = len(ni.Rows)
			ni.Rows = append(ni.Rows, row)
			ni.RIDs = append(ni.RIDs, n.rids[i])
		}
		remap[n] = rm
		co.Nodes = append(co.Nodes, ni)
	}
	for _, e := range g.edges {
		ei := &EdgeInstance{
			Name: e.name, Parent: e.parent.name, Child: e.child.name,
			AttrSchema: e.attrSchema, EdgeProvenance: e.EdgeProvenance,
		}
		pMap, cMap := remap[e.parent], remap[e.child]
		for ci, conn := range e.conns {
			if !e.alive[ci] {
				continue
			}
			np, nc := pMap[conn.P], cMap[conn.C]
			if np < 0 || nc < 0 {
				continue // endpoint excluded → connection excluded
			}
			ei.Conns = append(ei.Conns, Conn{P: np, C: nc, Attrs: conn.Attrs, LinkRID: conn.LinkRID})
		}
		co.Edges = append(co.Edges, ei)
	}
	if err := co.Validate(); err != nil {
		return nil, err
	}
	return co, nil
}

// Delete implements CO-level deletion (§3.7): every component tuple maps
// down to a removal of its base tuple, and link-table connections map to
// link-row deletions. Every node must be updatable.
func (ev *Evaluator) Delete(spec *qgm.XNFSpec) (int, error) {
	co, err := ev.Evaluate(spec)
	if err != nil {
		return 0, err
	}
	for _, n := range co.Nodes {
		if len(n.Rows) > 0 && n.BaseTable == "" {
			return 0, fmt.Errorf("xnf: CO DELETE requires updatable components; %s is not traceable to a base table", n.Name)
		}
	}
	deleted := 0
	seen := map[string]map[storage.RID]bool{}
	del := func(table string, rid storage.RID) error {
		if !rid.Valid() {
			return fmt.Errorf("xnf: a %s row of the composite object has no base provenance", table)
		}
		if seen[table] == nil {
			seen[table] = map[storage.RID]bool{}
		}
		if seen[table][rid] {
			return nil
		}
		seen[table][rid] = true
		if err := ev.host.DeleteRow(table, rid); err != nil {
			return err
		}
		deleted++
		return nil
	}
	// Link rows first (they reference the node tuples' keys), each by the
	// RID it was read at; then node tuples. Both deduplicate by base identity.
	for _, e := range co.Edges {
		if e.LinkTable == "" {
			continue
		}
		for _, conn := range e.Conns {
			if err := del(e.LinkTable, conn.LinkRID); err != nil {
				return deleted, err
			}
		}
	}
	for _, n := range co.Nodes {
		for _, rid := range n.RIDs {
			if err := del(n.BaseTable, rid); err != nil {
				return deleted, err
			}
		}
	}
	return deleted, nil
}

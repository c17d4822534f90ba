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
	EdgeQueries     int64 // USING queries, one per relationship with USING
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
	edges := spec.Edges
	var fetched map[*qgm.XNFEdge]*edgePlan
	if order != nil {
		var err error
		if edges, fetched, err = ev.materializeTopDown(spec, order, g); err != nil {
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
	// Resolve this level's edges over the candidate node tables, reusing
	// the USING rows the topological extraction fetched.
	for _, edge := range edges {
		if g.edge(edge.Name) != nil {
			return nil, fmt.Errorf("xnf: duplicate relationship %q", edge.Name)
		}
		parent, child := g.node(edge.Parent), g.node(edge.Child)
		if parent == nil || child == nil {
			return nil, fmt.Errorf("xnf: relationship %s references missing partner tables (%s, %s)", edge.Name, edge.Parent, edge.Child)
		}
		if ev.opts.NoSharedSubexpressions {
			// Ablation: recompute the partner node derivations, modeling an
			// implementation without cross-query common subexpressions.
			for _, n := range []string{edge.Parent, edge.Child} {
				if node := spec.FindNode(n); node != nil {
					if _, _, err := ev.host.RunBox(node.Def); err != nil {
						return nil, err
					}
					atomic.AddInt64(&ev.Stats.RecomputedNodes, 1)
				}
			}
		}
		pl := fetched[edge]
		if pl == nil {
			p := planEdge(edge)
			if pl = &p; len(edge.Using) > 0 {
				if err := ev.fetchUsing(pl, parent); err != nil {
					return nil, err
				}
			}
		}
		ge, err := ev.resolveEdge(pl, parent, child)
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
// cannot be exploited force a full derivation of their child. It returns
// the edges in the order it derives their children and, by edge, the plan
// of each link edge with the rows of its one USING query, which supplied
// the child's keys.
func (ev *Evaluator) materializeTopDown(spec *qgm.XNFSpec, order []*qgm.XNFNode, g *egraph) (
	edges []*qgm.XNFEdge, fetched map[*qgm.XNFEdge]*edgePlan, err error) {
	incoming := map[string][]*qgm.XNFEdge{}
	for _, e := range spec.Edges {
		incoming[strings.ToUpper(e.Child)] = append(incoming[strings.ToUpper(e.Child)], e)
	}
	for _, node := range order {
		if g.node(node.Name) != nil {
			return nil, nil, fmt.Errorf("xnf: duplicate component table %q", node.Name)
		}
		inc := incoming[strings.ToUpper(node.Name)]
		edges = append(edges, inc...)
		// Per incoming edge, derive a key filter from the parent's
		// materialization; a root, or any edge without usable structure,
		// takes the full derivation.
		type fetch struct {
			col  int
			keys []types.Value
		}
		var fetches []fetch
		full := len(inc) == 0
		for _, e := range inc {
			parent := g.node(e.Parent)
			switch {
			case parent == nil: // parent from a base level; be conservative
				full = true
			case e.FKChildCol != "" && len(e.Using) == 0:
				keys := distinctColumn(parent.rows, parent.schema.Index(e.FKParentCol))
				fetches = append(fetches, fetch{col: node.Def.Out.Index(e.FKChildCol), keys: keys})
			case e.LinkTable != "":
				pl := planEdge(e)
				if err := ev.fetchUsing(&pl, parent); err != nil {
					return nil, nil, err
				}
				if fetched == nil {
					fetched = map[*qgm.XNFEdge]*edgePlan{}
				}
				fetched[e] = &pl
				fetches = append(fetches, fetch{col: pl.cCols[0], keys: distinctColumn(pl.uRows, pl.cProbe[0])})
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
				return nil, nil, err
			}
			g.nodes = append(g.nodes, gn)
			continue
		}
		gn := &gnode{
			name: node.Name, schema: node.Def.Out,
			baseTable: node.BaseTable, colMap: node.ColMap,
		}
		// A row with a RID is kept once however many fetches return it. Rows
		// without one merge by value: every copy one fetch returns is a tuple
		// of the derivation, and since equal rows pass or fail a key filter
		// together, the node keeps, per value, the most copies any one fetch
		// returned. kept and fetched index gn.rows and rows by hash.
		seenRID := map[storage.RID]bool{}
		kept := map[uint64][]int{}
		for _, f := range fetches {
			rows, rids, rerr := ev.host.RunBox(wrapWithInFilter(node.Def, f.col, f.keys))
			if rerr != nil {
				return nil, nil, fmt.Errorf("xnf: node %s: %w", node.Name, rerr)
			}
			atomic.AddInt64(&ev.Stats.NodeQueries, 1)
			fetched := map[uint64][]int{}
			for i, row := range rows {
				rid := storage.NilRID
				if rids != nil {
					rid = rids[i]
				}
				if rid.Valid() {
					if seenRID[rid] {
						continue
					}
					seenRID[rid] = true
				} else {
					h := row.Hash()
					fetched[h] = append(fetched[h], i)
					if countEqual(rows, fetched[h], row) <= countEqual(gn.rows, kept[h], row) {
						continue
					}
					kept[h] = append(kept[h], len(gn.rows))
				}
				gn.rows = append(gn.rows, row)
				gn.rids = append(gn.rids, rid)
			}
		}
		gn.alive = allTrue(len(gn.rows))
		g.nodes = append(g.nodes, gn)
	}
	return edges, fetched, nil
}

// countEqual counts the rows at positions that equal row.
func countEqual(rows []types.Row, positions []int, row types.Row) int {
	n := 0
	for _, p := range positions {
		if rows[p].Equal(row) {
			n++
		}
	}
	return n
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

// wrapWithInFilter narrows a derivation to rows whose output column ci
// falls in keys. An empty key set yields an empty derivation.
func wrapWithInFilter(def *qgm.Box, ci int, keys []types.Value) *qgm.Box {
	if len(keys) == 0 {
		return &qgm.Box{Kind: qgm.KindValues, Name: def.Name + ":empty", Out: def.Out}
	}
	list := make([]qgm.Expr, len(keys))
	for i, v := range keys {
		list[i] = &qgm.Const{Val: v}
	}
	outer := &qgm.Box{
		Kind:   qgm.KindSelect,
		Name:   def.Name + ":semijoin",
		Quants: []*qgm.Quantifier{{Name: "__n", Input: def}},
		Pred:   &qgm.InList{E: &qgm.ColRef{Quant: 0, Col: ci, Name: def.Out[ci].Name}, List: list},
		Out:    def.Out.Clone(),
	}
	for i, c := range def.Out {
		outer.Head = append(outer.Head, qgm.HeadExpr{Name: c.Name,
			Expr: &qgm.ColRef{Quant: 0, Col: i, Name: c.Name}})
	}
	return outer
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

package qgm

import (
	"fmt"
	"slices"
	"strings"

	"sqlxnf/internal/catalog"
	"sqlxnf/internal/parser"
	"sqlxnf/internal/types"
)

// BoxKind discriminates box types.
type BoxKind uint8

// Box kinds.
const (
	KindBase BoxKind = iota
	KindSelect
	KindGroup
	KindUnion
	KindValues
	KindXNF
	KindNodeRef
)

// String names the kind.
func (k BoxKind) String() string {
	switch k {
	case KindBase:
		return "BASE"
	case KindSelect:
		return "SELECT"
	case KindGroup:
		return "GROUP"
	case KindUnion:
		return "UNION"
	case KindValues:
		return "VALUES"
	case KindXNF:
		return "XNF"
	case KindNodeRef:
		return "NODEREF"
	default:
		return "BOX?"
	}
}

// Quantifier ranges over a box's output within a parent box body.
type Quantifier struct {
	Name  string
	Input *Box
}

// HeadExpr is one output column of a box.
type HeadExpr struct {
	Name string
	Expr Expr
}

// OrderSpec is one sort key over the box's head columns.
type OrderSpec struct {
	HeadIdx int
	Desc    bool
}

// Box is one QGM operator. Kind selects which fields are meaningful:
//
//	Base:   Table, RID
//	Select: Quants, Pred, Head, Distinct, OrderBy, Limit, NumParams
//	Group:  Quants (exactly 1), GroupBy, Aggs — output is keys then aggs
//	Union:  Inputs (schemas must match)
//	Values: ValueRows
//	XNF:    XNF (consumed by the XNF semantic rewrite)
type Box struct {
	Kind BoxKind
	Name string
	Out  types.Schema

	// Base. RID makes the box expose each tuple's storage location as one
	// trailing hidden column (types.RIDColumn, the last column of Out): RIDs
	// travel through the plan as data. The optimizer passes the flag to
	// whichever scan it picks for the box (exec.SeqScan.WithRID); everything
	// above the scan sees an ordinary INT column.
	Table *catalog.Table
	RID   bool

	// Select / Group body.
	Quants   []*Quantifier
	Pred     Expr
	Head     []HeadExpr
	Distinct bool
	OrderBy  []OrderSpec
	Limit    *int64
	// NumParams is the number of correlation parameter slots this box (and
	// its descendants) read; boxes with NumParams > 0 are re-evaluated per
	// outer binding.
	NumParams int
	// HiddenSort counts trailing head columns that exist only to evaluate
	// ORDER BY keys not present in the select list; the optimizer trims
	// them after sorting.
	HiddenSort int

	// Group.
	GroupBy []Expr
	Aggs    []AggSpec

	// Union.
	Inputs []*Box

	// Values.
	ValueRows [][]types.Value

	// XNF.
	XNF *XNFSpec

	// NodeRef: a FROM "VIEW.NODE" reference. Unlike the old Values lowering
	// — which snapshotted the materialized node rows into the plan at build
	// time and made such plans uncacheable — a NodeRef box carries only the
	// identity of the component table; the executor resolves its rows at
	// Open through a bind-time handle (exec.Context.NodeRows), served by the
	// engine's composite-object cache. EstRows is the node's row count at
	// build (cardinality estimate); COCached records whether the CO cache
	// held the view's materialization at build time (EXPLAIN prints it).
	View     string
	Node     string
	EstRows  int64
	COCached bool
}

// Schema returns the output schema.
func (b *Box) Schema() types.Schema { return b.Out }

// NewBase returns the base box ranging over t, exposing the RID column when
// rid is set.
func NewBase(t *catalog.Table, rid bool) *Box {
	out := t.Schema
	if rid {
		out = out.Concat(types.Schema{types.RIDColumn})
	}
	return &Box{Kind: KindBase, Name: "base:" + t.Name, Out: out, Table: t, RID: rid}
}

// WithRID returns a copy of b, a select box over one base table, that also
// exposes each tuple's RID, the shape Builder.BuildTarget builds from a WHERE
// clause. b is left as it was (node definitions are shared).
func (b *Box) WithRID() *Box {
	base := NewBase(b.Quants[0].Input.Table, true)
	out := *b
	out.Quants = []*Quantifier{{Name: b.Quants[0].Name, Input: base}}
	out.Head = b.Head[:len(b.Head):len(b.Head)]
	out.Out = b.Out[:len(b.Out):len(b.Out)]
	out.exposeRID(base)
	return &out
}

// exposeRID makes b, a select box whose quantifier 0 ranges over base (a
// NewBase(t, true)), return each tuple's RID: base's hidden column becomes
// the last column of b's head and of its output schema.
func (b *Box) exposeRID(base *Box) {
	rid := len(base.Out) - 1
	col := base.Out[rid]
	b.Head = append(b.Head, HeadExpr{Name: col.Name, Expr: &ColRef{Quant: 0, Col: rid, Name: col.Name}})
	b.Out = append(b.Out, col)
}

// XNFNode is one component-table definition inside an XNF box.
type XNFNode struct {
	Name string
	// Def computes the node's candidate tuples.
	Def *Box
	// Schema is the node's output schema; normally Def.Out, but kept
	// separately for nodes materialized from instances.
	Schema types.Schema
	// Updatability provenance: when the node derives from a single base
	// table by selection/projection, BaseTable names it and ColMap maps
	// node columns to base columns; otherwise BaseTable is "".
	BaseTable string
	ColMap    []int
}

// XNFEdge is one relationship definition inside an XNF box.
type XNFEdge struct {
	Name       string
	Parent     string
	ParentRole string
	Child      string
	ChildRole  string
	// Pred relates parent and child tuples; quantifier indexes: 0 = parent
	// node, 1 = child node, 2.. = Using tables.
	Pred  Expr
	Using []*Quantifier
	// Attrs are relationship attributes (paper: WITH ATTRIBUTES), resolved
	// over the same quantifier numbering as Pred.
	Attrs []HeadExpr
	EdgeProvenance
}

// EdgeProvenance says how an edge's connections map down to base rows, for
// connect/disconnect and CO DELETE (paper §3.7). It travels unchanged from
// the spec to every materialized relationship.
type EdgeProvenance struct {
	// FK edges: the predicate is parent.key = child.fk over base-backed
	// nodes; FKChildCol names the fk column (child side), FKParentCol the
	// parent key.
	FKParentCol string
	FKChildCol  string
	// Link-table (M:N) edges: LinkTable names the USING base table, whose
	// columns LinkParentCol and LinkChildCol are equated with the parent
	// node's LinkParentKey and the child node's LinkChildKey. LinkAttrCols[i]
	// is the link column attribute i reads, or "" when attribute i is not a
	// plain link column.
	LinkTable     string
	LinkParentCol string
	LinkChildCol  string
	LinkParentKey string
	LinkChildKey  string
	LinkAttrCols  []string
}

// AttrsOnLink reports whether every attribute of a link-table edge is a
// plain column of its link table.
func (p *EdgeProvenance) AttrsOnLink() bool {
	return p.LinkTable != "" && !slices.Contains(p.LinkAttrCols, "")
}

// XNFRestrictionSpec is a resolved node or edge restriction. Path
// expressions inside restriction predicates stay in parser form — the XNF
// evaluator binds them against the instance graph (they are not SQL).
type XNFRestrictionSpec struct {
	Target string
	IsEdge bool
	Vars   []string
	// RawPred is the parser-level predicate; the XNF evaluator resolves
	// column refs against node schemas and path anchors against the CO.
	RawPred parser.Expr
}

// XNFTakeSpec is the structural projection.
type XNFTakeSpec struct {
	All   bool
	Items []XNFTakeItem
}

// XNFTakeItem keeps one component with an optional column projection.
type XNFTakeItem struct {
	Name    string
	AllCols bool
	Cols    []string
}

// XNFSpec is the semantic payload of an XNF box: the full composite-object
// constructor after name resolution of its sources. Composition is
// hierarchical: Bases hold the specs of referenced XNF views, each keeping
// its own restrictions and structural projection; this level's new nodes,
// edges, restrictions and TAKE apply on top (the paper's type (2) XNF→XNF
// queries and views over views).
type XNFSpec struct {
	Bases        []*XNFSpec
	Nodes        []*XNFNode
	Edges        []*XNFEdge
	Restrictions []XNFRestrictionSpec
	Take         XNFTakeSpec
	Delete       bool
	// ViewRefs names the referenced XNF views (diagnostics).
	ViewRefs []string
}

// TakeKeeps reports whether the spec's structural projection keeps name.
func (s *XNFSpec) TakeKeeps(name string) bool {
	if s.Take.All {
		return true
	}
	for _, it := range s.Take.Items {
		if strings.EqualFold(it.Name, name) {
			return true
		}
	}
	return false
}

func (s *XNFSpec) takeKeeps(name string) bool { return s.TakeKeeps(name) }

// FindNode returns the named node visible through this spec (this level's
// nodes, or a base's node that survives the base's structural projection).
func (s *XNFSpec) FindNode(name string) *XNFNode {
	for _, n := range s.Nodes {
		if strings.EqualFold(n.Name, name) {
			return n
		}
	}
	for _, base := range s.Bases {
		if n := base.FindNode(name); n != nil && base.takeKeeps(name) {
			return n
		}
	}
	return nil
}

// NodeSchema returns the columns of the named node as this spec sees them:
// its definition's output, narrowed by the column projection of each base
// level it comes through. A relationship added over a view resolves its
// columns here, against the rows the view's composition hands up.
func (s *XNFSpec) NodeSchema(name string) types.Schema {
	for _, n := range s.Nodes {
		if strings.EqualFold(n.Name, name) {
			if n.Def != nil {
				return n.Def.Out
			}
			return n.Schema
		}
	}
	for _, base := range s.Bases {
		if base.FindNode(name) == nil || !base.takeKeeps(name) {
			continue
		}
		out := base.NodeSchema(name)
		for _, it := range base.Take.Items {
			if strings.EqualFold(it.Name, name) && !it.AllCols {
				proj := make(types.Schema, 0, len(it.Cols))
				for _, c := range it.Cols {
					if i := out.Index(c); i >= 0 {
						proj = append(proj, out[i])
					}
				}
				out = proj
			}
		}
		return out
	}
	return nil
}

// FindEdge returns the named edge visible through this spec.
func (s *XNFSpec) FindEdge(name string) *XNFEdge {
	for _, e := range s.Edges {
		if strings.EqualFold(e.Name, name) {
			return e
		}
	}
	for _, base := range s.Bases {
		if e := base.FindEdge(name); e != nil && base.takeKeeps(name) {
			return e
		}
	}
	return nil
}

// AllNodes enumerates visible nodes depth-first (bases first), respecting
// each base's structural projection.
func (s *XNFSpec) AllNodes() []*XNFNode {
	var out []*XNFNode
	for _, base := range s.Bases {
		for _, n := range base.AllNodes() {
			if base.takeKeeps(n.Name) {
				out = append(out, n)
			}
		}
	}
	out = append(out, s.Nodes...)
	return out
}

// AllEdges enumerates visible edges depth-first (bases first).
func (s *XNFSpec) AllEdges() []*XNFEdge {
	var out []*XNFEdge
	for _, base := range s.Bases {
		for _, e := range base.AllEdges() {
			if base.takeKeeps(e.Name) {
				out = append(out, e)
			}
		}
	}
	out = append(out, s.Edges...)
	return out
}

// Dump renders the box tree for EXPLAIN and tests.
func (b *Box) Dump() string {
	var sb strings.Builder
	b.dump(&sb, 0, map[*Box]bool{})
	return sb.String()
}

func (b *Box) dump(sb *strings.Builder, depth int, seen map[*Box]bool) {
	ind := strings.Repeat("  ", depth)
	fmt.Fprintf(sb, "%s%s %s %v", ind, b.Kind, b.Name, b.Out.Names())
	if seen[b] {
		sb.WriteString(" (shared)\n")
		return
	}
	seen[b] = true
	switch b.Kind {
	case KindBase:
		fmt.Fprintf(sb, " table=%s", b.Table.Name)
	case KindSelect:
		if b.Distinct {
			sb.WriteString(" DISTINCT")
		}
		if b.Pred != nil {
			fmt.Fprintf(sb, " pred=%s", b.Pred.String())
		}
	case KindGroup:
		fmt.Fprintf(sb, " keys=%d aggs=%d", len(b.GroupBy), len(b.Aggs))
	case KindXNF:
		fmt.Fprintf(sb, " nodes=%d edges=%d", len(b.XNF.Nodes), len(b.XNF.Edges))
	case KindNodeRef:
		fmt.Fprintf(sb, " ref=%s.%s", b.View, b.Node)
	}
	sb.WriteString("\n")
	for _, q := range b.Quants {
		fmt.Fprintf(sb, "%s  [%s]\n", ind, q.Name)
		q.Input.dump(sb, depth+2, seen)
	}
	for _, in := range b.Inputs {
		in.dump(sb, depth+1, seen)
	}
	if b.Kind == KindXNF {
		for _, n := range b.XNF.Nodes {
			fmt.Fprintf(sb, "%s  node %s:\n", ind, n.Name)
			if n.Def != nil {
				n.Def.dump(sb, depth+2, seen)
			}
		}
		for _, e := range b.XNF.Edges {
			fmt.Fprintf(sb, "%s  edge %s: %s -> %s\n", ind, e.Name, e.Parent, e.Child)
		}
	}
}

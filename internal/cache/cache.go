// Package cache implements the XNF application cache and API (paper §3.7,
// §4.2): a composite object transferred into a pointer-linked main-memory
// structure, accessed through independent and dependent cursors, with
// update/delete/insert (udi) operations and connect/disconnect operations
// on relationships — all propagated back to the base tables.
//
// Navigation crosses relationships by pointer dereference, with no query
// processing and no inter-process communication on the path — the source of
// the orders-of-magnitude speedup over per-step SQL that the paper reports
// against the Cattell benchmark's regular-SQL arm.
package cache

import (
	"fmt"
	"strings"

	"sqlxnf/internal/storage"
	"sqlxnf/internal/types"
	"sqlxnf/internal/xnf"
)

// Stats counts cache activity for the benches. Counters increment with
// atomic adds so they stay race-safe when caches are driven from concurrent
// workloads; read them after the work quiesces (or accept approximate
// values mid-flight).
type Stats struct {
	CursorOpens int64
	CursorMoves int64
	PointerHops int64
	WriteBacks  int64
}

// Tuple is one cached component tuple with its adjacency lists.
type Tuple struct {
	node    *Node
	Row     types.Row
	rid     storage.RID
	deleted bool
	out     map[string][]*Link // links where this tuple is the parent
	in      map[string][]*Link // links where this tuple is the child
}

// Node returns the component table this tuple belongs to.
func (t *Tuple) Node() *Node { return t.node }

// Value reads a column by name.
func (t *Tuple) Value(col string) (types.Value, error) {
	i := t.node.Schema.Index(col)
	if i < 0 {
		return types.Null(), fmt.Errorf("cache: %s has no column %q", t.node.Name, col)
	}
	return t.Row[i], nil
}

// MustValue reads a column, panicking on unknown names (examples/benches).
func (t *Tuple) MustValue(col string) types.Value {
	v, err := t.Value(col)
	if err != nil {
		panic(err)
	}
	return v
}

// Deleted reports whether the tuple has been deleted through the cache.
func (t *Tuple) Deleted() bool { return t.deleted }

// Link is one cached connection instance. A link-table connection keeps
// the RID of its link row (NilRID otherwise).
type Link struct {
	Parent *Tuple
	Child  *Tuple
	Attrs  types.Row
	rid    storage.RID
	edge   *Edge
	dead   bool
}

// Node is a cached component table.
type Node struct {
	Name   string
	Schema types.Schema
	Tuples []*Tuple
	inst   *xnf.NodeInstance
	// fkCols marks columns that define FK relationships: direct updates to
	// them are refused (paper: "columns that are used to define
	// relationships are updated by relationship manipulation").
	fkCols  map[string]bool
	indexes map[string]*keyIndex
}

// Edge is a cached relationship.
type Edge struct {
	Name       string
	Parent     *Node
	Child      *Node
	AttrSchema types.Schema
	Links      []*Link
	inst       *xnf.EdgeInstance
}

// Cache is a loaded composite object.
type Cache struct {
	host  xnf.Host
	nodes []*Node
	edges []*Edge
	Stats Stats
}

// Load transfers a materialized CO into the pointer-linked cache. Tuple rows
// and link attributes are copied: the CO is read-only (it may be the CO
// cache's resident entry, shared by every checkout) and the cache is the
// application's to edit.
func Load(host xnf.Host, co *xnf.CO) (*Cache, error) {
	c := &Cache{host: host}
	byName := map[string]*Node{}
	for _, ni := range co.Nodes {
		n := &Node{Name: ni.Name, Schema: ni.Schema, inst: ni, fkCols: map[string]bool{}}
		for i, row := range ni.Rows {
			n.Tuples = append(n.Tuples, &Tuple{
				node: n, Row: row.Clone(), rid: ni.RIDs[i],
				out: map[string][]*Link{}, in: map[string][]*Link{},
			})
		}
		c.nodes = append(c.nodes, n)
		byName[strings.ToUpper(ni.Name)] = n
	}
	for _, ei := range co.Edges {
		p := byName[strings.ToUpper(ei.Parent)]
		ch := byName[strings.ToUpper(ei.Child)]
		if p == nil || ch == nil {
			return nil, fmt.Errorf("cache: relationship %s references missing nodes", ei.Name)
		}
		e := &Edge{Name: ei.Name, Parent: p, Child: ch, AttrSchema: ei.AttrSchema, inst: ei}
		key := strings.ToUpper(ei.Name)
		for _, conn := range ei.Conns {
			l := &Link{Parent: p.Tuples[conn.P], Child: ch.Tuples[conn.C], rid: conn.LinkRID, edge: e}
			if conn.Attrs != nil {
				l.Attrs = conn.Attrs.Clone()
			}
			e.Links = append(e.Links, l)
			l.Parent.out[key] = append(l.Parent.out[key], l)
			l.Child.in[key] = append(l.Child.in[key], l)
		}
		if ei.FKChildCol != "" {
			ch.fkCols[strings.ToUpper(ei.FKChildCol)] = true
		}
		c.edges = append(c.edges, e)
	}
	return c, nil
}

// Node returns the named cached component table.
func (c *Cache) Node(name string) *Node {
	for _, n := range c.nodes {
		if strings.EqualFold(n.Name, name) {
			return n
		}
	}
	return nil
}

// Edge returns the named cached relationship.
func (c *Cache) Edge(name string) *Edge {
	for _, e := range c.edges {
		if strings.EqualFold(e.Name, name) {
			return e
		}
	}
	return nil
}

// Nodes lists the component tables.
func (c *Cache) Nodes() []*Node { return c.nodes }

// Edges lists the relationships.
func (c *Cache) Edges() []*Edge { return c.edges }

// ---------------------------------------------------------------------------
// Cursors
// ---------------------------------------------------------------------------

// Cursor iterates tuples of one node. Independent cursors browse the whole
// component table; dependent cursors are bound to another cursor's current
// tuple through a relationship (paper §3.7).
type Cursor struct {
	cache  *Cache
	tuples []*Tuple
	pos    int
}

// Open returns an independent cursor over a node.
func (c *Cache) Open(node string) (*Cursor, error) {
	n := c.Node(node)
	if n == nil {
		return nil, fmt.Errorf("cache: no component table %q", node)
	}
	c.noteOpen()
	return &Cursor{cache: c, tuples: n.Tuples, pos: -1}, nil
}

// Next advances to the next live tuple; false at the end.
func (cur *Cursor) Next() bool {
	cur.cache.noteMove()
	for cur.pos+1 < len(cur.tuples) {
		cur.pos++
		if !cur.tuples[cur.pos].deleted {
			return true
		}
	}
	return false
}

// Tuple returns the current tuple (nil before the first Next).
func (cur *Cursor) Tuple() *Tuple {
	if cur.pos < 0 || cur.pos >= len(cur.tuples) {
		return nil
	}
	return cur.tuples[cur.pos]
}

// Rewind restarts the cursor.
func (cur *Cursor) Rewind() { cur.pos = -1 }

// Len returns the number of tuples the cursor ranges over (live and dead).
func (cur *Cursor) Len() int { return len(cur.tuples) }

// OpenDependent opens a cursor over the tuples related to this cursor's
// current tuple through the named relationship. Traversal direction follows
// which side of the relationship the current node is on (parent→child when
// on the parent side, child→parent otherwise), matching the paper's rule
// that relationships traverse in either direction.
func (cur *Cursor) OpenDependent(edge string) (*Cursor, error) {
	t := cur.Tuple()
	if t == nil {
		return nil, fmt.Errorf("cache: dependent cursor needs a positioned parent cursor")
	}
	return cur.cache.dependentFrom(t, edge)
}

// OpenDependentPath chains dependent navigation over several relationships
// from the current tuple, deduplicating target tuples — the cursor analogue
// of a path expression.
func (cur *Cursor) OpenDependentPath(edges ...string) (*Cursor, error) {
	t := cur.Tuple()
	if t == nil {
		return nil, fmt.Errorf("cache: dependent cursor needs a positioned parent cursor")
	}
	frontier := []*Tuple{t}
	for _, eName := range edges {
		var next []*Tuple
		seen := map[*Tuple]bool{}
		for _, ft := range frontier {
			related, err := cur.cache.related(ft, eName)
			if err != nil {
				return nil, err
			}
			for _, rt := range related {
				if !seen[rt] {
					seen[rt] = true
					next = append(next, rt)
				}
			}
		}
		frontier = next
	}
	cur.cache.noteOpen()
	return &Cursor{cache: cur.cache, tuples: frontier, pos: -1}, nil
}

func (c *Cache) dependentFrom(t *Tuple, edge string) (*Cursor, error) {
	related, err := c.related(t, edge)
	if err != nil {
		return nil, err
	}
	c.noteOpen()
	return &Cursor{cache: c, tuples: related, pos: -1}, nil
}

// related returns the live tuples connected to t via the named edge,
// crossing by pointer dereference.
func (c *Cache) related(t *Tuple, edge string) ([]*Tuple, error) {
	e := c.Edge(edge)
	if e == nil {
		return nil, fmt.Errorf("cache: no relationship %q", edge)
	}
	key := strings.ToUpper(e.Name)
	var out []*Tuple
	switch {
	case strings.EqualFold(e.Parent.Name, t.node.Name):
		for _, l := range t.out[key] {
			c.noteHop()
			if !l.dead && !l.Child.deleted {
				out = append(out, l.Child)
			}
		}
	case strings.EqualFold(e.Child.Name, t.node.Name):
		for _, l := range t.in[key] {
			c.noteHop()
			if !l.dead && !l.Parent.deleted {
				out = append(out, l.Parent)
			}
		}
	default:
		return nil, fmt.Errorf("cache: relationship %q does not touch %s", edge, t.node.Name)
	}
	return out, nil
}

// Related is the exported navigation primitive (benches call it directly).
func (c *Cache) Related(t *Tuple, edge string) ([]*Tuple, error) { return c.related(t, edge) }

// ---------------------------------------------------------------------------
// Key lookup
// ---------------------------------------------------------------------------

// keyIndex is a hash index over one column of a cached node, supporting the
// random-lookup access pattern of navigational applications (the Cattell
// benchmark's lookup operation).
type keyIndex struct {
	col     int
	buckets map[uint64][]*Tuple
}

// BuildKeyIndex creates (or rebuilds) a hash index over col. Tuples added
// through Insert afterwards are not indexed automatically; rebuild after
// bulk changes.
func (n *Node) BuildKeyIndex(col string) error {
	i := n.Schema.Index(col)
	if i < 0 {
		return fmt.Errorf("cache: %s has no column %q", n.Name, col)
	}
	idx := &keyIndex{col: i, buckets: map[uint64][]*Tuple{}}
	for _, t := range n.Tuples {
		if t.deleted {
			continue
		}
		h := t.Row[i].Hash()
		idx.buckets[h] = append(idx.buckets[h], t)
	}
	if n.indexes == nil {
		n.indexes = map[string]*keyIndex{}
	}
	n.indexes[strings.ToUpper(col)] = idx
	return nil
}

// Lookup finds live tuples whose indexed column equals v. The column must
// have been indexed with BuildKeyIndex.
func (n *Node) Lookup(col string, v types.Value) ([]*Tuple, error) {
	idx, ok := n.indexes[strings.ToUpper(col)]
	if !ok {
		return nil, fmt.Errorf("cache: no key index on %s.%s (call BuildKeyIndex)", n.Name, col)
	}
	var out []*Tuple
	for _, t := range idx.buckets[v.Hash()] {
		if !t.deleted && types.Equal(t.Row[idx.col], v) {
			out = append(out, t)
		}
	}
	return out, nil
}

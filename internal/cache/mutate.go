package cache

import (
	"fmt"
	"strings"

	"sqlxnf/internal/storage"
	"sqlxnf/internal/types"
)

// updatable reports whether a node carries base-table provenance.
func (n *Node) updatable() error {
	if n.inst.BaseTable == "" {
		return fmt.Errorf("cache: component %s is not updatable (no single-table provenance)", n.Name)
	}
	return nil
}

// baseRowFor merges the tuple's node columns into its current base image.
func (c *Cache) baseRowFor(t *Tuple) (types.Row, error) {
	base, err := c.host.GetRow(t.node.inst.BaseTable, t.rid)
	if err != nil {
		return nil, err
	}
	out := base.Clone()
	for i, bcol := range t.node.inst.ColMap {
		out[bcol] = t.Row[i]
	}
	return out, nil
}

// Update changes one column of a cached tuple and writes the change through
// to the base table. Columns that define FK relationships are refused:
// they change only via Connect/Disconnect (paper §3.7).
func (c *Cache) Update(t *Tuple, col string, v types.Value) error {
	if t.deleted {
		return fmt.Errorf("cache: tuple already deleted")
	}
	if err := t.node.updatable(); err != nil {
		return err
	}
	i := t.node.Schema.Index(col)
	if i < 0 {
		return fmt.Errorf("cache: %s has no column %q", t.node.Name, col)
	}
	if t.node.fkCols[strings.ToUpper(t.node.Schema[i].Name)] {
		return fmt.Errorf("cache: column %q defines a relationship; use Connect/Disconnect", col)
	}
	old := t.Row[i]
	t.Row[i] = v
	baseRow, err := c.baseRowFor(t)
	if err != nil {
		t.Row[i] = old
		return err
	}
	newRID, err := c.host.UpdateRow(t.node.inst.BaseTable, t.rid, baseRow)
	if err != nil {
		t.Row[i] = old
		return err
	}
	t.rid = newRID
	c.noteWriteBack()
	return nil
}

// Insert adds a tuple to a component table and its base table. The new
// tuple starts unconnected; Connect attaches it. Base columns outside the
// node's projection are set NULL.
func (c *Cache) Insert(node string, row types.Row) (*Tuple, error) {
	n := c.Node(node)
	if n == nil {
		return nil, fmt.Errorf("cache: no component table %q", node)
	}
	if err := n.updatable(); err != nil {
		return nil, err
	}
	if len(row) != len(n.Schema) {
		return nil, fmt.Errorf("cache: insert into %s expects %d values, got %d", n.Name, len(n.Schema), len(row))
	}
	baseSchema, err := c.host.TableSchema(n.inst.BaseTable)
	if err != nil {
		return nil, err
	}
	baseRow := make(types.Row, len(baseSchema))
	for i := range baseRow {
		baseRow[i] = types.Null()
	}
	for i, bcol := range n.inst.ColMap {
		baseRow[bcol] = row[i]
	}
	rid, err := c.host.InsertRow(n.inst.BaseTable, baseRow)
	if err != nil {
		return nil, err
	}
	t := &Tuple{node: n, Row: row.Clone(), rid: rid,
		out: map[string][]*Link{}, in: map[string][]*Link{}}
	n.Tuples = append(n.Tuples, t)
	c.noteWriteBack()
	return t, nil
}

// Delete removes a tuple: attached relationship instances disconnect first
// (preventing dangling connections), then the base tuple is deleted.
func (c *Cache) Delete(t *Tuple) error {
	if t.deleted {
		return fmt.Errorf("cache: tuple already deleted")
	}
	if err := t.node.updatable(); err != nil {
		return err
	}
	// Disconnect links where t participates. FK links where t is the
	// parent nullify the child's foreign key; where t is the child the
	// base deletion removes the FK with the row. Link-table links always
	// delete their link row.
	for _, links := range t.out {
		for _, l := range links {
			if l.dead {
				continue
			}
			if err := c.Disconnect(l.edge.Name, l.Parent, l.Child); err != nil {
				return err
			}
		}
	}
	for _, links := range t.in {
		for _, l := range links {
			if l.dead {
				continue
			}
			if l.edge.inst.FKChildCol != "" {
				// The child's own row is about to vanish; just kill the link.
				l.dead = true
				continue
			}
			if err := c.Disconnect(l.edge.Name, l.Parent, l.Child); err != nil {
				return err
			}
		}
	}
	if err := c.host.DeleteRow(t.node.inst.BaseTable, t.rid); err != nil {
		return err
	}
	t.deleted = true
	c.noteWriteBack()
	return nil
}

// Connect creates a connection instance. FK relationships set the child's
// foreign key to the parent's key; M:N link-table relationships insert a
// link row (attrs[i] fills the link column attribute i reads, so every
// attribute must be a plain link column). Relationships without update
// provenance are read-only.
func (c *Cache) Connect(edge string, parent, child *Tuple, attrs ...types.Value) error {
	e := c.Edge(edge)
	if e == nil {
		return fmt.Errorf("cache: no relationship %q", edge)
	}
	if !strings.EqualFold(parent.node.Name, e.Parent.Name) || !strings.EqualFold(child.node.Name, e.Child.Name) {
		return fmt.Errorf("cache: Connect(%s) expects (%s, %s) tuples", edge, e.Parent.Name, e.Child.Name)
	}
	rid := storage.NilRID
	switch {
	case e.inst.FKChildCol != "":
		if len(attrs) > 0 {
			return fmt.Errorf("cache: FK relationship %s cannot carry attributes", edge)
		}
		pIdx := parent.node.Schema.Index(e.inst.FKParentCol)
		cIdx := child.node.Schema.Index(e.inst.FKChildCol)
		if pIdx < 0 || cIdx < 0 {
			return fmt.Errorf("cache: relationship %s provenance incomplete", edge)
		}
		if err := child.node.updatable(); err != nil {
			return err
		}
		child.Row[cIdx] = parent.Row[pIdx]
		baseRow, err := c.baseRowFor(child)
		if err != nil {
			return err
		}
		newRID, err := c.host.UpdateRow(child.node.inst.BaseTable, child.rid, baseRow)
		if err != nil {
			return err
		}
		child.rid = newRID
	case e.inst.LinkTable != "":
		if len(attrs) > len(e.inst.LinkAttrCols) {
			return fmt.Errorf("cache: relationship %s has %d attributes, got %d", edge, len(e.inst.LinkAttrCols), len(attrs))
		}
		if len(attrs) > 0 && !e.inst.AttrsOnLink() {
			return fmt.Errorf("cache: relationship %s has an attribute that is not a link column; connect it without attributes", edge)
		}
		schema, err := c.host.TableSchema(e.inst.LinkTable)
		if err != nil {
			return err
		}
		row := make(types.Row, len(schema))
		for i := range row {
			row[i] = types.Null()
		}
		pCol := schema.Index(e.inst.LinkParentCol)
		cCol := schema.Index(e.inst.LinkChildCol)
		pKey := parent.node.Schema.Index(e.inst.LinkParentKey)
		cKey := child.node.Schema.Index(e.inst.LinkChildKey)
		if pCol < 0 || cCol < 0 || pKey < 0 || cKey < 0 {
			return fmt.Errorf("cache: relationship %s provenance incomplete", edge)
		}
		row[pCol] = parent.Row[pKey]
		row[cCol] = child.Row[cKey]
		for i, v := range attrs {
			row[schema.Index(e.inst.LinkAttrCols[i])] = v
		}
		if rid, err = c.host.InsertRow(e.inst.LinkTable, row); err != nil {
			return err
		}
	default:
		return fmt.Errorf("cache: relationship %s is not updatable (no FK or link-table provenance)", edge)
	}
	l := &Link{Parent: parent, Child: child, rid: rid, edge: e}
	if len(attrs) > 0 {
		l.Attrs = types.Row(attrs).Clone()
	}
	key := strings.ToUpper(e.Name)
	e.Links = append(e.Links, l)
	parent.out[key] = append(parent.out[key], l)
	child.in[key] = append(child.in[key], l)
	c.noteWriteBack()
	return nil
}

// Disconnect removes the connection between parent and child. FK
// relationships nullify the child's foreign key; M:N link-table
// relationships delete the link row (paper §3.7), by the RID it had at
// checkout or at Connect.
func (c *Cache) Disconnect(edge string, parent, child *Tuple) error {
	e := c.Edge(edge)
	if e == nil {
		return fmt.Errorf("cache: no relationship %q", edge)
	}
	var link *Link
	key := strings.ToUpper(e.Name)
	for _, l := range parent.out[key] {
		if l.Child == child && !l.dead {
			link = l
			break
		}
	}
	if link == nil {
		return fmt.Errorf("cache: no %s connection between the given tuples", edge)
	}
	switch {
	case e.inst.FKChildCol != "":
		cIdx := child.node.Schema.Index(e.inst.FKChildCol)
		if cIdx < 0 {
			return fmt.Errorf("cache: relationship %s provenance incomplete", edge)
		}
		if err := child.node.updatable(); err != nil {
			return err
		}
		child.Row[cIdx] = types.Null()
		baseRow, err := c.baseRowFor(child)
		if err != nil {
			return err
		}
		newRID, err := c.host.UpdateRow(child.node.inst.BaseTable, child.rid, baseRow)
		if err != nil {
			return err
		}
		child.rid = newRID
	case e.inst.LinkTable != "":
		if err := c.host.DeleteRow(e.inst.LinkTable, link.rid); err != nil {
			return err
		}
	default:
		return fmt.Errorf("cache: relationship %s is not updatable", edge)
	}
	link.dead = true
	c.noteWriteBack()
	return nil
}

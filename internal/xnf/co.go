package xnf

import (
	"fmt"
	"strings"

	"sqlxnf/internal/qgm"
	"sqlxnf/internal/storage"
	"sqlxnf/internal/types"
)

// Conn is one connection instance: indexes into the parent and child node
// instance rows, plus relationship attribute values and, for link-table
// relationships, the RID of the backing link row (NilRID otherwise).
type Conn struct {
	P, C    int
	Attrs   types.Row
	LinkRID storage.RID
}

// NodeInstance is one component table of a materialized composite object.
type NodeInstance struct {
	Name   string
	Schema types.Schema
	Rows   []types.Row
	// RIDs carry base-tuple provenance parallel to Rows; invalid RIDs mark
	// rows that cannot be traced to one base tuple.
	RIDs []storage.RID
	// BaseTable / ColMap describe updatability: node column i maps to base
	// column ColMap[i] of BaseTable. Empty BaseTable means read-only.
	BaseTable string
	ColMap    []int
	// Root marks root tables (no incoming relationship in the CO's schema
	// graph); every root tuple is reachable by definition.
	Root bool
}

// EdgeInstance is one relationship of a materialized composite object.
type EdgeInstance struct {
	Name       string
	Parent     string
	Child      string
	AttrSchema types.Schema
	Conns      []Conn
	qgm.EdgeProvenance
}

// CO is a materialized composite object: a heterogeneous set of interrelated
// tuples (paper §2). Node and edge order follows the schema graph
// declaration order.
type CO struct {
	Nodes []*NodeInstance
	Edges []*EdgeInstance
}

// Node returns the named component table, or nil.
func (co *CO) Node(name string) *NodeInstance {
	for _, n := range co.Nodes {
		if strings.EqualFold(n.Name, name) {
			return n
		}
	}
	return nil
}

// Edge returns the named relationship, or nil.
func (co *CO) Edge(name string) *EdgeInstance {
	for _, e := range co.Edges {
		if strings.EqualFold(e.Name, name) {
			return e
		}
	}
	return nil
}

// Size returns the total number of tuples across all component tables.
func (co *CO) Size() int {
	n := 0
	for _, node := range co.Nodes {
		n += len(node.Rows)
	}
	return n
}

// ConnCount returns the total number of connection instances.
func (co *CO) ConnCount() int {
	n := 0
	for _, e := range co.Edges {
		n += len(e.Conns)
	}
	return n
}

// Validate checks well-formedness: every relationship's partner tables are
// component tables of the CO and every connection endpoint indexes a live
// tuple (paper §2's well-formedness constraint).
func (co *CO) Validate() error {
	for _, e := range co.Edges {
		p := co.Node(e.Parent)
		c := co.Node(e.Child)
		if p == nil {
			return fmt.Errorf("xnf: relationship %s references missing parent table %s", e.Name, e.Parent)
		}
		if c == nil {
			return fmt.Errorf("xnf: relationship %s references missing child table %s", e.Name, e.Child)
		}
		for _, conn := range e.Conns {
			if conn.P < 0 || conn.P >= len(p.Rows) {
				return fmt.Errorf("xnf: connection in %s has dangling parent index %d", e.Name, conn.P)
			}
			if conn.C < 0 || conn.C >= len(c.Rows) {
				return fmt.Errorf("xnf: connection in %s has dangling child index %d", e.Name, conn.C)
			}
		}
	}
	return nil
}

// CheckReachability verifies the reachability constraint on the instance:
// every tuple is in a root table or reachable from a root tuple via
// parent→child traversal. The evaluator guarantees this; property tests
// call it directly.
func (co *CO) CheckReachability() error {
	reach := co.reachableSets()
	for _, n := range co.Nodes {
		if n.Root {
			continue
		}
		set := reach[n.Name]
		for i := range n.Rows {
			if !set[i] {
				return fmt.Errorf("xnf: tuple %d of %s violates the reachability constraint", i, n.Name)
			}
		}
	}
	return nil
}

// reachableSets runs BFS from all root tuples.
func (co *CO) reachableSets() map[string][]bool {
	reach := map[string][]bool{}
	for _, n := range co.Nodes {
		set := make([]bool, len(n.Rows))
		if n.Root {
			for i := range set {
				set[i] = true
			}
		}
		reach[n.Name] = set
	}
	changed := true
	for changed {
		changed = false
		for _, e := range co.Edges {
			pset, cset := reach[e.Parent], reach[e.Child]
			for _, conn := range e.Conns {
				if pset[conn.P] && !cset[conn.C] {
					cset[conn.C] = true
					changed = true
				}
			}
		}
	}
	return reach
}

// String renders a compact summary.
func (co *CO) String() string {
	var parts []string
	for _, n := range co.Nodes {
		r := ""
		if n.Root {
			r = "*"
		}
		parts = append(parts, fmt.Sprintf("%s%s:%d", n.Name, r, len(n.Rows)))
	}
	for _, e := range co.Edges {
		parts = append(parts, fmt.Sprintf("%s(%s->%s):%d", e.Name, e.Parent, e.Child, len(e.Conns)))
	}
	return "CO{" + strings.Join(parts, " ") + "}"
}

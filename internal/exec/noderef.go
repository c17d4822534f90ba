package exec

import (
	"fmt"

	"sqlxnf/internal/types"
)

// NodeScan is the leaf operator for FROM "VIEW.NODE" references. It carries
// only the identity of the component table; the rows come from the
// execution context's NodeRows handle at Open. The engine binds the handle
// per execution and serves it from the composite-object cache, which is
// what lets node-reference plans live in the prepared-plan cache: nothing
// in the plan snapshots data, and every execution sees the view's current
// materialization.
//
// Served rows belong to a shared cached CO, so batches carry copies — a
// consumer (or the application holding the final result) mutating a row
// must never reach the cache-resident materialization.
type NodeScan struct {
	View string
	Node string
	Out  types.Schema
	// EstRows is the build-time row-count estimate (EXPLAIN shows it).
	EstRows float64
	// COCached records whether the composite-object cache held the view at
	// plan build; EXPLAIN prints it as `co-cache hit` / `co-cache miss`.
	COCached bool

	rows []types.Row
	pos  int
}

// Schema implements Plan.
func (s *NodeScan) Schema() types.Schema { return s.Out }

// Open implements Plan: resolve the node's current rows through the
// bind-time handle.
func (s *NodeScan) Open(ctx *Context) error {
	if ctx.NodeRows == nil {
		return fmt.Errorf("exec: node reference %s.%s has no NodeRows handle bound", s.View, s.Node)
	}
	rows, err := ctx.NodeRows(s.View, s.Node)
	if err != nil {
		return err
	}
	s.rows = rows
	s.pos = 0
	return nil
}

// NextBatch implements Plan.
func (s *NodeScan) NextBatch(*Context) ([]types.Row, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	end := s.pos + BatchSize
	if end > len(s.rows) {
		end = len(s.rows)
	}
	out := make([]types.Row, end-s.pos)
	for i, r := range s.rows[s.pos:end] {
		out[i] = append(types.Row(nil), r...)
	}
	s.pos = end
	return out, nil
}

// Close implements Plan.
func (s *NodeScan) Close() error {
	s.rows = nil
	return nil
}

// Explain implements Plan.
func (s *NodeScan) Explain() string {
	state := "miss"
	if s.COCached {
		state = "hit"
	}
	return fmt.Sprintf("NodeRef %s.%s (co-cache %s)%s", s.View, s.Node, state, estSuffix(s.EstRows))
}

// Children implements Plan.
func (s *NodeScan) Children() []Plan { return nil }

// Clone implements Cloneable.
func (s *NodeScan) Clone() Plan {
	return &NodeScan{View: s.View, Node: s.Node, Out: s.Out,
		EstRows: s.EstRows, COCached: s.COCached}
}

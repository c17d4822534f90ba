// Package xnf implements the paper's core contribution: evaluation of
// SQL/XNF composite-object queries as abstractions over relational data.
//
// The XNF semantic rewrite (paper §4.3) runs one SQL query per node and per
// USING clause, finds each relationship's connections from the node tuples
// already derived (the subexpression the paper's edge queries share), then
// applies XNF semantics that SQL cannot express directly: the reachability
// constraint (§2), node/edge restrictions (§3.3), structural projection,
// recursive composite objects (§3.4), and path expressions (§3.5).
//
// Composition is hierarchical: a query over an XNF view takes the view's
// components as candidates and recomputes reachability over the composed
// schema graph, which is how Fig. 3's employees e3/e4 "show up" when the
// membership relationship is added.
package xnf

import (
	"sqlxnf/internal/exec"
	"sqlxnf/internal/qgm"
	"sqlxnf/internal/storage"
	"sqlxnf/internal/types"
)

// Host is the engine surface the XNF evaluator and CO cache need: running
// rewritten SQL boxes and reading and writing base rows by RID. Node tuples
// and link rows alike are named by the RID they had at checkout. The engine
// implements it; defining it here keeps the dependency one-way (engine → xnf).
type Host interface {
	// RunBox compiles (rewrite + optimize) and executes a box. When the box
	// is a selection over one base table, rids[i] is the base RID of row i;
	// otherwise rids is nil.
	RunBox(box *qgm.Box) (rows []types.Row, rids []storage.RID, err error)
	// NewExecContext returns the context relationship predicates evaluate
	// in, under the snapshot the node queries read.
	NewExecContext() *exec.Context
	// GetRow fetches a base tuple.
	GetRow(table string, rid storage.RID) (types.Row, error)
	// InsertRow appends a base tuple (maintaining indexes) and returns its RID.
	InsertRow(table string, row types.Row) (storage.RID, error)
	// UpdateRow replaces a base tuple; the tuple may move.
	UpdateRow(table string, rid storage.RID, row types.Row) (storage.RID, error)
	// DeleteRow removes a base tuple (maintaining indexes).
	DeleteRow(table string, rid storage.RID) error
	// TableSchema returns a base table's schema.
	TableSchema(table string) (types.Schema, error)
}

// Options control evaluation strategy; benches ablate them. The zero
// value enables the optimized strategies.
type Options struct {
	// NoSharedSubexpressions disables reuse of node materializations: each
	// relationship re-derives its partner nodes from base tables before its
	// connections are resolved, and the topological extraction is off — the
	// ablation arm against the paper's §4.3 ("The optimizer is able to take
	// advantage of common subexpression across these queries").
	NoSharedSubexpressions bool
	// NaiveFixpoint re-scans all connections every reachability round
	// instead of propagating a frontier (semi-naive ablation).
	NaiveFixpoint bool
}

// DefaultOptions enables the optimized strategies.
func DefaultOptions() Options { return Options{} }

package exec

import (
	"fmt"
	"time"

	"sqlxnf/internal/types"
)

// Instrumented wraps a Plan and counts what actually flows through it:
// rows and batches emitted, and the cumulative wall time spent inside the
// wrapped operator (including its inputs, like EXPLAIN ANALYZE elsewhere —
// a parent's time covers its children). EXPLAIN ANALYZE builds an
// instrumented tree, executes it, and renders the actuals next to the
// optimizer's `est rows=` so estimation errors are visible per node.
type Instrumented struct {
	Inner Plan

	Rows    int64
	Batches int64
	Opens   int64
	Elapsed time.Duration
}

// Schema implements Plan.
func (n *Instrumented) Schema() types.Schema { return n.Inner.Schema() }

// Open implements Plan.
func (n *Instrumented) Open(ctx *Context) error {
	n.Opens++
	t0 := time.Now()
	err := n.Inner.Open(ctx)
	n.Elapsed += time.Since(t0)
	return err
}

// NextBatch implements Plan.
func (n *Instrumented) NextBatch(ctx *Context) ([]types.Row, error) {
	t0 := time.Now()
	batch, err := n.Inner.NextBatch(ctx)
	n.Elapsed += time.Since(t0)
	if len(batch) > 0 {
		n.Rows += int64(len(batch))
		n.Batches++
	}
	return batch, err
}

// Close implements Plan.
func (n *Instrumented) Close() error { return n.Inner.Close() }

// Explain implements Plan.
func (n *Instrumented) Explain() string {
	return fmt.Sprintf("%s (actual rows=%d batches=%d time=%s)",
		n.Inner.Explain(), n.Rows, n.Batches, n.Elapsed.Round(time.Microsecond))
}

// Children implements Plan. Instrument mutates the inner operator's child
// fields in place, so the inner's Children() already yields the wrapped
// children and the Dump tree stays annotated all the way down.
func (n *Instrumented) Children() []Plan { return n.Inner.Children() }

// Instrument wraps every operator of a plan tree with an Instrumented
// counter, mutating exported child links in place, and returns the wrapped
// root. It must only be used on plans that are executed once and discarded
// (the EXPLAIN ANALYZE path): cached/pooled plans must never be mutated.
//
// Parallel sections stay unwrapped: a Gather's Child is a worker template
// that cloneWorkers type-switches on concrete operator types to wire shared
// state (morsel dispatchers, shared hash builds), so inserting wrappers
// there would break cloning. Likewise GroupAgg with a morsel leaf clones
// its child as a template. Those subtrees render estimates only; the
// Gather (and everything above it) still reports actuals.
func Instrument(root Plan) *Instrumented {
	instrumentChildren(root)
	return &Instrumented{Inner: root}
}

// wrapChild wraps one child subtree, recursing below it first.
func wrapChild(p Plan) Plan {
	if w, ok := p.(*Instrumented); ok {
		return w
	}
	instrumentChildren(p)
	return &Instrumented{Inner: p}
}

// instrumentChildren replaces p's child links with instrumented wrappers,
// skipping subtrees that serve as worker-clone templates.
func instrumentChildren(p Plan) {
	switch n := p.(type) {
	case *Filter:
		n.Child = wrapChild(n.Child)
	case *Project:
		n.Child = wrapChild(n.Child)
	case *Limit:
		n.Child = wrapChild(n.Child)
	case *Distinct:
		n.Child = wrapChild(n.Child)
	case *Sort:
		n.Child = wrapChild(n.Child)
	case *GroupAgg:
		// A morsel-fed aggregate runs its child as a cloned worker
		// template (see GroupAgg.openParallel); leave it pristine.
		if !hasMorselLeaf(n.Child) {
			n.Child = wrapChild(n.Child)
		}
	case *NLJoin:
		n.Left = wrapChild(n.Left)
		n.Right = wrapChild(n.Right)
	case *HashJoin:
		// Shared joins live inside Gather templates and are never seen
		// here, but guard anyway: their sides are cloned per worker.
		if !n.Shared {
			n.Left = wrapChild(n.Left)
			n.Right = wrapChild(n.Right)
		}
	case *IndexJoin:
		n.Left = wrapChild(n.Left)
	case *Gather:
		// Child is the worker template — do not touch (see Instrument).
	}
}

// Package exec implements the runtime query evaluator: compiled scalar
// expressions over flat rows and the physical plan operators (scans,
// filters, joins, grouping, sorting). Plans are produced by the optimizer
// from QGM boxes — the paper's "query refinement" output — and pull rows
// batch-at-a-time through the iterator interface.
package exec

import (
	"context"
	"fmt"
	"strings"

	"sqlxnf/internal/storage"
	"sqlxnf/internal/types"
)

// Stats counts evaluator work; benches read it to report operator activity.
type Stats struct {
	RowsScanned  int64
	RowsEmitted  int64
	IndexProbes  int64
	SubqueryRuns int64
}

// Context carries per-execution state: correlation parameters for subplans,
// statement parameter bindings, and shared statistics.
type Context struct {
	Params []types.Value
	// Binds are the statement's parameter bindings — the literals the
	// engine's extractor pulled out of the SQL text, one per BindRef slot.
	// Unlike Params (which are rebound per outer row of a correlated
	// subquery), Binds are fixed for the whole execution and propagate
	// unchanged into subplan contexts.
	Binds []types.Value
	// NodeRows resolves a FROM "VIEW.NODE" reference to the component
	// table's current rows. The engine binds it per execution, serving from
	// the composite-object cache; plans never embed the rows themselves
	// (see exec.NodeScan). Returned rows are shared and read-only.
	NodeRows func(view, node string) ([]types.Row, error)
	// Vis is the statement's MVCC snapshot filter, applied by every scan
	// leaf (SeqScan, IndexScan, IndexJoin probes, MorselScan). nil reads
	// latest-committed rows — the pre-MVCC behavior.
	Vis   storage.VisFunc
	Stats *Stats

	// ctx is the statement's cancellation context and done its cached Done
	// channel (reading it once at attach keeps Interrupted allocation-free).
	// Both stay nil for contexts that never attach one; a nil channel never
	// fires in a select, so unattached executions pay a single failed poll.
	ctx  context.Context
	done <-chan struct{}
}

// NewContext returns a fresh execution context.
func NewContext() *Context { return &Context{Stats: &Stats{}} }

// AttachContext binds a cancellation context to the execution. Operators
// poll it at batch boundaries via Interrupted; a nil or Background context
// leaves the execution uncancellable (the pre-lifecycle behavior).
func (c *Context) AttachContext(ctx context.Context) {
	if ctx == nil {
		c.ctx, c.done = nil, nil
		return
	}
	c.ctx = ctx
	c.done = ctx.Done()
}

// derive returns a copy of c for a nested execution: an EXISTS subplan or a
// parallel worker. Everything carries over — bindings, the NodeRows handle,
// the MVCC snapshot, cancellation, statistics — and the caller overrides only
// what differs, so a field added to Context reaches nested executions by
// default instead of being silently dropped.
func (c *Context) derive() *Context {
	d := *c
	return &d
}

// Interrupted reports the attached context's error once it is cancelled or
// past its deadline, and nil while the execution may continue. It is a
// non-blocking poll, cheap enough for every batch boundary (but not for
// every row).
func (c *Context) Interrupted() error {
	select {
	case <-c.done:
		if err := c.ctx.Err(); err != nil {
			return err
		}
		return context.Canceled
	default:
		return nil
	}
}

// Expr is a compiled scalar expression evaluated against one flat row.
type Expr interface {
	Eval(ctx *Context, row types.Row) (types.Value, error)
}

// Col reads column Idx of the row.
type Col struct {
	Idx int
}

// Eval implements Expr.
func (c Col) Eval(_ *Context, row types.Row) (types.Value, error) {
	if c.Idx < 0 || c.Idx >= len(row) {
		return types.Null(), fmt.Errorf("exec: column %d out of range (row arity %d)", c.Idx, len(row))
	}
	return row[c.Idx], nil
}

// Const is a literal.
type Const struct {
	V types.Value
}

// Eval implements Expr.
func (c Const) Eval(*Context, types.Row) (types.Value, error) { return c.V, nil }

// ParamRef reads a correlation parameter slot.
type ParamRef struct {
	Idx int
}

// Eval implements Expr.
func (p ParamRef) Eval(ctx *Context, _ types.Row) (types.Value, error) {
	if ctx == nil || p.Idx >= len(ctx.Params) {
		return types.Null(), fmt.Errorf("exec: parameter $%d unbound", p.Idx)
	}
	return ctx.Params[p.Idx], nil
}

// BindRef reads a statement parameter slot from the execution's binding
// array. It is the bind-at-execute counterpart of Const: the optimizer emits
// it for constants the engine extracted into the statement's parameter
// vector, so a cached plan re-executes with new constants without
// recompiling.
type BindRef struct {
	Idx int
}

// Eval implements Expr.
func (b BindRef) Eval(ctx *Context, _ types.Row) (types.Value, error) {
	if ctx == nil || b.Idx < 0 || b.Idx >= len(ctx.Binds) {
		return types.Null(), fmt.Errorf("exec: statement parameter :%d unbound", b.Idx)
	}
	return ctx.Binds[b.Idx], nil
}

// BinOp evaluates binary operators with SQL three-valued logic.
type BinOp struct {
	Op   string
	L, R Expr
}

// Eval implements Expr.
func (b BinOp) Eval(ctx *Context, row types.Row) (types.Value, error) {
	switch b.Op {
	case "AND", "OR":
		lt, err := evalTri(ctx, b.L, row)
		if err != nil {
			return types.Null(), err
		}
		// Short circuit where 3VL allows.
		if b.Op == "AND" && lt == types.False {
			return types.False.Value(), nil
		}
		if b.Op == "OR" && lt == types.True {
			return types.True.Value(), nil
		}
		rt, err := evalTri(ctx, b.R, row)
		if err != nil {
			return types.Null(), err
		}
		if b.Op == "AND" {
			return lt.And(rt).Value(), nil
		}
		return lt.Or(rt).Value(), nil
	case "=", "<>", "<", "<=", ">", ">=":
		lv, err := b.L.Eval(ctx, row)
		if err != nil {
			return types.Null(), err
		}
		rv, err := b.R.Eval(ctx, row)
		if err != nil {
			return types.Null(), err
		}
		t, err := types.CompareTri(b.Op, lv, rv)
		if err != nil {
			return types.Null(), err
		}
		return t.Value(), nil
	case "LIKE":
		lv, err := b.L.Eval(ctx, row)
		if err != nil {
			return types.Null(), err
		}
		rv, err := b.R.Eval(ctx, row)
		if err != nil {
			return types.Null(), err
		}
		if lv.IsNull() || rv.IsNull() {
			return types.Null(), nil
		}
		if lv.Kind() != types.KindString || rv.Kind() != types.KindString {
			return types.Null(), fmt.Errorf("exec: LIKE requires strings")
		}
		return types.TriOf(likeMatch(lv.Str(), rv.Str())).Value(), nil
	default:
		lv, err := b.L.Eval(ctx, row)
		if err != nil {
			return types.Null(), err
		}
		rv, err := b.R.Eval(ctx, row)
		if err != nil {
			return types.Null(), err
		}
		return types.Arith(b.Op, lv, rv)
	}
}

// likeMatch implements SQL LIKE with % (any run) and _ (any one byte),
// allocation-free: literals and _ advance both cursors, and on a mismatch
// the most recent % absorbs one more byte of s and matching resumes after
// it. Only the last % needs revisiting: whatever an earlier % could absorb,
// the later one can absorb too.
func likeMatch(s, pat string) bool {
	i, j := 0, 0
	star, mark := -1, 0 // position of the last % in pat; where its run in s ends
	for i < len(s) {
		switch {
		case j < len(pat) && pat[j] == '%':
			star, mark = j, i
			j++
		case j < len(pat) && (pat[j] == '_' || pat[j] == s[i]):
			i++
			j++
		case star >= 0:
			mark++
			i, j = mark, star+1
		default:
			return false
		}
	}
	for j < len(pat) && pat[j] == '%' {
		j++
	}
	return j == len(pat)
}

// Not negates a boolean expression in 3VL.
type Not struct {
	E Expr
}

// Eval implements Expr.
func (n Not) Eval(ctx *Context, row types.Row) (types.Value, error) {
	t, err := evalTri(ctx, n.E, row)
	if err != nil {
		return types.Null(), err
	}
	return t.Not().Value(), nil
}

// Neg is arithmetic negation.
type Neg struct {
	E Expr
}

// Eval implements Expr.
func (n Neg) Eval(ctx *Context, row types.Row) (types.Value, error) {
	v, err := n.E.Eval(ctx, row)
	if err != nil {
		return types.Null(), err
	}
	return types.Neg(v)
}

// IsNull tests nullness.
type IsNull struct {
	E      Expr
	Negate bool
}

// Eval implements Expr.
func (e IsNull) Eval(ctx *Context, row types.Row) (types.Value, error) {
	v, err := e.E.Eval(ctx, row)
	if err != nil {
		return types.Null(), err
	}
	r := v.IsNull()
	if e.Negate {
		r = !r
	}
	return types.NewBool(r), nil
}

// InList is E [NOT] IN (list) with SQL semantics: if no element matches and
// any comparison was Unknown, the result is Unknown.
type InList struct {
	E      Expr
	List   []Expr
	Negate bool
}

// Eval implements Expr.
func (e InList) Eval(ctx *Context, row types.Row) (types.Value, error) {
	v, err := e.E.Eval(ctx, row)
	if err != nil {
		return types.Null(), err
	}
	result := types.False
	for _, le := range e.List {
		lv, err := le.Eval(ctx, row)
		if err != nil {
			return types.Null(), err
		}
		t, err := types.CompareTri("=", v, lv)
		if err != nil {
			return types.Null(), err
		}
		result = result.Or(t)
		if result == types.True {
			break
		}
	}
	if e.Negate {
		result = result.Not()
	}
	return result.Value(), nil
}

// ExistsOp evaluates [NOT] EXISTS over a subplan, binding correlation
// parameters from the outer row.
type ExistsOp struct {
	Plan   Plan
	Corr   []Expr
	Negate bool
}

// Eval implements Expr.
func (e ExistsOp) Eval(ctx *Context, row types.Row) (types.Value, error) {
	params := make([]types.Value, len(e.Corr))
	for i, c := range e.Corr {
		v, err := c.Eval(ctx, row)
		if err != nil {
			return types.Null(), err
		}
		params[i] = v
	}
	sub := ctx.derive()
	sub.Params = params
	if ctx.Stats != nil {
		ctx.Stats.SubqueryRuns++
	}
	if err := e.Plan.Open(sub); err != nil {
		return types.Null(), err
	}
	defer e.Plan.Close()
	// One pull decides: an empty batch only ever means exhaustion.
	batch, err := e.Plan.NextBatch(sub)
	if err != nil {
		return types.Null(), err
	}
	ok := len(batch) > 0
	if e.Negate {
		ok = !ok
	}
	return types.NewBool(ok), nil
}

// evalTri evaluates a boolean expression into Tri (NULL → Unknown).
func evalTri(ctx *Context, e Expr, row types.Row) (types.Tri, error) {
	v, err := e.Eval(ctx, row)
	if err != nil {
		return types.Unknown, err
	}
	if v.IsNull() {
		return types.Unknown, nil
	}
	if v.Kind() != types.KindBool {
		return types.Unknown, fmt.Errorf("exec: predicate evaluated to %s, want boolean", v.Kind())
	}
	return types.TriOf(v.Bool()), nil
}

// EvalPred evaluates a predicate; only True passes (Unknown filters out).
func EvalPred(ctx *Context, e Expr, row types.Row) (bool, error) {
	if e == nil {
		return true, nil
	}
	t, err := evalTri(ctx, e, row)
	if err != nil {
		return false, err
	}
	return t == types.True, nil
}

// DumpExpr renders an expression for EXPLAIN output.
func DumpExpr(e Expr) string {
	switch x := e.(type) {
	case Col:
		return fmt.Sprintf("#%d", x.Idx)
	case Const:
		return x.V.SQLLiteral()
	case ParamRef:
		return fmt.Sprintf("$%d", x.Idx)
	case BindRef:
		return fmt.Sprintf(":%d", x.Idx)
	case BinOp:
		return "(" + DumpExpr(x.L) + " " + x.Op + " " + DumpExpr(x.R) + ")"
	case Not:
		return "(NOT " + DumpExpr(x.E) + ")"
	case Neg:
		return "(-" + DumpExpr(x.E) + ")"
	case IsNull:
		if x.Negate {
			return "(" + DumpExpr(x.E) + " IS NOT NULL)"
		}
		return "(" + DumpExpr(x.E) + " IS NULL)"
	case InList:
		var parts []string
		for _, l := range x.List {
			parts = append(parts, DumpExpr(l))
		}
		return "(" + DumpExpr(x.E) + " IN (" + strings.Join(parts, ",") + "))"
	case ExistsOp:
		return "EXISTS(subplan)"
	default:
		return fmt.Sprintf("%T", e)
	}
}

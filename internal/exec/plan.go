package exec

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"sqlxnf/internal/btree"
	"sqlxnf/internal/catalog"
	"sqlxnf/internal/storage"
	"sqlxnf/internal/types"
)

// Plan is a physical operator, driven batch-at-a-time: Open, NextBatch until
// it returns an empty batch, Close. See the batch contract in batch.go.
type Plan interface {
	Schema() types.Schema
	Open(ctx *Context) error
	// NextBatch returns the next batch of rows, typically about BatchSize
	// (scans may overshoot to a page boundary). An empty batch with a nil
	// error means the input is exhausted. The returned slice and its rows
	// are reused by the operator across calls (see batch.go).
	NextBatch(ctx *Context) ([]types.Row, error)
	Close() error
	// Explain renders one line describing the operator.
	Explain() string
	// Children returns input plans (for plan tree printing).
	Children() []Plan
}

// Dump renders a plan tree.
func Dump(p Plan) string {
	var sb strings.Builder
	var rec func(p Plan, depth int)
	rec = func(p Plan, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(p.Explain())
		sb.WriteString("\n")
		for _, c := range p.Children() {
			rec(c, depth+1)
		}
	}
	rec(p, 0)
	return sb.String()
}

// ---------------------------------------------------------------------------
// SeqScan
// ---------------------------------------------------------------------------

// SeqScan reads every live row of a table, streaming batches straight off
// heap pages: at any moment it holds about a batch of decoded rows, never
// the whole table. It claims every morsel of a private dispatcher, so it
// reads the pages in directory order.
type SeqScan struct {
	Table *catalog.Table
	// Cols lists the table columns the scan decodes, ascending (nil = all):
	// its rows, and its schema, are those columns followed by the RID column
	// when WithRID is set. The optimizer lists the columns its statement
	// reads (EXECUTOR.md "Column pruning").
	Cols []int
	// EstRows is the optimizer's output-cardinality estimate (0 = unknown);
	// Explain prints it so access-path regressions are diffable.
	EstRows float64
	// WithRID makes the scan emit each tuple's location as one trailing INT
	// column (types.RIDColumn). The optimizer sets it from the base box the scan
	// implements; it is not an option. Every operator above sees a column.
	WithRID bool
	pageScan
}

// pageScan is the page-claim loop behind SeqScan and MorselScan: claim page
// runs from a dispatcher, decode each page through a private
// storage.MorselReader, and stop once a batch is full or the dispatcher is
// dry. The row buffer keeps its capacity across Close, so a reopened scan
// (correlated subplans, pooled prepared plans) reuses it.
type pageScan struct {
	disp    *storage.MorselDispatcher
	reader  storage.MorselReader
	pending []storage.PageID
	buf     []types.Row
	// pushed holds the conjuncts the parent Filter handed down at its Open
	// (see Filter.Open): they run inside ReadPage's loop, so the scan builds
	// only the rows they keep.
	pushed []predKernel
}

func (s *pageScan) open(ctx *Context, t *catalog.Table, cols []int, withRID bool) {
	s.reader = *t.Heap.MorselReader(t.Tag)
	s.reader.Vis = ctx.Vis
	s.reader.Columns(cols)
	if withRID {
		s.reader.EmitRID()
	}
	if len(s.pushed) > 0 {
		s.reader.Keep = matchAll(s.pushed)
	}
	s.pending, s.buf = nil, s.buf[:0]
}

// next replaces the buffer with the rows of the next claimed pages, at least
// BatchSize of them unless the dispatcher runs dry (a batch overshoots to a
// page boundary); the new rows reuse the memory of the last batch's. The
// interrupt poll before every page read bounds cancellation latency to one
// page of work per scan.
func (s *pageScan) next(ctx *Context) ([]types.Row, error) {
	s.buf = s.buf[:0]
	s.reader.Reset()
	examined := s.reader.Examined
	for len(s.buf) < BatchSize {
		if err := ctx.Interrupted(); err != nil {
			return nil, err
		}
		if len(s.pending) == 0 {
			if s.pending = s.disp.Claim(); s.pending == nil {
				break
			}
		}
		var err error
		if s.buf, err = s.reader.ReadPage(s.pending[0], s.buf); err != nil {
			return nil, err
		}
		s.pending = s.pending[1:]
	}
	if ctx.Stats != nil {
		ctx.Stats.RowsScanned += s.reader.Examined - examined
	}
	return s.buf, nil
}

// Close implements Plan for both scans. It drops the reader, and with it
// the decoder arena, so an idle pooled plan pins no decoded values.
func (s *pageScan) Close() error {
	s.reader, s.pending, s.buf = storage.MorselReader{}, nil, s.buf[:0]
	return nil
}

// scanSchema is the output schema of a base-table access: the listed
// columns (all when cols is nil), plus the RID column when the scan carries
// it.
func scanSchema(t *catalog.Table, cols []int, withRID bool) types.Schema {
	out := t.Schema
	if cols != nil {
		out = make(types.Schema, len(cols))
		for i, c := range cols {
			out[i] = t.Schema[c]
		}
	}
	if withRID {
		out = out.Concat(types.Schema{types.RIDColumn})
	}
	return out
}

// colsSuffix prints the column list of an access that has one.
func colsSuffix(t *catalog.Table, cols []int) string {
	if cols == nil {
		return ""
	}
	return fmt.Sprintf(" %v", scanSchema(t, cols, false).Names())
}

// Schema implements Plan.
func (s *SeqScan) Schema() types.Schema { return scanSchema(s.Table, s.Cols, s.WithRID) }

// Open implements Plan.
func (s *SeqScan) Open(ctx *Context) error {
	s.disp = s.Table.Heap.MorselDispatcher(0)
	s.open(ctx, s.Table, s.Cols, s.WithRID)
	return nil
}

// NextBatch implements Plan.
func (s *SeqScan) NextBatch(ctx *Context) ([]types.Row, error) { return s.next(ctx) }

// Explain implements Plan.
func (s *SeqScan) Explain() string {
	return "SeqScan " + s.Table.Name + colsSuffix(s.Table, s.Cols) + estSuffix(s.EstRows) + ridSuffix(s.WithRID)
}

// estSuffix renders an optimizer cardinality estimate for Explain output.
func estSuffix(est float64) string {
	if est <= 0 {
		return ""
	}
	return fmt.Sprintf(" (est rows=%.0f)", est)
}

// ridSuffix marks a scan that carries the hidden RID column.
func ridSuffix(withRID bool) string {
	if withRID {
		return " +rid"
	}
	return ""
}

// Children implements Plan.
func (s *SeqScan) Children() []Plan { return nil }

// ---------------------------------------------------------------------------
// IndexScan
// ---------------------------------------------------------------------------

// IndexScan probes a B+tree index. Bounds are expressions evaluated at Open
// (they may reference correlation parameters). Nil bounds are unbounded.
// The scan streams: an incremental btree range iterator feeds NextBatch
// directly, so at any moment the operator holds about one batch of RIDs and
// decoded rows — never the whole match set.
type IndexScan struct {
	Table        *catalog.Table
	Index        *catalog.Index
	Lo, Hi       []Expr // values for a key prefix
	LoInc, HiInc bool
	// HiPrefix marks Hi as covering only a prefix of the index columns: the
	// encoded bound extends with PrefixUpper so longer composite keys that
	// start with the prefix stay in range (a bare prefix bound would sort
	// below them and cut the range short).
	HiPrefix bool
	// LoPrefix is the exclusive-lower-bound analogue: composite keys that
	// start with the prefix sort above the bare encoded prefix, so a `>`
	// range must start past PrefixUpper of it or those keys leak in.
	LoPrefix bool
	// LoPastNull starts the range past the keys whose column right after the
	// Lo prefix is NULL. A `<`/`<=` range has no lower bound of its own, but
	// NULLs sort first in the key encoding and satisfy no comparison.
	LoPastNull bool
	// In makes the scan a series of equality probes standing in for
	// `col IN (list)` on the index column right after the Lo/Hi equality
	// prefix: one range per distinct non-NULL list value, in list order.
	In []Expr
	// EstRows is the optimizer's output-cardinality estimate (0 = unknown).
	EstRows float64
	// Cols and WithRID: see SeqScan.
	Cols    []int
	WithRID bool
	it      *btree.Iterator
	ranges  [][2][]byte // encoded lo/hi bounds: one pair, or one per In value
	next    int         // first range not yet scanned
	buf     []types.Row
	done    bool
	// dec decodes the fetched tuples' Cols, with a spare slot for the RID,
	// into an arena each batch reuses.
	dec types.RowDecoder
}

// Schema implements Plan.
func (s *IndexScan) Schema() types.Schema { return scanSchema(s.Table, s.Cols, s.WithRID) }

// Open implements Plan.
func (s *IndexScan) Open(ctx *Context) error {
	s.buf = s.buf[:0]
	s.dec = types.RowDecoder{Cols: s.Cols}
	if s.WithRID {
		s.dec.Spare = 1
	}
	s.ranges, s.next = s.ranges[:0], 0
	s.done = false
	// Every bound value comes from a comparison conjunct the scan stands in
	// for, and a comparison with NULL is never true: a NULL bound (a literal,
	// or a parameter bound to NULL) makes the scan empty.
	nullBound := false
	evalBound := func(es []Expr) ([]byte, error) {
		if es == nil {
			return nil, nil
		}
		vals := make([]types.Value, len(es))
		for i, e := range es {
			v, err := e.Eval(ctx, nil)
			if err != nil {
				return nil, err
			}
			nullBound = nullBound || v.IsNull()
			vals[i] = v
		}
		return types.EncodeKey(vals), nil
	}
	lo, err := evalBound(s.Lo)
	if err != nil {
		return err
	}
	hi, err := evalBound(s.Hi)
	if err != nil {
		return err
	}
	if nullBound {
		s.done = true
		return nil
	}
	if s.In == nil {
		s.ranges = append(s.ranges, [2][]byte{lo, hi})
	} else {
		// A NULL list item matches nothing and a repeated one nothing new.
		// Keys normalize numerics, so 1 and 1.0 are one probe.
		seen := make(map[string]bool, len(s.In))
		for _, e := range s.In {
			v, err := e.Eval(ctx, nil)
			if err != nil {
				return err
			}
			if v.IsNull() {
				continue
			}
			key := append(lo[:len(lo):len(lo)], types.EncodeKey([]types.Value{v})...)
			if !seen[string(key)] {
				seen[string(key)] = true
				s.ranges = append(s.ranges, [2][]byte{key, key})
			}
		}
	}
	s.done = !s.nextRange(ctx)
	return nil
}

// nextRange positions the iterator on the next pending key range, extending
// its encoded bounds as the prefix flags require, and reports whether one was
// left.
func (s *IndexScan) nextRange(ctx *Context) bool {
	if s.next == len(s.ranges) {
		return false
	}
	lo, hi := s.ranges[s.next][0], s.ranges[s.next][1]
	s.next++
	hiInc := s.HiInc
	if hi != nil && s.HiPrefix {
		hi = PrefixUpper(hi)
		hiInc = true
	}
	loInc := s.LoInc
	if lo != nil && s.LoPrefix {
		lo = PrefixUpper(lo)
		loInc = false
	}
	if s.LoPastNull {
		lo = PrefixUpper(append(lo, types.EncodeKey([]types.Value{types.Null()})...))
		loInc = false
	}
	if ctx.Stats != nil {
		ctx.Stats.IndexProbes++
	}
	s.it = s.Index.Tree.Iter(lo, hi, loInc, hiInc)
	return true
}

// fill pulls the next run of RIDs off the iterator and fetches their tuples.
// The interrupt poll bounds cancellation latency during long btree ranges.
func (s *IndexScan) fill(ctx *Context) error {
	if err := ctx.Interrupted(); err != nil {
		return err
	}
	s.buf = s.buf[:0]
	s.dec.Reset()
	for !s.done && len(s.buf) < BatchSize {
		_, rid, ok := s.it.Next()
		if !ok {
			s.done = !s.nextRange(ctx)
			continue
		}
		// Entries may dangle under MVCC: old versions keep their index
		// entries until vacuum, and invisible versions simply don't count.
		row, visible, err := s.Table.Heap.GetVisible(s.Table.Tag, rid, ctx.Vis, &s.dec)
		if err != nil {
			return fmt.Errorf("exec: index %s probe of tuple %v: %v", s.Index.Name, rid, err)
		}
		if !visible {
			continue
		}
		if s.WithRID {
			row = append(row, types.NewInt(rid.Pack()))
		}
		s.buf = append(s.buf, row)
	}
	if ctx.Stats != nil {
		ctx.Stats.RowsScanned += int64(len(s.buf))
	}
	return nil
}

// NextBatch implements Plan.
func (s *IndexScan) NextBatch(ctx *Context) ([]types.Row, error) {
	if s.done {
		return nil, nil
	}
	if err := s.fill(ctx); err != nil {
		return nil, err
	}
	return s.buf, nil
}

// Close implements Plan. The row buffer keeps its capacity for reopen; the
// decoder arena drops, so an idle pooled plan pins no decoded values.
func (s *IndexScan) Close() error {
	s.buf = s.buf[:0]
	s.it = nil
	s.dec = types.RowDecoder{}
	return nil
}

// Explain implements Plan.
func (s *IndexScan) Explain() string {
	in := ""
	if s.In != nil {
		in = fmt.Sprintf(" in-list(%d)", len(s.In))
	}
	return fmt.Sprintf("IndexScan %s using %s%s%s%s%s", s.Table.Name, s.Index.Name, in,
		colsSuffix(s.Table, s.Cols), estSuffix(s.EstRows), ridSuffix(s.WithRID))
}

// Children implements Plan.
func (s *IndexScan) Children() []Plan { return nil }

// PrefixUpper returns a hi bound key that covers all composites starting
// with the given prefix (used for equality on a key prefix of a multi-column
// index). Exposed for the optimizer.
func PrefixUpper(prefix []byte) []byte {
	out := append([]byte(nil), prefix...)
	return append(out, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)
}

var _ = btree.ErrDuplicate // keep the import meaningful for doc reference

// ---------------------------------------------------------------------------
// Values and Materialized sources
// ---------------------------------------------------------------------------

// Values emits a fixed list of rows.
type Values struct {
	Out  types.Schema
	Rows []types.Row
	pos  int
}

// Schema implements Plan.
func (v *Values) Schema() types.Schema { return v.Out }

// Open implements Plan.
func (v *Values) Open(*Context) error { v.pos = 0; return nil }

// NextBatch implements Plan.
func (v *Values) NextBatch(*Context) ([]types.Row, error) {
	return sliceBatch(v.Rows, &v.pos), nil
}

// Close implements Plan.
func (v *Values) Close() error { return nil }

// Explain implements Plan.
func (v *Values) Explain() string { return fmt.Sprintf("Values (%d rows)", len(v.Rows)) }

// Children implements Plan.
func (v *Values) Children() []Plan { return nil }

// ---------------------------------------------------------------------------
// Filter, Project, Limit, Distinct
// ---------------------------------------------------------------------------

// Filter passes rows satisfying Pred. It compiles the predicate
// into vectorized conjunct kernels (see kernel.go): common shapes like
// `col < const` run as tight comparison loops without per-row expression
// dispatch. Over a SeqScan or MorselScan the pushable kernels run inside
// the scan's page loop instead (pushDown); the Filter keeps the rest.
type Filter struct {
	Child Plan
	Pred  Expr
	// kernels are the conjuncts this Filter applies; pushed went to the
	// scan child. Both compile once, at the first Open: Pred is immutable
	// after construction, so one compilation serves every reopen
	// (correlated subplans reopen per outer row and must not pay it).
	kernels  []predKernel
	pushed   []predKernel
	compiled bool
	bufA     []types.Row
	bufB     []types.Row
}

// Schema implements Plan.
func (f *Filter) Schema() types.Schema { return f.Child.Schema() }

// Open implements Plan. It resolves the kernels' statement parameters and
// hands the pushed ones to the scan before opening it.
func (f *Filter) Open(ctx *Context) error {
	scan := scanChild(f.Child)
	if !f.compiled {
		f.kernels = compileKernels(f.Pred)
		if scan != nil {
			f.kernels, f.pushed = pushDown(f.kernels)
		}
		f.compiled = true
	}
	for i := range f.kernels {
		f.kernels[i].prepare(ctx)
	}
	for i := range f.pushed {
		f.pushed[i].prepare(ctx)
	}
	if scan != nil {
		scan.pushed = f.pushed
	}
	return f.Child.Open(ctx)
}

// scanChild returns the page loop of a heap-scan child, seen through
// EXPLAIN ANALYZE's wrapper, or nil.
func scanChild(p Plan) *pageScan {
	if w, ok := p.(*Instrumented); ok {
		p = w.Inner
	}
	switch s := p.(type) {
	case *SeqScan:
		return &s.pageScan
	case *MorselScan:
		return &s.pageScan
	}
	return nil
}

// pushDown splits kernels into the generic ones the Filter keeps and the
// pushable ones its scan runs per row, each in conjunct order.
func pushDown(kernels []predKernel) (kept, pushed []predKernel) {
	for _, k := range kernels {
		if k.pushable() {
			pushed = append(pushed, k)
		} else {
			kept = append(kept, k)
		}
	}
	return kept, pushed
}

// NextBatch implements Plan.
func (f *Filter) NextBatch(ctx *Context) ([]types.Row, error) {
	for {
		batch, err := f.Child.NextBatch(ctx)
		if err != nil {
			return nil, err
		}
		if len(batch) == 0 {
			return nil, nil
		}
		cur := batch
		for i := range f.kernels {
			dst := f.bufA[:0]
			if i%2 == 1 {
				dst = f.bufB[:0]
			}
			dst, err = f.kernels[i].apply(ctx, cur, dst)
			if i%2 == 1 {
				f.bufB = dst
			} else {
				f.bufA = dst
			}
			if err != nil {
				return nil, err
			}
			cur = dst
			if len(cur) == 0 {
				break
			}
		}
		if len(cur) > 0 {
			return cur, nil
		}
	}
}

// Close implements Plan. Ping-pong buffers keep their capacity for reopen.
func (f *Filter) Close() error {
	f.bufA, f.bufB = f.bufA[:0], f.bufB[:0]
	return f.Child.Close()
}

// Explain implements Plan.
func (f *Filter) Explain() string { return "Filter " + DumpExpr(f.Pred) }

// Children implements Plan.
func (f *Filter) Children() []Plan { return []Plan{f.Child} }

// Project computes output expressions per row. It carves output
// rows from a value arena that every batch reuses and short-circuits plain
// column references.
type Project struct {
	Child Plan
	Exprs []Expr
	Out   types.Schema
	obuf  []types.Row
	arena types.Arena
}

// Schema implements Plan.
func (p *Project) Schema() types.Schema { return p.Out }

// Open implements Plan.
func (p *Project) Open(ctx *Context) error { return p.Child.Open(ctx) }

func (p *Project) projectInto(ctx *Context, row, out types.Row) error {
	for i, e := range p.Exprs {
		if c, ok := e.(Col); ok && c.Idx >= 0 && c.Idx < len(row) {
			out[i] = row[c.Idx]
			continue
		}
		v, err := e.Eval(ctx, row)
		if err != nil {
			return err
		}
		out[i] = v
	}
	return nil
}

// NextBatch implements Plan.
func (p *Project) NextBatch(ctx *Context) ([]types.Row, error) {
	batch, err := p.Child.NextBatch(ctx)
	if err != nil || len(batch) == 0 {
		return nil, err
	}
	p.obuf = p.obuf[:0]
	p.arena.Reset()
	n := len(p.Exprs)
	block := p.arena.Take(len(batch) * n)[:len(batch)*n]
	for i, row := range batch {
		out := block[i*n : (i+1)*n : (i+1)*n]
		if err := p.projectInto(ctx, row, out); err != nil {
			return nil, err
		}
		p.obuf = append(p.obuf, out)
	}
	if ctx.Stats != nil {
		ctx.Stats.RowsEmitted += int64(len(p.obuf))
	}
	return p.obuf, nil
}

// Close implements Plan. The output buffer keeps its capacity for reopen;
// the value arena drops, so an idle pooled plan pins no row values.
func (p *Project) Close() error {
	p.obuf = p.obuf[:0]
	p.arena = types.Arena{}
	return p.Child.Close()
}

// Explain implements Plan.
func (p *Project) Explain() string { return fmt.Sprintf("Project %v", p.Out.Names()) }

// Children implements Plan.
func (p *Project) Children() []Plan { return []Plan{p.Child} }

// Limit stops after N rows.
type Limit struct {
	Child Plan
	N     int64
	seen  int64
}

// Schema implements Plan.
func (l *Limit) Schema() types.Schema { return l.Child.Schema() }

// Open implements Plan.
func (l *Limit) Open(ctx *Context) error { l.seen = 0; return l.Child.Open(ctx) }

// NextBatch implements Plan.
func (l *Limit) NextBatch(ctx *Context) ([]types.Row, error) {
	if l.seen >= l.N {
		return nil, nil
	}
	batch, err := l.Child.NextBatch(ctx)
	if err != nil {
		return nil, err
	}
	if rem := l.N - l.seen; int64(len(batch)) > rem {
		batch = batch[:rem]
	}
	l.seen += int64(len(batch))
	return batch, nil
}

// Close implements Plan.
func (l *Limit) Close() error { return l.Child.Close() }

// Explain implements Plan.
func (l *Limit) Explain() string { return fmt.Sprintf("Limit %d", l.N) }

// Children implements Plan.
func (l *Limit) Children() []Plan { return []Plan{l.Child} }

// Distinct removes duplicate rows (NULL = NULL for this purpose). It keeps
// a copy of every row it emits, to test later rows against.
type Distinct struct {
	Child Plan
	seen  map[uint64][]types.Row
	kept  types.Arena
	obuf  []types.Row
}

// Schema implements Plan.
func (d *Distinct) Schema() types.Schema { return d.Child.Schema() }

// Open implements Plan.
func (d *Distinct) Open(ctx *Context) error {
	d.seen = make(map[uint64][]types.Row)
	d.kept = types.Arena{}
	return d.Child.Open(ctx)
}

// fresh reports whether the row was not seen before, recording a copy of
// it, which it returns.
func (d *Distinct) fresh(row types.Row) (types.Row, bool) {
	h := row.Hash()
	for _, prev := range d.seen[h] {
		if prev.Equal(row) {
			return nil, false
		}
	}
	row = d.kept.Copy(row)
	d.seen[h] = append(d.seen[h], row)
	return row, true
}

// NextBatch implements Plan.
func (d *Distinct) NextBatch(ctx *Context) ([]types.Row, error) {
	d.obuf = d.obuf[:0]
	for {
		batch, err := d.Child.NextBatch(ctx)
		if err != nil {
			return nil, err
		}
		if len(batch) == 0 {
			return nil, nil
		}
		for _, row := range batch {
			if kept, ok := d.fresh(row); ok {
				d.obuf = append(d.obuf, kept)
			}
		}
		if len(d.obuf) > 0 {
			return d.obuf, nil
		}
	}
}

// Close implements Plan.
func (d *Distinct) Close() error {
	d.seen = nil
	d.kept = types.Arena{}
	d.obuf = nil
	return d.Child.Close()
}

// Explain implements Plan.
func (d *Distinct) Explain() string { return "Distinct" }

// Children implements Plan.
func (d *Distinct) Children() []Plan { return []Plan{d.Child} }

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

// NLJoin is a block nested-loops join: the right input materializes once,
// copied, then every left row scans it. Pred (optional) filters
// concatenated rows, which each batch carves from an arena it reuses.
type NLJoin struct {
	Left, Right Plan
	Pred        Expr
	out         types.Schema
	right       []types.Row
	cur         types.Row
	rpos        int
	lbatch      []types.Row
	lpos        int
	obuf        []types.Row
	arena       types.Arena
}

// NewNLJoin builds the join with a concatenated schema.
func NewNLJoin(l, r Plan, pred Expr) *NLJoin {
	return &NLJoin{Left: l, Right: r, Pred: pred, out: l.Schema().Concat(r.Schema())}
}

// Schema implements Plan.
func (j *NLJoin) Schema() types.Schema { return j.out }

// Open implements Plan.
func (j *NLJoin) Open(ctx *Context) error {
	if err := j.Left.Open(ctx); err != nil {
		return err
	}
	if err := j.Right.Open(ctx); err != nil {
		return err
	}
	var err error
	if j.right, err = drainCopies(ctx, j.Right, j.right[:0]); err != nil {
		return err
	}
	j.cur = nil
	j.rpos = 0
	j.lbatch = nil
	j.lpos = 0
	j.arena = types.Arena{}
	return nil
}

// NextBatch implements Plan.
func (j *NLJoin) NextBatch(ctx *Context) ([]types.Row, error) {
	j.obuf = j.obuf[:0]
	j.arena.Reset()
	for {
		for j.cur != nil && j.rpos < len(j.right) {
			r := j.right[j.rpos]
			j.rpos++
			joined := concat(&j.arena, j.cur, r)
			pass, err := EvalPred(ctx, j.Pred, joined)
			if err != nil {
				return nil, err
			}
			if pass {
				j.obuf = append(j.obuf, joined)
			}
		}
		if len(j.obuf) >= BatchSize {
			return j.obuf, nil
		}
		if j.lpos >= len(j.lbatch) {
			// One cancellation poll per outer batch: leaf-scan polls dilute
			// under a join product, so joins poll their own consumption.
			if err := ctx.Interrupted(); err != nil {
				return nil, err
			}
			batch, err := j.Left.NextBatch(ctx)
			if err != nil {
				return nil, err
			}
			if len(batch) == 0 {
				return j.obuf, nil
			}
			j.lbatch = batch
			j.lpos = 0
		}
		j.cur = j.lbatch[j.lpos]
		j.lpos++
		j.rpos = 0
	}
}

// Close implements Plan. The bounded output buffer keeps its capacity for
// reopen; the materialized right side is dropped — it scales with the input
// and would pin arbitrary row memory in pooled prepared plans.
func (j *NLJoin) Close() error {
	j.right = nil
	j.arena = types.Arena{}
	j.obuf = j.obuf[:0]
	j.lbatch = nil
	if err := j.Left.Close(); err != nil {
		j.Right.Close()
		return err
	}
	return j.Right.Close()
}

// Explain implements Plan.
func (j *NLJoin) Explain() string {
	if j.Pred != nil {
		return "NLJoin " + DumpExpr(j.Pred)
	}
	return "NLJoin (cross)"
}

// Children implements Plan.
func (j *NLJoin) Children() []Plan { return []Plan{j.Left, j.Right} }

// buildEnt is one hash-table entry: the build row plus its evaluated key and
// hash. Keys are kept so probes verify true key equality instead of trusting
// 64-bit hashes (two distinct keys may collide) and never re-evaluate
// build-side key expressions; the hash is kept so indexing never re-hashes
// and a probe skips the other hashes sharing its bucket without comparing
// keys.
type buildEnt struct {
	h    uint64
	keys types.Row
	row  types.Row
}

// hashTable is the join table shared by the serial and parallel build paths:
// a flat entry slice whose chains hang off one power-of-two bucket array.
// One allocation holds all entries instead of a bucket slice per distinct
// key, which keeps build-side GC pressure flat; the heads are one []int32
// indexed by the top hash bits, so a probe is an array load, not a map
// lookup.
type hashTable struct {
	shift uint // 64 - log2(len(heads))
	heads []int32
	ents  []buildEnt
	links []int32
}

// buildChunk is the most entries one chunk of a buildSink holds.
const buildChunk = 1024

// buildSink collects the entries of one build pipeline. It copies each
// batch (keepBatch), since the pipeline reuses its batches; a key of one
// plain column is read from the copied row, any other key is evaluated into
// the key arena. Entries fill chunks that grow to buildChunk, so collecting
// them never copies one, and hashTable.fill writes each entry once.
type buildSink struct {
	keys    []Expr
	keyCol  int // the key's column when it is one plain column, else -1
	hash    func(types.Row) uint64
	scratch types.Row
	kept    []types.Row // the current batch's copies
	keyVals types.Arena
	chunks  [][]buildEnt
	n       int
}

func newBuildSink(keys []Expr, hash func(types.Row) uint64) *buildSink {
	s := &buildSink{keys: keys, keyCol: -1, hash: hash, scratch: make(types.Row, len(keys))}
	if len(keys) == 1 {
		if c, ok := keys[0].(Col); ok && c.Idx >= 0 {
			s.keyCol = c.Idx
		}
	}
	return s
}

// add enters one build row; NULL keys never join, so their rows are dropped.
func (s *buildSink) add(ctx *Context, row types.Row) error {
	var keys types.Row
	if c := s.keyCol; c >= 0 && c < len(row) {
		if row[c].IsNull() {
			return nil
		}
		keys = row[c : c+1 : c+1]
	} else {
		null, err := evalKeysInto(ctx, s.keys, row, s.scratch)
		if err != nil || null {
			return err
		}
		keys = s.keyVals.Copy(s.scratch)
	}
	last := len(s.chunks) - 1
	if last < 0 || len(s.chunks[last]) == cap(s.chunks[last]) {
		s.chunks = append(s.chunks, make([]buildEnt, 0, min(max(s.n, 16), buildChunk)))
		last++
	}
	s.chunks[last] = append(s.chunks[last], buildEnt{h: s.hash(keys), keys: keys, row: row})
	s.n++
	return nil
}

// drain adds a copy of every remaining row of an opened build pipeline.
func (s *buildSink) drain(ctx *Context, p Plan) error {
	return forEachBatch(ctx, p, func(batch []types.Row) error {
		s.kept = keepBatch(s.kept[:0], batch)
		for _, row := range s.kept {
			if err := s.add(ctx, row); err != nil {
				return err
			}
		}
		return nil
	})
}

// fill writes the sinks' entries into the table, sink by sink in order, and
// indexes them.
func (ht *hashTable) fill(sinks ...*buildSink) {
	n := 0
	for _, s := range sinks {
		n += s.n
	}
	ht.ents = make([]buildEnt, 0, n)
	for _, s := range sinks {
		for _, c := range s.chunks {
			ht.ents = append(ht.ents, c...)
		}
	}
	ht.index()
}

// index chains every entry from its bucket, in entry order, over a bucket
// array at least as long as the entry slice. The top bits index it: Row.Hash
// ends with a multiply, which mixes every input byte into the high bits.
func (ht *hashTable) index() {
	bits := uint(0)
	for 1<<bits < len(ht.ents) {
		bits++
	}
	ht.shift = 64 - bits
	ht.heads = make([]int32, 1<<bits)
	for i := range ht.heads {
		ht.heads[i] = -1
	}
	ht.links = make([]int32, len(ht.ents))
	for i := len(ht.ents) - 1; i >= 0; i-- {
		b := ht.ents[i].h >> ht.shift
		ht.links[i] = ht.heads[b]
		ht.heads[b] = int32(i)
	}
}

// head returns the first entry index of the bucket for hash h, or -1.
func (ht *hashTable) head(h uint64) int32 {
	if len(ht.heads) == 0 {
		return -1
	}
	return ht.heads[h>>ht.shift]
}

// drop releases the table's row memory (it scales with the build input and
// must not pin memory in pooled prepared plans).
func (ht *hashTable) drop() {
	ht.heads = nil
	ht.ents = nil
	ht.links = nil
}

// HashJoin is an equi-join: build a hash table on the right input keyed by
// RightKeys, probe with LeftKeys. Residual (optional) filters concatenated
// rows for non-equi conjuncts. Build and probe are batch-at-a-time with
// reusable key scratch buffers, so key evaluation allocates nothing per row.
// A join with Emit set outputs only those columns of each match (see
// Project), so a projection above it never copies the concatenated row.
type HashJoin struct {
	Left, Right         Plan
	LeftKeys, RightKeys []Expr
	Residual            Expr
	// Emit, when non-nil, lists the positions in the concatenated left ++
	// right row that each output row holds, in order.
	Emit []int
	// Shared marks the join for parallel execution: worker clones of the
	// join share one build (see sharedBuild in parallel.go) — the table is
	// built once, in parallel, and probed by every worker. Set by the
	// optimizer when it wraps the probe pipeline in a Gather.
	Shared bool
	shared *sharedBuild // wired by cloneWorkers per execution

	out     types.Schema
	own     hashTable  // serial build storage
	tab     *hashTable // table probed (own or shared)
	cur     types.Row
	chain   int32     // cursor into the current probe chain (-1 = none)
	curKeys types.Row // probe-side scratch, len(LeftKeys)
	curHash uint64    // hash of curKeys
	lbatch  []types.Row
	lpos    int
	obuf    []types.Row
	arena   types.Arena // output rows, reused by every batch
	// hash is the bucket hash for keys; the collision regression test
	// overrides it to force every key into one chain and prove probe-side
	// key comparison, not the hash, decides matches. Nil means Row.Hash.
	hash func(types.Row) uint64
}

// NewHashJoin builds the join with a concatenated schema.
func NewHashJoin(l, r Plan, lk, rk []Expr, residual Expr) *HashJoin {
	return &HashJoin{Left: l, Right: r, LeftKeys: lk, RightKeys: rk,
		Residual: residual, out: l.Schema().Concat(r.Schema())}
}

// Project folds a projection of plain columns into the join: from now on it
// outputs, under schema out, only the columns at positions cols of the
// concatenated row. A residual reads the concatenated row, so a join that
// has one cannot fold.
func (j *HashJoin) Project(cols []int, out types.Schema) {
	if j.Residual != nil {
		panic("exec: HashJoin.Project over a residual predicate")
	}
	j.Emit, j.out = cols, out
}

// Schema implements Plan.
func (j *HashJoin) Schema() types.Schema { return j.out }

// Open implements Plan: builds the hash table from the right input batch by
// batch through a buildSink, which copies the rows and keys it keeps, and
// the bucket array indexes them once the input is drained. A shared join
// instead fetches the table from its sharedBuild — the first worker clone to
// arrive runs the parallel build, the rest probe the same flat table.
func (j *HashJoin) Open(ctx *Context) error {
	if err := j.Left.Open(ctx); err != nil {
		return err
	}
	if j.hash == nil {
		j.hash = types.Row.Hash
	}
	if j.shared != nil {
		tab, err := j.shared.table(ctx)
		if err != nil {
			return err
		}
		j.tab = tab
	} else {
		if err := j.Right.Open(ctx); err != nil {
			return err
		}
		sink := newBuildSink(j.RightKeys, j.hash)
		if err := sink.drain(ctx, j.Right); err != nil {
			return err
		}
		j.own.fill(sink)
		j.tab = &j.own
	}
	j.cur = nil
	j.chain = -1
	j.curKeys = make(types.Row, len(j.LeftKeys))
	j.lbatch = nil
	j.lpos = 0
	j.arena = types.Arena{}
	return nil
}

// probe positions the chain cursor for a left row; NULL keys never join and
// leave the (exhausted) cursor where it was.
func (j *HashJoin) probe(ctx *Context, row types.Row) error {
	null, err := evalKeysInto(ctx, j.LeftKeys, row, j.curKeys)
	if err != nil || null {
		return err
	}
	j.cur = row
	j.curHash = j.hash(j.curKeys)
	j.chain = j.tab.head(j.curHash)
	return nil
}

// nextMatch advances the probe chain to the next entry whose key truly
// equals the current probe key (the hash collision guard), or nil. Entries
// of other hashes share the bucket; their hash alone rules them out.
func (j *HashJoin) nextMatch() *buildEnt {
	for j.chain >= 0 {
		ent := &j.tab.ents[j.chain]
		j.chain = j.tab.links[j.chain]
		if ent.h == j.curHash && ent.keys.Equal(j.curKeys) {
			return ent
		}
	}
	return nil
}

// joined builds the output row for one match: the concatenated row, or just
// its Emit positions.
func (j *HashJoin) joined(l, r types.Row) types.Row {
	if j.Emit == nil {
		return concat(&j.arena, l, r)
	}
	row := j.arena.Take(len(j.Emit))[:len(j.Emit)]
	for i, c := range j.Emit {
		if c < len(l) {
			row[i] = l[c]
		} else {
			row[i] = r[c-len(l)]
		}
	}
	return row
}

// NextBatch implements Plan.
func (j *HashJoin) NextBatch(ctx *Context) ([]types.Row, error) {
	j.obuf = j.obuf[:0]
	j.arena.Reset()
	for {
		for {
			ent := j.nextMatch()
			if ent == nil {
				break
			}
			joined := j.joined(j.cur, ent.row)
			pass, err := EvalPred(ctx, j.Residual, joined)
			if err != nil {
				return nil, err
			}
			if pass {
				j.obuf = append(j.obuf, joined)
			}
		}
		if len(j.obuf) >= BatchSize {
			return j.obuf, nil
		}
		if j.lpos >= len(j.lbatch) {
			// One cancellation poll per outer batch: leaf-scan polls dilute
			// under a join product, so joins poll their own consumption.
			if err := ctx.Interrupted(); err != nil {
				return nil, err
			}
			batch, err := j.Left.NextBatch(ctx)
			if err != nil {
				return nil, err
			}
			if len(batch) == 0 {
				return j.obuf, nil
			}
			j.lbatch = batch
			j.lpos = 0
		}
		row := j.lbatch[j.lpos]
		j.lpos++
		if err := j.probe(ctx, row); err != nil {
			return nil, err
		}
	}
}

// Close implements Plan. The bounded output buffer keeps its capacity for
// reopen; the hash table drops — it scales with the build input and would
// pin arbitrary row memory in pooled prepared plans. A shared join never
// opened its Right subtree (the sharedBuild ran its own clones), so it must
// not close it either.
func (j *HashJoin) Close() error {
	j.own.drop()
	j.tab = nil
	j.arena = types.Arena{}
	j.obuf = j.obuf[:0]
	j.lbatch = nil
	if err := j.Left.Close(); err != nil {
		if j.shared == nil {
			j.Right.Close()
		}
		return err
	}
	if j.shared == nil {
		return j.Right.Close()
	}
	return nil
}

// Explain implements Plan.
func (j *HashJoin) Explain() string {
	var parts []string
	for i := range j.LeftKeys {
		parts = append(parts, DumpExpr(j.LeftKeys[i])+"="+DumpExpr(j.RightKeys[i]))
	}
	out := "HashJoin " + strings.Join(parts, " AND ")
	if j.Emit != nil {
		out += fmt.Sprintf(" %v", j.out.Names())
	}
	if j.Shared {
		out += " (shared build)"
	}
	return out
}

// Children implements Plan.
func (j *HashJoin) Children() []Plan { return []Plan{j.Left, j.Right} }

// IndexJoin is a batched index-nested-loop join — the paper's parent/child
// edge-join shape when the outer side is small and the inner side is a base
// table with an index on the join column. Each left row evaluates KeyExprs,
// probes the inner index for equal keys, fetches the matching heap tuples,
// and emits concatenated rows. Nothing on the inner side materializes: the
// operator reads exactly the tuples the outer rows reach, and of each only
// the columns Cols lists (see SeqScan.Cols). Pred (optional) filters
// concatenated rows (residual join conjuncts plus any inner-side pushed
// predicates).
type IndexJoin struct {
	Left     Plan
	Table    *catalog.Table
	Index    *catalog.Index
	Cols     []int
	KeyExprs []Expr // evaluated against left rows; an index-column prefix
	Pred     Expr
	// EstRows is the optimizer's output-cardinality estimate (0 = unknown).
	EstRows float64

	out        types.Schema
	dec        types.RowDecoder
	keyScratch types.Row
	rids       []storage.RID
	rpos       int
	cur        types.Row
	lbatch     []types.Row
	lpos       int
	obuf       []types.Row
	arena      types.Arena
}

// NewIndexJoin builds the join with a concatenated schema: the left
// columns, then the inner table's cols (nil = all).
func NewIndexJoin(l Plan, t *catalog.Table, ix *catalog.Index, cols []int, keys []Expr, pred Expr) *IndexJoin {
	return &IndexJoin{Left: l, Table: t, Index: ix, Cols: cols, KeyExprs: keys, Pred: pred,
		out: l.Schema().Concat(scanSchema(t, cols, false))}
}

// Schema implements Plan.
func (j *IndexJoin) Schema() types.Schema { return j.out }

// Open implements Plan.
func (j *IndexJoin) Open(ctx *Context) error {
	if err := j.Left.Open(ctx); err != nil {
		return err
	}
	if j.keyScratch == nil {
		j.keyScratch = make(types.Row, len(j.KeyExprs))
	}
	j.rids = j.rids[:0]
	j.rpos = 0
	j.cur = nil
	j.lbatch = nil
	j.lpos = 0
	j.obuf = j.obuf[:0]
	j.arena = types.Arena{}
	j.dec = types.RowDecoder{Cols: j.Cols}
	return nil
}

// probe evaluates the key for one left row and collects the matching RIDs.
// NULL keys never join (empty match set).
func (j *IndexJoin) probe(ctx *Context, row types.Row) error {
	j.cur = row
	j.rids = j.rids[:0]
	j.rpos = 0
	null, err := evalKeysInto(ctx, j.KeyExprs, row, j.keyScratch)
	if err != nil || null {
		return err
	}
	key := types.EncodeKey(j.keyScratch)
	hi := key
	hiInc := true
	if len(j.KeyExprs) < len(j.Index.Columns) {
		hi = PrefixUpper(key)
	}
	if ctx.Stats != nil {
		ctx.Stats.IndexProbes++
	}
	it := j.Index.Tree.Iter(key, hi, true, hiInc)
	for {
		_, rid, ok := it.Next()
		if !ok {
			return nil
		}
		j.rids = append(j.rids, rid)
	}
}

// emitMatches joins the current left row against its pending RIDs, appending
// passing rows to obuf until the RID list is exhausted.
func (j *IndexJoin) emitMatches(ctx *Context) error {
	for j.rpos < len(j.rids) {
		rid := j.rids[j.rpos]
		j.rpos++
		// Entries may dangle under MVCC (old versions, invisible versions).
		inner, visible, err := j.Table.Heap.GetVisible(j.Table.Tag, rid, ctx.Vis, &j.dec)
		if err != nil {
			return fmt.Errorf("exec: index %s probe of tuple %v: %v", j.Index.Name, rid, err)
		}
		if !visible {
			continue
		}
		if ctx.Stats != nil {
			ctx.Stats.RowsScanned++
		}
		joined := concat(&j.arena, j.cur, inner)
		pass, err := EvalPred(ctx, j.Pred, joined)
		if err != nil {
			return err
		}
		if pass {
			j.obuf = append(j.obuf, joined)
		}
	}
	return nil
}

// NextBatch implements Plan.
func (j *IndexJoin) NextBatch(ctx *Context) ([]types.Row, error) {
	j.obuf = j.obuf[:0]
	j.arena.Reset()
	j.dec.Reset()
	for {
		if len(j.obuf) >= BatchSize {
			return j.obuf, nil
		}
		if j.lpos >= len(j.lbatch) {
			// One cancellation poll per outer batch: leaf-scan polls dilute
			// under a join product, so joins poll their own consumption.
			if err := ctx.Interrupted(); err != nil {
				return nil, err
			}
			batch, err := j.Left.NextBatch(ctx)
			if err != nil {
				return nil, err
			}
			if len(batch) == 0 {
				return j.obuf, nil
			}
			j.lbatch = batch
			j.lpos = 0
		}
		row := j.lbatch[j.lpos]
		j.lpos++
		if err := j.probe(ctx, row); err != nil {
			return nil, err
		}
		if err := j.emitMatches(ctx); err != nil {
			return nil, err
		}
	}
}

// Close implements Plan. Bounded buffers keep their capacity for reopen;
// the arenas drop.
func (j *IndexJoin) Close() error {
	j.rids = j.rids[:0]
	j.obuf = j.obuf[:0]
	j.lbatch = nil
	j.arena, j.dec = types.Arena{}, types.RowDecoder{}
	return j.Left.Close()
}

// Explain implements Plan.
func (j *IndexJoin) Explain() string {
	var parts []string
	for i, k := range j.KeyExprs {
		parts = append(parts, j.Index.Columns[i]+"="+DumpExpr(k))
	}
	return fmt.Sprintf("IndexJoin %s using %s on %s%s%s", j.Table.Name, j.Index.Name,
		strings.Join(parts, " AND "), colsSuffix(j.Table, j.Cols), estSuffix(j.EstRows))
}

// Children implements Plan.
func (j *IndexJoin) Children() []Plan { return []Plan{j.Left} }

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

// SortKey orders by an output column.
type SortKey struct {
	Idx  int
	Desc bool
}

// Sort materializes and orders child output, copying each row it keeps.
// It sorts one 16-byte entry per row, not the rows: an entry holds the
// types.OrderKey of the row's first sort key (inverted for DESC) and the
// row's input position. Entries order by key, then — when equal keys cannot
// prove equal rows — by the precompiled row comparator, then by position,
// so the sort is stable. The sorted entries then permute the rows in place.
// NULLs sort first ascending and last descending, a NaN above every other
// number (types.CompareOrder).
type Sort struct {
	Child Plan
	Keys  []SortKey
	cmp   rowCompare
	rows  []types.Row
	ents  []sortEntry
	pos   int
}

// sortEntry stands for one kept row while Sort orders them: k is the
// row's first-key types.OrderKey, i its input position.
type sortEntry struct {
	k uint64
	i int32
}

// rowCompare orders two rows; comparison errors (mixed incomparable kinds)
// land in *errOut, first one wins.
type rowCompare func(a, b types.Row, errOut *error) int

// compareKeyVals orders two key values with the NULLs-first rule and
// inline integer and string fast paths: a tie of string keys lands here.
func compareKeyVals(a, b types.Value, errOut *error) int {
	switch ak, bk := a.Kind(), b.Kind(); {
	case ak == types.KindInt && bk == types.KindInt:
		ai, bi := a.Int(), b.Int()
		switch {
		case ai < bi:
			return -1
		case ai > bi:
			return 1
		}
		return 0
	case ak == types.KindString && bk == types.KindString:
		return strings.Compare(a.Str(), b.Str())
	}
	return compareNullsFirst(a, b, errOut)
}

// compileComparator builds the precompiled comparator for a key list.
func compileComparator(keys []SortKey) rowCompare {
	if len(keys) == 1 {
		idx, desc := keys[0].Idx, keys[0].Desc
		return func(a, b types.Row, errOut *error) int {
			c := compareKeyVals(a[idx], b[idx], errOut)
			if desc {
				c = -c
			}
			return c
		}
	}
	ks := append([]SortKey(nil), keys...)
	return func(a, b types.Row, errOut *error) int {
		for _, key := range ks {
			c := compareKeyVals(a[key.Idx], b[key.Idx], errOut)
			if key.Desc {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		return 0
	}
}

// Schema implements Plan.
func (s *Sort) Schema() types.Schema { return s.Child.Schema() }

// Open implements Plan. The child drains batch-at-a-time.
func (s *Sort) Open(ctx *Context) error {
	if err := s.Child.Open(ctx); err != nil {
		return err
	}
	s.pos = 0
	var err error
	if s.rows, err = drainCopies(ctx, s.Child, s.rows[:0]); err != nil {
		return err
	}
	if s.cmp == nil {
		s.cmp = compileComparator(s.Keys)
	}
	return s.sortRows()
}

// sortRows orders s.rows through the entries. The NULLs of the first key
// take one end of the entries and every other row the rest, so only
// non-NULL keys need an order among themselves.
func (s *Sort) sortRows() error {
	rows := s.rows
	if len(rows) > math.MaxInt32 {
		return fmt.Errorf("exec: cannot sort %d rows", len(rows))
	}
	idx, desc := s.Keys[0].Idx, s.Keys[0].Desc
	nulls := 0
	for _, r := range rows {
		if r[idx].IsNull() {
			nulls++
		}
	}
	nextVal, nextNull := 0, len(rows)-nulls // where the next non-NULL and NULL entry go
	if !desc {
		nextVal, nextNull = nulls, 0
	}
	ents := slices.Grow(s.ents[:0], len(rows))[:len(rows)]
	s.ents = ents[:0]
	valEnts := ents[nextVal : nextVal+len(rows)-nulls]
	nullEnts := ents[nextNull : nextNull+nulls]
	// A tie runs the row comparator unless equal keys prove equal rows: a
	// single key whose values all key exactly.
	multi := len(s.Keys) > 1
	tieCmp := multi
	var first types.Value
	for i, r := range rows {
		v := r[idx]
		if v.IsNull() {
			ents[nextNull] = sortEntry{i: int32(i)}
			nextNull++
			continue
		}
		if first.IsNull() {
			first = v
		} else if !types.Comparable(v, first) {
			_, err := types.Compare(v, first)
			return err
		}
		k, exact := types.OrderKey(v)
		tieCmp = tieCmp || !exact
		if desc {
			k = ^k
		}
		ents[nextVal] = sortEntry{k: k, i: int32(i)}
		nextVal++
	}
	var err error
	sortEntries(valEnts, rows, tieCmp, s.cmp, &err)
	if multi {
		sortEntries(nullEnts, rows, true, s.cmp, &err)
	}
	if err != nil {
		return err
	}
	permute(rows, ents)
	return nil
}

// sortEntries orders entries by key, then (when tieCmp) by the row
// comparator, then by input position.
func sortEntries(ents []sortEntry, rows []types.Row, tieCmp bool, cmp rowCompare, errOut *error) {
	slices.SortFunc(ents, func(a, b sortEntry) int {
		if a.k != b.k {
			if a.k < b.k {
				return -1
			}
			return 1
		}
		if tieCmp {
			if c := cmp(rows[a.i], rows[b.i], errOut); c != 0 {
				return c
			}
		}
		return int(a.i - b.i)
	})
}

// permute moves rows[ents[p].i] to position p for every p, in place: it
// follows each cycle of the permutation once, marking an entry done by
// pointing it at its own position.
func permute(rows []types.Row, ents []sortEntry) {
	for p := range ents {
		if int(ents[p].i) == p {
			continue
		}
		held, q := rows[p], p
		for {
			src := int(ents[q].i)
			ents[q].i = int32(q)
			if src == p {
				rows[q] = held
				break
			}
			rows[q] = rows[src]
			q = src
		}
	}
}

func compareNullsFirst(a, b types.Value, errOut *error) int {
	switch {
	case a.IsNull() && b.IsNull():
		return 0
	case a.IsNull():
		return -1
	case b.IsNull():
		return 1
	}
	c, err := types.CompareOrder(a, b)
	if err != nil && *errOut == nil {
		*errOut = err
	}
	return c
}

// NextBatch implements Plan.
func (s *Sort) NextBatch(*Context) ([]types.Row, error) {
	return sliceBatch(s.rows, &s.pos), nil
}

// takeRows hands the rows not yet served to the caller, who then owns
// them and their headers: the Sort forgets them.
func (s *Sort) takeRows() []types.Row {
	rows := s.rows[s.pos:]
	s.rows = nil
	return rows
}

// Close implements Plan. The row headers keep their capacity for reopen,
// cleared so that an idle pooled plan pins no row values.
func (s *Sort) Close() error {
	clear(s.rows)
	s.rows = s.rows[:0]
	return s.Child.Close()
}

// Explain implements Plan.
func (s *Sort) Explain() string { return fmt.Sprintf("Sort %v", s.Keys) }

// Children implements Plan.
func (s *Sort) Children() []Plan { return []Plan{s.Child} }

// ---------------------------------------------------------------------------
// Grouping and aggregation
// ---------------------------------------------------------------------------

// AggKind mirrors qgm aggregate kinds at the physical level.
type AggKind uint8

// Aggregate kinds.
const (
	AggCount AggKind = iota
	AggCountStar
	AggSum
	AggAvg
	AggMin
	AggMax
)

// AggDef is one aggregate: ArgIdx indexes the child row (-1 for COUNT(*)).
type AggDef struct {
	Kind     AggKind
	ArgIdx   int
	Distinct bool
}

// GroupAgg groups child rows by key columns and computes aggregates.
// Output rows are key values followed by aggregate values. With no keys it
// emits exactly one row (aggregates over the whole input, zero-row safe).
// Input drains batch-at-a-time with a reusable key scratch row; keys are
// cloned only when a new group appears.
type GroupAgg struct {
	Child   Plan
	KeyIdxs []int
	Aggs    []AggDef
	Out     types.Schema
	// DOP, when > 1, aggregates in parallel: DOP workers each drain a clone
	// of Child (whose morsel leaves share one dispatcher) into a private
	// group table, and Open merges the worker tables at drain. Merged groups
	// emit in canonical encoded-key order so results are deterministic
	// across DOP values; the serial path keeps first-seen order.
	DOP    int
	groups []types.Row
	pos    int
}

// Schema implements Plan.
func (g *GroupAgg) Schema() types.Schema { return g.Out }

// aggState is one aggregate's running state. Each kind folds only what it
// reads: COUNT counts; SUM adds into val, and AVG also counts; MIN and MAX
// keep their extreme in val. val stays NULL until a value arrives.
type aggState struct {
	count int64
	val   types.Value
	seen  map[uint64][]types.Value // DISTINCT tracking
}

// observe folds one non-NULL value into the state. For DISTINCT aggregates
// it is also the merge primitive: replaying one worker's seen set into
// another state deduplicates across workers exactly like within one.
func (st *aggState) observe(v types.Value, def AggDef) error {
	if def.Distinct {
		vh := v.Hash()
		for _, prev := range st.seen[vh] {
			if types.Equal(prev, v) {
				return nil
			}
		}
		st.seen[vh] = append(st.seen[vh], v)
	}
	st.count++
	return st.fold(v, def.Kind)
}

// fold combines v — one input value, or another state's val — into val as
// the kind reads it.
func (st *aggState) fold(v types.Value, kind AggKind) error {
	switch kind {
	case AggSum, AggAvg:
		if !v.IsNumeric() {
			return fmt.Errorf("exec: SUM and AVG need numeric values, got %s", v.Kind())
		}
		if st.val.IsNull() {
			st.val = v
			return nil
		}
		sum, err := types.Arith("+", st.val, v)
		if err != nil {
			return err
		}
		st.val = sum
	case AggMin, AggMax:
		if st.val.IsNull() {
			st.val = v
			return nil
		}
		if c, err := types.CompareOrder(v, st.val); err == nil && (kind == AggMin && c < 0 || kind == AggMax && c > 0) {
			st.val = v
		}
	}
	return nil
}

// mergeAggState folds one worker's state into another. Non-distinct states
// combine their summaries directly; distinct states replay the source's
// value set through observe, which re-deduplicates against the destination.
func mergeAggState(dst, src *aggState, def AggDef) error {
	if def.Distinct {
		for _, vals := range src.seen {
			for _, v := range vals {
				if err := dst.observe(v, def); err != nil {
					return err
				}
			}
		}
		return nil
	}
	dst.count += src.count
	if src.val.IsNull() {
		return nil
	}
	return dst.fold(src.val, def.Kind)
}

// aggGroup is one group's key, its hash and its aggregate states.
type aggGroup struct {
	h      uint64
	key    types.Row
	states []aggState
}

// groupTable is the aggregation hash table one drain writes into. The serial
// path uses one; the parallel path gives each worker its own and merges them
// at drain, so workers never synchronize per row. Groups live in first-seen
// order; slots index them by open addressing from the top hash bits, like
// hashTable's buckets, probing linearly (-1 is an empty slot), and double
// once half full.
type groupTable struct {
	keyIdxs []int
	aggs    []AggDef
	slots   []int32
	shift   uint // 64 - log2(len(slots))
	order   []*aggGroup
	scratch types.Row
}

func newGroupTable(keyIdxs []int, aggs []AggDef) *groupTable {
	gt := &groupTable{keyIdxs: keyIdxs, aggs: aggs, scratch: make(types.Row, len(keyIdxs))}
	gt.resize(4)
	return gt
}

// resize rebuilds the slots at 1<<bits and re-enters every group.
func (gt *groupTable) resize(bits uint) {
	gt.shift = 64 - bits
	gt.slots = make([]int32, 1<<bits)
	for i := range gt.slots {
		gt.slots[i] = -1
	}
	mask := len(gt.slots) - 1
	for gi, gr := range gt.order {
		i := int(gr.h >> gt.shift)
		for gt.slots[i] >= 0 {
			i = (i + 1) & mask
		}
		gt.slots[i] = int32(gi)
	}
}

// newGroup appends an empty group under key (which must be safe to retain).
func (gt *groupTable) newGroup(h uint64, key types.Row) *aggGroup {
	gr := &aggGroup{h: h, key: key, states: make([]aggState, len(gt.aggs))}
	for i := range gr.states {
		if gt.aggs[i].Distinct {
			gr.states[i].seen = map[uint64][]types.Value{}
		}
	}
	gt.order = append(gt.order, gr)
	return gr
}

// group returns the group for key (hash h), entering a new one when none
// matches; the new group keeps key itself, or a clone of it when clone is
// set.
func (gt *groupTable) group(h uint64, key types.Row, clone bool) *aggGroup {
	mask := len(gt.slots) - 1
	i := int(h >> gt.shift)
	for ; gt.slots[i] >= 0; i = (i + 1) & mask {
		if gr := gt.order[gt.slots[i]]; gr.h == h && gr.key.Equal(key) {
			return gr
		}
	}
	if clone {
		key = key.Clone()
	}
	gr := gt.newGroup(h, key)
	gt.slots[i] = int32(len(gt.order) - 1)
	if 2*len(gt.order) > len(gt.slots) {
		gt.resize(64 - gt.shift + 1)
	}
	return gr
}

// add folds a batch of input rows into their groups.
func (gt *groupTable) add(batch []types.Row) error {
	for _, row := range batch {
		for i, k := range gt.keyIdxs {
			gt.scratch[i] = row[k]
		}
		gr := gt.group(gt.scratch.Hash(), gt.scratch, true)
		for i, def := range gt.aggs {
			st := &gr.states[i]
			if def.Kind == AggCountStar {
				st.count++
				continue
			}
			v := row[def.ArgIdx]
			if v.IsNull() {
				continue
			}
			if err := st.observe(v, def); err != nil {
				return err
			}
		}
	}
	return nil
}

// merge folds another worker's table into this one.
func (gt *groupTable) merge(o *groupTable) error {
	for _, og := range o.order {
		gr := gt.group(og.h, og.key, false)
		for i, def := range gt.aggs {
			if err := mergeAggState(&gr.states[i], &og.states[i], def); err != nil {
				return err
			}
		}
	}
	return nil
}

// finish turns a drained group table into output rows, handling the
// zero-row no-key case. canonical orders groups by encoded key so parallel
// drains emit deterministically regardless of worker interleaving.
func (g *GroupAgg) finish(gt *groupTable, canonical bool) error {
	if len(g.KeyIdxs) == 0 && len(gt.order) == 0 {
		gt.newGroup(0, types.Row{})
	}
	if canonical {
		enc := make([]string, len(gt.order))
		for i, gr := range gt.order {
			enc[i] = string(types.EncodeKey(gr.key))
		}
		sort.Sort(&groupsByKey{order: gt.order, enc: enc})
	}
	for _, gr := range gt.order {
		out := make(types.Row, 0, len(gr.key)+len(g.Aggs))
		out = append(out, gr.key...)
		for i, def := range g.Aggs {
			st := &gr.states[i]
			switch def.Kind {
			case AggCount, AggCountStar:
				out = append(out, types.NewInt(st.count))
			case AggSum, AggMin, AggMax:
				out = append(out, st.val)
			case AggAvg:
				if st.count == 0 {
					out = append(out, types.Null())
				} else {
					avg, err := types.Arith("/", types.NewFloat(st.val.Float()), types.NewFloat(float64(st.count)))
					if err != nil {
						return err
					}
					out = append(out, avg)
				}
			}
		}
		g.groups = append(g.groups, out)
	}
	return nil
}

// groupsByKey sorts groups and their encoded keys together.
type groupsByKey struct {
	order []*aggGroup
	enc   []string
}

func (s *groupsByKey) Len() int           { return len(s.order) }
func (s *groupsByKey) Less(i, k int) bool { return s.enc[i] < s.enc[k] }
func (s *groupsByKey) Swap(i, k int) {
	s.order[i], s.order[k] = s.order[k], s.order[i]
	s.enc[i], s.enc[k] = s.enc[k], s.enc[i]
}

// Open implements Plan.
func (g *GroupAgg) Open(ctx *Context) error {
	g.pos = 0
	g.groups = g.groups[:0]
	// A morsel-leafed child always drains through the worker path (a lone
	// worker still needs the dispatcher wired); without a morsel leaf the
	// input cannot split — DOP clones would each see the whole input and
	// double-count — so the child drains serially whatever DOP says.
	if hasMorselLeaf(g.Child) {
		return g.openParallel(ctx)
	}
	if err := g.Child.Open(ctx); err != nil {
		return err
	}
	gt := newGroupTable(g.KeyIdxs, g.Aggs)
	if err := forEachBatch(ctx, g.Child, gt.add); err != nil {
		return err
	}
	return g.finish(gt, false)
}

// openParallel runs the parallel aggregation: DOP workers drain clones of
// the child pipeline into private group tables, merged after the barrier.
// The child template itself never opens.
func (g *GroupAgg) openParallel(ctx *Context) error {
	dop := g.DOP
	if dop < 1 {
		dop = 1
	}
	workers, err := cloneWorkers(g.Child, dop)
	if err != nil {
		return err
	}
	tables := make([]*groupTable, len(workers))
	errs := make([]error, len(workers))
	stats := make([]*Stats, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w Plan) {
			defer wg.Done()
			defer RecoverTo(&errs[i])
			wctx := workerContext(ctx)
			stats[i] = wctx.Stats
			gt := newGroupTable(g.KeyIdxs, g.Aggs)
			tables[i] = gt
			errs[i] = func() error {
				if err := w.Open(wctx); err != nil {
					return err
				}
				defer w.Close()
				return forEachBatch(wctx, w, gt.add)
			}()
		}(i, w)
	}
	wg.Wait()
	for _, st := range stats {
		ctx.Stats.add(st)
	}
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	gt := tables[0]
	for _, o := range tables[1:] {
		if err := gt.merge(o); err != nil {
			return err
		}
	}
	return g.finish(gt, true)
}

// NextBatch implements Plan.
func (g *GroupAgg) NextBatch(*Context) ([]types.Row, error) {
	return sliceBatch(g.groups, &g.pos), nil
}

// Close implements Plan.
func (g *GroupAgg) Close() error { g.groups = nil; return g.Child.Close() }

// Explain implements Plan.
func (g *GroupAgg) Explain() string {
	out := fmt.Sprintf("GroupAgg keys=%v aggs=%d", g.KeyIdxs, len(g.Aggs))
	if g.DOP > 1 {
		out += fmt.Sprintf(" (parallel=%d)", g.DOP)
	}
	return out
}

// Children implements Plan.
func (g *GroupAgg) Children() []Plan { return []Plan{g.Child} }

// Collect drains a plan into a row slice (convenience for engine and tests),
// copying every row out of the batch that carried it. A Sort root already
// holds copies, so Collect takes its rows instead (takeRows).
func Collect(ctx *Context, p Plan) ([]types.Row, error) {
	if err := p.Open(ctx); err != nil {
		return nil, err
	}
	defer p.Close()
	if s, ok := p.(*Sort); ok {
		return s.takeRows(), nil
	}
	rows, err := drainCopies(ctx, p, nil)
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// forEachBatch calls fn on every remaining batch of an opened plan, polling
// for cancellation before each pull.
func forEachBatch(ctx *Context, p Plan, fn func([]types.Row) error) error {
	for {
		if err := ctx.Interrupted(); err != nil {
			return err
		}
		batch, err := p.NextBatch(ctx)
		if err != nil || len(batch) == 0 {
			return err
		}
		if err := fn(batch); err != nil {
			return err
		}
	}
}

// drainCopies appends a copy of every remaining row of an opened plan to
// rows (keepBatch).
func drainCopies(ctx *Context, p Plan, rows []types.Row) ([]types.Row, error) {
	err := forEachBatch(ctx, p, func(batch []types.Row) error {
		rows = keepBatch(rows, batch)
		return nil
	})
	return rows, err
}

package exec

// Morsel-driven intra-query parallelism (Leis et al., SIGMOD 2014). A
// parallel plan runs DOP clones of a pipeline segment — scans, filters,
// projections, hash-join probes — each fed page-range morsels from a shared
// atomic dispatcher, and a Gather operator funnels the workers' batches back
// into the serial NextBatch contract. Everything above the Gather (Sort,
// GroupAgg drains, Limit, Distinct, the XNF machinery, EXISTS drivers) is an
// untouched serial consumer.
//
// Shared per-execution state is wired by cloneWorkers: each MorselScan
// position in the template gets one dispatcher shared by all worker clones
// (so the table is scanned exactly once), and each shared-build HashJoin
// position gets one sharedBuild whose table is built in parallel — workers
// fill per-worker build sinks, then one pass writes their entries into the
// table and indexes them from its bucket array (see sharedBuild.run).

import (
	"fmt"
	"sync"

	"sqlxnf/internal/catalog"
	"sqlxnf/internal/types"
)

// add folds another worker's counters into s. Callers serialize: merges run
// on the consumer goroutine after the workers' WaitGroup has drained.
func (s *Stats) add(o *Stats) {
	if s == nil || o == nil {
		return
	}
	s.RowsScanned += o.RowsScanned
	s.RowsEmitted += o.RowsEmitted
	s.IndexProbes += o.IndexProbes
	s.SubqueryRuns += o.SubqueryRuns
}

// ---------------------------------------------------------------------------
// MorselScan
// ---------------------------------------------------------------------------

// MorselScan is the parallel counterpart of SeqScan: a scan leaf that reads
// whatever page-range morsels it can claim from a dispatcher shared with its
// sibling worker clones, so together they scan the table exactly once. It
// runs SeqScan's page-claim loop; decoding goes through a private
// MorselReader arena, so workers share no allocation state. A MorselScan
// only executes inside a parallel operator (Gather or a parallel
// GroupAgg/hash-join build), which wires the shared dispatcher before Open.
type MorselScan struct {
	Table *catalog.Table
	// EstRows is the optimizer's output-cardinality estimate (0 = unknown).
	EstRows float64
	// Cols and WithRID: see SeqScan.
	Cols    []int
	WithRID bool

	pageScan // disp is wired by cloneWorkers
}

// Schema implements Plan.
func (s *MorselScan) Schema() types.Schema { return scanSchema(s.Table, s.Cols, s.WithRID) }

// Open implements Plan.
func (s *MorselScan) Open(ctx *Context) error {
	if s.disp == nil {
		return fmt.Errorf("exec: MorselScan of %s opened outside a parallel execution (no dispatcher wired)", s.Table.Name)
	}
	s.open(ctx, s.Table, s.Cols, s.WithRID)
	return nil
}

// NextBatch implements Plan.
func (s *MorselScan) NextBatch(ctx *Context) ([]types.Row, error) { return s.next(ctx) }

// Explain implements Plan.
func (s *MorselScan) Explain() string {
	return "MorselScan " + s.Table.Name + colsSuffix(s.Table, s.Cols) + estSuffix(s.EstRows) + ridSuffix(s.WithRID)
}

// Children implements Plan.
func (s *MorselScan) Children() []Plan { return nil }

// Clone implements Cloneable. The shared dispatcher is per-execution state
// and is wired by cloneWorkers, never copied.
func (s *MorselScan) Clone() Plan {
	return &MorselScan{Table: s.Table, EstRows: s.EstRows, Cols: s.Cols, WithRID: s.WithRID}
}

// ---------------------------------------------------------------------------
// Worker cloning and shared-state wiring
// ---------------------------------------------------------------------------

// cloneWorkers clones a worker-pipeline template n times and wires the
// per-execution shared state across the clones: every MorselScan position in
// the template gets one fresh dispatcher shared by all n clones, and every
// shared-build HashJoin position gets one sharedBuild. The template itself is
// never executed, so pooled prepared-plan instances that run concurrently in
// different sessions never share runtime state.
func cloneWorkers(template Plan, n int) ([]Plan, error) {
	workers := make([]Plan, n)
	for i := range workers {
		w, ok := ClonePlan(template)
		if !ok {
			return nil, fmt.Errorf("exec: parallel worker pipeline is not cloneable")
		}
		workers[i] = w
	}
	var wire func(tmpl Plan, clones []Plan)
	wire = func(tmpl Plan, clones []Plan) {
		switch tn := tmpl.(type) {
		case *Gather:
			// A nested Gather wires its own workers at Open; its subtree is
			// not this worker set's to share.
			return
		case *MorselScan:
			disp := tn.Table.Heap.MorselDispatcher(0)
			for _, c := range clones {
				c.(*MorselScan).disp = disp
			}
			return
		case *HashJoin:
			if tn.Shared {
				sb := newSharedBuild(tn, n)
				sub := make([]Plan, len(clones))
				for i, c := range clones {
					cj := c.(*HashJoin)
					cj.shared = sb
					sub[i] = cj.Left
				}
				// The build side belongs to the sharedBuild (which clones it
				// afresh); the workers' own Right subtrees never open, so only
				// the probe side needs wiring.
				wire(tn.Left, sub)
				return
			}
		}
		kids := tmpl.Children()
		for ki := range kids {
			sub := make([]Plan, len(clones))
			for i, c := range clones {
				sub[i] = c.Children()[ki]
			}
			wire(kids[ki], sub)
		}
	}
	wire(template, workers)
	return workers, nil
}

// hasMorselLeaf reports whether a pipeline contains a MorselScan reachable
// for splitting (and so can usefully run with more than one worker). A
// nested Gather is a boundary, not a leaf: it is a serial consumer whose own
// Open clones and wires its workers.
func hasMorselLeaf(p Plan) bool {
	switch p.(type) {
	case *MorselScan:
		return true
	case *Gather:
		return false
	}
	for _, c := range p.Children() {
		if hasMorselLeaf(c) {
			return true
		}
	}
	return false
}

// workerContext derives a worker's private execution context: everything
// read-only per execution is shared (including the statement's cancellation,
// so each worker observes a cancel at its next batch boundary); statistics
// are private and merged back when the worker finishes.
func workerContext(parent *Context) *Context {
	w := parent.derive()
	w.Stats = &Stats{}
	return w
}

// ---------------------------------------------------------------------------
// Gather
// ---------------------------------------------------------------------------

// gatherMsg is one worker-to-consumer hand-off: a batch of the worker's
// pipeline, or a terminal error. The worker pulls its pipeline again — which
// reuses the batch's memory — only after the consumer signals release.
type gatherMsg struct {
	rows    []types.Row
	err     error
	release chan struct{}
}

// Gather is the pipeline breaker between parallel workers and the serial
// plan above them: Open clones the worker template DOP times (sharing morsel
// dispatchers and hash-join builds across the clones), runs each clone in
// its own goroutine, and NextBatch hands the workers' batches to the
// consumer in arrival order. Each worker keeps one batch in flight: it pulls
// its pipeline again only once the consumer asks for the batch after the
// worker's, so a batch crosses goroutines without a copy and stays valid
// until the Gather's next NextBatch, as the batch contract says. Row order
// across workers is nondeterministic — order-sensitive consumers (Sort with
// a total key order) restore it.
type Gather struct {
	// Child is the worker pipeline template; it is cloned per worker and
	// never opened directly.
	Child Plan
	// DOP is the number of worker goroutines.
	DOP int

	workers  []Plan
	ch       chan gatherMsg
	cancel   chan struct{}
	stopOnce *sync.Once
	// wg is allocated fresh per Open (like ch/cancel): the previous cycle's
	// channel-closer goroutine may still be inside its Wait when a pooled
	// instance reopens, and WaitGroup reuse forbids Add concurrent with a
	// prior Wait. Workers and the closer capture their cycle's pointer.
	wg *sync.WaitGroup
	// Worker stats stay private until every worker has exited (operators
	// above the Gather write the consumer's ctx.Stats concurrently with the
	// workers, so merging from a worker goroutine would race); the consumer
	// folds them in once at end-of-stream, on error, or at Close.
	wstats      []*Stats
	pstats      *Stats
	statsMerged bool
	err         error
	done        bool
	// held is the release channel of the worker whose batch the consumer
	// holds, signalled at the next NextBatch.
	held chan struct{}
}

// NewGather wraps a worker template at the given degree of parallelism.
func NewGather(template Plan, dop int) *Gather {
	return &Gather{Child: template, DOP: dop}
}

// Schema implements Plan.
func (g *Gather) Schema() types.Schema { return g.Child.Schema() }

// Open implements Plan: clone, wire, and launch the workers.
func (g *Gather) Open(ctx *Context) error {
	dop := g.DOP
	if dop < 1 {
		dop = 1
	}
	// Without a morsel leaf there is nothing to split: N workers would each
	// drain a full clone of the pipeline and duplicate every row.
	if dop > 1 && !hasMorselLeaf(g.Child) {
		dop = 1
	}
	workers, err := cloneWorkers(g.Child, dop)
	if err != nil {
		return err
	}
	g.workers = workers
	// One slot per worker: each has at most one message outstanding, so
	// every worker can park its batch while the consumer reads another.
	g.ch = make(chan gatherMsg, dop)
	g.cancel = make(chan struct{})
	g.stopOnce = new(sync.Once)
	g.wg = new(sync.WaitGroup)
	g.pstats = ctx.Stats
	g.wstats = make([]*Stats, len(workers))
	g.statsMerged = false
	g.err = nil
	g.done = false
	g.held = nil
	g.wg.Add(len(workers))
	for i, w := range workers {
		wctx := workerContext(ctx)
		g.wstats[i] = wctx.Stats
		go g.runWorker(w, wctx, g.wg)
	}
	// Close the channel when every worker is done, so NextBatch observes
	// end-of-stream exactly once all batches are delivered.
	go func(ch chan gatherMsg, wg *sync.WaitGroup) {
		wg.Wait()
		close(ch)
	}(g.ch, g.wg)
	return nil
}

// runWorker drives one worker pipeline to completion, handing each batch to
// the consumer and waiting for its release before the next pull. A panic
// in the worker pipeline becomes a plan error on the channel instead of
// crashing the process (the pipeline's Close still runs via drive's defer
// while the panic unwinds).
func (g *Gather) runWorker(w Plan, wctx *Context, wg *sync.WaitGroup) {
	defer wg.Done()
	err := func() (err error) {
		defer RecoverTo(&err)
		return g.drive(w, wctx)
	}()
	if err != nil {
		select {
		case g.ch <- gatherMsg{err: err}:
		case <-g.cancel:
		}
	}
}

func (g *Gather) drive(w Plan, wctx *Context) error {
	if err := w.Open(wctx); err != nil {
		return err
	}
	defer w.Close()
	release := make(chan struct{}, 1)
	for {
		select {
		case <-g.cancel:
			return nil
		default:
		}
		batch, err := w.NextBatch(wctx)
		if err != nil {
			return err
		}
		if len(batch) == 0 {
			return nil
		}
		select {
		case g.ch <- gatherMsg{rows: batch, release: release}:
		case <-g.cancel:
			return nil
		}
		select {
		case <-release:
		case <-g.cancel:
			return nil
		}
	}
}

// shutdown cancels the workers and waits for them to exit; safe to call from
// both the error path and Close.
func (g *Gather) shutdown() {
	if g.cancel == nil {
		return
	}
	g.stopOnce.Do(func() { close(g.cancel) })
	g.wg.Wait()
}

// mergeWorkerStats folds the workers' private counters into the consumer's
// context, exactly once per Open. Callers must have observed all workers
// finished (closed channel, or shutdown's wg.Wait), which orders the
// workers' final Stats writes before this read.
func (g *Gather) mergeWorkerStats() {
	if g.statsMerged {
		return
	}
	g.statsMerged = true
	for _, st := range g.wstats {
		g.pstats.add(st)
	}
}

// NextBatch implements Plan.
func (g *Gather) NextBatch(ctx *Context) ([]types.Row, error) {
	if g.err != nil {
		return nil, g.err
	}
	if g.done {
		return nil, nil
	}
	if g.held != nil {
		g.held <- struct{}{}
		g.held = nil
	}
	msg, ok := <-g.ch
	if !ok {
		g.done = true
		g.mergeWorkerStats()
		return nil, nil
	}
	if msg.err != nil {
		g.err = msg.err
		g.shutdown()
		g.mergeWorkerStats()
		return nil, g.err
	}
	g.held = msg.release
	return msg.rows, nil
}

// Close implements Plan: cancel and reap the workers (each worker closes its
// own pipeline on the way out of its goroutine).
func (g *Gather) Close() error {
	g.shutdown()
	if g.wstats != nil {
		g.mergeWorkerStats()
	}
	g.workers = nil
	return nil
}

// Explain implements Plan.
func (g *Gather) Explain() string { return fmt.Sprintf("Gather (parallel=%d)", g.DOP) }

// Children implements Plan.
func (g *Gather) Children() []Plan { return []Plan{g.Child} }

// Clone implements Cloneable.
func (g *Gather) Clone() Plan {
	child, ok := ClonePlan(g.Child)
	if !ok {
		return nil
	}
	return &Gather{Child: child, DOP: g.DOP}
}

// ---------------------------------------------------------------------------
// Parallel hash-join build
// ---------------------------------------------------------------------------

// sharedBuild is the once-per-execution parallel build of a shared hash-join
// table: all worker clones of a parallel HashJoin point at one sharedBuild,
// and the first clone to Open runs the build — DOP build workers drain
// clones of the build-side pipeline into per-worker build sinks, whose
// entries are then written into one flat chained table. Later clones (and
// the first) probe the same table.
type sharedBuild struct {
	template Plan   // build-side pipeline; cloned per build worker
	keys     []Expr // build key expressions
	dop      int
	hash     func(types.Row) uint64

	mu    sync.Mutex
	built bool
	ht    hashTable
	err   error
}

// newSharedBuild prepares the build for a template join. The build runs with
// n workers when its pipeline has a morsel leaf to split, serially otherwise
// (a small or non-scannable build side costs nothing extra).
func newSharedBuild(j *HashJoin, n int) *sharedBuild {
	dop := 1
	if n > 1 && hasMorselLeaf(j.Right) {
		dop = n
	}
	h := j.hash
	if h == nil {
		h = types.Row.Hash
	}
	return &sharedBuild{template: j.Right, keys: j.RightKeys, dop: dop, hash: h}
}

// table returns the built hash table, running the build on first call.
func (sb *sharedBuild) table(ctx *Context) (*hashTable, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if !sb.built {
		sb.err = sb.run(ctx)
		sb.built = true
	}
	if sb.err != nil {
		return nil, sb.err
	}
	return &sb.ht, nil
}

// run executes the two build phases: the parallel sink fill, then one
// serial pass that writes the sinks' entries into the table and chains them
// from the bucket array — an array store per entry, and walking the sinks in
// order keeps every chain in the serial build's order.
func (sb *sharedBuild) run(ctx *Context) error {
	workers, err := cloneWorkers(sb.template, sb.dop)
	if err != nil {
		return err
	}
	sinks := make([]*buildSink, len(workers))
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
			sinks[i] = newBuildSink(sb.keys, sb.hash)
			errs[i] = func() error {
				if err := w.Open(wctx); err != nil {
					return err
				}
				defer w.Close()
				return sinks[i].drain(wctx, w)
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
	sb.ht.fill(sinks...)
	return nil
}

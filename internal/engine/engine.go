// Package engine ties the substrate together into a working DBMS: sessions,
// strict two-phase locking transactions with write-ahead logging, DDL and
// DML execution, the full compilation pipeline for queries (parse → QGM →
// XNF semantic rewrite → query rewrite → plan optimization → evaluation,
// Fig. 8 of the paper), and the xnf.Host surface the composite-object
// machinery builds on. SQL applications and XNF applications share one
// engine and one database, which is the architecture of Fig. 7.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sqlxnf/internal/catalog"
	"sqlxnf/internal/comat"
	"sqlxnf/internal/exec"
	"sqlxnf/internal/faultinj"
	"sqlxnf/internal/lock"
	"sqlxnf/internal/obs"
	"sqlxnf/internal/optimizer"
	"sqlxnf/internal/parser"
	"sqlxnf/internal/qgm"
	"sqlxnf/internal/rewrite"
	"sqlxnf/internal/storage"
	"sqlxnf/internal/types"
	"sqlxnf/internal/wal"
	"sqlxnf/internal/xnf"
)

// Options configures an engine.
type Options struct {
	// BufferPoolPages sizes the buffer pool (default 256 pages = 1 MiB).
	BufferPoolPages int
	// PlanCacheSize bounds the prepared-plan cache in entries. 0 means the
	// default (128); negative disables plan caching (the cold-compile
	// ablation the benches measure against).
	PlanCacheSize int
	// COCacheBytes bounds the composite-object materialization cache's
	// resident bytes. 0 means the default (comat.DefaultBudget); negative
	// disables CO caching — every TAKE and node reference re-materializes
	// (the cold arm of the e18 experiment).
	COCacheBytes int64
	// Rewrite toggles query-rewrite rules.
	Rewrite rewrite.Options
	// Optimizer toggles plan-optimizer features.
	Optimizer optimizer.Options
	// XNF toggles composite-object evaluation strategies.
	XNF xnf.Options
	// StatementTimeout bounds each statement's execution (0 = unbounded).
	// Sessions may override per-session with SetStatementTimeout.
	StatementTimeout time.Duration
	// LockTimeout bounds each table-lock wait (0 = wait until granted or
	// deadlock). Expiry surfaces as lock.ErrLockTimeout and aborts the
	// statement's transaction like a deadlock does.
	LockTimeout time.Duration
	// FaultInjector arms the engine's fault-injection probe points
	// (internal/faultinj); nil leaves them inert.
	FaultInjector *faultinj.Injector
	// DataDir, when non-empty, makes the engine durable: every WAL record
	// is appended to CRC32C-framed segment files under this directory and
	// commits sync under the Sync policy. Open it with engine.Open —
	// engine.New ignores DataDir.
	DataDir string
	// Sync is the durable commit policy (default wal.SyncGroupCommit);
	// meaningful only with DataDir.
	Sync wal.SyncPolicy
	// WALSegmentBytes rotates WAL segment files at this size (0 = the
	// wal.DefaultSegmentBytes 4 MiB).
	WALSegmentBytes int64
	// CheckpointBytes auto-checkpoints a durable engine once that many log
	// bytes accumulate after the last checkpoint. 0 uses
	// DefaultCheckpointBytes; negative disables auto-checkpointing
	// (explicit CHECKPOINT statements still work).
	CheckpointBytes int64
	// VacuumDeadRows triggers the inline auto-vacuum: once that many
	// unsettled row versions accumulate engine-wide, the next committing
	// session sweeps them (engine/mvcc.go). 0 uses DefaultVacuumDeadRows;
	// negative disables auto-vacuum (Engine.Vacuum still works).
	VacuumDeadRows int
	// DrainTimeout bounds how long Close waits for in-flight statements
	// (already cancelled through their lifecycle contexts) to reach a
	// statement boundary and roll back before sealing the WAL. 0 uses
	// DefaultDrainTimeout.
	DrainTimeout time.Duration
	// SlowQueryThreshold arms per-statement phase tracing and the
	// slow-query log: statements taking at least this long are logged with
	// their text, binds-redacted cache key, phase spans, and plan. 0 (the
	// default) disables tracing entirely — the prepared-hit fast path then
	// pays zero allocations for it.
	SlowQueryThreshold time.Duration
	// SlowQueryLogf receives slow-query records (default log.Printf).
	SlowQueryLogf func(format string, args ...any)
}

// DefaultCheckpointBytes is the auto-checkpoint threshold when unset.
const DefaultCheckpointBytes = 16 << 20

// DefaultDrainTimeout bounds Close's wait for in-flight statements when
// Options.DrainTimeout is unset.
const DefaultDrainTimeout = 5 * time.Second

// ErrClosed is returned by statements issued against a closed engine. The
// network layer maps it to its shutdown error code so clients can fail over.
var ErrClosed = errors.New("engine: database is closed")

// DefaultPlanCacheSize is the prepared-plan cache capacity when unset.
const DefaultPlanCacheSize = 128

// DefaultOptions enables everything at default sizes.
func DefaultOptions() Options {
	return Options{
		BufferPoolPages: 256,
		PlanCacheSize:   DefaultPlanCacheSize,
		Rewrite:         rewrite.DefaultOptions(),
		Optimizer:       optimizer.DefaultOptions(),
		XNF:             xnf.DefaultOptions(),
	}
}

// Engine is one database instance.
type Engine struct {
	mu     sync.Mutex
	disk   *storage.Disk
	bp     *storage.BufferPool
	cat    *catalog.Catalog
	locks  *lock.Manager
	nextTx uint64
	opts   Options
	// plans is the prepared-plan cache (nil when disabled).
	plans *planCache
	// comat is the composite-object materialization cache (nil when
	// disabled): materialized COs with tracked base-table dependencies, and
	// nothing else (see internal/comat and engine/comat.go).
	comat *comat.Cache
	// recovering disables WAL writes while a log replays.
	recovering bool
	// faults is the optional fault injector (nil = probes inert).
	faults *faultinj.Injector
	// log is the write-ahead log, segment files under Options.DataDir; nil
	// on an in-memory engine, which logs nothing. walMu makes (assign the next
	// LSN, append) atomic so the durable byte stream is LSN-ordered;
	// CHECKPOINT holds it across its snapshot so no record can slip between
	// the snapshot and the checkpoint's LSN. lastLSN, under walMu, is the
	// highest LSN assigned, seeded from the log at recovery.
	log     *wal.FileLog
	walMu   sync.Mutex
	lastLSN wal.LSN
	// ckptRunning serializes auto-checkpoints; ckptFailures counts
	// best-effort auto-checkpoints that errored.
	ckptRunning  atomic.Bool
	ckptFailures atomic.Int64
	// recovery describes what Open replayed.
	recovery RecoveryInfo
	// MVCC state (engine/mvcc.go), under mu: activeTx is the set of
	// uncommitted transaction ids; snaps the registered snapshots (keyed by
	// snapshot id) the vacuum horizon respects; snapSeq issues those keys.
	activeTx map[uint64]struct{}
	snaps    map[uint64]*snapshot
	snapSeq  uint64
	// deadRows counts unsettled row versions awaiting vacuum; vacRunning
	// serializes inline sweeps.
	deadRows   atomic.Int64
	vacRunning atomic.Bool
	// Close-with-drain state: closeCtx cancels when Close begins, aborting
	// every in-flight statement through its lifecycle context; stmtGate +
	// closed reject statements arriving after that point with ErrClosed
	// (internal sessions — Close's own checkpoint — bypass the gate); stmtWG
	// counts statements in flight so Close can wait for them to roll back.
	closeCtx    context.Context
	closeCancel context.CancelFunc
	stmtGate    sync.RWMutex
	closed      bool
	stmtWG      sync.WaitGroup
	// met is the engine's observability surface (internal/obs): per-class
	// statement histograms, MVCC/vacuum/eval counters, and the registry
	// behind Engine.Metrics, /metrics, and the unified Stats snapshot.
	met *engineMetrics
}

// New creates an empty database engine.
func New(opts Options) *Engine {
	if opts.BufferPoolPages == 0 {
		opts.BufferPoolPages = 256
	}
	if opts.PlanCacheSize == 0 {
		opts.PlanCacheSize = DefaultPlanCacheSize
	}
	disk := storage.NewDisk()
	bp := storage.NewBufferPool(disk, opts.BufferPoolPages)
	e := &Engine{
		disk:     disk,
		bp:       bp,
		cat:      catalog.New(bp),
		locks:    lock.NewManager(),
		nextTx:   1,
		opts:     opts,
		activeTx: map[uint64]struct{}{},
		snaps:    map[uint64]*snapshot{},
	}
	e.closeCtx, e.closeCancel = context.WithCancel(context.Background())
	if opts.PlanCacheSize > 0 {
		e.plans = newPlanCache(opts.PlanCacheSize, e.cat.TableVersion)
	}
	if opts.COCacheBytes >= 0 {
		e.comat = comat.New(opts.COCacheBytes)
	}
	if opts.FaultInjector != nil {
		e.faults = opts.FaultInjector
		disk.SetFaultInjector(e.faults)
		bp.SetFaultInjector(e.faults)
	}
	e.met = newEngineMetrics(e)
	return e
}

// NewDefault creates an engine with default options.
func NewDefault() *Engine { return New(DefaultOptions()) }

// Catalog exposes the schema registry.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Disk exposes the simulated disk (benches read its I/O counters).
func (e *Engine) Disk() *storage.Disk { return e.disk }

// BufferPool exposes the buffer pool (benches drop it for cold runs).
func (e *Engine) BufferPool() *storage.BufferPool { return e.bp }

// Log exposes the write-ahead log (nil on an in-memory engine).
func (e *Engine) Log() *wal.FileLog { return e.log }

// Locks exposes the lock manager. Robustness tests use its HeldCount /
// TotalHeld hooks to assert that no failed statement leaks a grant.
func (e *Engine) Locks() *lock.Manager { return e.locks }

// Options returns the engine configuration.
func (e *Engine) Options() Options { return e.opts }

// Durable reports whether the engine has a write-ahead log.
func (e *Engine) Durable() bool { return e.log != nil }

// Close shuts the engine down with a drain: new statements are rejected
// with ErrClosed, in-flight statements are cancelled through their
// lifecycle contexts and given Options.DrainTimeout to roll back, and — on
// durable engines that drained cleanly — a final CHECKPOINT folds the log
// away so the next Open replays zero records before the WAL seals.
// Committed transactions are already durable either way; a failed or
// skipped checkpoint only means the next open replays the log suffix.
// Close is idempotent; concurrent and repeat calls return nil.
func (e *Engine) Close() error {
	e.stmtGate.Lock()
	if e.closed {
		e.stmtGate.Unlock()
		return nil
	}
	e.closed = true
	e.stmtGate.Unlock()
	e.closeCancel()
	drain := e.opts.DrainTimeout
	if drain == 0 {
		drain = DefaultDrainTimeout
	}
	done := make(chan struct{})
	go func() {
		e.stmtWG.Wait()
		close(done)
	}()
	drained := false
	timer := time.NewTimer(drain)
	defer timer.Stop()
	select {
	case <-done:
		drained = true
	case <-timer.C:
	}
	if e.log == nil {
		return nil
	}
	if drained {
		// Checkpoint-on-drain. Sessions idling inside explicit transactions
		// still hold exclusive locks; the context bound keeps a blocked
		// checkpoint from wedging Close — it is best-effort by design.
		s := e.Session()
		s.internal = true
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		_, _ = s.ExecContext(ctx, "CHECKPOINT")
		cancel()
	}
	return e.log.Close()
}

// beginStmt admits one statement into the engine: it fails with ErrClosed
// once Close has begun (internal sessions bypass the gate — Close's own
// checkpoint runs after the drain) and otherwise joins the in-flight count
// Close waits on.
func (s *Session) beginStmt() error {
	e := s.eng
	e.stmtGate.RLock()
	if e.closed && !s.internal {
		e.stmtGate.RUnlock()
		return ErrClosed
	}
	e.stmtWG.Add(1)
	e.stmtGate.RUnlock()
	return nil
}

// WALStats describes the engine's write-ahead log state (zero values for
// in-memory engines).
type WALStats struct {
	// Durable reports whether a file-backed log is attached.
	Durable bool
	// Policy is the fsync policy of the durable log.
	Policy wal.SyncPolicy
	// File is the segment-file view: sizes, LSN watermarks, fsync counters.
	File wal.Stats
	// AutoCheckpointFailures counts best-effort auto-checkpoints that
	// errored (the engine keeps running; the log just stays longer).
	AutoCheckpointFailures int64
}

// WALStats snapshots the WAL state for tooling (xnfsh \walstats) and
// benchmarks.
func (e *Engine) WALStats() WALStats {
	var st WALStats
	if e.log != nil {
		st.Durable = true
		st.Policy = e.opts.Sync
		st.File = e.log.Stats()
		st.AutoCheckpointFailures = e.ckptFailures.Load()
	}
	return st
}

// maybeAutoCheckpoint runs a best-effort CHECKPOINT on a fresh session once
// the durable log grows past Options.CheckpointBytes since the last one.
// Failures are counted, not propagated — the commit that triggered the
// check already succeeded.
func (e *Engine) maybeAutoCheckpoint() {
	threshold := e.opts.CheckpointBytes
	if threshold == 0 {
		threshold = DefaultCheckpointBytes
	}
	if e.log == nil || threshold < 0 || e.log.BytesSinceCheckpoint() < threshold {
		return
	}
	if !e.ckptRunning.CompareAndSwap(false, true) {
		return
	}
	defer e.ckptRunning.Store(false)
	if _, err := e.Session().Exec("CHECKPOINT"); err != nil {
		e.ckptFailures.Add(1)
	}
}

// PlanCacheStats snapshots prepared-plan cache counters (zero value when
// the cache is disabled).
func (e *Engine) PlanCacheStats() PlanCacheStats {
	if e.plans == nil {
		return PlanCacheStats{}
	}
	return e.plans.Stats()
}

// Stats is a point-in-time aggregate of every observable engine counter:
// the payload behind the wire server's stats command and ops tooling. All
// fields are plain data, safe to JSON-encode.
type Stats struct {
	// PlanCache is the prepared-plan cache (zero value when disabled).
	PlanCache PlanCacheStats `json:"plan_cache"`
	// COCache is the composite-object materialization cache.
	COCache comat.Stats `json:"co_cache"`
	// WAL is the durable-log state (zero segment state when in-memory).
	WAL WALStats `json:"wal"`
	// Pool counts buffer-pool hits, misses and evictions.
	Pool storage.PoolStats `json:"pool"`
	// PoolPages is the buffer pool's frame capacity.
	PoolPages int `json:"pool_pages"`
	// ActiveTx counts transactions open right now.
	ActiveTx int `json:"active_tx"`
	// DeadRows estimates unsettled row versions awaiting vacuum.
	DeadRows int64 `json:"dead_rows"`
	// UptimeSeconds is the time since the engine was created.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Statements summarizes the per-class latency histograms (classes with
	// no activity are omitted).
	Statements map[string]StatementStats `json:"statements,omitempty"`
	// StatementsTotal counts every governed statement across classes.
	StatementsTotal int64 `json:"statements_total"`
	// StatementsPerSecond is StatementsTotal over uptime.
	StatementsPerSecond float64 `json:"statements_per_second"`
	// SlowStatements counts statements over the slow-query threshold.
	SlowStatements int64 `json:"slow_statements"`
	// WriteConflicts counts writes rejected by first-committer-wins
	// conflict detection.
	WriteConflicts int64 `json:"write_conflicts"`
	// Vacuum counts vacuum sweeps and the versions they reclaimed.
	Vacuum VacuumStats `json:"vacuum"`
	// Eval aggregates XNF evaluator work across every materialization
	// (evaluators themselves are created per TAKE and discarded).
	Eval xnf.EvalStats `json:"xnf_eval"`
	// NavCache aggregates the XNF application-cache counters process-wide
	// (cache instances are per-checkout; the navcache_* counters of
	// internal/cache/obs.go outlive them).
	NavCache NavCacheStats `json:"nav_cache"`
}

// Stats snapshots the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	act := len(e.activeTx)
	e.mu.Unlock()
	stmts, total := e.met.statementStats()
	up := time.Since(e.met.birth).Seconds()
	st := Stats{
		PlanCache:       e.PlanCacheStats(),
		COCache:         e.COCacheStats(),
		WAL:             e.WALStats(),
		Pool:            e.bp.Stats(),
		PoolPages:       e.bp.Capacity(),
		ActiveTx:        act,
		DeadRows:        e.deadRows.Load(),
		UptimeSeconds:   up,
		Statements:      stmts,
		StatementsTotal: total,
		SlowStatements:  e.met.slow.Value(),
		WriteConflicts:  e.met.writeConflicts.Value(),
		Vacuum: VacuumStats{
			Sweeps: e.met.vacSweeps.Value(),
			Purged: e.met.vacPurged.Value(),
			Frozen: e.met.vacFrozen.Value(),
		},
		Eval:     e.met.evalStats(),
		NavCache: navCacheStats(),
	}
	if up > 0 {
		st.StatementsPerSecond = float64(total) / up
	}
	return st
}

// Result is the outcome of one statement.
type Result struct {
	// Schema and Rows carry query output for SELECT (and path) queries.
	Schema types.Schema
	Rows   []types.Row
	// RowsAffected counts DML effects.
	RowsAffected int64
	// CO is the materialized composite object of an XNF TAKE query. It is
	// read-only: a CO-cache hit returns the resident CO, shared with every
	// other checkout. cache.Load (DB.OpenCache) makes a mutable copy.
	CO *xnf.CO
	// Explain carries EXPLAIN text.
	Explain string
	// Stats snapshots evaluator counters for the statement.
	Stats exec.Stats
}

// Session is one client connection with transaction state. Sessions are not
// safe for concurrent use; open one per goroutine.
type Session struct {
	eng  *Engine
	txID uint64
	inTx bool
	// coFetchDepth bounds nested composite-object fetches (engine/comat.go).
	// Atomic because parallel workers resolving node references share the
	// session mid-statement.
	coFetchDepth atomic.Int32
	// sctx is the current statement's lifecycle context (nil outside
	// statements). Written only at statement boundaries by the session
	// goroutine; parallel workers spawned mid-statement read it through
	// values captured before they start, so the writes never race.
	sctx context.Context
	// undo lists what reverses each change the open transaction made,
	// oldest first: rollback walks it in reverse, commit and rollback drop
	// it (engine/dml.go).
	undo undoLog
	// keyBuf and ridBuf are the row writers' reused index-key and probe
	// buffers (checkUnique, addIndexEntries).
	keyBuf []byte
	ridBuf []storage.RID
	// beganLogged marks that this transaction's RecBegin reached the log, so
	// it owes the log a commit or abort record. Begin logging is lazy —
	// appendLog writes it before the first real record — so read-only
	// transactions log nothing and commit without an fsync, keeping
	// durability off the read hot path.
	beganLogged bool
	// stmtTimeout overrides the engine's StatementTimeout for this session
	// (0 = inherit).
	stmtTimeout time.Duration
	// snap is the open transaction's MVCC snapshot (nil outside
	// transactions); scans filter row versions through it (engine/mvcc.go).
	snap *snapshot
	// written tracks the tables this transaction mutated: their versions
	// bump at commit, atomically with the transaction leaving the active
	// set, and the CO cache refuses to serve them to this session meanwhile.
	written map[*catalog.Table]struct{}
	// versWork counts the row versions this transaction leaves for vacuum
	// (delete marks and unfrozen create stamps), folded into the engine's
	// dead-row counter at commit.
	versWork int64
	// internal marks engine-owned sessions (Close's drain checkpoint) that
	// must run after the statement gate shuts and without the close
	// context's cancellation.
	internal bool
	// stmtClass is the running statement's classification, set by the
	// execution paths and read by govern when it records the statement's
	// latency histogram.
	stmtClass stmtClass
	// trace is the running statement's phase trace (nil = tracing off, the
	// default). Written at statement boundaries by govern; span calls all
	// happen on the session goroutine.
	trace *obs.Trace
	// pendingParse carries script parse time measured before govern starts
	// the statement trace; the first governed statement claims it.
	pendingParse time.Duration
}

// Session opens a new session.
func (e *Engine) Session() *Session { return &Session{eng: e} }

// Exec parses and runs a script, returning the last statement's result.
// A script whose cache key hits the prepared-plan cache skips the parser
// entirely: the cache entry proves the text is a single cacheable SELECT, so
// repeated statements go straight to bind-and-execute. Literal extraction
// makes the key parameter-shaped, so statements differing only in constants
// share one entry and the extracted literals bind into the cached plan.
func (s *Session) Exec(sql string) (*Result, error) {
	return s.ExecContext(context.Background(), sql)
}

// ExecContext is Exec under a lifecycle context: cancellation or deadline
// expiry aborts the running statement at its next batch boundary (or lock
// wait), rolls its transaction back, and surfaces the context's error. Each
// statement of a script additionally runs under the per-statement timeout
// (SetStatementTimeout or Options.StatementTimeout), and every statement —
// including the cache fast paths — executes inside the panic-containment
// boundary, so a panicking operator becomes an *exec.PanicError with the
// transaction rolled back and the session still usable.
func (s *Session) ExecContext(ctx context.Context, sql string) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// The fast paths dispatch on the first token: a resident cache entry
	// under the script's key proves the text is a single cacheable
	// statement, so a repeat skips the parser. Any miss (raced
	// invalidation, epoch change, a script with interior ';' — stored keys
	// never hold one) falls through to the parse path, as does every
	// statement that starts with another token.
	if first, err := parser.NewLexer(sql).Next(); err == nil && first.Kind == parser.TokKeyword {
		switch {
		case first.Text == "OUT" && s.eng.comat != nil:
			// A TAKE checkout goes straight to validate-serve under its
			// exact text.
			res, err := s.govern(ctx, sql, func() (*Result, error) {
				return s.execCachedTake("CO:" + stmtText(sql))
			})
			if res != nil || err != nil {
				return res, err
			}
		case first.Text == "SELECT" && s.eng.plans != nil:
			key, binds, _ := planKey(sql)
			if ent := s.eng.plans.peek(key, s.eng.cat.Epoch()); ent != nil && ent.nParams == len(binds) {
				return s.govern(ctx, sql, func() (*Result, error) {
					return s.autocommit(func() (*Result, error) {
						return s.runCachedPlan(ent, binds, nil, sql)
					})
				})
			}
		}
	}
	var parseStart time.Time
	traced := s.eng.opts.SlowQueryThreshold > 0
	if traced {
		parseStart = time.Now()
	}
	stmts, err := parser.ParseScript(sql)
	if traced {
		s.pendingParse = time.Since(parseStart)
	}
	if err != nil {
		return nil, err
	}
	if len(stmts) == 0 {
		return &Result{}, nil
	}
	var last *Result
	for _, st := range stmts {
		r, err := s.govern(ctx, st.Text, func() (*Result, error) {
			return s.execStmt(st)
		})
		if err != nil {
			return nil, err
		}
		last = r
	}
	return last, nil
}

// SetStatementTimeout bounds each of this session's statements (0 restores
// the engine default, Options.StatementTimeout).
func (s *Session) SetStatementTimeout(d time.Duration) { s.stmtTimeout = d }

// statementContext derives the context one statement runs under: the
// caller's context, tightened by the per-statement timeout when configured.
func (s *Session) statementContext(ctx context.Context) (context.Context, context.CancelFunc) {
	d := s.stmtTimeout
	if d == 0 {
		d = s.eng.opts.StatementTimeout
	}
	if d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return ctx, nil
}

// govern runs one statement-shaped unit of work under lifecycle governance:
// it installs the statement context (visible to lock waits, plan execution,
// and composite-object fetches through s.sctx), applies the per-statement
// timeout, and contains panics — a panic unwinding out of fn is converted to
// an *exec.PanicError, the open transaction rolls back (releasing its
// locks), and the session remains usable.
//
// govern is also the statement observation point: every statement (success,
// error, or contained panic) records into its class's latency histogram,
// and — when Options.SlowQueryThreshold arms tracing — carries a phase
// trace that feeds the slow-query log. text is the statement's source for
// that log; the off path costs two time.Now calls and one histogram
// observe.
func (s *Session) govern(ctx context.Context, text string, fn func() (*Result, error)) (res *Result, err error) {
	if err := s.beginStmt(); err != nil {
		return nil, err
	}
	defer s.eng.stmtWG.Done()
	sctx, cancel := s.statementContext(ctx)
	if cancel == nil {
		sctx, cancel = context.WithCancel(sctx)
	}
	defer cancel()
	if !s.internal {
		// A closing engine aborts every in-flight statement through its own
		// lifecycle context.
		stop := context.AfterFunc(s.eng.closeCtx, cancel)
		defer stop()
	}
	prev := s.sctx
	s.sctx = sctx
	s.stmtClass = classOther
	tr := s.traceStmt()
	prevTr := s.trace
	s.trace = tr
	if tr != nil && s.pendingParse > 0 {
		tr.Add(obs.PhaseParse, s.pendingParse)
		s.pendingParse = 0
	}
	start := time.Now()
	defer func() {
		s.sctx = prev
		s.trace = prevTr
		if v := recover(); v != nil {
			res, err = nil, s.containPanic(exec.NewPanicError(v))
		}
		elapsed := time.Since(start)
		s.eng.met.observeStmt(s.stmtClass, elapsed, err != nil)
		if tr != nil {
			// A statement unwinding with an error leaves no dangling span.
			tr.CloseOpen()
			if elapsed >= s.eng.opts.SlowQueryThreshold {
				s.logSlowQuery(text, s.stmtClass, elapsed, tr)
			}
		}
	}()
	return fn()
}

// containPanic restores transactional invariants after a recovered panic:
// whatever the statement did is rolled back and its locks released. The
// recovered error is returned (annotated when the rollback itself failed).
func (s *Session) containPanic(perr *exec.PanicError) error {
	if s.inTx {
		if rbErr := s.rollback(); rbErr != nil {
			return fmt.Errorf("%v (rollback also failed: %v)", perr, rbErr)
		}
		return perr
	}
	// No transaction open at recovery time: nothing logged, but release any
	// stray grants and deregister any stray snapshot defensively so neither
	// can outlive its statement (a pinned snapshot would stall vacuum).
	if s.snap != nil {
		s.eng.finishTx(s.txID, s.snap, nil, false)
		s.snap, s.written, s.versWork = nil, nil, 0
	}
	s.eng.locks.ReleaseAll(s.txID)
	return perr
}

// Query runs a single query statement and returns its result rows.
func (s *Session) Query(sql string) (*Result, error) { return s.Exec(sql) }

// MustExec is a test/example helper that panics on error.
func (s *Session) MustExec(sql string) *Result {
	r, err := s.Exec(sql)
	if err != nil {
		panic(fmt.Sprintf("engine: %v\nSQL: %s", err, sql))
	}
	return r
}

// Engine returns the engine this session belongs to.
func (s *Session) Engine() *Engine { return s.eng }

// InTx reports whether an explicit transaction is open.
func (s *Session) InTx() bool { return s.inTx }

// TxID returns the current transaction id (0 outside transactions).
func (s *Session) TxID() uint64 {
	if s.inTx {
		return s.txID
	}
	return 0
}

// execStmt dispatches one statement, wrapping it in an autocommit
// transaction when none is open.
func (s *Session) execStmt(st parser.ScriptStmt) (*Result, error) {
	switch st.Stmt.(type) {
	case *parser.BeginStmt:
		if s.inTx {
			return nil, fmt.Errorf("engine: transaction already open")
		}
		s.begin()
		return &Result{}, nil
	case *parser.CommitStmt:
		if !s.inTx {
			return nil, fmt.Errorf("engine: no transaction open")
		}
		if err := s.commit(); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *parser.RollbackStmt:
		if !s.inTx {
			return nil, fmt.Errorf("engine: no transaction open")
		}
		err := s.rollback()
		return &Result{}, err
	default:
		return s.autocommit(func() (*Result, error) { return s.dispatch(st) })
	}
}

// autocommit runs one statement inside the session's transaction, opening
// and committing one around it when none is open. A failure rolls the
// transaction back. Inside an explicit transaction the paper's host
// (Starburst) rolls back the statement; we roll back the transaction for
// simplicity and surface that.
func (s *Session) autocommit(fn func() (*Result, error)) (*Result, error) {
	auto := !s.inTx
	if auto {
		s.begin()
	}
	res, err := fn()
	if err != nil {
		if rbErr := s.rollback(); rbErr != nil {
			return nil, fmt.Errorf("%v (rollback also failed: %v)", err, rbErr)
		}
		if auto {
			return nil, err
		}
		return nil, fmt.Errorf("%w (transaction rolled back)", err)
	}
	if auto {
		if cerr := s.commit(); cerr != nil {
			return nil, cerr
		}
	}
	return res, nil
}

func (s *Session) dispatch(st parser.ScriptStmt) (*Result, error) {
	switch stmt := st.Stmt.(type) {
	case *parser.CreateTableStmt:
		s.stmtClass = classDDL
		return s.createTable(stmt, st.Text)
	case *parser.CreateIndexStmt:
		s.stmtClass = classDDL
		return s.createIndex(stmt, st.Text)
	case *parser.CreateViewStmt:
		s.stmtClass = classDDL
		return s.createView(stmt, st.Text)
	case *parser.DropStmt:
		s.stmtClass = classDDL
		return s.drop(stmt, st.Text)
	case *parser.InsertStmt:
		s.stmtClass = classDML
		return s.insert(stmt)
	case *parser.UpdateStmt:
		s.stmtClass = classDML
		return s.update(stmt)
	case *parser.DeleteStmt:
		s.stmtClass = classDML
		return s.deleteStmt(stmt)
	case *parser.SelectStmt:
		// selectStmt classifies from the compiled plan's shape.
		return s.selectStmt(stmt, st.Text)
	case *parser.XNFQuery:
		s.stmtClass = classTake
		return s.xnfQuery(stmt, st.Text)
	case *parser.AnalyzeStmt:
		s.stmtClass = classDDL
		return s.analyze(stmt)
	case *parser.CheckpointStmt:
		s.stmtClass = classDDL
		return s.checkpoint()
	case *parser.ExplainStmt:
		// Dispatched inside the autocommit wrapper: EXPLAIN ANALYZE executes
		// the plan under the transaction's snapshot like any SELECT.
		return s.explain(stmt, st.Text)
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", st.Stmt)
	}
}

// begin starts a transaction. Nothing is logged yet: the RecBegin appends
// lazily before the transaction's first real record. The transaction id and
// its MVCC snapshot are captured atomically (engine.beginTx), so the
// snapshot sees exactly the commits that preceded the allocation.
func (s *Session) begin() {
	s.txID, s.snap = s.eng.beginTx()
	s.inTx = true
	s.undo, s.beganLogged = nil, false
	s.written = nil
	s.versWork = 0
}

// commit ends the transaction. The order is: append the commit record (a
// failed append rolls the transaction back instead — without that record it
// never committed); make the transaction MVCC-visible (finishTx); purge the
// cached COs it made stale; release locks; force the log through the commit
// record; acknowledge. Locks release before the force (early lock release):
// durability is prefix-closed, so syncing this commit's LSN also syncs
// everything the next lock holder depends on. A transaction that logged
// nothing skips the record and the force. See EXECUTOR.md "Commit ordering"
// for what a failed force means.
func (s *Session) commit() error {
	e := s.eng
	if tr := s.trace; tr != nil {
		h := tr.StartSpan(obs.PhaseCommit)
		defer tr.EndSpan(h)
	}
	wrote := s.beganLogged
	var commitLSN wal.LSN
	if wrote {
		var err error
		if commitLSN, err = s.appendLog(wal.Record{Tx: s.txID, Type: wal.RecCommit}); err != nil {
			if rbErr := s.rollback(); rbErr != nil {
				return fmt.Errorf("engine: commit: %w (rollback also failed: %v)", err, rbErr)
			}
			return fmt.Errorf("engine: commit: %w", err)
		}
	}
	// The MVCC commit point — written tables' versions bump and the
	// transaction leaves the active set in one atomic step — precedes lock
	// release: the next writer of any table this transaction touched must
	// observe both the new versions and this commit's visibility.
	e.finishTx(s.txID, s.snap, s.written, true)
	// A CO over a table this commit wrote no longer equals re-evaluation:
	// drop it now rather than at its next checkout.
	if e.comat != nil {
		for t := range s.written {
			e.comat.Purge(t.Name, e.cat.TableVersion)
		}
	}
	if s.versWork > 0 {
		e.deadRows.Add(s.versWork)
	}
	s.snap, s.written, s.versWork, s.undo = nil, nil, 0, nil
	e.locks.ReleaseAll(s.txID)
	s.inTx, s.beganLogged = false, false
	if wrote && e.log != nil {
		var fsyncSpan int
		if tr := s.trace; tr != nil {
			fsyncSpan = tr.StartSpan(obs.PhaseWALFsync)
		}
		err := e.log.Sync(commitLSN)
		if tr := s.trace; tr != nil {
			tr.EndSpan(fsyncSpan)
		}
		if err != nil {
			return fmt.Errorf("engine: commit not durable: %w", err)
		}
		e.maybeAutoCheckpoint()
	}
	e.maybeAutoVacuum()
	return nil
}

// rollback undoes the transaction's effects, newest first, from its own undo
// list. A failed abort-record append is reported once the undo is done;
// recovery skips a transaction with no commit record either way. A
// transaction whose RecBegin never reached the log owes it no abort.
func (s *Session) rollback() error {
	var undoErr error
	for c := len(s.undo) - 1; c >= 0; c-- {
		chunk := s.undo[c]
		for i := len(chunk) - 1; i >= 0; i-- {
			if err := s.reverse(chunk[i]); err != nil && undoErr == nil {
				undoErr = err
			}
		}
	}
	if s.beganLogged {
		if _, err := s.appendLog(wal.Record{Tx: s.txID, Type: wal.RecAbort}); err != nil && undoErr == nil {
			undoErr = fmt.Errorf("engine: logging abort: %w", err)
		}
	}
	// Retire the transaction (no version bumps — nothing it wrote survived)
	// after the undo above, so concurrent snapshots never saw a half-undone
	// state as "committed", and before lock release like commit does.
	s.eng.finishTx(s.txID, s.snap, nil, false)
	s.snap, s.written, s.versWork, s.undo = nil, nil, 0, nil
	s.eng.locks.ReleaseAll(s.txID)
	s.inTx, s.beganLogged = false, false
	return undoErr
}

// appendLog logs rec for the open transaction and returns its LSN (0 on an
// in-memory engine, which has no log). A change's undo entry is pushed
// before this is called (logChange), so a heap change already made is always
// described there; an append error is returned, the statement fails, and its
// transaction rolls back through the normal error path. Recovery replay logs
// nothing.
func (s *Session) appendLog(rec wal.Record) (wal.LSN, error) {
	e := s.eng
	if e.recovering {
		return 0, nil
	}
	e.walMu.Lock()
	defer e.walMu.Unlock()
	return s.appendLogLocked(rec)
}

// appendLogLocked is appendLog for a caller holding walMu (CHECKPOINT). The
// transaction's first record is preceded by its RecBegin.
func (s *Session) appendLogLocked(rec wal.Record) (wal.LSN, error) {
	var appendStart time.Time
	if s.trace != nil {
		appendStart = time.Now()
	}
	var lsn wal.LSN
	var err error
	if !s.beganLogged {
		_, err = s.eng.writeLogLocked(wal.Record{Tx: s.txID, Type: wal.RecBegin})
		s.beganLogged = err == nil
	}
	if err == nil {
		lsn, err = s.eng.writeLogLocked(rec)
	}
	if tr := s.trace; tr != nil {
		// One statement appends many records; accumulate their total.
		tr.Add(obs.PhaseWALAppend, time.Since(appendStart))
	}
	return lsn, err
}

// writeLogLocked assigns rec the next LSN and appends it to the log; walMu
// makes the pair atomic, so the on-disk byte stream is in LSN order. The
// wal.append probe sits on this path, in-memory engines included.
func (e *Engine) writeLogLocked(rec wal.Record) (wal.LSN, error) {
	if err := e.faults.Hit(faultinj.WALAppend); err != nil {
		return 0, err
	}
	if e.log == nil {
		return 0, nil
	}
	e.lastLSN++
	rec.LSN = e.lastLSN
	return rec.LSN, e.log.Append(rec)
}

// lockTable acquires the exclusive table lock writers serialize on, for the
// session's transaction. Readers take no lock: scans filter by the
// statement's MVCC snapshot, so they see a consistent state and never block
// behind writers. The wait is bounded by the statement's lifecycle context
// and, when configured, the engine's LockTimeout; both surface as
// lock.ErrLockTimeout and abort the statement's transaction through the
// normal error path.
func (s *Session) lockTable(name string) error {
	if !s.inTx {
		// Host-surface calls outside statements: single-op autocommit locks
		// are acquired and released by the caller paths; take no lock.
		return nil
	}
	ctx := s.sctx
	if ctx == nil {
		ctx = context.Background()
	}
	if lt := s.eng.opts.LockTimeout; lt > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, lt)
		defer cancel()
	}
	return s.eng.locks.AcquireContext(ctx, s.txID, name)
}

// builder returns a QGM builder wired to this session's XNF node resolver.
func (s *Session) builder() *qgm.Builder {
	return qgm.NewBuilder(s.eng.cat, s.resolveXNFNode)
}

// resolveXNFNode lives in comat.go: node references resolve through the
// composite-object cache to a schema-only handle instead of a row snapshot.

// selectStmt compiles and runs a SELECT through the full pipeline. text is
// the statement's source text when known; it keys the prepared-plan cache
// (empty disables caching, e.g. for nested INSERT ... SELECT bodies and the
// guard-rejection fallback, which must not overwrite the cached entry).
// When literal extraction succeeds, the key is parameter-shaped, the builder
// marks the extracted literals as parameter slots, and the cached template
// binds constants at execute instead of recompiling per literal.
func (s *Session) selectStmt(stmt *parser.SelectStmt, text string) (*Result, error) {
	var key string
	var binds []types.Value
	paramOK := false
	if s.eng.plans != nil && text != "" {
		key, binds, paramOK = planKey(text)
		// Epoch read precedes the lookup AND the cold compile below: a
		// concurrent DDL/ANALYZE between this read and entry insertion makes
		// the new entry conservatively stale (evicted next lookup) rather
		// than silently current.
		epoch := s.eng.cat.Epoch()
		if ent := s.eng.plans.get(key, epoch); ent != nil && ent.nParams == len(binds) {
			return s.runCachedPlan(ent, binds, stmt, text)
		}
	}
	epoch := s.eng.cat.Epoch()
	var optSpan int
	if tr := s.trace; tr != nil {
		optSpan = tr.StartSpan(obs.PhaseOptimize)
	}
	b := s.builder()
	b.ParamLiterals = paramOK
	box, err := b.BuildSelect(stmt)
	if err != nil {
		return nil, err
	}
	if paramOK && !paramSlotsCovered(box, len(binds)) {
		// A literal landed somewhere the builder treats structurally and the
		// slot set no longer matches the extracted vector (defense in depth —
		// the extractor's conservative rules should prevent this). Compile
		// unparameterized under the exact-text key.
		paramOK = false
		key, binds = stmtText(text), nil
		b.ParamLiterals = false
		if box, err = b.BuildSelect(stmt); err != nil {
			return nil, err
		}
	}
	// Node references pull in the base tables behind the referenced XNF
	// views: their version snapshot invalidates the cached plan when a
	// component table changes.
	refDeps, err := s.nodeRefPlanDeps(box)
	if err != nil {
		return nil, err
	}
	if _, err := s.maybeAutoAnalyze(collectBoxTables(box)); err != nil {
		return nil, err
	}
	box = rewrite.Rewrite(box, s.eng.opts.Rewrite)
	plan, info, err := optimizer.CompileWithInfo(box, s.eng.opts.Optimizer)
	if err != nil {
		return nil, err
	}
	s.stmtClass = classifyPlan(plan)
	if tr := s.trace; tr != nil {
		tr.EndSpan(optSpan)
		tr.Key = key
		tr.Plan = exec.Dump(plan)
	}
	schema := box.Out
	if box.HiddenSort > 0 {
		schema = schema[:len(schema)-box.HiddenSort]
	}
	if key != "" && box.NumParams == 0 && !boxSnapshotsData(box) {
		// Cache a template clone; the plan we are about to run stays
		// private to this execution.
		if tmpl, ok := exec.ClonePlan(plan); ok {
			s.eng.plans.put(&planEntry{
				key:     key,
				epoch:   epoch,
				tmpl:    tmpl,
				schema:  schema,
				tables:  collectBoxTables(box),
				nParams: len(binds),
				guards:  info.Guards,
				deps:    refDeps,
				class:   s.stmtClass,
			})
		}
	}
	ctx := s.NewExecContext()
	ctx.Binds = binds
	var execSpan int
	if tr := s.trace; tr != nil {
		execSpan = tr.StartSpan(obs.PhaseExecute)
	}
	rows, err := exec.Collect(ctx, plan)
	if tr := s.trace; tr != nil {
		tr.EndSpan(execSpan)
	}
	if err != nil {
		return nil, err
	}
	return &Result{Schema: schema, Rows: rows, Stats: *ctx.Stats}, nil
}

// runCachedPlan executes a prepared-plan cache entry: re-check the entry's
// bind guards against this execution's bindings, acquire a pooled (or
// freshly cloned) instance, and drive it with the bindings in the execution
// context. A guard rejection means the plan was chosen for constants with
// very different estimated selectivity, so this execution recompiles the
// statement — stmt, or text when the fast path has no AST — fresh (the
// entry stays for conforming bindings).
func (s *Session) runCachedPlan(ent *planEntry, binds []types.Value, stmt *parser.SelectStmt, text string) (*Result, error) {
	if len(binds) != ent.nParams {
		return nil, fmt.Errorf("engine: cached plan for %q expects %d parameters, got %d",
			ent.key, ent.nParams, len(binds))
	}
	s.stmtClass = ent.class
	refreshed, err := s.maybeAutoAnalyze(ent.tables)
	if err != nil {
		return nil, err
	}
	if refreshed {
		// Statistics just refreshed: the entry's epoch stamp is stale (it
		// evicts on next lookup), so this execution plans fresh against the
		// new estimates instead of running a plan costed on drifted stats.
		return s.recompileBound(stmt, text)
	}
	tr := s.trace
	var bindSpan int
	if tr != nil {
		bindSpan = tr.StartSpan(obs.PhaseBind)
	}
	for _, g := range ent.guards {
		t, err := s.eng.cat.Table(g.Table)
		if err != nil || g.Param >= len(binds) || !g.Check(t, binds[g.Param]) {
			if tr != nil {
				tr.EndSpan(bindSpan)
			}
			return s.recompileBound(stmt, text)
		}
	}
	var cacheSpan int
	if tr != nil {
		tr.EndSpan(bindSpan)
		cacheSpan = tr.StartSpan(obs.PhasePlanCache)
	}
	p, ok := ent.acquire()
	if !ok {
		return nil, fmt.Errorf("engine: cached plan for %q is not executable (clone failed)", ent.key)
	}
	ctx := s.NewExecContext()
	ctx.Binds = binds
	var execSpan int
	if tr != nil {
		tr.EndSpan(cacheSpan)
		tr.Key = ent.key
		tr.Plan = exec.Dump(p)
		execSpan = tr.StartSpan(obs.PhaseExecute)
	}
	rows, err := exec.Collect(ctx, p)
	if tr != nil {
		tr.EndSpan(execSpan)
	}
	if err != nil {
		return nil, err
	}
	ent.release(p)
	return &Result{Schema: ent.schema, Rows: rows, Stats: *ctx.Stats}, nil
}

// execCachedTake serves a TAKE checkout straight from the CO cache when key
// has a resident entry the session sees: one probe, and the resident CO
// itself is the result — no parser, no builder, no evaluator, no copy. A
// nil result means "not served": an absent entry, or one this transaction's
// snapshot does not see, leaves the statement to the parse path.
func (s *Session) execCachedTake(key string) (*Result, error) {
	s.stmtClass = classTake
	if tr := s.trace; tr != nil {
		tr.Key = key
	}
	return s.autocommit(func() (*Result, error) {
		// The snapshot is captured (begin) before Get asks s.sees.
		co, ok := s.eng.comat.Get(key, s.eng.cat.Epoch(), s.sees)
		if !ok {
			return nil, nil
		}
		return &Result{CO: co}, nil
	})
}

// recompileBound is the bind-time fallback: compile the statement cold with
// its literals as plain constants. The empty text keeps the fresh plan out
// of the cache — the cached template remains the right plan for bindings
// that pass the guards. The parse path hands over its AST; the fast path
// has only the script text, which parses here.
func (s *Session) recompileBound(stmt *parser.SelectStmt, text string) (*Result, error) {
	if stmt == nil {
		st, err := parser.ParseOne(text)
		if err != nil {
			return nil, err
		}
		sel, ok := st.(*parser.SelectStmt)
		if !ok {
			return nil, fmt.Errorf("engine: %q is not a SELECT", text)
		}
		stmt = sel
	}
	return s.selectStmt(stmt, "")
}

// statsDriftFactor is the auto-ANALYZE trigger: when a table's live row
// count drifts beyond this factor from its last statistics snapshot, the
// snapshot's distinct counts refresh on the next planning touchpoint instead
// of waiting for a manual ANALYZE. Tables that were never ANALYZEd stay
// un-sketched — opting into statistics remains explicit.
const statsDriftFactor = 2

// statsDrifted reports whether the table's live row count left the snapshot
// window in either direction.
func statsDrifted(t *catalog.Table) bool {
	ts := t.Stats()
	if ts == nil {
		return false
	}
	rows := t.RowCount()
	return rows > statsDriftFactor*ts.Rows || ts.Rows > statsDriftFactor*rows
}

// maybeAutoAnalyze refreshes drifted statistics snapshots for the given
// tables, reporting whether any refresh happened (each bumps the catalog
// epoch, invalidating cached plans costed on the stale estimates). The only
// error is a failed log append.
func (s *Session) maybeAutoAnalyze(tables []string) (bool, error) {
	refreshed := false
	for _, tn := range tables {
		t, err := s.eng.cat.Table(tn)
		if err != nil || !statsDrifted(t) {
			continue
		}
		if _, err := s.eng.cat.AnalyzeTable(tn); err == nil {
			refreshed = true
			// Logged like manual ANALYZE so a recovered engine recomputes the
			// same statistics and plans identically.
			if _, err := s.appendLog(wal.Record{Tx: s.txID, Type: wal.RecAnalyze, Table: tn}); err != nil {
				return refreshed, err
			}
		}
	}
	return refreshed, nil
}

// xnfQuery evaluates an XNF composite-object query (TAKE or DELETE). TAKE
// queries check out through the composite-object cache keyed by their exact
// statement text: a repeated checkout whose component tables are unchanged
// serves the cached materialization itself, shared and read-only (an
// application edits a CO through the navigation cache, which copies it);
// DML to any component table invalidates exactly the entries that read it.
func (s *Session) xnfQuery(stmt *parser.XNFQuery, text string) (*Result, error) {
	if stmt.Delete {
		box, err := s.builder().BuildXNF(stmt)
		if err != nil {
			return nil, err
		}
		if err := s.lockSpecTables(box.XNF); err != nil {
			return nil, err
		}
		n, err := xnf.NewEvaluator(s, s.eng.opts.XNF).Delete(box.XNF)
		if err != nil {
			return nil, err
		}
		return &Result{RowsAffected: int64(n)}, nil
	}
	var key string
	if text != "" {
		key = "CO:" + stmtText(text)
	}
	co, _, err := s.fetchCO(key, func() (*qgm.XNFSpec, error) {
		box, err := s.builder().BuildXNF(stmt)
		if err != nil {
			return nil, err
		}
		return box.XNF, nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{CO: co}, nil
}

// lockBoxTables locks every base table under a box, including tables
// reached only through EXISTS subqueries.
func (s *Session) lockBoxTables(box *qgm.Box) error {
	for _, tn := range collectBoxTables(box) {
		if err := s.lockTable(tn); err != nil {
			return err
		}
	}
	return nil
}

// lockSpecTables locks the base tables under every node/edge of a spec.
func (s *Session) lockSpecTables(spec *qgm.XNFSpec) error {
	for _, n := range spec.AllNodes() {
		if n.Def != nil {
			if err := s.lockBoxTables(n.Def); err != nil {
				return err
			}
		}
	}
	for _, e := range spec.AllEdges() {
		for _, u := range e.Using {
			if err := s.lockBoxTables(u.Input); err != nil {
				return err
			}
		}
	}
	return nil
}

// explain renders compilation artifacts for a statement. With Analyze set
// the compiled plan is also executed (inside the statement's transaction,
// like any SELECT) wrapped in instrumentation, and the plan tree carries
// actual per-operator row counts and timings next to the estimates.
func (s *Session) explain(stmt *parser.ExplainStmt, text string) (*Result, error) {
	if _, isSelect := stmt.Target.(*parser.SelectStmt); stmt.Analyze && !isSelect {
		return nil, fmt.Errorf("engine: EXPLAIN ANALYZE supports SELECT queries")
	}
	var box *qgm.Box
	var err error
	switch target := stmt.Target.(type) {
	case *parser.SelectStmt:
		box, err = s.builder().BuildSelect(target)
	case *parser.UpdateStmt:
		box, err = s.targetBox(target.Table, target.Alias, target.Where)
	case *parser.DeleteStmt:
		box, err = s.targetBox(target.Table, target.Alias, target.Where)
	case *parser.XNFQuery:
		box, err := s.builder().BuildXNF(target)
		if err != nil {
			return nil, err
		}
		out := "-- QGM (XNF operator) --\n" + box.Dump()
		for _, n := range box.XNF.AllNodes() {
			if n.Def == nil {
				continue
			}
			plan, _, err := s.nodePlan(n.Def)
			if err != nil {
				return nil, err
			}
			out += "-- node " + n.Name + " --\n" + exec.Dump(plan)
		}
		return &Result{Explain: out}, nil
	default:
		return nil, fmt.Errorf("engine: EXPLAIN supports SELECT, UPDATE, DELETE and XNF queries")
	}
	if err != nil {
		return nil, err
	}
	before := box.Dump()
	box = rewrite.Rewrite(box, s.eng.opts.Rewrite)
	after := box.Dump()
	plan, err := optimizer.CompileWith(box, s.eng.opts.Optimizer)
	if err != nil {
		return nil, err
	}
	if stmt.Analyze {
		return s.explainAnalyze(plan)
	}
	out := "-- QGM --\n" + before + "-- after rewrite --\n" + after + "-- plan --\n" + exec.Dump(plan)
	return &Result{Explain: out}, nil
}

// targetBox builds the target-set query of a searched UPDATE or DELETE (see
// targetRows) for EXPLAIN, which prints its plan without executing anything.
func (s *Session) targetBox(table, alias string, where parser.Expr) (*qgm.Box, error) {
	t, err := s.eng.cat.Table(table)
	if err != nil {
		return nil, err
	}
	return s.builder().BuildTarget(t, alias, where)
}

// explainAnalyze executes a freshly compiled (never cached, never pooled)
// plan wrapped in exec.Instrument and renders the tree with actuals. The
// result rows are drained and discarded — EXPLAIN ANALYZE returns the
// annotated plan, not the data.
func (s *Session) explainAnalyze(plan exec.Plan) (*Result, error) {
	wrapped := exec.Instrument(plan)
	ctx := s.NewExecContext()
	t0 := time.Now()
	rows, err := exec.Collect(ctx, wrapped)
	elapsed := time.Since(t0)
	if err != nil {
		return nil, err
	}
	out := fmt.Sprintf("-- plan (analyzed) --\n%s-- total: rows=%d time=%s --\n",
		exec.Dump(wrapped), len(rows), elapsed.Round(time.Microsecond))
	return &Result{Explain: out}, nil
}

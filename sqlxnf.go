// Package sqlxnf is a from-scratch reproduction of SQL/XNF — "Processing
// Composite Objects as Abstractions over Relational Data" (Mitschang,
// Pirahesh, Pistor, Lindsay, Südkamp; ICDE 1993).
//
// It provides a complete embedded relational engine (storage, B+tree
// indexes, WAL, locking, SQL with views and a cost-based optimizer) plus
// the paper's composite-object extension: the OUT OF ... TAKE constructor
// with RELATE relationships, reachability semantics, XNF views (including
// views over views and recursive composite objects), node/edge restrictions,
// structural projection, path expressions, CO-level DELETE, and the
// pointer-linked application cache with cursors and write-through
// update/connect/disconnect operations.
//
// Quick start:
//
//	db := sqlxnf.Open()
//	db.MustExec(`CREATE TABLE DEPT (dno INT PRIMARY KEY, dname VARCHAR)`)
//	db.MustExec(`INSERT INTO DEPT VALUES (1, 'toys')`)
//	co, _ := db.QueryCO(`OUT OF Xdept AS DEPT TAKE *`)
//	cache, _ := db.OpenCache(co)
package sqlxnf

import (
	"context"
	"fmt"
	"time"

	"sqlxnf/internal/cache"
	"sqlxnf/internal/engine"
	"sqlxnf/internal/faultinj"
	"sqlxnf/internal/optimizer"
	"sqlxnf/internal/types"
	"sqlxnf/internal/wal"
	"sqlxnf/internal/xnf"
)

// Re-exported types: the public API surfaces the engine session, results,
// composite objects and the cache directly.
type (
	// Result is the outcome of one statement: rows for queries, a CO for
	// XNF TAKE queries, affected counts for DML.
	Result = engine.Result
	// Session is one connection with transaction state.
	Session = engine.Session
	// CO is a materialized composite object.
	CO = xnf.CO
	// NodeInstance is one component table of a CO.
	NodeInstance = xnf.NodeInstance
	// EdgeInstance is one relationship of a CO.
	EdgeInstance = xnf.EdgeInstance
	// Cache is the pointer-linked navigation cache over a CO.
	Cache = cache.Cache
	// Cursor iterates cached component tuples.
	Cursor = cache.Cursor
	// Tuple is one cached tuple.
	Tuple = cache.Tuple
	// Row is one tuple of values.
	Row = types.Row
	// Value is one scalar SQL value.
	Value = types.Value
	// Schema describes a rowset.
	Schema = types.Schema
)

// ErrWriteConflict reports a write-write conflict under snapshot isolation:
// the transaction tried to change a row replaced or removed by a
// transaction that committed after its snapshot was taken. The transaction
// has been rolled back; retrying it reads fresh state. Test with errors.Is.
var ErrWriteConflict = engine.ErrWriteConflict

// ErrClosed is returned by statements issued after DB.Close began: the
// engine rejected them at the statement gate. Test with errors.Is.
var ErrClosed = engine.ErrClosed

// EngineStats aggregates every observable engine counter (plan cache, CO
// cache, WAL, buffer pool, MVCC); see DB.Stats and the wire stats command.
type EngineStats = engine.Stats

// Value constructors, re-exported for application code.
var (
	// NewInt builds an integer value.
	NewInt = types.NewInt
	// NewFloat builds a floating-point value.
	NewFloat = types.NewFloat
	// NewString builds a character value.
	NewString = types.NewString
	// NewBool builds a boolean value.
	NewBool = types.NewBool
	// Null builds the SQL NULL.
	Null = types.Null
)

// Option configures Open.
type Option func(*engine.Options)

// WithBufferPool sizes the buffer pool in pages.
func WithBufferPool(pages int) Option {
	return func(o *engine.Options) { o.BufferPoolPages = pages }
}

// WithoutCommonSubexpressions disables node-materialization sharing: every
// XNF relationship re-derives its partner nodes before its connections are
// resolved (the E13 ablation).
func WithoutCommonSubexpressions() Option {
	return func(o *engine.Options) { o.XNF.NoSharedSubexpressions = true }
}

// WithNaiveFixpoint disables semi-naive reachability (ablation).
func WithNaiveFixpoint() Option {
	return func(o *engine.Options) { o.XNF.NaiveFixpoint = true }
}

// WithoutIndexes disables index access paths in the optimizer (ablation).
func WithoutIndexes() Option {
	return func(o *engine.Options) { o.Optimizer.NoIndexes = true }
}

// WithoutPlanCache disables the prepared-plan cache, forcing a full parse →
// build → rewrite → optimize pipeline on every statement (the cold-compile
// ablation of the e15 experiment).
func WithoutPlanCache() Option {
	return func(o *engine.Options) { o.PlanCacheSize = -1 }
}

// WithPlanCacheSize bounds the prepared-plan cache (entries).
func WithPlanCacheSize(entries int) Option {
	return func(o *engine.Options) { o.PlanCacheSize = entries }
}

// WithoutCOCache disables the composite-object materialization cache:
// every XNF TAKE and every FROM "VIEW.NODE" reference re-materializes the
// composite object (the cold arm of the e18 experiment, and the reference
// engine of the XNF differential tests).
func WithoutCOCache() Option {
	return func(o *engine.Options) { o.COCacheBytes = -1 }
}

// WithCOCacheBudget bounds the composite-object cache's resident bytes.
func WithCOCacheBudget(bytes int64) Option {
	return func(o *engine.Options) { o.COCacheBytes = bytes }
}

// WithStatementTimeout bounds every statement's execution; an expired
// statement aborts at its next batch boundary with context.DeadlineExceeded
// and its transaction rolls back. Sessions may override per-session with
// Session.SetStatementTimeout.
func WithStatementTimeout(d time.Duration) Option {
	return func(o *engine.Options) { o.StatementTimeout = d }
}

// WithLockTimeout bounds every table-lock wait; expiry surfaces as
// lock.ErrLockTimeout and aborts the waiting statement's transaction.
func WithLockTimeout(d time.Duration) Option {
	return func(o *engine.Options) { o.LockTimeout = d }
}

// WithVacuumDeadRows sets the auto-vacuum trigger: a commit that brings the
// count of unsettled row versions past n sweeps inline. Negative disables
// auto-vacuum (Engine.Vacuum still works); 0 keeps the default.
func WithVacuumDeadRows(n int) Option {
	return func(o *engine.Options) { o.VacuumDeadRows = n }
}

// WithSlowQueryThreshold arms per-statement phase tracing and the
// slow-query log: any statement taking at least d is logged with its text,
// binds-redacted cache key, phase spans (parse, optimize, bind, execute,
// WAL append/fsync, commit), and plan. Tracing off (the default) costs the
// prepared-hit fast path nothing.
func WithSlowQueryThreshold(d time.Duration) Option {
	return func(o *engine.Options) { o.SlowQueryThreshold = d }
}

// WithSlowQueryLogf routes slow-query records to logf instead of the
// standard logger.
func WithSlowQueryLogf(logf func(format string, args ...any)) Option {
	return func(o *engine.Options) { o.SlowQueryLogf = logf }
}

// SyncPolicy governs when a durable database forces its WAL to disk
// (internal/wal re-exported).
type SyncPolicy = wal.SyncPolicy

// The durability/throughput trade-off points for WithSyncPolicy.
const (
	// SyncGroupCommit (the default) fsyncs once per batch of concurrent
	// committers: full durability for every acknowledged commit, one disk
	// force shared by all commits that arrive while a force is in flight.
	SyncGroupCommit SyncPolicy = wal.SyncGroupCommit
	// SyncAlways forces the log once per commit.
	SyncAlways SyncPolicy = wal.SyncAlways
	// SyncNone never forces; a crash may lose recently acknowledged
	// commits, but the log stays torn-tail-consistent.
	SyncNone SyncPolicy = wal.SyncNone
)

// WithSyncPolicy selects when a durable database forces its WAL to disk.
func WithSyncPolicy(p SyncPolicy) Option {
	return func(o *engine.Options) { o.Sync = p }
}

// WithCheckpointBytes sets the auto-checkpoint threshold: once that many log
// bytes accumulate past the last checkpoint, the next commit triggers one.
// Negative disables auto-checkpointing (CHECKPOINT still works).
func WithCheckpointBytes(n int64) Option {
	return func(o *engine.Options) { o.CheckpointBytes = n }
}

// WithDrainTimeout bounds how long Close waits for cancelled in-flight
// statements to roll back before sealing the WAL (0 keeps the engine
// default, 5s).
func WithDrainTimeout(d time.Duration) Option {
	return func(o *engine.Options) { o.DrainTimeout = d }
}

// FaultInjector is the engine's opt-in fault-injection harness
// (internal/faultinj re-exported for chaos tests and debugging tools).
type FaultInjector = faultinj.Injector

// Fault describes one armed failure at a probe point.
type Fault = faultinj.Fault

// FaultPoint names a probe point for Fault.Point.
type FaultPoint = faultinj.Point

// The engine's probe points, re-exported so external chaos tests can name
// them without reaching into internal/faultinj.
const (
	FaultDiskRead    FaultPoint = faultinj.DiskRead
	FaultDiskWrite   FaultPoint = faultinj.DiskWrite
	FaultBufferFetch FaultPoint = faultinj.BufferFetch
	FaultWALAppend   FaultPoint = faultinj.WALAppend
	FaultComatMat    FaultPoint = faultinj.ComatMat
	FaultWALFsync    FaultPoint = faultinj.WALFsync
	FaultWALOpen     FaultPoint = faultinj.WALOpen
	FaultNetAccept   FaultPoint = faultinj.NetAccept
	FaultNetRead     FaultPoint = faultinj.NetRead
)

// NewFaultInjector builds an empty injector for WithFaultInjector.
func NewFaultInjector() *FaultInjector { return faultinj.New() }

// WithFaultInjector arms the engine's fault-injection probe points (disk
// read/write, buffer-pool fetch, WAL append, CO materialization). Nil (the
// default) leaves the probes inert.
func WithFaultInjector(in *FaultInjector) Option {
	return func(o *engine.Options) { o.FaultInjector = in }
}

var _ = optimizer.DefaultOptions // anchor for godoc cross-reference

// DB is one embedded database instance with a default session.
type DB struct {
	eng *engine.Engine
	def *engine.Session
}

// Open creates an empty in-memory database.
func Open(opts ...Option) *DB {
	o := engine.DefaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	o.DataDir = "" // Open is in-memory by contract; durability goes via OpenDir
	eng := engine.New(o)
	return &DB{eng: eng, def: eng.Session()}
}

// OpenDir opens a durable database rooted at dir, creating it if empty and
// otherwise recovering from its write-ahead log (any torn tail left by a
// crash is truncated in place). Close the returned DB to release the log.
func OpenDir(dir string, opts ...Option) (*DB, error) {
	o := engine.DefaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	o.DataDir = dir
	eng, err := engine.Open(o)
	if err != nil {
		return nil, err
	}
	return &DB{eng: eng, def: eng.Session()}, nil
}

// Close shuts the database down with a drain: new statements fail with
// ErrClosed, in-flight statements are cancelled and given the drain timeout
// (WithDrainTimeout) to roll back, then — for durable instances that
// drained cleanly — a final checkpoint folds the log away before it seals,
// so the next OpenDir replays zero records. Idempotent.
func (db *DB) Close() error { return db.eng.Close() }

// Engine exposes the underlying engine (benchmarks read its I/O counters).
func (db *DB) Engine() *engine.Engine { return db.eng }

// Stats snapshots the engine's observable counters (plan cache, CO cache,
// WAL, buffer pool, MVCC) — the payload the wire server's stats command
// serves.
func (db *DB) Stats() EngineStats { return db.eng.Stats() }

// Session opens an additional session (one per goroutine).
func (db *DB) Session() *Session { return db.eng.Session() }

// Exec runs a SQL/XNF script on the default session and returns the last
// statement's result.
func (db *DB) Exec(sql string) (*Result, error) { return db.def.Exec(sql) }

// ExecContext runs a script under a lifecycle context: cancellation or
// deadline expiry aborts the running statement, rolls its transaction back,
// and surfaces the context's error.
func (db *DB) ExecContext(ctx context.Context, sql string) (*Result, error) {
	return db.def.ExecContext(ctx, sql)
}

// MustExec runs a script, panicking on error (examples and tests).
func (db *DB) MustExec(sql string) *Result { return db.def.MustExec(sql) }

// Query runs a single query statement.
func (db *DB) Query(sql string) (*Result, error) { return db.def.Query(sql) }

// QueryCO runs an XNF TAKE query and returns the materialized composite
// object. The CO is read-only: with the CO cache on, a repeated checkout
// returns the very CO the cache holds, shared with every other checkout.
// OpenCache gives a copy the application may edit.
func (db *DB) QueryCO(sql string) (*CO, error) {
	r, err := db.def.Exec(sql)
	if err != nil {
		return nil, err
	}
	if r.CO == nil {
		return nil, fmt.Errorf("sqlxnf: statement did not produce a composite object")
	}
	return r.CO, nil
}

// OpenCache loads a composite object into the pointer-linked navigation
// cache bound to the default session (write-through operations join that
// session's transactions). The cache copies the CO's rows and link
// attributes, so it is the way to get a mutable copy of a read-only CO.
func (db *DB) OpenCache(co *CO) (*Cache, error) { return cache.Load(db.def, co) }

// QueryCache combines QueryCO and OpenCache: the checked-out CO stays
// read-only, the returned cache is the application's own copy.
func (db *DB) QueryCache(sql string) (*Cache, error) {
	co, err := db.QueryCO(sql)
	if err != nil {
		return nil, err
	}
	return db.OpenCache(co)
}

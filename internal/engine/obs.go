// Engine-level observability: the per-engine metrics registry, statement
// classification and latency histograms, the statement trace / slow-query
// log glue, and the pull-time collectors that fold every pre-existing stats
// surface (plan cache, CO cache, buffer pool, WAL, MVCC, navigation cache)
// into one coherent snapshot.

package engine

import (
	"fmt"
	"log"
	"time"

	"sqlxnf/internal/exec"
	"sqlxnf/internal/obs"
	"sqlxnf/internal/wal"
	"sqlxnf/internal/xnf"
)

// stmtClass buckets statements for the per-class latency histograms: index
// point lookups, scans, joins, DML, composite-object TAKE checkouts, DDL,
// and everything else (transaction control, EXPLAIN).
type stmtClass uint8

const (
	classPoint stmtClass = iota
	classScan
	classJoin
	classDML
	classTake
	classDDL
	classOther
	nStmtClasses
)

var stmtClassNames = [nStmtClasses]string{
	"point", "scan", "join", "dml", "take", "ddl", "other",
}

// classifyPlan buckets a compiled SELECT by its physical shape: any join
// operator anywhere makes it a join; otherwise an index access path makes
// it a point query (range scans over an index count too — the class is an
// access-path bucket, not a cardinality promise); everything else is a
// scan. Computed once per compile and stored on the cache entry, so hit
// executions classify for free.
func classifyPlan(p exec.Plan) stmtClass {
	join, indexed := false, false
	var walk func(exec.Plan)
	walk = func(p exec.Plan) {
		switch p.(type) {
		case *exec.NLJoin, *exec.HashJoin, *exec.IndexJoin:
			join = true
		case *exec.IndexScan:
			indexed = true
		}
		for _, c := range p.Children() {
			walk(c)
		}
	}
	walk(p)
	switch {
	case join:
		return classJoin
	case indexed:
		return classPoint
	default:
		return classScan
	}
}

// engineMetrics is the engine's always-on counter set, owned by one
// *obs.Registry per engine. Everything here is updated with single atomic
// operations: the prepared-hit fast path pays two time.Now calls and one
// histogram observe per statement, nothing more.
type engineMetrics struct {
	reg   *obs.Registry
	birth time.Time

	stmtHist [nStmtClasses]*obs.Histogram
	stmtErrs [nStmtClasses]*obs.Counter
	slow     *obs.Counter

	writeConflicts *obs.Counter
	vacSweeps      *obs.Counter
	vacPurged      *obs.Counter
	vacFrozen      *obs.Counter

	evalNodeQueries *obs.Counter
	evalEdgeQueries *obs.Counter
	evalInlineEdges *obs.Counter
	evalRecomputed  *obs.Counter
	evalFixpoint    *obs.Counter

	walAppend *obs.Histogram
	walFsync  *obs.Histogram
	walBatch  *obs.Histogram
}

// newEngineMetrics builds the registry and registers the pull-time
// collectors that expose the engine's pre-existing stats surfaces.
func newEngineMetrics(e *Engine) *engineMetrics {
	reg := obs.NewRegistry()
	m := &engineMetrics{reg: reg, birth: time.Now()}
	for c := stmtClass(0); c < nStmtClasses; c++ {
		name := stmtClassNames[c]
		m.stmtHist[c] = reg.Histogram("stmt_latency_"+name+"_seconds",
			"statement latency, class "+name)
		m.stmtErrs[c] = reg.Counter("stmt_errors_"+name+"_total",
			"failed statements, class "+name)
	}
	m.slow = reg.Counter("stmt_slow_total", "statements over the slow-query threshold")
	m.writeConflicts = reg.Counter("mvcc_write_conflicts_total",
		"writes rejected by first-committer-wins conflict detection")
	m.vacSweeps = reg.Counter("mvcc_vacuum_sweeps_total", "vacuum sweeps run")
	m.vacPurged = reg.Counter("mvcc_vacuum_purged_total", "row versions purged by vacuum")
	m.vacFrozen = reg.Counter("mvcc_vacuum_frozen_total", "row versions frozen by vacuum")
	m.evalNodeQueries = reg.Counter("xnf_eval_node_queries_total",
		"component-table derivations run by the XNF evaluator")
	m.evalEdgeQueries = reg.Counter("xnf_eval_edge_queries_total",
		"relationship derivations run by the XNF evaluator")
	m.evalInlineEdges = reg.Counter("xnf_eval_inline_edges_total",
		"edges resolved inline during topological extraction")
	m.evalRecomputed = reg.Counter("xnf_eval_recomputed_nodes_total",
		"extra node derivations when common-subexpression sharing is off")
	m.evalFixpoint = reg.Counter("xnf_eval_fixpoint_rounds_total",
		"recursive-edge fixpoint rounds")
	m.walAppend = reg.Histogram("wal_append_latency_seconds",
		"durable WAL record append latency")
	m.walFsync = reg.Histogram("wal_fsync_latency_seconds",
		"durable WAL fsync latency")
	m.walBatch = reg.SizeHistogram("wal_group_commit_batch_size",
		"committers covered per WAL force (leader + followers)")

	reg.RegisterCollector(func() []obs.Sample {
		st := e.Stats()
		up := time.Since(m.birth).Seconds()
		return []obs.Sample{
			{Name: "engine_uptime_seconds", Help: "seconds since the engine started", Value: up, Gauge: true},
			{Name: "engine_active_tx", Help: "transactions open now", Value: float64(st.ActiveTx), Gauge: true},
			{Name: "mvcc_dead_rows", Help: "unsettled row versions awaiting vacuum", Value: float64(st.DeadRows), Gauge: true},
			{Name: "plancache_hits_total", Help: "prepared-plan cache hits", Value: float64(st.PlanCache.Hits)},
			{Name: "plancache_misses_total", Help: "prepared-plan cache misses", Value: float64(st.PlanCache.Misses)},
			{Name: "plancache_evictions_total", Help: "prepared-plan cache evictions", Value: float64(st.PlanCache.Evictions)},
			{Name: "plancache_entries", Help: "prepared-plan cache resident entries", Value: float64(st.PlanCache.Entries), Gauge: true},
			{Name: "comat_hits_total", Help: "CO materialization cache hits", Value: float64(st.COCache.Hits)},
			{Name: "comat_misses_total", Help: "CO materialization cache misses", Value: float64(st.COCache.Misses)},
			{Name: "comat_evictions_total", Help: "CO cache evictions", Value: float64(st.COCache.Evictions)},
			{Name: "comat_invalidations_total", Help: "CO cache dependency invalidations", Value: float64(st.COCache.Invalidations)},
			{Name: "comat_waits_total", Help: "single-flight waits behind another session's materialization", Value: float64(st.COCache.Waits)},
			{Name: "comat_entries", Help: "CO cache resident entries", Value: float64(st.COCache.Entries), Gauge: true},
			{Name: "comat_resident_bytes", Help: "CO cache resident bytes", Value: float64(st.COCache.ResidentBytes), Gauge: true},
			{Name: "pool_hits_total", Help: "buffer-pool page hits", Value: float64(st.Pool.Hits)},
			{Name: "pool_misses_total", Help: "buffer-pool page misses", Value: float64(st.Pool.Misses)},
			{Name: "pool_evictions_total", Help: "buffer-pool page evictions", Value: float64(st.Pool.Evictions)},
			{Name: "wal_appends_total", Help: "durable WAL record appends", Value: float64(st.WAL.File.Appends)},
			{Name: "wal_fsyncs_total", Help: "durable WAL fsyncs issued", Value: float64(st.WAL.File.Syncs)},
			{Name: "wal_fsync_skips_total", Help: "Sync calls covered by another committer's fsync", Value: float64(st.WAL.File.SyncSkips)},
			{Name: "wal_bytes_total", Help: "bytes written to live WAL segments", Value: float64(st.WAL.File.Bytes)},
			{Name: "wal_autockpt_failures_total", Help: "best-effort auto-checkpoints that errored", Value: float64(st.WAL.AutoCheckpointFailures)},
			{Name: "navcache_cursor_opens_total", Help: "XNF application-cache cursor opens (process-wide)", Value: float64(st.NavCache.CursorOpens)},
			{Name: "navcache_cursor_moves_total", Help: "XNF application-cache cursor moves (process-wide)", Value: float64(st.NavCache.CursorMoves)},
			{Name: "navcache_pointer_hops_total", Help: "XNF application-cache pointer dereferences (process-wide)", Value: float64(st.NavCache.PointerHops)},
			{Name: "navcache_writebacks_total", Help: "XNF application-cache write-backs (process-wide)", Value: float64(st.NavCache.WriteBacks)},
		}
	})
	return m
}

// observeStmt records one finished statement into its class histogram.
func (m *engineMetrics) observeStmt(c stmtClass, d time.Duration, failed bool) {
	if c >= nStmtClasses {
		c = classOther
	}
	m.stmtHist[c].Observe(d)
	if failed {
		m.stmtErrs[c].Inc()
	}
}

// addEvalStats folds one evaluator run's counters into the engine
// aggregate. Evaluators are created per materialization and discarded;
// without this their work was invisible.
func (m *engineMetrics) addEvalStats(st *xnf.EvalStats) {
	m.evalNodeQueries.Add(st.NodeQueries)
	m.evalEdgeQueries.Add(st.EdgeQueries)
	m.evalInlineEdges.Add(st.InlineEdges)
	m.evalRecomputed.Add(st.RecomputedNodes)
	m.evalFixpoint.Add(st.FixpointRounds)
}

// evalStats reads the aggregate back as the xnf stats shape.
func (m *engineMetrics) evalStats() xnf.EvalStats {
	return xnf.EvalStats{
		NodeQueries:     m.evalNodeQueries.Value(),
		EdgeQueries:     m.evalEdgeQueries.Value(),
		InlineEdges:     m.evalInlineEdges.Value(),
		RecomputedNodes: m.evalRecomputed.Value(),
		FixpointRounds:  m.evalFixpoint.Value(),
	}
}

// walMetrics bundles the WAL histograms as the wal package's observation
// sink, attached to the file log right after recovery opens it.
func (m *engineMetrics) walMetrics() *wal.Metrics {
	return &wal.Metrics{Append: m.walAppend, Fsync: m.walFsync, BatchSize: m.walBatch}
}

// Metrics exposes the engine's metrics registry: the Prometheus /metrics
// handler, wire-layer histograms, and xnfsh's \metrics all read (and
// register into) this one registry.
func (e *Engine) Metrics() *obs.Registry { return e.met.reg }

// StatementStats summarizes one statement class's latency histogram for
// the Stats snapshot (microsecond quantiles — JSON-friendly integers).
type StatementStats struct {
	Count  int64 `json:"count"`
	Errors int64 `json:"errors"`
	P50US  int64 `json:"p50_us"`
	P99US  int64 `json:"p99_us"`
	MeanUS int64 `json:"mean_us"`
}

// VacuumStats counts vacuum activity for the Stats snapshot.
type VacuumStats struct {
	Sweeps int64 `json:"sweeps"`
	Purged int64 `json:"purged"`
	Frozen int64 `json:"frozen"`
}

// statementStats renders the per-class histogram summaries plus the total
// statement count.
func (m *engineMetrics) statementStats() (map[string]StatementStats, int64) {
	out := make(map[string]StatementStats, nStmtClasses)
	var total int64
	for c := stmtClass(0); c < nStmtClasses; c++ {
		s := m.stmtHist[c].Snapshot()
		if s.Count == 0 && m.stmtErrs[c].Value() == 0 {
			continue
		}
		out[stmtClassNames[c]] = StatementStats{
			Count:  s.Count,
			Errors: m.stmtErrs[c].Value(),
			P50US:  s.P50().Microseconds(),
			P99US:  s.P99().Microseconds(),
			MeanUS: s.Mean().Microseconds(),
		}
		total += s.Count
	}
	return out, total
}

// traceStmt decides whether this statement records a trace: tracing is
// opt-in via Options.SlowQueryThreshold and engine-internal statements
// (the drain checkpoint) never trace.
func (s *Session) traceStmt() *obs.Trace {
	if s.internal || s.eng.opts.SlowQueryThreshold <= 0 {
		return nil
	}
	return obs.NewTrace()
}

// logSlowQuery emits the slow-query record: statement text, binds-redacted
// cache key, phase spans, and the plan when one was captured.
func (s *Session) logSlowQuery(text string, class stmtClass, elapsed time.Duration, tr *obs.Trace) {
	s.eng.met.slow.Inc()
	logf := s.eng.opts.SlowQueryLogf
	if logf == nil {
		logf = log.Printf
	}
	msg := fmt.Sprintf("slow query: %s class=%s stmt=%q", elapsed.Round(time.Microsecond),
		stmtClassNames[class], text)
	if tr.Key != "" {
		msg += fmt.Sprintf(" key=%q", tr.Key)
	}
	if spans := tr.String(); spans != "" {
		msg += " spans: " + spans
	}
	if tr.Plan != "" {
		msg += "\nplan:\n" + tr.Plan
	}
	logf("%s", msg)
}

// NavCacheStats mirrors cache.Stats field-for-field without importing the
// cache package (whose in-package tests import engine). The values come
// from the process-wide obs.Default counters the cache package maintains
// beside its per-instance fields; several engines in one process share
// them.
type NavCacheStats struct {
	CursorOpens int64 `json:"cursor_opens"`
	CursorMoves int64 `json:"cursor_moves"`
	PointerHops int64 `json:"pointer_hops"`
	WriteBacks  int64 `json:"write_backs"`
}

// navCacheStats reads the process-wide XNF application-cache aggregate.
// Get-or-create by name returns the cache package's counters when it is
// linked in, and fresh zero counters (correct: no navigation happened)
// when it is not.
func navCacheStats() NavCacheStats {
	return NavCacheStats{
		CursorOpens: obs.Default.Counter("navcache_cursor_opens_total", "").Value(),
		CursorMoves: obs.Default.Counter("navcache_cursor_moves_total", "").Value(),
		PointerHops: obs.Default.Counter("navcache_pointer_hops_total", "").Value(),
		WriteBacks:  obs.Default.Counter("navcache_writebacks_total", "").Value(),
	}
}

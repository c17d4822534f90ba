package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"sqlxnf"
	"sqlxnf/internal/comat"
	"sqlxnf/internal/obs"
	"sqlxnf/internal/storage"
	"sqlxnf/internal/wal"
	"sqlxnf/internal/wire"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	clients int
	// endToEnd asks for the end-to-end metrics (untraced window, repeated
	// set-up); layers for the per-layer metrics (stats deltas, traced pass,
	// shadows, crash recovery). The driver asks for one at a time.
	endToEnd, layers bool
}

// setUps is how often a run that reports setup_s sets up, to report the
// median: the first is the system the window measures, the rest come after
// it so they neither warm nor fragment the measured process.
const setUps = 3

// workloadResult is one workload's part of the result envelope.
type workloadResult struct {
	Name      string `json:"name"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Wrong     int    `json:"wrong_answers"`
	Samples   int    `json:"latency_samples"`
	// TailPct is the percentile lat_p99_us really is: lower than 99 when the
	// window leaves fewer than ten samples beyond p99 (see tailPercentile).
	TailPct  float64 `json:"lat_p99_us_percentile"`
	WindowS  float64 `json:"window_s"`
	TracedS  float64 `json:"traced_pass_s,omitempty"`
	EndToEnd metrics `json:"end_to_end,omitempty"`
	PerLayer metrics `json:"per_layer,omitempty"`
	// LayerTable is the per-span-name table computed from the trace file;
	// Explain holds EXPLAIN ANALYZE of each scan_agg class, verbatim.
	LayerTable []layerRow        `json:"layer_table,omitempty"`
	Explain    map[string]string `json:"explain_analyze,omitempty"`
	Sizes      map[string]int64  `json:"sizes_bytes"`
}

// snapshot is every always-on counter the harness can read from outside.
type snapshot struct {
	eng  sqlxnf.EngineStats
	srv  wire.Counters
	hist map[string]obs.HistSnapshot
	mem  runtime.MemStats
}

// walFile is the log's segment-file view.
type walFile = wal.Stats

var stmtClasses = []string{"point", "scan", "join", "dml", "take"}

func takeSnapshot(e *env) *snapshot {
	s := &snapshot{eng: e.db.Stats(), srv: e.srv.Counters(), hist: map[string]obs.HistSnapshot{}}
	reg := e.db.Engine().Metrics()
	for _, c := range stmtClasses {
		s.hist[c] = reg.Histogram("stmt_latency_"+c+"_seconds", "").Snapshot()
	}
	s.hist["append"] = reg.Histogram("wal_append_latency_seconds", "").Snapshot()
	s.hist["fsync"] = reg.Histogram("wal_fsync_latency_seconds", "").Snapshot()
	s.hist["batch"] = reg.SizeHistogram("wal_group_commit_batch_size", "").Snapshot()
	runtime.ReadMemStats(&s.mem)
	return s
}

// walWatch follows the log while a window of a writing workload runs. The
// engine's byte counter is the size of the live segments, which a checkpoint
// shrinks, so a delta over the window would be wrong; a look every walPoll
// adds up the growth (checkpoint records included) and counts the
// checkpoints. A read-only workload appends nothing and is not watched, so
// that its window runs with no observer beside the clients.
type walWatch struct {
	stop        chan struct{}
	done        sync.WaitGroup
	bytes       int64
	checkpoints int
}

// walPoll is long against the microseconds a look holds the log's mutex and
// short against the seconds between two checkpoints; what is appended between
// a checkpoint and the look that sees its truncation, at most this long, is
// not counted.
const walPoll = 100 * time.Millisecond

func watchWAL(e *env, w *workload) *walWatch {
	watch := &walWatch{stop: make(chan struct{})}
	if !slices.ContainsFunc(w.classes, func(c classDef) bool { return c.write }) {
		return watch
	}
	prev := e.db.Engine().WALStats().File
	watch.done.Add(1)
	go func() {
		defer watch.done.Done()
		tick := time.NewTicker(walPoll)
		defer tick.Stop()
		for {
			select {
			case <-watch.stop:
				watch.step(&prev, e.db.Engine().WALStats().File)
				return
			case <-tick.C:
				watch.step(&prev, e.db.Engine().WALStats().File)
			}
		}
	}()
	return watch
}

func (w *walWatch) step(prev *walFile, cur walFile) {
	switch {
	case cur.LastCheckpoint != prev.LastCheckpoint && cur.Segments == 1:
		// A checkpoint was appended and the segments before it dropped since
		// the last look: everything live is new.
		w.checkpoints++
		w.bytes += cur.Bytes
	case cur.LastCheckpoint != prev.LastCheckpoint:
		w.checkpoints++
		w.bytes += max(cur.Bytes-prev.Bytes, 0)
	default:
		// A shrink with no new checkpoint is the truncation that follows one
		// seen on the last look; the little appended meanwhile is lost.
		w.bytes += max(cur.Bytes-prev.Bytes, 0)
	}
	*prev = cur
}

func (w *walWatch) close() {
	close(w.stop)
	w.done.Wait()
}

// runWorkload measures one workload on a fresh system.
func runWorkload(w *workload, cfg runConfig) (*workloadResult, error) {
	resetPeakRSS()
	e, setupS, err := setUp(w, cfg.seed, cfg.clients)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	res, err := measure(e, w, cfg)
	if serr := e.stop(); err == nil && serr != nil {
		err = fmt.Errorf("%s shutdown: %w", w.name, serr)
	}
	if err != nil {
		return nil, err
	}
	if cfg.endToEnd {
		times := []float64{setupS}
		for len(times) < setUps {
			e, s, err := setUp(w, cfg.seed, cfg.clients)
			if err != nil {
				return nil, fmt.Errorf("%s repeated set-up: %w", w.name, err)
			}
			if err := e.stop(); err != nil {
				return nil, fmt.Errorf("%s shutdown: %w", w.name, err)
			}
			times = append(times, s)
		}
		res.EndToEnd.set("setup_s", median(times), "s")
	}
	return res, nil
}

// measure runs the window and what follows it on a set-up system.
func measure(e *env, w *workload, cfg runConfig) (*workloadResult, error) {
	window := time.Duration(cfg.seconds * float64(time.Second))
	pass := min(window/4, 8*time.Second)
	if !cfg.endToEnd {
		// Layers only: the window and the two passes share the run's seconds.
		window, pass = window/2, window/4
	}
	before := takeSnapshot(e)
	watch := watchWAL(e, w)
	loop, err := runLoop(e, w, loopSpec{clients: cfg.clients, duration: window})
	watch.close()
	if err != nil {
		return nil, err
	}
	after := takeSnapshot(e)
	rss := peakRSSMB()

	all := loop.samples()
	win := wholeWindow(all, loop.elapsed)
	res := &workloadResult{
		Name: w.name, Attempted: loop.attempted(), Failed: loop.failed(), Wrong: loop.wrong(),
		Samples: len(all), TailPct: 100 * win.p99Q,
		WindowS: loop.elapsed.Seconds(),
		Sizes: map[string]int64{
			"user_data":       e.load.UserBytes,
			"database_pages":  int64(e.db.Engine().Disk().NumPages()) * storage.PageSize,
			"buffer_pool":     int64(after.eng.PoolPages) * storage.PageSize,
			"co_cache_budget": comat.DefaultBudget,
			"co_cache_used":   after.eng.COCache.ResidentBytes,
		},
	}
	if res.Failed > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d of %d operations failed, first: %s\n", w.name, res.Failed, res.Attempted, loop.firstFailure())
	}
	writes := float64(loop.writes())
	failedFrac := ratio(float64(res.Failed), float64(res.Attempted))
	logPerWrite := ratio(float64(watch.bytes), writes)
	if cfg.endToEnd {
		m := metrics{}
		m.set("ops_per_s", win.opsPerS, "1/s")
		m.set("lat_p50_us", us(win.p50NS), "us")
		m.set("lat_p95_us", us(win.p95NS), "us")
		m.set("lat_p99_us", us(win.p99NS), "us")
		m.set("lat_p95_over_p50", ratio(float64(win.p95NS), float64(win.p50NS)), "x")
		m.set("failed_frac", failedFrac, "frac")
		m.set("ok_frac", 1-failedFrac, "frac")
		m.set("log_bytes_per_write", logPerWrite, "B")
		m.set("peak_rss_mb", rss, "MB")
		res.EndToEnd = m
	}
	// A crash copy is recovered after every window that wrote, and whenever
	// the recovery cost is wanted.
	var recoverMsPerMB float64
	if cfg.layers || writes > 0 {
		if recoverMsPerMB, err = checkRecovery(e); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	if cfg.layers {
		m := metrics{}
		m.set("lat_p95_us", us(win.p95NS), "us")
		m.set("lat_p99_us", us(win.p99NS), "us")
		m.set("failed_frac", failedFrac, "frac")
		m.set("log_bytes_per_write", logPerWrite, "B")
		windowDeltas(m, before, after, watch, loop, recoverMsPerMB)
		res.PerLayer = m
		err = layerMetrics(e, w, res, all, pass)
	}
	return res, err
}

// layerMetrics adds the per-layer metrics that take more than the window's
// counters: the window's samples split by class, a timed checkpoint, the two
// single-client passes, and the shadows.
func layerMetrics(e *env, w *workload, res *workloadResult, all []sample, pass time.Duration) error {
	m := res.PerLayer
	for _, name := range classNames() {
		m.set("client."+name+".p50_us", 0, "us")
		m.set("client."+name+".p99_us", 0, "us")
	}
	byClass := make([][]int64, len(w.classes))
	overhead := make([]int64, len(all))
	for i, s := range all {
		byClass[s.class] = append(byClass[s.class], int64(s.rtNS))
		overhead[i] = int64(s.overheadNS)
	}
	m.set("wire.overhead_p50_us", us(percentile(sorted(overhead), 0.5)), "us")
	for c, cd := range w.classes {
		rt := sorted(byClass[c])
		p99, _ := tailPercentile(rt, 0.99)
		m.set("client."+cd.name+".p50_us", us(percentile(rt, 0.5)), "us")
		m.set("client."+cd.name+".p99_us", us(p99), "us")
	}

	c, err := e.dial()
	if err != nil {
		return err
	}
	defer c.Close()
	t0 := time.Now()
	if _, err := c.Exec("CHECKPOINT"); err != nil {
		return fmt.Errorf("%s: checkpoint: %w", w.name, err)
	}
	m.set("engine.checkpoint_ms", float64(time.Since(t0).Nanoseconds())/1e6, "ms")

	// Two single-client passes over the same generator: one plain, as the
	// reference, one traced. Their ratio is what tracing costs.
	plain, err := runLoop(e, w, loopSpec{clients: 1, duration: pass})
	if err != nil {
		return err
	}
	sh := newShadower(e)
	tr := newTracer(w.shadowEvery, sh)
	traced, err := runLoop(e, w, loopSpec{clients: 1, duration: pass, tracer: tr})
	if err != nil {
		return err
	}
	if sh.err != nil {
		return fmt.Errorf("%s: %w", w.name, sh.err)
	}
	if n := plain.failed() + traced.failed(); n > 0 {
		return fmt.Errorf("%s: %d operations failed in the single-client passes: %s%s", w.name, n, plain.firstFailure(), traced.firstFailure())
	}
	res.TracedS = traced.elapsed.Seconds()
	m.set("trace.overhead_frac", 1-ratio(float64(traced.attempted())/traced.elapsed.Seconds(),
		float64(plain.attempted())/plain.elapsed.Seconds()), "frac")

	if err := oneOffShadows(e, m); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}

	// The layer table and the shadow medians are computed from the trace
	// file, not from the memory it was written from.
	path := filepath.Join(outDir, "trace-"+w.name+".jsonl")
	if err := tr.write(path); err != nil {
		return err
	}
	spans, err := readSpans(path)
	if err != nil {
		return err
	}
	res.LayerTable = layerTable(spans)
	for metricName, spanName := range map[string]string{
		"wire.codec_req_us": "wire.codec_req", "wire.codec_resp_us": "wire.codec_resp",
		"parser.parse_us": "parser.parse", "qgm.build_us": "qgm.build",
		"rewrite.rewrite_us": "rewrite.rewrite", "optimizer.compile_us": "optimizer.compile",
		"engine.inproc_exec_us": "engine.inproc_exec",
	} {
		m.set(metricName, spanP50US(res.LayerTable, spanName), "us")
	}
	var respBytes int64
	for _, n := range sh.respBytes {
		respBytes += n
	}
	m.set("wire.resp_bytes_per_op", ratio(float64(respBytes), float64(len(sh.respBytes))), "B")

	if w == scanAgg {
		if res.Explain, err = explainClasses(e, w, c); err != nil {
			return err
		}
	}
	return nil
}

// windowDeltas turns the counters' change over the window into the layer
// metrics that need no shadow.
func windowDeltas(m metrics, before, after *snapshot, watch *walWatch, loop *loopResult, recoverMsPerMB float64) {
	ops := float64(loop.attempted())
	kops := ops / 1000
	writes := float64(loop.writes())
	a, b := &after.eng, &before.eng
	d := func(x, y int64) float64 { return float64(x - y) }
	hist := func(name string) obs.HistSnapshot { return histDelta(before.hist[name], after.hist[name]) }

	m.set("wire.shed_frac", ratio(d(after.srv.ShedBusy, before.srv.ShedBusy), d(after.srv.Requests, before.srv.Requests)), "frac")
	m.set("wire.server_retries_per_kop", ratio(d(after.srv.Retries, before.srv.Retries), kops), "1/kop")

	for _, c := range stmtClasses {
		m.set("engine.stmt_p50_us."+c, us(hist(c).P50().Nanoseconds()), "us")
	}
	hits, misses := d(a.PlanCache.Hits, b.PlanCache.Hits), d(a.PlanCache.Misses, b.PlanCache.Misses)
	m.set("engine.plancache_hit_ratio", ratio(hits, hits+misses), "frac")
	m.set("engine.write_conflicts_per_kop", ratio(d(a.WriteConflicts, b.WriteConflicts), kops), "1/kop")
	m.set("engine.vacuum_purged_per_kop", ratio(d(a.Vacuum.Purged, b.Vacuum.Purged), kops), "1/kop")
	m.set("engine.checkpoints", float64(watch.checkpoints), "count")
	m.set("engine.recover_ms_per_mb", recoverMsPerMB, "ms/MB")

	hits, misses = d(a.Pool.Hits, b.Pool.Hits), d(a.Pool.Misses, b.Pool.Misses)
	m.set("storage.pool_hit_ratio", ratio(hits, hits+misses), "frac")
	m.set("storage.pool_fetches_per_op", ratio(hits+misses, ops), "count")

	m.set("wal.fsyncs_per_commit", ratio(d(a.WAL.File.Syncs, b.WAL.File.Syncs), writes), "count")
	m.set("wal.appends_per_commit", ratio(d(a.WAL.File.Appends, b.WAL.File.Appends), writes), "count")
	batch := hist("batch")
	m.set("wal.group_batch_mean", ratio(float64(batch.SumNS)/1e3, float64(batch.Count)), "count")
	m.set("wal.append_p50_us", us(hist("append").P50().Nanoseconds()), "us")
	m.set("wal.fsync_p50_us", us(hist("fsync").P50().Nanoseconds()), "us")

	co, co0 := &a.COCache, &b.COCache
	hits, misses = d(co.Hits, co0.Hits), d(co.Misses, co0.Misses)
	m.set("comat.hit_ratio", ratio(hits, hits+misses), "frac")
	sh, sm := d(co.SpecHits, co0.SpecHits), d(co.SpecMisses, co0.SpecMisses)
	m.set("comat.spec_hit_ratio", ratio(sh, sh+sm), "frac")
	m.set("comat.invalidations_per_kop", ratio(d(co.Invalidations, co0.Invalidations), kops), "1/kop")
	m.set("comat.evictions_per_kop", ratio(d(co.Evictions, co0.Evictions), kops), "1/kop")
	m.set("comat.resident_mb", float64(co.ResidentBytes)/(1<<20), "MB")
	m.set("xnf.node_queries_per_miss", ratio(d(a.Eval.NodeQueries, b.Eval.NodeQueries), misses), "count")
	m.set("xnf.edge_queries_per_miss", ratio(d(a.Eval.EdgeQueries, b.Eval.EdgeQueries), misses), "count")

	m.set("runtime.alloc_bytes_per_op", ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc), ops), "B")
	m.set("runtime.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC), "count")
	m.set("runtime.gc_pause_total_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6, "ms")
}

// oneOffShadows runs the shadows that are not tied to a sampled operation.
func oneOffShadows(e *env, m metrics) error {
	// A record of the size the workload logs: the mean over the records
	// still in the in-memory log, or a small one if there are none.
	recBytes, n := 0, 0
	for _, r := range e.db.Engine().Log().Records() {
		if r.Type != wal.RecCheckpoint {
			recBytes += len(wal.AppendRecord(nil, r))
			n++
		}
	}
	recBytes = max(recBytes/max(n, 1), 64)
	raw, err := rawCommit(recBytes)
	if err != nil {
		return fmt.Errorf("shadow wal commit: %w", err)
	}
	m.set("wal.raw_commit_us", raw, "us")
	if err := checkoutShadows(e, m); err != nil {
		return fmt.Errorf("shadow checkout: %w", err)
	}
	if err := navShadows(e, m); err != nil {
		return fmt.Errorf("shadow navigation: %w", err)
	}
	return nil
}

// explainClasses asks the server for EXPLAIN ANALYZE of one statement of
// each class.
func explainClasses(e *env, w *workload, c *wire.Client) (map[string]string, error) {
	out := map[string]string{}
	for class, cd := range w.classes {
		o := w.next(e.clients[0], class)
		resp, err := c.Exec("EXPLAIN ANALYZE " + o.sql)
		if err != nil {
			return nil, fmt.Errorf("explain %s: %w", cd.name, err)
		}
		out[cd.name] = o.sql + "\n" + resp.Explain
	}
	return out, nil
}

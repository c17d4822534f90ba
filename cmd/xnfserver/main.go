// xnfserver is the SQL/XNF engine's network front-end: a TCP server speaking
// the length-prefixed JSON wire protocol (internal/wire), with admission
// control at two levels (connection cap, bounded worker pool), fast overload
// shedding via typed retryable busy errors, per-request deadlines,
// server-side write-conflict retries for atomic scripts, and graceful
// degradation on SIGTERM/SIGINT: stop admitting, drain in-flight statements
// up to the drain budget, cancel stragglers, checkpoint, and seal the WAL.
//
// With -http it also serves an observability sidecar: Prometheus-text
// metrics at /metrics (statement latency by class, plan/CO-cache and
// buffer-pool counters, WAL append/fsync/group-commit histograms, MVCC
// conflict and vacuum counters, wire admission/shedding counters) and the
// stdlib pprof profiles under /debug/pprof/.
//
// Connect with xnfsh -connect <addr>; bench/run.sh drives it under load.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sqlxnf"
	"sqlxnf/internal/wire"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7433", "address to listen on")
	dataDir := flag.String("data", "", "directory for a durable database (empty = in-memory)")
	syncMode := flag.String("sync", "group", "WAL sync policy with -data: group, always, none")
	workers := flag.Int("workers", wire.DefaultWorkers, "max in-flight statements (worker pool size)")
	maxConns := flag.Int("max-conns", wire.DefaultMaxConns, "max concurrent connections")
	timeout := flag.Duration("timeout", 0, "per-statement execution deadline (0 = engine default)")
	retry := flag.Int("retry", wire.DefaultRetryBudget, "server-side write-conflict retry budget (-1 disables)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
	httpAddr := flag.String("http", "", "address for the /metrics + /debug/pprof HTTP sidecar (empty = off)")
	slowQuery := flag.Duration("slow-query", 0, "log statements slower than this, with phase spans and plan (0 = off)")
	flag.Parse()

	logger := log.New(os.Stderr, "xnfserver: ", log.LstdFlags|log.Lmicroseconds)
	db, err := openDB(*dataDir, *syncMode, *slowQuery, logger)
	if err != nil {
		logger.Fatal(err)
	}
	if *dataDir != "" {
		ri := db.Engine().RecoveryInfo()
		logger.Printf("opened %s: %d records scanned, %d replayed (checkpoint lsn %d)",
			*dataDir, ri.RecordsSeen, ri.Replayed, ri.CheckpointLSN)
	}

	srv := wire.NewServer(db, wire.Config{
		MaxConns:         *maxConns,
		Workers:          *workers,
		StatementTimeout: *timeout,
		RetryBudget:      *retry,
		Logf:             logger.Printf,
	})
	if err := srv.Listen(*listen); err != nil {
		logger.Fatal(err)
	}
	logger.Printf("listening on %s (workers=%d max-conns=%d retry=%d)",
		srv.Addr(), *workers, *maxConns, *retry)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	if *httpAddr != "" {
		go serveHTTP(*httpAddr, db, logger)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	select {
	case sig := <-sigc:
		logger.Printf("%s: draining (budget %s)", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			logger.Printf("drain budget expired, in-flight statements cancelled: %v", err)
		}
		if err := <-serveErr; err != nil {
			logger.Printf("serve: %v", err)
		}
	case err := <-serveErr:
		if err != nil {
			logger.Printf("serve failed: %v", err)
		}
	}
	// Close checkpoints on drain and seals the WAL: the next open replays
	// zero records.
	if err := db.Close(); err != nil {
		logger.Printf("close: %v", err)
		os.Exit(1)
	}
	st := srv.Counters()
	logger.Printf("shut down cleanly: %d conns served, %d requests (%d admitted, %d shed busy, %d shed shutdown, %d retries)",
		st.Accepted, st.Requests, st.Admitted, st.ShedBusy, st.ShedShutdown, st.Retries)
}

// openDB builds the served database: durable when -data names a directory,
// in-memory otherwise.
func openDB(dataDir, syncMode string, slowQuery time.Duration, logger *log.Logger) (*sqlxnf.DB, error) {
	var opts []sqlxnf.Option
	if slowQuery > 0 {
		opts = append(opts,
			sqlxnf.WithSlowQueryThreshold(slowQuery),
			sqlxnf.WithSlowQueryLogf(logger.Printf))
	}
	if dataDir == "" {
		return sqlxnf.Open(opts...), nil
	}
	var policy sqlxnf.SyncPolicy
	switch syncMode {
	case "group":
		policy = sqlxnf.SyncGroupCommit
	case "always":
		policy = sqlxnf.SyncAlways
	case "none":
		policy = sqlxnf.SyncNone
	default:
		return nil, fmt.Errorf("unknown -sync %q (want group, always, or none)", syncMode)
	}
	return sqlxnf.OpenDir(dataDir, append(opts, sqlxnf.WithSyncPolicy(policy))...)
}

// serveHTTP runs the observability sidecar: Prometheus-text metrics and the
// stdlib pprof profile endpoints. It is best-effort — a bind failure logs
// and the SQL server keeps running.
func serveHTTP(addr string, db *sqlxnf.DB, logger *log.Logger) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", db.Engine().Metrics().Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	logger.Printf("metrics + pprof on http://%s/metrics", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		logger.Printf("http sidecar: %v", err)
	}
}

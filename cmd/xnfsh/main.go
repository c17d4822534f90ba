// xnfsh is an interactive shell for the SQL/XNF engine: type SQL or XNF
// statements terminated by ';'. Results print as tables; XNF TAKE queries
// print the composite object's components and connections. Ctrl-C cancels
// the running statement (rolling back its transaction) instead of killing
// the shell.
//
// With -data <dir> the shell opens a durable database rooted there,
// recovering existing state from its write-ahead log; -sync picks the
// commit durability policy (group, always, none).
//
// With -connect <addr> the shell talks to a running xnfserver over the wire
// protocol instead of embedding an engine: statements execute on a
// server-side session (transactions span statements), \stats shows the
// server's admission and engine counters, and retryable typed errors
// (busy, write-conflict, shutdown) are labelled so the operator knows the
// statement is safe to resend.
//
// Meta commands: \d (list tables and views), \costats (composite-object
// cache entries and counters), \checkpoint (force a checkpoint and truncate
// the log), \walstats (WAL and durability counters), \metrics (statement
// summary plus the full Prometheus-text exposition), \q (quit). EXPLAIN
// ANALYZE <select> executes the statement with instrumented operators and
// prints actual rows/batches/time per plan node.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"sqlxnf"
	"sqlxnf/internal/types"
)

func main() {
	dataDir := flag.String("data", "", "directory for a durable database (empty = in-memory)")
	syncMode := flag.String("sync", "group", "WAL sync policy with -data: group, always, none")
	connect := flag.String("connect", "", "address of a running xnfserver (overrides -data)")
	flag.Parse()
	if *connect != "" {
		if err := remoteShell(*connect); err != nil {
			fmt.Fprintln(os.Stderr, "xnfsh:", err)
			os.Exit(1)
		}
		return
	}
	db, err := openDB(*dataDir, *syncMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xnfsh:", err)
		os.Exit(1)
	}
	defer db.Close()
	if *dataDir != "" {
		ri := db.Engine().RecoveryInfo()
		fmt.Printf("opened %s: %d records scanned, %d replayed (checkpoint lsn %d, %d tables)\n",
			*dataDir, ri.RecordsSeen, ri.Replayed, ri.CheckpointLSN, ri.CheckpointTables)
	}
	s := db.Session()
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	// SIGINT cancels the statement in flight via the engine's context
	// plumbing; the shell itself keeps running.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	fmt.Println("sqlxnf shell — SQL/XNF statements end with ';'  (\\d tables, \\costats CO cache, \\checkpoint, \\walstats, \\metrics, \\q quit, Ctrl-C cancels)")
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("xnf> ")
		} else {
			fmt.Print("...> ")
		}
	}
	prompt()
	for in.Scan() {
		line := in.Text()
		trimmed := strings.TrimSpace(line)
		switch trimmed {
		case "\\q":
			return
		case "\\d":
			cat := db.Engine().Catalog()
			fmt.Println("tables:", strings.Join(cat.TableNames(), ", "))
			fmt.Println("views: ", strings.Join(cat.ViewNames(), ", "))
			prompt()
			continue
		case "\\costats":
			printCOStats(db)
			prompt()
			continue
		case "\\checkpoint":
			if _, err := s.Exec("CHECKPOINT"); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println("checkpoint complete")
			}
			prompt()
			continue
		case "\\walstats":
			printWALStats(db)
			prompt()
			continue
		case "\\metrics":
			printMetrics(db)
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			prompt()
			continue
		}
		stmt := buf.String()
		buf.Reset()
		r, err, elapsed := runStatement(s, sigc, stmt)
		switch {
		case err != nil && errors.Is(err, context.Canceled):
			fmt.Printf("cancelled (%s)\n", fmtElapsed(elapsed))
		case err != nil:
			fmt.Println("error:", err)
		default:
			printResult(r)
			fmt.Printf("(%s)\n", fmtElapsed(elapsed))
		}
		prompt()
	}
}

// openDB builds the shell's database: durable when -data names a directory,
// in-memory otherwise.
func openDB(dataDir, syncMode string) (*sqlxnf.DB, error) {
	if dataDir == "" {
		return sqlxnf.Open(), nil
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
	return sqlxnf.OpenDir(dataDir, sqlxnf.WithSyncPolicy(policy))
}

// printUptime is the shared header for the stats meta commands: engine
// uptime and statement throughput from the same unified snapshot the body
// renders, so the two can never disagree.
func printUptime(st sqlxnf.EngineStats) {
	fmt.Printf("uptime=%s statements=%d (%.1f/s)\n",
		(time.Duration(st.UptimeSeconds * float64(time.Second))).Round(time.Second),
		st.StatementsTotal, st.StatementsPerSecond)
}

// printWALStats renders the write-ahead log from the unified engine
// snapshot: segment state and fsync counters.
func printWALStats(db *sqlxnf.DB) {
	est := db.Stats()
	printUptime(est)
	st := est.WAL
	if !st.Durable {
		fmt.Println("wal: none (in-memory engine; start with -data <dir>)")
		return
	}
	f := st.File
	fmt.Printf("wal: durable policy=%s segments=%d bytes=%s durable-bytes=%s\n",
		st.Policy, f.Segments, fmtBytes(f.Bytes), fmtBytes(f.DurableBytes))
	fmt.Printf("  lsn: last=%d durable=%d checkpoint=%d\n", f.LastLSN, f.DurableLSN, f.LastCheckpoint)
	fmt.Printf("  io: appends=%d fsyncs=%d group-commit-skips=%d\n", f.Appends, f.Syncs, f.SyncSkips)
	fmt.Printf("  auto-checkpoint-failures=%d\n", st.AutoCheckpointFailures)
}

// printMetrics renders the per-class statement summary from the unified
// snapshot, then the engine registry's full Prometheus-text exposition —
// the same bytes a /metrics scrape returns.
func printMetrics(db *sqlxnf.DB) {
	st := db.Stats()
	printUptime(st)
	classes := make([]string, 0, len(st.Statements))
	for c := range st.Statements {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		cs := st.Statements[c]
		fmt.Printf("  %-6s count=%-8d errors=%-4d p50=%s p99=%s mean=%s\n",
			c, cs.Count, cs.Errors,
			time.Duration(cs.P50US)*time.Microsecond,
			time.Duration(cs.P99US)*time.Microsecond,
			time.Duration(cs.MeanUS)*time.Microsecond)
	}
	fmt.Println("---")
	if err := db.Engine().Metrics().WritePrometheus(os.Stdout); err != nil {
		fmt.Println("error:", err)
	}
}

// runStatement executes one statement under a cancellable context wired to
// SIGINT: a Ctrl-C while the statement runs cancels it at its next batch
// boundary; a Ctrl-C at the prompt (drained before starting) is ignored.
func runStatement(s *sqlxnf.Session, sigc <-chan os.Signal, stmt string) (*sqlxnf.Result, error, time.Duration) {
	select {
	case <-sigc: // stale signal from an idle period
	default:
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		select {
		case <-sigc:
			cancel()
		case <-done:
		}
	}()
	start := time.Now()
	r, err := s.ExecContext(ctx, stmt)
	elapsed := time.Since(start)
	close(done)
	cancel()
	return r, err, elapsed
}

// fmtElapsed renders a statement duration at display precision.
func fmtElapsed(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	default:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	}
}

// printCOStats renders the composite-object cache from the unified engine
// snapshot: aggregate counters, then one line per resident entry (most
// recently used first) with its dependency snapshot — the tables whose DML
// versions gate its validity.
func printCOStats(db *sqlxnf.DB) {
	eng := db.Engine()
	est := db.Stats()
	printUptime(est)
	st := est.COCache
	fmt.Printf("co-cache: entries=%d resident=%s hits=%d misses=%d invalidations=%d evictions=%d waits=%d\n",
		st.Entries, fmtBytes(st.ResidentBytes), st.Hits, st.Misses, st.Invalidations, st.Evictions, st.Waits)
	ents := eng.COCacheEntries()
	if len(ents) == 0 {
		fmt.Println("(no resident composite objects)")
		return
	}
	for _, e := range ents {
		// Keys are exact statement text; collapse its line breaks and
		// indentation so each entry prints on one line.
		fmt.Printf("  %-40s tuples=%-6d bytes=%-10s hits=%-6d deps=%s\n",
			strings.Join(strings.Fields(e.Key), " "), e.Tuples, fmtBytes(e.Bytes), e.Hits, e.DepKey)
	}
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

func printResult(r *sqlxnf.Result) {
	switch {
	case r == nil:
		fmt.Println("ok")
	case r.Explain != "":
		fmt.Print(r.Explain)
	case r.CO != nil:
		fmt.Println(r.CO)
		for _, n := range r.CO.Nodes {
			fmt.Printf("-- %s%s %v\n", n.Name, rootMark(n.Root), n.Schema.Names())
			for _, row := range n.Rows {
				fmt.Println("  ", row)
			}
		}
		for _, e := range r.CO.Edges {
			fmt.Printf("-- %s: %s -> %s (%d connections)\n", e.Name, e.Parent, e.Child, len(e.Conns))
		}
	case r.Schema != nil:
		printTable(r.Schema, r.Rows)
	default:
		fmt.Printf("ok (%d rows affected)\n", r.RowsAffected)
	}
}

func rootMark(root bool) string {
	if root {
		return "*"
	}
	return ""
}

func printTable(schema types.Schema, rows []types.Row) {
	widths := make([]int, len(schema))
	for i, c := range schema {
		widths[i] = len(c.Name)
	}
	rendered := make([][]string, len(rows))
	for ri, row := range rows {
		rendered[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			rendered[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	for i, c := range schema {
		fmt.Printf("%-*s ", widths[i], c.Name)
	}
	fmt.Println()
	for i := range schema {
		fmt.Print(strings.Repeat("-", widths[i]), " ")
	}
	fmt.Println()
	for _, row := range rendered {
		for ci, cell := range row {
			fmt.Printf("%-*s ", widths[ci], cell)
		}
		fmt.Println()
	}
	fmt.Printf("(%d rows)\n", len(rows))
}

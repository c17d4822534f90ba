package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sqlxnf"
	"sqlxnf/internal/wire"
)

// checkpointBytes is a quarter of the engine default, meant to put several
// checkpoint cycles inside one oltp_write window. At today's write rate none
// falls inside (README, "Departures"); the value stays for when it does.
const checkpointBytes = 4 << 20

// outDir receives result.json, the trace files and the scratch data
// directories. Relative to the working directory, which is the repo root
// when started through bench/run.sh.
var outDir = filepath.Join("bench", "out")

// env is one running system under test: a durable group-commit database in a
// fresh directory behind an in-process wire server on loopback TCP, opened
// with the options `xnfserver -data DIR -sync group` ships.
type env struct {
	dir      string
	db       *sqlxnf.DB
	srv      *wire.Server
	serveErr chan error
	data     *dataset
	load     loadStats
	clients  []*clientState
}

func openDB(dir string) (*sqlxnf.DB, error) {
	return sqlxnf.OpenDir(dir,
		sqlxnf.WithSyncPolicy(sqlxnf.SyncGroupCommit),
		sqlxnf.WithCheckpointBytes(checkpointBytes))
}

// startEnv opens an empty database in a fresh directory and serves it.
func startEnv(seed int64) (*env, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "data-")
	if err != nil {
		return nil, err
	}
	db, err := openDB(dir)
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	srv := wire.NewServer(db, wire.Config{})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		_ = db.Close()
		_ = os.RemoveAll(dir)
		return nil, err
	}
	e := &env{dir: dir, db: db, srv: srv, serveErr: make(chan error, 1), data: newDataset(seed)}
	go func() { e.serveErr <- srv.Serve() }()
	return e, nil
}

// stop drains the server, closes the database and removes the directory.
func (e *env) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if serr := <-e.serveErr; err == nil {
		err = serr
	}
	if cerr := e.db.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(e.dir); err == nil {
		err = rerr
	}
	return err
}

func (e *env) dial() (*wire.Client, error) { return wire.Dial(e.srv.Addr()) }

// setUp builds a loaded, warmed-up system for w and reports how long that
// took: DDL, load, ANALYZE and a warm-up of a fixed number of operations
// (fixed in count, not time, so a slower engine shows as a longer set-up).
func setUp(w *workload, seed int64, clients int) (*env, float64, error) {
	t0 := time.Now()
	e, err := startEnv(seed)
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*env, float64, error) {
		_ = e.stop()
		return nil, 0, err
	}
	c, err := e.dial()
	if err != nil {
		return fail(err)
	}
	e.load, err = e.data.load(c)
	_ = c.Close()
	if err != nil {
		return fail(err)
	}
	for id := 0; id < clients; id++ {
		e.clients = append(e.clients, newClientState(w, e.data, id, clients))
	}
	warm, err := runLoop(e, w, loopSpec{clients: clients, opsPerClient: w.warmOps / clients})
	if err != nil {
		return fail(err)
	}
	if warm.failed() > 0 {
		return fail(fmt.Errorf("%s: %d of %d warm-up operations failed: %s", w.name, warm.failed(), warm.attempted(), warm.firstFailure()))
	}
	return e, time.Since(t0).Seconds(), nil
}

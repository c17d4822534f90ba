package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sqlxnf"
	"sqlxnf/internal/faultinj"
	"sqlxnf/internal/parser"
)

// Config sizes the server's admission control and robustness machinery.
// The zero value gets the documented defaults.
type Config struct {
	// MaxConns bounds concurrent connections; excess connections receive a
	// busy frame and close immediately (default 256).
	MaxConns int
	// Workers bounds in-flight statements across all connections — the
	// bounded worker pool. A request arriving with every slot taken is shed
	// fast with ErrServerBusy instead of queuing (default 8).
	Workers int
	// StatementTimeout is the per-request execution deadline (0 = none
	// beyond the engine's own statement timeout). Requests may tighten it
	// per call via Request.TimeoutMS.
	StatementTimeout time.Duration
	// RetryBudget bounds server-side retries of atomic scripts that lose a
	// snapshot-isolation write-write conflict (default 4; negative
	// disables, surfacing the first conflict to the client).
	RetryBudget int
	// RetryBackoff is the base of the jittered exponential backoff between
	// conflict retries (default 500µs).
	RetryBackoff time.Duration
	// Faults arms the net.accept / net.read probes (nil = inert).
	Faults *sqlxnf.FaultInjector
	// Logf receives server lifecycle and containment logs (nil = silent).
	Logf func(format string, args ...any)
}

// Defaults for Config's zero values.
const (
	DefaultMaxConns     = 256
	DefaultWorkers      = 8
	DefaultRetryBudget  = 4
	DefaultRetryBackoff = 500 * time.Microsecond
)

// Counters are the server's observable admission/shedding/robustness
// counters (snapshot via Server.Counters or the stats op).
type Counters struct {
	// Accepted counts admitted connections; RejectedConns those shed at the
	// connection cap; LiveConns/LiveSessions the current population.
	Accepted      int64 `json:"accepted"`
	RejectedConns int64 `json:"rejected_conns"`
	LiveConns     int64 `json:"live_conns"`
	LiveSessions  int64 `json:"live_sessions"`
	// Requests counts exec requests received; Admitted those that won a
	// worker slot; ShedBusy those rejected with ErrServerBusy;
	// ShedShutdown those rejected while draining.
	Requests     int64 `json:"requests"`
	Admitted     int64 `json:"admitted"`
	ShedBusy     int64 `json:"shed_busy"`
	ShedShutdown int64 `json:"shed_shutdown"`
	// Retries counts server-side write-conflict retries; RetriesExhausted
	// the requests whose budget ran dry; Panics contained wire-layer
	// panics; ProtocolErrs malformed frames/ops; NetFaults injected
	// connection faults (chaos tests).
	Retries          int64 `json:"retries"`
	RetriesExhausted int64 `json:"retries_exhausted"`
	Panics           int64 `json:"panics"`
	ProtocolErrs     int64 `json:"protocol_errs"`
	NetFaults        int64 `json:"net_faults"`
}

// Server is the TCP front-end: one engine session per connection, a bounded
// worker pool admitting statements, fast overload shedding, per-request
// deadlines, server-side conflict retries, panic containment per
// connection, and a graceful drain.
type Server struct {
	db  *sqlxnf.DB
	cfg Config
	lis net.Listener

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	slots    chan struct{}
	connWG   sync.WaitGroup // connection handler goroutines
	reqWG    sync.WaitGroup // admitted in-flight requests
	baseCtx  context.Context
	hardStop context.CancelFunc
	// drainGate makes handleExec's draining check and its reqWG.Add one
	// step with respect to Shutdown, which sets draining under the write
	// lock: a request either joins reqWG before Shutdown waits on it or sees
	// draining and is shed.
	drainGate sync.RWMutex
	draining  atomic.Bool
	closed    atomic.Bool

	accepted, rejectedConns         atomic.Int64
	liveConns, liveSessions         atomic.Int64
	requests, admitted              atomic.Int64
	shedBusy, shedShutdown          atomic.Int64
	retries, retriesExhausted       atomic.Int64
	panics, protocolErrs, netFaults atomic.Int64
	jitterMu                        sync.Mutex
	jitter                          *rand.Rand

	met *wireMetrics
}

// NewServer builds a server over an open database.
func NewServer(db *sqlxnf.DB, cfg Config) *Server {
	if cfg.MaxConns == 0 {
		cfg.MaxConns = DefaultMaxConns
	}
	if cfg.Workers == 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.RetryBudget == 0 {
		cfg.RetryBudget = DefaultRetryBudget
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = DefaultRetryBackoff
	}
	s := &Server{
		db:     db,
		cfg:    cfg,
		conns:  map[net.Conn]struct{}{},
		slots:  make(chan struct{}, cfg.Workers),
		jitter: rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	s.baseCtx, s.hardStop = context.WithCancel(context.Background())
	s.met = newWireMetrics(db.Engine().Metrics(), s)
	return s
}

// Listen binds the address ("127.0.0.1:0" picks a free port).
func (s *Server) Listen(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.lis = lis
	return nil
}

// Addr reports the bound address (empty before Listen).
func (s *Server) Addr() string {
	if s.lis == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// Counters snapshots the server's admission and robustness counters.
func (s *Server) Counters() Counters {
	return Counters{
		Accepted:         s.accepted.Load(),
		RejectedConns:    s.rejectedConns.Load(),
		LiveConns:        s.liveConns.Load(),
		LiveSessions:     s.liveSessions.Load(),
		Requests:         s.requests.Load(),
		Admitted:         s.admitted.Load(),
		ShedBusy:         s.shedBusy.Load(),
		ShedShutdown:     s.shedShutdown.Load(),
		Retries:          s.retries.Load(),
		RetriesExhausted: s.retriesExhausted.Load(),
		Panics:           s.panics.Load(),
		ProtocolErrs:     s.protocolErrs.Load(),
		NetFaults:        s.netFaults.Load(),
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve runs the accept loop until Shutdown closes the listener. Admission
// control is two-level: the connection cap here, the worker-slot cap per
// request — both reject fast, neither queues unboundedly.
func (s *Server) Serve() error {
	if s.lis == nil {
		return errors.New("wire: Serve before Listen")
	}
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		if ferr := injectorOf(s.cfg.Faults).Hit(faultinj.NetAccept); ferr != nil {
			s.netFaults.Add(1)
			_ = conn.Close()
			continue
		}
		if s.draining.Load() {
			_ = WriteFrame(conn, &Response{OK: false, Err: ErrShuttingDown})
			_ = conn.Close()
			continue
		}
		if s.liveConns.Load() >= int64(s.cfg.MaxConns) {
			s.rejectedConns.Add(1)
			_ = WriteFrame(conn, &Response{OK: false, Err: ErrServerBusy})
			_ = conn.Close()
			continue
		}
		s.accepted.Add(1)
		s.liveConns.Add(1)
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.connWG.Add(1)
		go s.serveConn(conn)
	}
}

// injectorOf unwraps the re-exported alias (nil-safe).
func injectorOf(in *sqlxnf.FaultInjector) *faultinj.Injector { return in }

// serveConn owns one connection: a private engine session, sequential
// request processing, and cleanup that never leaks the session, its
// transaction, or its locks — whatever kills the connection.
func (s *Server) serveConn(conn net.Conn) {
	defer s.connWG.Done()
	sess := s.db.Session()
	s.liveSessions.Add(1)
	defer func() {
		// Contain wire-layer panics (statement panics are already typed
		// errors by the engine): log, count, and fall through to cleanup so
		// one poisoned connection never takes down the process or leaks.
		if v := recover(); v != nil {
			s.panics.Add(1)
			s.logf("wire: contained connection panic: %v", v)
		}
		if sess.InTx() {
			_, _ = sess.Exec("ROLLBACK")
		}
		s.liveSessions.Add(-1)
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
		s.liveConns.Add(-1)
	}()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	var buf []byte // request frames are read into this
	for {
		if s.closed.Load() {
			// Shutdown begun: it closes registered connections, but a conn
			// registered after its sweep must bail out on its own.
			return
		}
		if ferr := injectorOf(s.cfg.Faults).Hit(faultinj.NetRead); ferr != nil {
			s.netFaults.Add(1)
			return
		}
		payload, err := readFrame(r, buf)
		if err != nil {
			// io.EOF is a clean hangup; anything else (oversized frame,
			// short read) is unrecoverable mid-stream — drop the conn.
			return
		}
		buf = payload
		var req Request
		if err := decodeRequest(payload, &req); err != nil {
			s.protocolErrs.Add(1)
			s.respond(w, &Response{OK: false, Err: &Error{Code: CodeProtocol, Message: "malformed request: " + err.Error()}})
			continue
		}
		resp := s.handle(sess, &req)
		if !s.respond(w, resp) {
			return
		}
	}
}

// respond writes and flushes one frame; false drops the connection.
func (s *Server) respond(w *bufio.Writer, resp *Response) bool {
	if err := WriteFrame(w, resp); err != nil {
		return false
	}
	return w.Flush() == nil
}

// handle dispatches one request on the connection's session, timing it
// into the op's wire-latency histogram.
func (s *Server) handle(sess *sqlxnf.Session, req *Request) *Response {
	t0 := time.Now()
	defer func() { s.met.observe(req.Op, time.Since(t0)) }()
	switch req.Op {
	case OpPing:
		return &Response{ID: req.ID, OK: true}
	case OpStats:
		// Stats never shed: operators need visibility precisely when the
		// server is saturated.
		st := &StatsPayload{Server: s.Counters(), Engine: s.db.Stats()}
		return &Response{ID: req.ID, OK: true, Stats: st}
	case OpExec:
		return s.handleExec(sess, req)
	default:
		s.protocolErrs.Add(1)
		return &Response{ID: req.ID, OK: false, Err: &Error{Code: CodeProtocol, Message: fmt.Sprintf("unknown op %q", req.Op)}}
	}
}

// handleExec is admission control's statement level: win a worker slot or
// be shed immediately with the typed retryable busy error — the server
// never queues excess statements.
func (s *Server) handleExec(sess *sqlxnf.Session, req *Request) *Response {
	s.requests.Add(1)
	s.drainGate.RLock()
	if s.draining.Load() {
		s.drainGate.RUnlock()
		s.shedShutdown.Add(1)
		return &Response{ID: req.ID, OK: false, Err: ErrShuttingDown}
	}
	select {
	case s.slots <- struct{}{}:
	default:
		s.drainGate.RUnlock()
		s.shedBusy.Add(1)
		return &Response{ID: req.ID, OK: false, Err: ErrServerBusy}
	}
	s.reqWG.Add(1)
	s.drainGate.RUnlock()
	defer func() {
		<-s.slots
		s.reqWG.Done()
	}()
	s.admitted.Add(1)
	ctx := s.baseCtx
	timeout := s.cfg.StatementTimeout
	if req.TimeoutMS > 0 {
		if rt := time.Duration(req.TimeoutMS) * time.Millisecond; timeout == 0 || rt < timeout {
			timeout = rt
		}
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	start := time.Now()
	res, retries, err := s.execWithRetry(ctx, sess, req.SQL)
	elapsed := time.Since(start).Microseconds()
	if err != nil {
		resp := &Response{ID: req.ID, OK: false, Err: Classify(err), Retries: retries, ElapsedUS: elapsed}
		return resp
	}
	return encodeResult(req.ID, res, retries, elapsed)
}

// execWithRetry runs the script, absorbing snapshot-isolation write-write
// conflicts with a bounded, jittered-backoff retry loop. Only atomic
// scripts retry — a single statement, or one whole BEGIN…COMMIT — because
// the conflict rolled exactly that work back; rerunning a multi-statement
// autocommit script would repeat its already-committed prefix. A session
// already inside a client-managed transaction never retries either: the
// client owns that transaction's shape.
func (s *Server) execWithRetry(ctx context.Context, sess *sqlxnf.Session, sql string) (*sqlxnf.Result, int, error) {
	wasInTx := sess.InTx()
	attempts := 0
	for {
		res, err := sess.ExecContext(ctx, sql)
		if err == nil || !errors.Is(err, sqlxnf.ErrWriteConflict) {
			return res, attempts, err
		}
		if wasInTx || sess.InTx() || s.cfg.RetryBudget < 0 || !retryableScript(sql) {
			return res, attempts, err
		}
		if attempts >= s.cfg.RetryBudget {
			s.retriesExhausted.Add(1)
			return res, attempts, err
		}
		attempts++
		s.retries.Add(1)
		if werr := s.backoff(ctx, attempts); werr != nil {
			return nil, attempts, werr
		}
	}
}

// backoff sleeps one jittered exponential step (base << attempt, jittered
// ±50%), bounded by the request context so a deadline mid-backoff still
// surfaces promptly.
func (s *Server) backoff(ctx context.Context, attempt int) error {
	d := s.cfg.RetryBackoff << (attempt - 1)
	s.jitterMu.Lock()
	d = d/2 + time.Duration(s.jitter.Int63n(int64(d)))
	s.jitterMu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// retryableScript reports whether rerunning the whole script after a
// write-conflict rollback is exactly-once safe: one statement, or one
// complete BEGIN…COMMIT transaction with nothing outside it.
func retryableScript(sql string) bool {
	stmts, err := parser.ParseScript(sql)
	if err != nil || len(stmts) == 0 {
		return false
	}
	if len(stmts) == 1 {
		_, isBegin := stmts[0].Stmt.(*parser.BeginStmt)
		return !isBegin
	}
	if _, ok := stmts[0].Stmt.(*parser.BeginStmt); !ok {
		return false
	}
	if _, ok := stmts[len(stmts)-1].Stmt.(*parser.CommitStmt); !ok {
		return false
	}
	for _, st := range stmts[1 : len(stmts)-1] {
		switch st.Stmt.(type) {
		case *parser.BeginStmt, *parser.CommitStmt, *parser.RollbackStmt:
			return false
		}
	}
	return true
}

// Shutdown drains the server gracefully: stop accepting, shed new requests
// with the shutdown code, wait for in-flight statements until ctx expires,
// hard-cancel whatever remains, close every connection, and wait for the
// handlers. The database is left open — the caller owns db.Close (which
// checkpoints on drain and seals the WAL).
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.drainGate.Lock()
	s.draining.Store(true)
	s.drainGate.Unlock()
	if s.lis != nil {
		_ = s.lis.Close()
	}
	done := make(chan struct{})
	go func() {
		s.reqWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Drain deadline passed: cancel in-flight statements through their
		// execution contexts; they roll back at the next batch boundary.
		s.hardStop()
		<-done
		err = ctx.Err()
	}
	s.hardStop()
	s.mu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
	return err
}

package wire

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlxnf"
)

// startServer spins a server over db and tears it down with the test.
func startServer(t *testing.T, db *sqlxnf.DB, cfg Config) *Server {
	t.Helper()
	srv := NewServer(db, cfg)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv
}

func dialT(t *testing.T, srv *Server) *Client {
	t.Helper()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestServerExecRoundTrip(t *testing.T) {
	db := sqlxnf.Open()
	defer db.Close()
	srv := startServer(t, db, Config{})
	c := dialT(t, srv)

	if resp, err := c.Exec(`CREATE TABLE DEPT (dno INT PRIMARY KEY, dname VARCHAR)`); err != nil {
		t.Fatalf("DDL: %v (%+v)", err, resp)
	}
	resp, err := c.Exec(`INSERT INTO DEPT VALUES (1, 'toys'), (2, 'tools')`)
	if err != nil {
		t.Fatalf("INSERT: %v", err)
	}
	if resp.RowsAffected != 2 {
		t.Fatalf("RowsAffected = %d, want 2", resp.RowsAffected)
	}
	resp, err = c.Exec(`SELECT dno, dname FROM DEPT WHERE dno = 2`)
	if err != nil {
		t.Fatalf("SELECT: %v", err)
	}
	if len(resp.Columns) != 2 || resp.Columns[0] != "DNO" && resp.Columns[0] != "dno" {
		t.Fatalf("columns = %v", resp.Columns)
	}
	if len(resp.Rows) != 1 || resp.Rows[0][1] != "tools" {
		t.Fatalf("rows = %v", resp.Rows)
	}
	// Numbers survive as JSON numbers.
	if n, ok := resp.Rows[0][0].(float64); !ok || n != 2 {
		t.Fatalf("dno transported as %T %v", resp.Rows[0][0], resp.Rows[0][0])
	}
	// Composite objects render to text.
	resp, err = c.Exec(`OUT OF Xdept AS DEPT TAKE *`)
	if err != nil {
		t.Fatalf("TAKE: %v", err)
	}
	if resp.COText == "" {
		t.Fatal("TAKE produced no CO text")
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Server.Admitted == 0 || st.Server.LiveConns == 0 {
		t.Fatalf("stats counters empty: %+v", st.Server)
	}
	if st.Engine.PoolPages == 0 {
		t.Fatalf("engine stats empty: %+v", st.Engine)
	}
}

func TestServerTransactionSpansRequests(t *testing.T) {
	db := sqlxnf.Open()
	defer db.Close()
	db.MustExec(`CREATE TABLE T (id INT PRIMARY KEY, v INT)`)
	srv := startServer(t, db, Config{})

	c := dialT(t, srv)
	mustExec(t, c, "BEGIN")
	mustExec(t, c, "INSERT INTO T VALUES (1, 10)")
	mustExec(t, c, "COMMIT")

	// A connection dropped mid-transaction rolls back and releases locks.
	c2 := dialT(t, srv)
	mustExec(t, c2, "BEGIN; UPDATE T SET v = 99 WHERE id = 1")
	_ = c2.Close()
	deadline := time.Now().Add(2 * time.Second)
	for db.Engine().Locks().TotalHeld() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := db.Engine().Locks().TotalHeld(); n != 0 {
		t.Fatalf("locks leaked after dropped connection: %d", n)
	}
	resp := mustExec(t, c, "SELECT v FROM T WHERE id = 1")
	if len(resp.Rows) != 1 || resp.Rows[0][0].(float64) != 10 {
		t.Fatalf("dropped tx leaked an update: %v", resp.Rows)
	}
}

func TestServerErrorTaxonomyOverWire(t *testing.T) {
	db := sqlxnf.Open()
	defer db.Close()
	db.MustExec(`CREATE TABLE T (id INT PRIMARY KEY, v INT)`)
	for i := 0; i < 400; i++ {
		db.MustExec(`INSERT INTO T VALUES (` + itoa(i) + `, ` + itoa(i) + `)`)
	}
	srv := startServer(t, db, Config{})
	c := dialT(t, srv)

	// Semantic failure: fatal sql code.
	resp, err := c.Exec(`SELECT nope FROM missing`)
	if err == nil {
		t.Fatal("bad SQL succeeded")
	}
	if resp.Err.Code != CodeSQL || resp.Err.Retryable {
		t.Fatalf("bad SQL classified %+v", resp.Err)
	}
	// Per-request deadline: the cross join cannot finish in 5ms.
	resp, err = c.ExecTimeout(`SELECT COUNT(*) FROM T A, T B WHERE A.v + B.v = -1`, 5*time.Millisecond)
	if err == nil {
		t.Fatal("deadline-bound cross join succeeded")
	}
	if resp.Err.Code != CodeDeadline {
		t.Fatalf("deadline classified %+v", resp.Err)
	}
	// The session survives both failures.
	mustExec(t, c, `SELECT v FROM T WHERE id = 3`)
}

// TestServerTakeObservesRequestDeadline: a per-request deadline reaches the
// node derivations of a TAKE. The child is an unindexed scan of 200 000 rows;
// a 2 ms deadline ends the checkout with the typed deadline code, and the same
// connection then runs the checkout to completion.
func TestServerTakeObservesRequestDeadline(t *testing.T) {
	db := sqlxnf.Open()
	defer db.Close()
	db.MustExec(`CREATE TABLE P (pk INT PRIMARY KEY); INSERT INTO P VALUES (1), (2);
		CREATE TABLE C (ck INT PRIMARY KEY, cp INT)`)
	for base := 0; base < 200_000; base += 1000 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO C VALUES ")
		for i := base; i < base+1000; i++ {
			if i > base {
				sb.WriteString(",")
			}
			sb.WriteString("(" + itoa(i) + "," + itoa(i%100) + ")")
		}
		db.MustExec(sb.String())
	}
	srv := startServer(t, db, Config{})
	c := dialT(t, srv)
	const take = `OUT OF Xp AS (SELECT * FROM P WHERE pk = 1), Xc AS C,
		pc AS (RELATE Xp, Xc WHERE Xp.pk = Xc.cp) TAKE *`
	resp, err := c.ExecTimeout(take, 2*time.Millisecond)
	if err == nil {
		t.Fatal("deadline-bound TAKE succeeded")
	}
	if resp.Err.Code != CodeDeadline {
		t.Fatalf("deadline classified %+v", resp.Err)
	}
	if n := db.Engine().Locks().TotalHeld(); n != 0 {
		t.Fatalf("%d locks held after the timed-out TAKE", n)
	}
	if resp := mustExec(t, c, take); resp.COText == "" {
		t.Fatal("TAKE after the timed-out TAKE returned no composite object")
	}
}

func TestServerProtocolErrors(t *testing.T) {
	db := sqlxnf.Open()
	defer db.Close()
	srv := startServer(t, db, Config{})

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// Valid frame, malformed JSON: typed protocol response, conn survives.
	if err := writeRaw(conn, []byte("{not json")); err != nil {
		t.Fatalf("write: %v", err)
	}
	payload, err := ReadFrame(conn)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	var resp Response
	_ = json.Unmarshal(payload, &resp)
	if resp.OK || resp.Err == nil || resp.Err.Code != CodeProtocol {
		t.Fatalf("malformed JSON answered %+v", resp)
	}
	// Unknown op: typed protocol response.
	if err := WriteFrame(conn, &Request{ID: 2, Op: "bogus"}); err != nil {
		t.Fatalf("write: %v", err)
	}
	payload, err = ReadFrame(conn)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	_ = json.Unmarshal(payload, &resp)
	if resp.Err == nil || resp.Err.Code != CodeProtocol {
		t.Fatalf("unknown op answered %+v", resp)
	}
	if srv.Counters().ProtocolErrs != 2 {
		t.Fatalf("protocol errors = %d, want 2", srv.Counters().ProtocolErrs)
	}
}

// TestWireNonFiniteResult: JSON has no infinities or NaN. A result holding
// one is answered with a typed, non-retryable error; the connection, its
// session and its open transaction survive, and neither the protocol-error
// nor the panic counter moves.
func TestWireNonFiniteResult(t *testing.T) {
	db := sqlxnf.Open()
	defer db.Close()
	db.MustExec(`CREATE TABLE T (id INT PRIMARY KEY, f FLOAT); INSERT INTO T VALUES (1, 1e308)`)
	srv := startServer(t, db, Config{})
	c := dialT(t, srv)

	mustExec(t, c, "BEGIN; INSERT INTO T VALUES (2, 0)")
	for _, q := range []string{"SELECT f * 10 FROM T WHERE id = 1", "SELECT f * 10 - f * 10 FROM T WHERE id = 1"} {
		resp, err := c.Exec(q)
		var we *Error
		if !errors.As(err, &we) {
			t.Fatalf("%s: err = %v (%T), want a typed wire error", q, err, err)
		}
		if we.Code != CodeSQL || we.Retryable || resp == nil || resp.OK {
			t.Fatalf("%s: answered %+v with %+v", q, resp, we)
		}
		if resp := mustExec(t, c, "SELECT id FROM T"); len(resp.Rows) != 2 {
			t.Fatalf("after %s: the transaction's row is gone: %v", q, resp.Rows)
		}
	}
	mustExec(t, c, "ROLLBACK")
	if resp := mustExec(t, c, "SELECT id FROM T"); len(resp.Rows) != 1 {
		t.Fatalf("ROLLBACK left %v: the transaction was not open", resp.Rows)
	}
	if st := srv.Counters(); st.ProtocolErrs != 0 || st.Panics != 0 {
		t.Fatalf("protocol errors %d, panics %d; want 0", st.ProtocolErrs, st.Panics)
	}
}

func TestServerShedsStatementsAtWorkerCap(t *testing.T) {
	db := sqlxnf.Open()
	defer db.Close()
	db.MustExec(`CREATE TABLE T (id INT PRIMARY KEY, v INT)`)
	db.MustExec(`INSERT INTO T VALUES (1, 0)`)
	srv := startServer(t, db, Config{Workers: 2})

	blocker := dialT(t, srv)
	mustExec(t, blocker, "BEGIN; UPDATE T SET v = 1 WHERE id = 1")

	// Two statements park in the lock wait, filling both worker slots.
	var wg sync.WaitGroup
	results := make([]*Response, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		c := dialT(t, srv)
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			results[i], errs[i] = c.ExecTimeout("UPDATE T SET v = 2 WHERE id = 1", 500*time.Millisecond)
		}(i, c)
	}
	waitFor(t, 2*time.Second, func() bool { return srv.Counters().Admitted >= 3 })

	// The pool is full: the next statement is shed immediately with the
	// typed retryable busy error — no queuing.
	shed := dialT(t, srv)
	start := time.Now()
	resp, err := shed.Exec("UPDATE T SET v = 3 WHERE id = 1")
	if err == nil {
		t.Fatalf("overload statement succeeded: %+v", resp)
	}
	if !errors.Is(err, ErrServerBusy) {
		t.Fatalf("overload error = %v, want ErrServerBusy", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("busy rejection took %v — it queued", elapsed)
	}
	wg.Wait()
	// The parked statements timed out in the lock wait: taxonomy says
	// lock_timeout, retryable.
	for i := range errs {
		if errs[i] == nil {
			t.Fatalf("parked statement %d succeeded", i)
		}
		if results[i].Err.Code != CodeLockTimeout || !results[i].Err.Retryable {
			t.Fatalf("parked statement %d classified %+v", i, results[i].Err)
		}
	}
	mustExec(t, blocker, "COMMIT")
	if st := srv.Counters(); st.ShedBusy == 0 {
		t.Fatalf("no shed recorded: %+v", st)
	}
}

func TestServerShedsConnectionsAtCap(t *testing.T) {
	db := sqlxnf.Open()
	defer db.Close()
	srv := startServer(t, db, Config{MaxConns: 2})
	dialT(t, srv)
	dialT(t, srv)
	waitFor(t, 2*time.Second, func() bool { return srv.Counters().LiveConns == 2 })
	_, err := Dial(srv.Addr())
	if !errors.Is(err, ErrServerBusy) {
		t.Fatalf("third connection got %v, want ErrServerBusy", err)
	}
	if srv.Counters().RejectedConns == 0 {
		t.Fatal("no connection rejection recorded")
	}
}

func mustExec(t *testing.T, c *Client, sql string) *Response {
	t.Helper()
	resp, err := c.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return resp
}

func writeRaw(conn net.Conn, payload []byte) error {
	hdr := []byte{0, 0, 0, byte(len(payload))}
	if _, err := conn.Write(hdr); err != nil {
		return err
	}
	_, err := conn.Write(payload)
	return err
}

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

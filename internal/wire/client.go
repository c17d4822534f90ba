package wire

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"
)

// Client is one wire connection: a private server-side session, so
// transactions span requests. Methods serialize — a client is one logical
// session, like the engine's own Session contract; open one per goroutine.
type Client struct {
	mu     sync.Mutex
	conn   net.Conn
	r      *bufio.Reader
	w      *bufio.Writer
	rbuf   []byte // response frames are read into this
	nextID uint64
}

// Dial connects and verifies admission with a ping, so a connection shed at
// the server's connection cap surfaces here as ErrServerBusy instead of a
// broken pipe on first use.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 10*time.Second)
}

// DialTimeout is Dial with a connect timeout.
func DialTimeout(addr string, d time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
	if err := c.Ping(); err != nil {
		_ = conn.Close()
		return nil, err
	}
	return c, nil
}

// roundTrip sends one request and reads its response. A response with a
// zero ID is a connection-level rejection (busy/shutdown) and surfaces as
// its typed error.
func (c *Client) roundTrip(req *Request) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	req.ID = c.nextID
	if err := WriteFrame(c.w, req); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	payload, err := readFrame(c.r, c.rbuf)
	if err != nil {
		return nil, err
	}
	c.rbuf = payload
	var resp Response
	if err := decodeResponse(payload, &resp); err != nil {
		return nil, fmt.Errorf("wire: malformed response: %v", err)
	}
	if !resp.OK {
		if resp.Err == nil {
			return &resp, &Error{Code: CodeProtocol, Message: "server reported failure without error"}
		}
		return &resp, resp.Err
	}
	return &resp, nil
}

// Exec runs a SQL/XNF script on the connection's session. A failed request
// returns the server's typed *Error (test with errors.Is against
// ErrServerBusy, or inspect Code/Retryable for the degradation policy);
// the Response is non-nil whenever a response frame arrived, so callers can
// read Retries and ElapsedUS even on failure.
func (c *Client) Exec(sql string) (*Response, error) {
	return c.roundTrip(&Request{Op: OpExec, SQL: sql})
}

// ExecTimeout is Exec with a per-request deadline (tightens the server's
// default when smaller).
func (c *Client) ExecTimeout(sql string, d time.Duration) (*Response, error) {
	return c.roundTrip(&Request{Op: OpExec, SQL: sql, TimeoutMS: d.Milliseconds()})
}

// Stats fetches server + engine counters (never shed by admission control).
func (c *Client) Stats() (*StatsPayload, error) {
	resp, err := c.roundTrip(&Request{Op: OpStats})
	if err != nil {
		return nil, err
	}
	if resp.Stats == nil {
		return nil, &Error{Code: CodeProtocol, Message: "stats response without payload"}
	}
	return resp.Stats, nil
}

// Ping round-trips a liveness probe.
func (c *Client) Ping() error {
	_, err := c.roundTrip(&Request{Op: OpPing})
	return err
}

// Close hangs up. The server rolls back any open transaction and releases
// the session.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Close()
}

// Package wire is the engine's network service layer: a length-prefixed
// JSON wire protocol (this file), a TCP server with admission control,
// overload shedding and graceful drain (server.go), and the matching client
// (client.go) used by xnfsh -connect and the bench/ load driver.
//
// A frame is a 4-byte big-endian payload length followed by that many bytes
// of JSON, written and read by a reflection-free codec (codec.go). Requests
// carry an op ("exec", "stats", "ping"), responses echo the request id and
// carry either results or a typed error from the machine-readable taxonomy
// below (retryable vs fatal), so clients can degrade gracefully: back off
// and retry on busy/write-conflict/lock-timeout, fail over on shutdown,
// surface everything else.
package wire

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"sync"

	"sqlxnf"
	"sqlxnf/internal/engine"
	"sqlxnf/internal/exec"
	"sqlxnf/internal/lock"
	"sqlxnf/internal/types"
)

// MaxFrameBytes bounds one frame's payload; larger announced lengths are a
// protocol error and close the connection (a garbage length prefix must not
// allocate gigabytes).
const MaxFrameBytes = 8 << 20

// framePool recycles the buffers frames are written from; one bigger than
// maxPooledFrame is left to the collector rather than pinned.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledFrame = 1 << 20

// WriteFrame encodes v and writes it as one length-prefixed frame: a
// *Request or *Response through the frame codec (codec.go), anything else
// through encoding/json.
func WriteFrame(w io.Writer, v any) error {
	bp := framePool.Get().(*[]byte)
	b := append((*bp)[:0], 0, 0, 0, 0) // the header, filled in below
	var err error
	switch v := v.(type) {
	case *Request:
		b = appendRequest(b, v)
	case *Response:
		b, err = appendResponse(b, v)
	default:
		var payload []byte
		payload, err = json.Marshal(v)
		b = append(b, payload...)
	}
	if n := len(b) - 4; err == nil && n > MaxFrameBytes {
		err = fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, MaxFrameBytes)
	}
	if err == nil {
		binary.BigEndian.PutUint32(b, uint32(len(b)-4))
		_, err = w.Write(b)
	}
	if cap(b) <= maxPooledFrame {
		*bp = b
		framePool.Put(bp)
	}
	return err
}

// ReadFrame reads one frame's payload.
func ReadFrame(r io.Reader) ([]byte, error) { return readFrame(r, nil) }

// readFrame reads one frame's payload into buf's storage, growing it when
// the frame does not fit. Client and server reuse one buffer per connection
// (the decoders copy out what they keep), but not one that grew past
// maxPooledFrame.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) > maxPooledFrame {
		buf = nil
	}
	buf = slices.Grow(buf[:0], 4)[:4]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(buf)
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("wire: announced frame of %d bytes exceeds limit %d", n, MaxFrameBytes)
	}
	buf = slices.Grow(buf[:0], int(n))[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Request ops.
const (
	OpExec  = "exec"  // run a SQL/XNF script on the connection's session
	OpStats = "stats" // snapshot server + engine counters (never sheds)
	OpPing  = "ping"  // liveness probe
)

// Request is one client frame.
type Request struct {
	// ID is echoed in the response (client-chosen, monotonic per conn).
	ID uint64 `json:"id"`
	// Op selects the operation (OpExec, OpStats, OpPing).
	Op string `json:"op"`
	// SQL is the script for OpExec.
	SQL string `json:"sql,omitempty"`
	// TimeoutMS bounds this request's execution, overriding the server's
	// default statement deadline when tighter than it (0 = server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Response is one server frame.
type Response struct {
	// ID echoes the request (0 for connection-level rejections).
	ID uint64 `json:"id"`
	// OK reports success; on false, Err describes the failure.
	OK  bool   `json:"ok"`
	Err *Error `json:"error,omitempty"`
	// Columns/Rows carry query output. Values map to JSON scalars (NULL to
	// null); the wire is a display/transport encoding, not the engine's
	// typed value model.
	Columns []string `json:"columns,omitempty"`
	Rows    [][]any  `json:"rows,omitempty"`
	// RowsAffected counts DML effects.
	RowsAffected int64 `json:"rows_affected,omitempty"`
	// Explain carries EXPLAIN text; COText a rendered composite object.
	Explain string `json:"explain,omitempty"`
	COText  string `json:"co_text,omitempty"`
	// Retries counts server-side write-conflict retries this request burned.
	Retries int `json:"retries,omitempty"`
	// ElapsedUS is server-side execution time in microseconds.
	ElapsedUS int64 `json:"elapsed_us,omitempty"`
	// Stats is the OpStats payload.
	Stats *StatsPayload `json:"stats,omitempty"`
}

// StatsPayload is the OpStats result: engine counters plus the server's own
// admission/shedding/retry counters.
type StatsPayload struct {
	Server Counters           `json:"server"`
	Engine sqlxnf.EngineStats `json:"engine"`
}

// Code classifies a failure for the client's degradation policy.
type Code string

// The error taxonomy. Retryable codes mean "back off and resend the same
// request"; fatal codes mean the request itself is wrong or the result is
// unknowable.
const (
	// CodeBusy: admission control shed the request (or connection) —
	// retryable after backoff.
	CodeBusy Code = "busy"
	// CodeWriteConflict: snapshot-isolation first-committer-wins conflict
	// survived the server's retry budget — retryable.
	CodeWriteConflict Code = "write_conflict"
	// CodeLockTimeout: a lock wait exceeded the lock timeout — retryable.
	CodeLockTimeout Code = "lock_timeout"
	// CodeDeadlock: the wait would have closed a cycle; the transaction was
	// chosen as victim — retryable.
	CodeDeadlock Code = "deadlock"
	// CodeDeadline: the statement exceeded its deadline — fatal (the same
	// statement will likely time out again; the client must decide).
	CodeDeadline Code = "deadline"
	// CodeCanceled: the request's context was cancelled mid-flight — fatal.
	CodeCanceled Code = "canceled"
	// CodeShutdown: the server is draining — retryable against a restarted
	// or failover server.
	CodeShutdown Code = "shutdown"
	// CodeProtocol: malformed frame or unknown op — fatal.
	CodeProtocol Code = "protocol"
	// CodeInternal: a contained panic or unexpected engine failure — fatal.
	CodeInternal Code = "internal"
	// CodeSQL: parse/semantic/constraint error — fatal.
	CodeSQL Code = "sql"
)

// Error is the wire's typed error: a taxonomy code, the retryable verdict,
// and a human-readable message. It travels in Response.Err and is returned
// by the client, so errors.Is(err, wire.ErrServerBusy) works end to end.
type Error struct {
	Code      Code   `json:"code"`
	Retryable bool   `json:"retryable"`
	Message   string `json:"message"`
}

// Error renders the taxonomy code and message.
func (e *Error) Error() string { return fmt.Sprintf("wire: [%s] %s", e.Code, e.Message) }

// Is matches two wire errors by code, so sentinel comparisons like
// errors.Is(err, ErrServerBusy) survive the JSON round trip.
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	return ok && t.Code == e.Code
}

// ErrServerBusy is the admission-control rejection: the server is at its
// connection or in-flight-statement capacity and shed the request instead
// of queuing it. Retry after backoff.
var ErrServerBusy = &Error{Code: CodeBusy, Retryable: true, Message: "server at capacity, retry after backoff"}

// ErrShuttingDown is the drain rejection: the server stopped admitting work.
var ErrShuttingDown = &Error{Code: CodeShutdown, Retryable: true, Message: "server is draining"}

// Classify maps an engine error onto the wire taxonomy.
func Classify(err error) *Error {
	if err == nil {
		return nil
	}
	var we *Error
	if errors.As(err, &we) {
		return we
	}
	var pe *exec.PanicError
	switch {
	case errors.Is(err, sqlxnf.ErrWriteConflict):
		return &Error{Code: CodeWriteConflict, Retryable: true, Message: err.Error()}
	case errors.Is(err, lock.ErrDeadlock):
		return &Error{Code: CodeDeadlock, Retryable: true, Message: err.Error()}
	case errors.Is(err, lock.ErrLockTimeout):
		return &Error{Code: CodeLockTimeout, Retryable: true, Message: err.Error()}
	case errors.Is(err, engine.ErrClosed):
		return &Error{Code: CodeShutdown, Retryable: true, Message: err.Error()}
	case errors.Is(err, context.DeadlineExceeded):
		return &Error{Code: CodeDeadline, Retryable: false, Message: err.Error()}
	case errors.Is(err, context.Canceled):
		return &Error{Code: CodeCanceled, Retryable: false, Message: err.Error()}
	case errors.As(err, &pe):
		return &Error{Code: CodeInternal, Retryable: false, Message: err.Error()}
	default:
		return &Error{Code: CodeSQL, Retryable: false, Message: err.Error()}
	}
}

// encodeResult maps a statement result onto a response. Composite objects
// render to text: the wire is a transport for applications and shells, not
// for the pointer-linked navigation cache, which stays in-process. JSON has
// no infinities or NaN, so a result holding one is answered with a typed
// error; the statement itself stands (an open transaction stays open).
func encodeResult(id uint64, r *sqlxnf.Result, retries int, elapsedUS int64) *Response {
	resp := &Response{ID: id, OK: true, Retries: retries, ElapsedUS: elapsedUS}
	if r == nil {
		return resp
	}
	resp.RowsAffected = r.RowsAffected
	resp.Explain = r.Explain
	if r.CO != nil {
		resp.COText = renderCO(r.CO)
	}
	if r.Schema != nil {
		resp.Columns = make([]string, len(r.Schema))
		for i, c := range r.Schema {
			resp.Columns[i] = c.Name
		}
		n := 0
		for _, row := range r.Rows {
			n += len(row)
		}
		cells := make([]any, n)
		resp.Rows = make([][]any, len(r.Rows))
		for i, row := range r.Rows {
			out := cells[:len(row):len(row)]
			cells = cells[len(row):]
			for j, v := range row {
				if v.Kind() == types.KindFloat && (math.IsInf(v.Float(), 0) || math.IsNaN(v.Float())) {
					return &Response{ID: id, OK: false, Retries: retries, ElapsedUS: elapsedUS, Err: &Error{
						Code:    CodeSQL,
						Message: fmt.Sprintf("column %s holds %v, which the wire's JSON cannot carry", r.Schema[j].Name, v.Float()),
					}}
				}
				out[j] = valueJSON(v)
			}
			resp.Rows[i] = out
		}
	}
	return resp
}

// valueJSON lowers a typed value to its JSON transport form.
func valueJSON(v types.Value) any {
	switch v.Kind() {
	case types.KindInt:
		return v.Int()
	case types.KindFloat:
		return v.Float()
	case types.KindString:
		return v.Str()
	case types.KindBool:
		return v.Bool()
	default:
		return nil
	}
}

// renderCO flattens a composite object to the text a remote shell prints —
// the same shape xnfsh shows for in-process checkouts.
// Each tuple prints as types.Row.String does.
func renderCO(co *sqlxnf.CO) string {
	var b strings.Builder
	b.WriteString(co.String())
	b.WriteByte('\n')
	for _, n := range co.Nodes {
		b.WriteString("-- ")
		b.WriteString(n.Name)
		if n.Root {
			b.WriteByte('*')
		}
		b.WriteString(" [")
		b.WriteString(strings.Join(n.Schema.Names(), " "))
		b.WriteString("]\n")
		for _, row := range n.Rows {
			b.WriteString("   (")
			for i, v := range row {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString(v.String())
			}
			b.WriteString(")\n")
		}
	}
	for _, e := range co.Edges {
		fmt.Fprintf(&b, "-- %s: %s -> %s (%d connections)\n", e.Name, e.Parent, e.Child, len(e.Conns))
	}
	return b.String()
}

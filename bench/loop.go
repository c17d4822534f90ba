package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"sqlxnf/internal/wire"
)

// loopSpec says how long a closed loop runs and what it records. Each client
// holds one connection and sends its next request only after the previous
// reply: application sessions wait for their answer, and an offered-rate
// sweep would measure the shedding policy, not the engine.
type loopSpec struct {
	clients      int
	opsPerClient int           // stop after this many operations each, or
	duration     time.Duration // when opsPerClient is 0, at this deadline
	tracer       *tracer       // non-nil on the traced pass (one client)
}

// sample is one operation that completed with the right answer. It is kept
// small, 12 bytes, because a point_read window holds most of a million and
// they count towards peak_rss_mb. The times saturate at 4.29 s.
type sample struct {
	rtNS       uint32 // client round trip
	overheadNS uint32 // round trip minus the server's own elapsed time
	class      uint8
}

func clampU32(v int64) uint32 { return uint32(min(max(v, 0), math.MaxUint32)) }

// clientRec is what one client saw. Only its own goroutine writes it.
type clientRec struct {
	samples   []sample
	attempted int
	errored   int // transport or typed server error other than busy
	busy      int // shed by admission control
	wrong     int // reply arrived but failed its verifier
	writes    int // acknowledged write operations
	firstFail string
}

type loopResult struct {
	recs    []*clientRec
	elapsed time.Duration
}

func (r *loopResult) sum(f func(*clientRec) int) int {
	n := 0
	for _, c := range r.recs {
		n += f(c)
	}
	return n
}
func (r *loopResult) attempted() int { return r.sum(func(c *clientRec) int { return c.attempted }) }
func (r *loopResult) failed() int {
	return r.sum(func(c *clientRec) int { return c.errored + c.busy + c.wrong })
}
func (r *loopResult) wrong() int  { return r.sum(func(c *clientRec) int { return c.wrong }) }
func (r *loopResult) writes() int { return r.sum(func(c *clientRec) int { return c.writes }) }
func (r *loopResult) firstFailure() string {
	for _, c := range r.recs {
		if c.firstFail != "" {
			return c.firstFail
		}
	}
	return ""
}

// samples pools every client's completed operations.
func (r *loopResult) samples() []sample {
	var out []sample
	for _, c := range r.recs {
		out = append(out, c.samples...)
	}
	return out
}

// runLoop drives the env's clients through w until the spec's end.
func runLoop(e *env, w *workload, spec loopSpec) (*loopResult, error) {
	conns := make([]*wire.Client, spec.clients)
	for i := range conns {
		c, err := e.dial()
		if err != nil {
			for _, open := range conns[:i] {
				_ = open.Close()
			}
			return nil, fmt.Errorf("dial: %w", err)
		}
		conns[i] = c
	}
	res := &loopResult{recs: make([]*clientRec, spec.clients)}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(spec.duration)
	for i := range conns {
		rec := &clientRec{}
		res.recs[i] = rec
		wg.Add(1)
		go func(c *wire.Client, cs *clientState) {
			defer wg.Done()
			for n := 0; ; n++ {
				if spec.opsPerClient > 0 {
					if n == spec.opsPerClient {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				o := w.next(cs, cs.nextClass())
				t0 := time.Now()
				resp, err := c.Exec(o.sql)
				t1 := time.Now()
				rec.attempted++
				msg := ""
				switch {
				case errors.Is(err, wire.ErrServerBusy):
					rec.busy++
					msg = err.Error()
				case err != nil:
					rec.errored++
					msg = err.Error()
				default:
					if msg = o.verify(resp); msg != "" {
						rec.wrong++
					}
				}
				if msg != "" {
					if rec.firstFail == "" {
						rec.firstFail = fmt.Sprintf("%s: %s [%s]", w.classes[o.class].name, msg, o.sql)
					}
					if o.lost != nil {
						o.lost()
					}
					continue
				}
				if o.acked != nil {
					o.acked()
				}
				if w.classes[o.class].write {
					rec.writes++
				}
				rt := t1.Sub(t0).Nanoseconds()
				rec.samples = append(rec.samples, sample{
					class: uint8(o.class), rtNS: clampU32(rt), overheadNS: clampU32(rt - resp.ElapsedUS*1000),
				})
				if spec.tracer != nil {
					spec.tracer.request(e, w, o, t0, t1, resp)
				}
			}
		}(conns[i], e.clients[i])
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	for _, c := range conns {
		_ = c.Close()
	}
	return res, nil
}

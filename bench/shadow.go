package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"sqlxnf"
	"sqlxnf/internal/cache"
	"sqlxnf/internal/optimizer"
	"sqlxnf/internal/parser"
	"sqlxnf/internal/qgm"
	"sqlxnf/internal/rewrite"
	"sqlxnf/internal/wal"
	"sqlxnf/internal/wire"
	company "sqlxnf/internal/workload"
)

// A shadow measures one layer from outside: the harness feeds a sampled
// operation's inputs to that layer's public function, alone, and times the
// call. It says what the layer costs in isolation, which bounds its share of
// the round trip; it cannot see waiting inside the server.
type shadower struct {
	e         *env
	sess      *sqlxnf.Session // second session for in-process replays
	respBytes []int64
	err       error // first shadow call that failed
}

func newShadower(e *env) *shadower { return &shadower{e: e, sess: e.db.Session()} }

func (s *shadower) note(what string, err error) {
	if err != nil && s.err == nil {
		s.err = fmt.Errorf("shadow %s: %w", what, err)
	}
}

// codec pushes v through the wire's frame writer, frame reader and JSON
// decoder, as one side of a connection would, and returns the frame size.
func codec(v, into any) (int, error) {
	var buf bytes.Buffer
	if err := wire.WriteFrame(&buf, v); err != nil {
		return 0, err
	}
	n := buf.Len()
	payload, err := wire.ReadFrame(&buf)
	if err != nil {
		return n, err
	}
	return n, json.Unmarshal(payload, into)
}

// replay runs one operation's inputs through the layers, each under a child
// span of parent.
func (s *shadower) replay(t *tracer, parent, opID int64, cd classDef, o op, resp *wire.Response) {
	t.timed(parent, opID, "wire.codec_req", func() {
		_, err := codec(&wire.Request{ID: uint64(opID), Op: wire.OpExec, SQL: o.sql}, &wire.Request{})
		s.note("codec_req", err)
	})
	t.timed(parent, opID, "wire.codec_resp", func() {
		n, err := codec(resp, &wire.Response{})
		s.note("codec_resp", err)
		s.respBytes = append(s.respBytes, int64(n))
	})
	var stmts []parser.ScriptStmt
	t.timed(parent, opID, "parser.parse", func() {
		var err error
		stmts, err = parser.ParseScript(o.sql)
		s.note("parse", err)
	})
	if len(stmts) == 1 {
		if sel, ok := stmts[0].Stmt.(*parser.SelectStmt); ok {
			s.compile(t, parent, opID, sel)
		}
	}
	if !cd.write {
		t.timed(parent, opID, "engine.inproc_exec", func() {
			_, err := s.sess.Exec(o.sql)
			s.note("inproc_exec", err)
		})
	}
}

// compile walks a SELECT down the cold path a plan-cache miss takes.
func (s *shadower) compile(t *tracer, parent, opID int64, sel *parser.SelectStmt) {
	eng := s.e.db.Engine()
	var box *qgm.Box
	t.timed(parent, opID, "qgm.build", func() {
		var err error
		box, err = qgm.NewBuilder(eng.Catalog(), nil).BuildSelect(sel)
		s.note("qgm build", err)
	})
	if box == nil {
		return
	}
	t.timed(parent, opID, "rewrite.rewrite", func() { box = rewrite.Rewrite(box, eng.Options().Rewrite) })
	t.timed(parent, opID, "optimizer.compile", func() {
		_, _, err := optimizer.CompileWithInfo(box, eng.Options().Optimizer)
		s.note("optimizer compile", err)
	})
}

// medianUS times fn n times and returns the median in microseconds.
func medianUS(n int, fn func(i int) error) (float64, error) {
	d := make([]int64, n)
	for i := range d {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		d[i] = time.Since(t0).Nanoseconds()
	}
	return us(percentile(sorted(d), 0.5)), nil
}

// rawCommit is the sandbox's floor for one durable commit: a scratch log,
// one record of the workload's mean size appended and forced.
func rawCommit(recBytes int) (float64, error) {
	dir, err := os.MkdirTemp(outDir, "wal-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	log, _, err := wal.Open(dir, wal.Options{Policy: wal.SyncGroupCommit})
	if err != nil {
		return 0, err
	}
	rec := wal.Record{Type: wal.RecCommit, Payload: make([]byte, recBytes)}
	v, err := medianUS(50, func(i int) error {
		rec.LSN = wal.LSN(i + 1)
		if err := log.Append(rec); err != nil {
			return err
		}
		return log.Sync(rec.LSN)
	})
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	return v, err
}

// checkoutShadows times db.QueryCO three ways: a repeated root (a CO-cache
// hit), a root never seen (cold materialization), and a cached root after one
// of its members was updated (the e18 anomaly: refetch after invalidation
// measured at twice a cold materialization).
func checkoutShadows(e *env, m metrics) error {
	db := e.db
	take := func(q string) error {
		_, err := db.QueryCO(q)
		return err
	}
	const dno = 7
	q := company.CompanyCOQuery(companyCfg, dno)
	if err := take(q); err != nil {
		return err
	}
	hit, err := medianUS(50, func(int) error { return take(q) })
	if err != nil {
		return err
	}
	cold, err := medianUS(5, func(i int) error { return take(freshCO(dno, 900000000+i)) })
	if err != nil {
		return err
	}
	eno := firstEno(dno)
	refetch := make([]int64, 5)
	for i := range refetch {
		if err := take(q); err != nil {
			return err
		}
		upd := fmt.Sprintf("UPDATE EMP SET sal = %d WHERE eno = %d", int(e.data.empSal(eno))+i, eno)
		if _, err := db.Exec(upd); err != nil {
			return err
		}
		t0 := time.Now()
		if err := take(q); err != nil {
			return err
		}
		refetch[i] = time.Since(t0).Nanoseconds()
	}
	m.set("comat.hit_us", hit, "us")
	m.set("xnf.materialize_cold_us", cold, "us")
	m.set("comat.refetch_after_invalidate_us", us(percentile(sorted(refetch), 0.5)), "us")
	return nil
}

// navShadows loads a checked-out CO of 50 departments into the
// pointer-linked cache and walks it department -> employee -> skill.
func navShadows(e *env, m metrics) error {
	q := strings.Replace(company.CompanyCOQuery(companyCfg, 1), "WHERE dno = 1)", "WHERE dno <= 50)", 1)
	co, err := e.db.QueryCO(q)
	if err != nil {
		return err
	}
	var c *cache.Cache
	load, err := medianUS(5, func(int) error {
		c, err = cache.Load(e.db.Session(), co)
		return err
	})
	if err != nil {
		return err
	}
	hops := 0
	t0 := time.Now()
	depts, err := c.Open("Xdept")
	if err != nil {
		return err
	}
	for depts.Next() {
		emps, err := depts.OpenDependent("employment")
		if err != nil {
			return err
		}
		for emps.Next() {
			skills, err := emps.OpenDependent("empproperty")
			if err != nil {
				return err
			}
			for skills.Next() {
				hops++
			}
			hops++
		}
		hops++
	}
	m.set("cache.load_us_per_ktuple", load/float64(co.Size())*1000, "us")
	m.set("cache.nav_ns_per_hop", ratio(float64(time.Since(t0).Nanoseconds()), float64(hops)), "ns")
	return nil
}

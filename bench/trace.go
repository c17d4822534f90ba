package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"sqlxnf/internal/wire"
)

// span is one timed interval of the traced pass. Spans of one operation share
// op_id; parent is the id of the span that caused this one (0 for a root).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	OpID    int64  `json:"op_id"`
	Name    string `json:"name"`
	Class   string `json:"class,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps the traced pass's spans in memory; they are written out once
// the pass is over. Spans come from the harness's side of each call only:
// spans inside the program are a later change.
type tracer struct {
	epoch time.Time
	spans []span
	opID  int64
	every int // shadow one operation in this many
	sh    *shadower
}

func newTracer(every int, sh *shadower) *tracer {
	return &tracer{epoch: time.Now(), every: every, sh: sh}
}

// add records a span and returns its id.
func (t *tracer) add(parent, opID int64, name, class string, start, end time.Time) int64 {
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, OpID: opID, Name: name, Class: class,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// timed runs fn under a span.
func (t *tracer) timed(parent, opID int64, name string, fn func()) {
	start := time.Now()
	fn()
	t.add(parent, opID, name, "", start, time.Now())
}

// request records one completed round trip: the client's span, the server's
// own share of it as a child, and for one operation in t.every a sibling
// shadow span whose children replay the operation through single layers.
func (t *tracer) request(e *env, w *workload, o op, t0, t1 time.Time, resp *wire.Response) {
	t.opID++
	class := w.classes[o.class].name
	req := t.add(0, t.opID, "request", class, t0, t1)
	// Only the length of the server's share is known, not where in the round
	// trip it sat: centre it.
	srv := time.Duration(resp.ElapsedUS) * time.Microsecond
	if rt := t1.Sub(t0); srv > rt {
		srv = rt
	}
	s0 := t0.Add((t1.Sub(t0) - srv) / 2)
	t.add(req, t.opID, "server.exec", "", s0, s0.Add(srv))
	if t.opID%int64(t.every) == 0 {
		start := time.Now()
		id := t.add(0, t.opID, "shadow", class, start, start)
		t.sh.replay(t, id, t.opID, w.classes[o.class], o, resp)
		t.spans[id-1].EndNS = time.Since(t.epoch).Nanoseconds()
	}
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	dec := json.NewDecoder(bufio.NewReader(f))
	for {
		var s span
		if err := dec.Decode(&s); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, s)
	}
}

// selfTimes gives each span's duration minus the part of it that its
// children cover, where overlapping children count once.
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		slices.SortFunc(ks, func(a, b span) int { return cmp.Compare(a.StartNS, b.StartNS) })
		covered, end := int64(0), s.StartNS
		for _, k := range ks {
			lo, hi := max(k.StartNS, end), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		out[s.ID] = s.EndNS - s.StartNS - covered
	}
	return out
}

// layerRow is one line of the per-layer table: every span of one name.
type layerRow struct {
	Name       string  `json:"name"`
	Count      int     `json:"count"`
	P50US      float64 `json:"p50_us"`       // median span length
	SelfP50US  float64 `json:"self_p50_us"`  // median self time
	SelfTotalS float64 `json:"self_total_s"` // all self time of this name
}

func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	durs, selfs := map[string][]int64{}, map[string][]int64{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], s.EndNS-s.StartNS)
		selfs[s.Name] = append(selfs[s.Name], self[s.ID])
	}
	var rows []layerRow
	for name, d := range durs {
		var total int64
		for _, v := range selfs[name] {
			total += v
		}
		rows = append(rows, layerRow{
			Name: name, Count: len(d),
			P50US:      us(percentile(sorted(d), 0.5)),
			SelfP50US:  us(percentile(sorted(selfs[name]), 0.5)),
			SelfTotalS: float64(total) / 1e9,
		})
	}
	slices.SortFunc(rows, func(a, b layerRow) int { return cmp.Compare(b.SelfTotalS, a.SelfTotalS) })
	return rows
}

func printLayerTable(w io.Writer, workload string, rows []layerRow) {
	fmt.Fprintf(w, "\n%s: traced pass, time per span name (self = span minus what its children cover)\n", workload)
	fmt.Fprintf(w, "  %-28s %8s %12s %12s %12s\n", "span", "count", "p50_us", "self_p50_us", "self_total_s")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %8d %12.1f %12.1f %12.4f\n", r.Name, r.Count, r.P50US, r.SelfP50US, r.SelfTotalS)
	}
}

// spanP50US is the median length of the spans called name, in microseconds.
func spanP50US(rows []layerRow, name string) float64 {
	for _, r := range rows {
		if r.Name == name {
			return r.P50US
		}
	}
	return 0
}

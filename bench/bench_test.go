package main

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"regexp"
	"testing"
)

// opSequenceHash hashes the first n operations of every client of w.
func opSequenceHash(w *workload, seed int64, clients, n int) uint64 {
	h := fnv.New64a()
	d := newDataset(seed)
	for id := 0; id < clients; id++ {
		cs := newClientState(w, d, id, clients)
		for i := 0; i < n; i++ {
			o := w.next(cs, cs.nextClass())
			h.Write([]byte{byte(o.class)})
			h.Write([]byte(o.sql))
		}
	}
	return h.Sum64()
}

func TestOpSequenceFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := opSequenceHash(w, 1, 2, 200), opSequenceHash(w, 1, 2, 200), opSequenceHash(w, 2, 2, 200)
		if a != b {
			t.Errorf("%s: same seed gave different operations", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same operations", w.name)
		}
	}
}

func TestMixIsFixedByCount(t *testing.T) {
	for _, w := range workloads {
		cs := newClientState(w, newDataset(1), 0, 2)
		got := make([]int, len(w.classes))
		for i := 0; i < 5*cycleLen; i++ {
			got[cs.nextClass()]++
		}
		for c, cd := range w.classes {
			if got[c] != 5*cd.slots {
				t.Errorf("%s: %s ran %d times in 5 cycles, want %d", w.name, cd.name, got[c], 5*cd.slots)
			}
		}
	}
}

func ramp(n int) []int64 {
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(i + 1)
	}
	return v
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	// 2000 samples: p99 has 20 beyond it and stands.
	if v, q := tailPercentile(ramp(2000), 0.99); q != 0.99 || v != 1980 {
		t.Errorf("2000 samples: got value %d at q=%v, want 1980 at 0.99", v, q)
	}
	// 500 samples: p99 would have 5 beyond; the highest with ten is p98.
	if v, q := tailPercentile(ramp(500), 0.99); q != 0.98 || v != 490 {
		t.Errorf("500 samples: got value %d at q=%v, want 490 at 0.98", v, q)
	}
	// Too few samples for any tail: the median.
	if v, q := tailPercentile(ramp(15), 0.99); q != 0.5 || v != 8 {
		t.Errorf("15 samples: got value %d at q=%v, want 8 at 0.5", v, q)
	}
	if v := percentile(nil, 0.5); v != 0 {
		t.Errorf("empty: got %d", v)
	}
}

func TestSelfTimeSubtractsWhatChildrenCover(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "server.exec", StartNS: 10, EndNS: 60},
		{ID: 3, Parent: 1, Name: "late", StartNS: 50, EndNS: 80}, // overlaps span 2 by 10
		{ID: 4, Parent: 2, Name: "inner", StartNS: 20, EndNS: 30},
		{ID: 5, Parent: 1, Name: "spill", StartNS: 95, EndNS: 120}, // runs past its parent
	}
	want := map[int64]int64{1: 100 - 50 - 20 - 5, 2: 40, 3: 30, 4: 10, 5: 25}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, got[id], w)
		}
	}
	rows := layerTable(spans)
	if rows[0].Name != "server.exec" || rows[0].SelfTotalS != 40e-9 {
		t.Errorf("layer table leads with %+v, want server.exec at 40ns", rows[0])
	}
}

func TestWALWatchSurvivesCheckpoints(t *testing.T) {
	w := &walWatch{}
	prev := walFile{Bytes: 1000, Segments: 1, LastCheckpoint: 5}
	for _, cur := range []walFile{
		{Bytes: 1500, Segments: 1, LastCheckpoint: 5},  // +500
		{Bytes: 5600, Segments: 2, LastCheckpoint: 9},  // checkpoint record appended, old segment still there: +4100
		{Bytes: 4050, Segments: 1, LastCheckpoint: 9},  // old segment dropped: nothing countable
		{Bytes: 4300, Segments: 1, LastCheckpoint: 9},  // +250
		{Bytes: 4100, Segments: 1, LastCheckpoint: 14}, // checkpoint and truncation between two looks: +4100
	} {
		w.step(&prev, cur)
	}
	if w.bytes != 500+4100+250+4100 || w.checkpoints != 2 {
		t.Errorf("got %d bytes over %d checkpoints, want 8950 over 2", w.bytes, w.checkpoints)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got := spread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread %v, want 1", got)
	}
	steady := []float64{100, 101, 99, 100, 100}
	slower := []float64{104, 105, 103, 104, 104}
	if by, v := verdict(steady, slower, gate{Better: "lower", Bound: 0.03}); v != "worse" || math.Abs(by-0.04) > 1e-12 {
		t.Errorf("4%% slower against a 3%% bound: %s by %v", v, by)
	}
	if _, v := verdict(steady, slower, gate{Better: "higher", Bound: 0.03}); v != "within" {
		t.Errorf("4%% higher where higher is better: %s", v)
	}
	if _, v := verdict(steady, []float64{80, 120, 100, 90, 110}, gate{Better: "lower", Bound: 0.03}); v != "unresolved" {
		t.Errorf("spread wider than the bound: %s", v)
	}
	// The two metrics whose healthy value is 0: a share of 0 allows nothing,
	// the slack allows one failure in a thousand.
	zero := []float64{0, 0, 0}
	if _, v := verdict(zero, []float64{0, 0.0005, 0.0005}, zeroBased[0]); v != "within" {
		t.Errorf("failed_frac 0.0005 against a slack of 0.001: %s", v)
	}
	if _, v := verdict(zero, []float64{0.002, 0.002, 0}, zeroBased[0]); v != "worse" {
		t.Errorf("failed_frac 0.002 against a slack of 0.001: %s", v)
	}
	if _, v := verdict(zero, []float64{40, 41, 40}, zeroBased[1]); v != "worse" {
		t.Errorf("log bytes on a workload that logged none: %s", v)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload end to end for a fifth of a second: no
// operation may fail, every metric BENCHMARK.json promises must come out
// under a well-formed name, and the trace must be there.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	outDir = t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			cfg := runConfig{seed: 3, seconds: 0.2, clients: 2, endToEnd: true, layers: true}
			e, _, err := setUp(w, cfg.seed, cfg.clients)
			if err != nil {
				t.Fatal(err)
			}
			res, err := measure(e, w, cfg)
			if serr := e.stop(); serr != nil {
				t.Error(serr)
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 || res.EndToEnd["failed_frac"].Value != 0 {
				t.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
			}
			for _, m := range spec.PerLayer {
				if _, ok := res.PerLayer[m.Name]; !ok {
					t.Errorf("per-layer metric %s is in BENCHMARK.json but was not reported", m.Name)
				}
			}
			if len(res.PerLayer) != len(spec.PerLayer) {
				t.Errorf("%d per-layer metrics reported, BENCHMARK.json lists %d", len(res.PerLayer), len(spec.PerLayer))
			}
			for _, ms := range []metrics{res.EndToEnd, res.PerLayer} {
				for name, m := range ms {
					if !metricName.MatchString(name) || m.Unit == "" {
						t.Errorf("metric %q (unit %q) is not well formed", name, m.Unit)
					}
				}
			}
			if len(res.LayerTable) == 0 {
				t.Error("no layer table: the trace file was empty")
			}
			if (w == scanAgg) != (len(res.Explain) == len(w.classes) && res.Explain != nil) {
				t.Errorf("EXPLAIN ANALYZE texts: got %d", len(res.Explain))
			}
		})
	}
}

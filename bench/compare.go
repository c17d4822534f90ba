package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// gate is one end-to-end metric and how much worse it may get: by Bound as a
// share of the first set's median, or by Slack in the metric's own unit,
// whichever allows more.
type gate struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	Slack  float64 `json:"-"`
}

// benchmarkSpec is the part of BENCHMARK.json the agreement tool reads.
type benchmarkSpec struct {
	EndToEnd []gate `json:"end_to_end"`
}

// zeroBased are the two end-to-end metrics BENCHMARK.json cannot bound,
// because its bounds are shares of a median that is 0 here: failed_frac on
// every healthy run, log_bytes_per_write on the read-only workloads. The
// agreement tool gates them itself: one failure in a thousand operations, and
// a twentieth more log per write, where there is any.
var zeroBased = []gate{
	{Name: "failed_frac", Better: "lower", Slack: 0.001},
	{Name: "log_bytes_per_write", Better: "lower", Bound: 0.05},
}

// readResults reads a file of one or more result envelopes, one run each,
// and collects every end-to-end value by workload and metric.
func readResults(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	dec := json.NewDecoder(f)
	for {
		var env envelope
		if err := dec.Decode(&env); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, w := range env.Workloads {
			if out[w.Name] == nil {
				out[w.Name] = map[string][]float64{}
			}
			for name, m := range w.EndToEnd {
				out[w.Name][name] = append(out[w.Name][name], m.Value)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return out, nil
}

func median(v []float64) float64 {
	s := slices.Sorted(slices.Values(v))
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spread is the distance between the first and third quartile as a share of
// the median (quartiles by the exclusive method, as Python's
// statistics.quantiles gives them); 0 for fewer than two values.
func spread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := slices.Sorted(slices.Values(v))
	q := func(k int) float64 {
		pos := float64(k*(n+1)) / 4
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return ratio(q(3)-q(1), median(v))
}

// verdict places b against a: worse when b's median is worse than a's by more
// than the gate allows; unresolved when either side's own spread exceeds the
// bound, so a difference of that size cannot be told from noise. worseBy is a
// share of a's median, or the plain difference where that median is 0.
func verdict(a, b []float64, g gate) (worseBy float64, v string) {
	ma, mb := median(a), median(b)
	diff := mb - ma
	if g.Better == "higher" {
		diff = -diff
	}
	worseBy = diff
	if ma != 0 {
		worseBy = diff / math.Abs(ma)
	}
	switch {
	case g.Bound > 0 && max(spread(a), spread(b)) > g.Bound:
		return worseBy, "unresolved"
	case diff > max(g.Bound*math.Abs(ma), g.Slack):
		return worseBy, "worse"
	}
	return worseBy, "within"
}

// compareFiles prints, for every workload and end-to-end metric, both medians,
// how much worse the second is, the bound, and the verdict. It reports whether
// every pairing came out within its bound.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (bool, error) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	agree := true
	fmt.Fprintf(w, "%-12s %-19s %5s %14s %14s %9s %9s %7s  %s\n",
		"workload", "metric", "runs", "median A", "median B", "worse by", "spread", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range append(slices.Clone(spec.EndToEnd), zeroBased...) {
			va, vb := a[wl.name][m.Name], b[wl.name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			worseBy, v := verdict(va, vb, m)
			if v != "within" {
				agree = false
			}
			bound := fmt.Sprintf("%.1f%%", 100*m.Bound)
			if m.Slack > 0 {
				bound = fmt.Sprintf("+%g", m.Slack)
			}
			fmt.Fprintf(w, "%-12s %-19s %2d/%-2d %14.4f %14.4f %+8.1f%% %8.1f%% %7s  %s\n",
				wl.name, m.Name, len(va), len(vb), median(va), median(vb),
				100*worseBy, 100*max(spread(va), spread(vb)), bound, v)
		}
	}
	return agree, nil
}

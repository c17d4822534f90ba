package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sqlxnf/internal/obs"
)

// metric is one reported number. Units are spelled out because the result
// line the driver reads wants them beside every value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// percentile is nearest-rank over an ascending slice; 0 for an empty one.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailPercentile returns the value at quantile q when at least ten samples
// lie beyond it, and otherwise at the highest quantile that still has ten
// beyond, which it also returns: a tail read off fewer samples is noise.
func tailPercentile(sorted []int64, q float64) (int64, float64) {
	const beyond = 10
	n := len(sorted)
	if n <= 2*beyond {
		return percentile(sorted, 0.5), 0.5
	}
	if float64(n)*(1-q) < beyond {
		q = float64(n-beyond) / float64(n)
	}
	return percentile(sorted, q), q
}

// timing is the timing metrics of a measured window, over the whole of it:
// throughput is correct operations over the window's length, the latencies
// are percentiles of every sample pooled. Nothing is trimmed or picked, so a
// stall the program causes itself (a checkpoint, a long GC pause, vacuum)
// counts in all of them.
type timing struct {
	opsPerS      float64
	p50NS, p95NS int64
	p99NS        int64   // at quantile p99Q, which is lower when the window is
	p99Q         float64 // too short for ten samples beyond p99
}

func wholeWindow(all []sample, elapsed time.Duration) timing {
	rt := make([]int64, len(all))
	for i, s := range all {
		rt[i] = int64(s.rtNS)
	}
	slices.Sort(rt)
	t := timing{opsPerS: float64(len(rt)) / elapsed.Seconds(), p50NS: percentile(rt, 0.5)}
	t.p95NS, _ = tailPercentile(rt, 0.95)
	t.p99NS, t.p99Q = tailPercentile(rt, 0.99)
	return t
}

func sorted(v []int64) []int64 {
	slices.Sort(v)
	return v
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// ratio is a/b, and 0 when there was nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histDelta is what a histogram recorded between two snapshots.
func histDelta(before, after obs.HistSnapshot) obs.HistSnapshot {
	d := after
	for i := range d.Buckets {
		d.Buckets[i] -= before.Buckets[i]
	}
	d.Count -= before.Count
	d.SumNS -= before.SumNS
	return d
}

// resetPeakRSS returns freed memory to the system and restarts the kernel's
// high-water mark, so that in a run of several workloads each reports its own
// peak. Best effort: where /proc/self/clear_refs cannot be written the mark
// carries over from the workload before.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// fsType names the filesystem under dir, which decides what an fsync costs.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

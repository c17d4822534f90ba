// Package faultinj is the engine's opt-in fault-injection harness. An
// Injector is armed with faults bound to named probe points; engine and
// storage code call Hit at those points and receive the injected error (or
// panic) when a fault's trigger condition is met. A nil *Injector is inert,
// so production paths carry probes at the cost of one nil check.
//
// Probe points (see EXECUTOR.md "Cancellation, timeouts & fault injection"):
//
//	disk.read           storage.Disk.Read, before the copy
//	disk.write          storage.Disk.Write, before the copy
//	bufferpool.fetch    storage.BufferPool.Fetch, before frame lookup
//	wal.append          engine appendLog, per record: after the undo push, before the log append
//	comat.materialize   engine CO materialization, before the evaluator runs
//	wal.fsync           wal.FileLog, before each fsync (durable engines only)
//	wal.open            wal.Open, before scanning segments (durable engines only)
//	wal.truncate        wal.FileLog.TruncateBefore, before segments drop (durable engines only)
//	net.accept          wire.Server accept loop, after each successful Accept
//	net.read            wire.Server request loop, before each frame read
package faultinj

import (
	"errors"
	"fmt"
	"sync"
)

// Point names a probe point.
type Point string

// The engine's probe points.
const (
	DiskRead    Point = "disk.read"
	DiskWrite   Point = "disk.write"
	BufferFetch Point = "bufferpool.fetch"
	WALAppend   Point = "wal.append"
	ComatMat    Point = "comat.materialize"
	WALFsync    Point = "wal.fsync"
	WALOpen     Point = "wal.open"
	WALTruncate Point = "wal.truncate"
	NetAccept   Point = "net.accept"
	NetRead     Point = "net.read"
)

// Points lists every probe point an in-memory engine wires (chaos suites
// iterate it to prove coverage). WALFsync and WALOpen are excluded: they
// fire only on durable engines, which the crash harness covers separately.
func Points() []Point {
	return []Point{DiskRead, DiskWrite, BufferFetch, WALAppend, ComatMat}
}

// DurablePoints lists the probe points only durable (file-backed WAL)
// engines reach.
func DurablePoints() []Point {
	return []Point{WALFsync, WALOpen, WALTruncate}
}

// NetPoints lists the probe points of the network service layer
// (internal/wire): connection acceptance and per-request frame reads.
func NetPoints() []Point {
	return []Point{NetAccept, NetRead}
}

// ErrInjected is the default error injected when a Fault carries none.
var ErrInjected = errors.New("faultinj: injected fault")

// Fault describes one armed failure at a probe point.
type Fault struct {
	// Point is the probe this fault fires at.
	Point Point
	// After skips that many hits of the point before firing (0 = first hit).
	After int
	// Err is the error to inject; nil uses ErrInjected.
	Err error
	// Panic makes the probe panic instead of returning an error (exercises
	// the engine's statement-boundary containment).
	Panic bool
	// Once disarms the fault after its first firing. Chaos suites use it so
	// rollback's own storage traffic does not re-fault.
	Once bool
}

type armed struct {
	f    Fault
	hits int // probe hits seen by this fault while armed
	dead bool
}

// Injector holds armed faults and fire counters. The zero value is ready to
// use; a nil *Injector is inert.
type Injector struct {
	mu     sync.Mutex
	armed  []*armed
	hits   map[Point]int64
	fired  int64
	byPt   map[Point]int64
	panics int64
}

// New returns an empty injector.
func New() *Injector {
	return &Injector{hits: map[Point]int64{}, byPt: map[Point]int64{}}
}

// Arm adds a fault. Multiple faults may be armed, including on one point;
// the first whose trigger condition is met fires.
func (in *Injector) Arm(f Fault) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.armed = append(in.armed, &armed{f: f})
}

// DisarmAll removes every armed fault (fire counters persist).
func (in *Injector) DisarmAll() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.armed = nil
}

// Hit is the probe call: it records the hit and, when an armed fault's
// condition is met, fires it — returning its error or panicking. Nil
// receivers (injection disabled) return nil immediately.
func (in *Injector) Hit(p Point) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	in.hits[p]++
	var fire *Fault
	for _, a := range in.armed {
		if a.dead || a.f.Point != p {
			continue
		}
		a.hits++
		if a.hits <= a.f.After {
			continue
		}
		if a.f.Once {
			a.dead = true
		}
		fire = &a.f
		break
	}
	if fire == nil {
		in.mu.Unlock()
		return nil
	}
	in.fired++
	in.byPt[p]++
	if fire.Panic {
		in.panics++
		in.mu.Unlock()
		panic(fmt.Sprintf("faultinj: injected panic at %s", p))
	}
	err := fire.Err
	in.mu.Unlock()
	if err == nil {
		err = fmt.Errorf("%w at %s", ErrInjected, p)
	}
	return err
}

// Fired returns how many faults have fired in total.
func (in *Injector) Fired() int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired
}

// FiredAt returns how many faults have fired at one point.
func (in *Injector) FiredAt(p Point) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.byPt[p]
}

// Hits returns how many times a probe point has been reached (fired or not).
func (in *Injector) Hits(p Point) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hits[p]
}

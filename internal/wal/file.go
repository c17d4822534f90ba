package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sqlxnf/internal/faultinj"
)

// SyncPolicy controls when FileLog forces appended records to stable
// storage.
type SyncPolicy uint8

const (
	// SyncGroupCommit (the default) batches concurrent committers into one
	// fsync: a committer whose LSN is already covered by another
	// committer's fsync returns without issuing its own.
	SyncGroupCommit SyncPolicy = iota
	// SyncAlways issues one fsync per Sync call (per commit).
	SyncAlways
	// SyncNone writes through to the OS but never fsyncs; commits survive
	// process crashes but not power loss.
	SyncNone
)

// String names the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncGroupCommit:
		return "group-commit"
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", uint8(p))
	}
}

// DefaultSegmentBytes is the rotation threshold when Options leaves
// SegmentBytes zero.
const DefaultSegmentBytes = 4 << 20

// frameHeader is the per-record on-disk overhead: u32 length + u32 CRC32C.
const frameHeader = 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options configures a FileLog.
type Options struct {
	// SegmentBytes rotates to a new segment file once the current one
	// reaches this size (0 = DefaultSegmentBytes).
	SegmentBytes int64
	// Policy is the fsync policy (default SyncGroupCommit).
	Policy SyncPolicy
	// GroupWindow is how long a group-commit leader with other committers
	// already queued waits before forcing the disk, letting their records
	// join its batch (PostgreSQL's commit_delay). A lone committer never
	// waits. Zero means DefaultGroupWindow; negative disables the wait.
	GroupWindow time.Duration
	// Faults arms the wal.fsync / wal.open probe points (nil = inert).
	Faults *faultinj.Injector
}

// DefaultGroupWindow is the group-commit batching window when Options
// leaves GroupWindow zero.
const DefaultGroupWindow = 250 * time.Microsecond

// Stats reports a FileLog's observable state.
type Stats struct {
	Segments       int   // live segment files (closed + current)
	Bytes          int64 // bytes written to live segments (excluding unflushed)
	DurableBytes   int64 // bytes covered by the last successful fsync
	LastLSN        LSN   // highest LSN appended
	DurableLSN     LSN   // highest LSN known durable
	LastCheckpoint LSN   // LSN of the newest checkpoint record
	Appends        int64 // records appended this process
	Syncs          int64 // fsyncs issued this process
	SyncSkips      int64 // Sync calls satisfied by another committer's fsync
}

type segMeta struct {
	path  string
	first LSN // LSN of the segment's first record
	bytes int64
}

// FileLog is the durable write-ahead log: length-prefixed, CRC32C-framed
// records appended to segment files named by their first LSN
// (wal-%016d.seg). Records buffer in memory until a flush (Sync, segment
// rotation, Close, or a large-pending spill); fsync behavior follows the
// configured SyncPolicy.
type FileLog struct {
	dir  string
	opts Options

	// Group commit runs leader/follower under mu: at most one committer
	// (the leader, forcing=true) has an fsync in flight, and it forces the
	// disk with mu released so appends keep flowing. Followers wait on
	// syncCond; every force completion broadcasts, covered followers
	// return instantly, and one uncovered follower becomes the next
	// leader. syncCond is also broadcast by the rare with-mu fsyncs
	// (rotation, Close), whose forces can cover waiting committers.
	mu        sync.Mutex
	syncCond  *sync.Cond
	forcing   bool      // a committer's fsync is in flight without mu
	sibs      int       // committers blocked in syncCond.Wait
	closed    []segMeta // full segments, oldest first
	f         *os.File  // current segment (nil until first append)
	cur       segMeta
	pending   []byte // framed records not yet written to f
	lastLSN   LSN    // highest appended LSN
	written   LSN    // highest LSN written to the OS
	durable   LSN    // highest LSN fsynced
	durBytes  int64  // total live bytes covered by the last fsync
	lastCkpt  LSN
	ckptSeen  bool
	sinceCkpt int64 // bytes appended since the last checkpoint record
	writeErr  error // sticky: first write/rotate/fsync failure poisons the log

	appends, syncs, syncSkips int64

	met *Metrics // optional observation sink (see SetMetrics); read under mu
}

// Open scans dir's segment files (creating dir if needed), tolerating a
// torn tail: the scan stops at the first short or CRC-corrupt record,
// truncates that segment there, and deletes any later segments. It returns
// the log opened for appending plus every intact record in LSN order —
// Open never refuses to start over a torn tail.
func Open(dir string, opts Options) (*FileLog, []Record, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.GroupWindow == 0 {
		opts.GroupWindow = DefaultGroupWindow
	}
	if err := opts.Faults.Hit(faultinj.WALOpen); err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: open: %w", err)
	}
	names, err := segmentNames(dir)
	if err != nil {
		return nil, nil, err
	}
	l := &FileLog{dir: dir, opts: opts}
	l.syncCond = sync.NewCond(&l.mu)
	paths := make([]string, len(names))
	for i, name := range names {
		paths[i] = filepath.Join(dir, name)
	}
	recs, metas, torn, err := scanSegments(paths)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open: %w", err)
	}
	for _, r := range recs {
		l.noteScanned(r)
	}
	if torn {
		// Torn or trailing garbage: truncate that segment in place and drop
		// everything after it.
		last := metas[len(metas)-1]
		if err := os.Truncate(last.path, last.bytes); err != nil {
			return nil, nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		for _, later := range paths[len(metas):] {
			if err := os.Remove(later); err != nil {
				return nil, nil, fmt.Errorf("wal: dropping segment after torn tail: %w", err)
			}
		}
	}
	for _, m := range metas {
		l.closed = appendClosed(l.closed, m)
	}
	// Reopen the newest surviving segment for appending; an empty dir
	// defers segment creation to the first Append. A newest segment torn
	// down to zero records is a crash artifact whose LSN-derived name may
	// exceed the LSNs recovery will append next — drop it and let the first
	// append create a correctly named segment.
	if n := len(l.closed); n > 0 && l.closed[n-1].bytes == 0 {
		if err := os.Remove(l.closed[n-1].path); err != nil {
			return nil, nil, fmt.Errorf("wal: dropping empty torn segment: %w", err)
		}
		l.closed = l.closed[:n-1]
	}
	if n := len(l.closed); n > 0 {
		l.cur = l.closed[n-1]
		l.closed = l.closed[:n-1]
		f, err := os.OpenFile(l.cur.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: open segment: %w", err)
		}
		l.f = f
	}
	l.written = l.lastLSN
	l.durable = l.lastLSN // what survived on disk is by definition durable
	l.durBytes = l.liveBytesLocked()
	// Checkpoints rotate to a fresh segment before being appended, so the
	// bytes since the last checkpoint are exactly the bytes of segments
	// starting at or after it.
	l.sinceCkpt = 0
	if !l.ckptSeen {
		l.sinceCkpt = l.durBytes
	} else {
		for _, m := range append(append([]segMeta(nil), l.closed...), l.cur) {
			if m.first >= l.lastCkpt {
				l.sinceCkpt += m.bytes
			}
		}
	}
	return l, recs, nil
}

func appendClosed(segs []segMeta, m segMeta) []segMeta {
	if m.bytes == 0 && m.first == 0 {
		// A zero-length segment with no records carries nothing.
		_ = os.Remove(m.path)
		return segs
	}
	return append(segs, m)
}

func (l *FileLog) noteScanned(r Record) {
	if r.LSN > l.lastLSN {
		l.lastLSN = r.LSN
	}
	if r.Type == RecCheckpoint && r.LSN > l.lastCkpt {
		l.lastCkpt = r.LSN
		l.ckptSeen = true
	}
}

// scanSegments decodes the segment files at paths, oldest first, returning
// their records in LSN order and one segMeta per segment read. It stops after
// the first segment with a torn or corrupt tail (torn is true; that segment's
// meta is the last one and its bytes the intact prefix): later segments can
// only hold records that depend on the lost ones. A read error ends the scan
// with the records decoded so far.
func scanSegments(paths []string) (recs []Record, metas []segMeta, torn bool, err error) {
	for _, path := range paths {
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return recs, metas, false, rerr
		}
		segRecs, good, segTorn := scanSegment(data)
		first := segFirstLSN(filepath.Base(path))
		if len(segRecs) > 0 {
			first = segRecs[0].LSN
		}
		recs = append(recs, segRecs...)
		metas = append(metas, segMeta{path: path, first: first, bytes: int64(good)})
		if segTorn || good < len(data) {
			return recs, metas, true, nil
		}
	}
	return recs, metas, false, nil
}

// scanSegment decodes framed records from data. It returns the records, the
// byte offset just past the last intact record, and whether the scan
// stopped early (torn/corrupt tail).
func scanSegment(data []byte) (recs []Record, good int, torn bool) {
	pos := 0
	for {
		if len(data)-pos < frameHeader {
			return recs, pos, len(data)-pos > 0
		}
		length := binary.LittleEndian.Uint32(data[pos:])
		sum := binary.LittleEndian.Uint32(data[pos+4:])
		if length == 0 || length > uint32(len(data)-pos-frameHeader) {
			return recs, pos, true
		}
		payload := data[pos+frameHeader : pos+frameHeader+int(length)]
		if crc32.Checksum(payload, crcTable) != sum {
			return recs, pos, true
		}
		r, used, err := DecodeRecord(payload)
		if err != nil || used != int(length) {
			return recs, pos, true
		}
		pos += frameHeader + int(length)
		recs = append(recs, r)
	}
}

func segmentNames(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".seg") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // zero-padded decimal first-LSN names sort by LSN
	return names, nil
}

func segFirstLSN(name string) LSN {
	s := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg")
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0
	}
	return LSN(n)
}

func segName(first LSN) string { return fmt.Sprintf("wal-%016d.seg", uint64(first)) }

// Append frames rec and buffers it for the next flush. Checkpoint records
// first rotate to a fresh segment so TruncateBefore can later delete every
// earlier one. Append itself does no I/O under SyncAlways/SyncGroupCommit
// unless rotation or a large pending buffer forces a flush; under SyncNone
// it writes through (without fsync) on every call.
func (l *FileLog) Append(rec Record) error {
	t0 := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	defer func() {
		if l.met != nil && l.met.Append != nil {
			l.met.Append.Observe(time.Since(t0))
		}
	}()
	if l.writeErr != nil {
		return l.writeErr
	}
	if rec.LSN == 0 {
		return fmt.Errorf("wal: append of record without LSN")
	}
	if l.f == nil {
		if err := l.openSegmentLocked(rec.LSN); err != nil {
			return err
		}
	} else if filled := l.cur.bytes + int64(len(l.pending)); filled > 0 &&
		(rec.Type == RecCheckpoint || filled >= l.opts.SegmentBytes) {
		if err := l.rotateLocked(rec.LSN); err != nil {
			return err
		}
	}
	payload := AppendRecord(nil, rec)
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, crcTable))
	l.pending = append(l.pending, hdr[:]...)
	l.pending = append(l.pending, payload...)
	l.lastLSN = rec.LSN
	l.appends++
	l.sinceCkpt += int64(frameHeader + len(payload))
	if rec.Type == RecCheckpoint {
		l.lastCkpt = rec.LSN
		l.ckptSeen = true
		l.sinceCkpt = 0
	}
	if l.opts.Policy == SyncNone || len(l.pending) >= 256<<10 {
		return l.flushLocked()
	}
	return nil
}

// openSegmentLocked creates the first segment, named by the first LSN it
// will hold.
func (l *FileLog) openSegmentLocked(first LSN) error {
	path := filepath.Join(l.dir, segName(first))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		l.writeErr = fmt.Errorf("wal: creating segment: %w", err)
		return l.writeErr
	}
	l.f = f
	l.cur = segMeta{path: path, first: first}
	return nil
}

// rotateLocked flushes and seals the current segment (fsyncing it unless
// the policy is SyncNone — sealing an unsynced file would leave a
// durability hole behind later fsyncs) and starts a new one.
func (l *FileLog) rotateLocked(nextFirst LSN) error {
	if err := l.flushLocked(); err != nil {
		return err
	}
	if l.opts.Policy != SyncNone {
		if err := l.fsyncLocked(); err != nil {
			return err
		}
	}
	if err := l.f.Close(); err != nil {
		l.writeErr = fmt.Errorf("wal: sealing segment: %w", err)
		return l.writeErr
	}
	l.closed = append(l.closed, l.cur)
	l.f, l.cur = nil, segMeta{}
	return l.openSegmentLocked(nextFirst)
}

// flushLocked writes pending bytes to the current segment (no fsync).
func (l *FileLog) flushLocked() error {
	if l.writeErr != nil {
		return l.writeErr
	}
	if len(l.pending) == 0 {
		return nil
	}
	if _, err := l.f.Write(l.pending); err != nil {
		l.writeErr = fmt.Errorf("wal: write: %w", err)
		return l.writeErr
	}
	l.cur.bytes += int64(len(l.pending))
	l.pending = l.pending[:0]
	l.written = l.lastLSN
	return nil
}

// fsyncLocked forces the current segment to stable storage with mu held —
// used on the rare paths that must not interleave with appends (segment
// sealing, Close). Commit-path fsyncs go through Sync, which forces the
// disk without holding mu.
func (l *FileLog) fsyncLocked() error {
	err := l.opts.Faults.Hit(faultinj.WALFsync)
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		l.writeErr = fmt.Errorf("wal: fsync: %w", err)
		return l.writeErr
	}
	l.syncs++
	l.durable = l.written
	l.durBytes = l.liveBytesLocked()
	l.syncCond.Broadcast()
	return nil
}

// Sync makes every record up to lsn durable under the configured policy.
// Under SyncGroupCommit a call whose LSN a force already covered returns
// without touching the disk, and at most one committer — the leader — has
// an fsync in flight at a time: followers sleep on syncCond, wake when the
// force lands, and either return covered or lead the next force. A leader
// with siblings waiting (or records appended past its own) delays
// GroupWindow before forcing so their commits ride its fsync. The fsync
// itself runs with mu released, so appends keep flowing into the next
// batch. A force that fails (and that no other force covered) poisons the
// log: every later Append and Sync returns that error until the directory is
// reopened.
func (l *FileLog) Sync(lsn LSN) error {
	l.mu.Lock()
	if l.opts.Policy == SyncNone {
		err := l.writeErr
		if err == nil {
			err = l.flushLocked()
		}
		l.mu.Unlock()
		return err
	}
	for {
		if l.writeErr != nil {
			err := l.writeErr
			l.mu.Unlock()
			return err
		}
		if l.opts.Policy == SyncGroupCommit && l.durable >= lsn {
			l.syncSkips++
			l.mu.Unlock()
			return nil
		}
		if !l.forcing {
			break
		}
		l.sibs++
		l.syncCond.Wait()
		l.sibs--
	}
	l.forcing = true
	if l.opts.Policy == SyncGroupCommit && l.opts.GroupWindow > 0 {
		l.gatherLocked()
	}
	if err := l.flushLocked(); err != nil {
		l.forcing = false
		l.syncCond.Broadcast()
		l.mu.Unlock()
		return err
	}
	if l.f == nil {
		l.forcing = false
		l.syncCond.Broadcast()
		l.mu.Unlock()
		return nil // nothing ever appended
	}
	f := l.f
	target := l.written
	bytesAtFlush := l.liveBytesLocked()
	met := l.met
	batch := int64(l.sibs + 1) // leader + followers riding this force
	l.mu.Unlock()

	t0 := time.Now()
	var ferr error
	if err := l.opts.Faults.Hit(faultinj.WALFsync); err != nil {
		ferr = fmt.Errorf("wal: fsync: %w", err)
	} else if err := f.Sync(); err != nil {
		ferr = fmt.Errorf("wal: fsync: %w", err)
	}
	if met != nil {
		if met.Fsync != nil {
			met.Fsync.Observe(time.Since(t0))
		}
		if met.BatchSize != nil {
			met.BatchSize.ObserveN(batch)
		}
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	l.forcing = false
	defer l.syncCond.Broadcast()
	if ferr != nil {
		if l.durable >= target {
			// A rotation or Close sealed (and forced) the segment while our
			// fsync was in flight; its force covered us.
			return nil
		}
		// Sticky, like a failed write: after EIO the kernel may already have
		// dropped the dirty pages, so a later fsync that succeeds proves
		// nothing about them. No commit is acknowledged past this point.
		if l.writeErr == nil {
			l.writeErr = ferr
		}
		return ferr
	}
	l.syncs++
	if target > l.durable {
		l.durable = target
		if bytesAtFlush > l.durBytes {
			l.durBytes = bytesAtFlush
		}
	}
	return nil
}

// gatherLocked is the group-commit batching window: the leader yields the
// processor while new records keep arriving so that concurrent committers'
// records join its force, returning once arrivals quiesce or GroupWindow
// expires. Yielding (not sleeping) keeps the wait at microseconds — a timer
// sleep's real granularity can be a millisecond — and costs a lone
// committer only a few no-op yields. Called with mu held; releases and
// reacquires it around each yield.
func (l *FileLog) gatherLocked() {
	deadline := time.Now().Add(l.opts.GroupWindow)
	idle := 0
	for {
		last := l.lastLSN
		l.mu.Unlock()
		runtime.Gosched()
		l.mu.Lock()
		if l.lastLSN == last {
			idle++
			if idle >= 4 {
				return
			}
		} else {
			idle = 0
		}
		if !time.Now().Before(deadline) {
			return
		}
	}
}

// TruncateBefore deletes every sealed segment whose records all precede
// lsn. The current segment is never deleted; because checkpoints rotate
// first, truncating at a checkpoint LSN drops all pre-checkpoint history.
func (l *FileLog) TruncateBefore(lsn LSN) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	// The wal.truncate probe models a crash between the checkpoint record
	// landing durably and the old segments being removed: recovery must
	// tolerate (and re-truncate) surviving pre-checkpoint history.
	if err := l.opts.Faults.Hit(faultinj.WALTruncate); err != nil {
		return err
	}
	keep := l.closed[:0]
	for i, m := range l.closed {
		next := l.cur.first
		if i+1 < len(l.closed) {
			next = l.closed[i+1].first
		}
		if next != 0 && next <= lsn {
			if err := os.Remove(m.path); err != nil {
				return fmt.Errorf("wal: truncate: %w", err)
			}
			l.durBytes -= m.bytes
			continue
		}
		keep = append(keep, m)
	}
	l.closed = keep
	if l.durBytes < 0 {
		l.durBytes = 0
	}
	return nil
}

// Close flushes (and, unless SyncNone, fsyncs) outstanding records and
// closes the current segment.
func (l *FileLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return l.writeErr
	}
	err := l.flushLocked()
	if err == nil && l.opts.Policy != SyncNone {
		err = l.fsyncLocked()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// Records returns the live records in LSN order: every record in the live
// segment files plus the tail still buffered for the next flush. After
// TruncateBefore(checkpoint) that is the checkpoint record and the suffix
// behind it — what Open would return, plus the unflushed tail. It reads the
// segments back from disk with mu held: a tool for tests and benchmarks, not
// a hot path.
func (l *FileLog) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	paths := make([]string, 0, len(l.closed)+1)
	for _, m := range l.closed {
		paths = append(paths, m.path)
	}
	if l.cur.path != "" {
		paths = append(paths, l.cur.path)
	}
	// The single-value signature is what callers range over; a segment that
	// cannot be read back ends the result early instead of failing it.
	recs, _, _, _ := scanSegments(paths)
	tail, _, _ := scanSegment(l.pending)
	return append(recs, tail...)
}

// LastLSN returns the highest LSN ever appended to (or recovered from)
// this log.
func (l *FileLog) LastLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastLSN
}

// LastCheckpoint returns the LSN of the newest checkpoint record, or 0.
func (l *FileLog) LastCheckpoint() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastCkpt
}

// BytesSinceCheckpoint returns how many log bytes follow the last
// checkpoint record (total bytes when no checkpoint exists) — the engine's
// auto-checkpoint trigger.
func (l *FileLog) BytesSinceCheckpoint() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinceCkpt
}

func (l *FileLog) liveBytesLocked() int64 {
	total := l.cur.bytes
	for _, m := range l.closed {
		total += m.bytes
	}
	return total
}

// Stats snapshots the log's counters.
func (l *FileLog) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs := len(l.closed)
	if l.f != nil {
		segs++
	}
	return Stats{
		Segments:       segs,
		Bytes:          l.liveBytesLocked(),
		DurableBytes:   l.durBytes,
		LastLSN:        l.lastLSN,
		DurableLSN:     l.durable,
		LastCheckpoint: l.lastCkpt,
		Appends:        l.appends,
		Syncs:          l.syncs,
		SyncSkips:      l.syncSkips,
	}
}

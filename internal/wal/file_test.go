package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"sqlxnf/internal/faultinj"
	"sqlxnf/internal/storage"
	"sqlxnf/internal/types"
)

func openT(t *testing.T, dir string, opts Options) (*FileLog, []Record) {
	t.Helper()
	l, recs, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, recs
}

func commitRec(lsn LSN) Record {
	return Record{LSN: lsn, Tx: uint64(lsn), Type: RecCommit}
}

func TestFileLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, recs := openT(t, dir, Options{})
	if len(recs) != 0 {
		t.Fatalf("fresh dir returned %d records", len(recs))
	}
	want := []Record{
		{LSN: 1, Tx: 7, Type: RecBegin},
		{LSN: 2, Tx: 7, Type: RecInsert, Table: "T", Payload: []byte("x")},
		{LSN: 3, Tx: 7, Type: RecCommit},
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(3); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, got := openT(t, dir, Options{})
	defer l2.Close()
	if len(got) != len(want) {
		t.Fatalf("reopen returned %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].LSN != want[i].LSN || got[i].Tx != want[i].Tx ||
			got[i].Type != want[i].Type || got[i].Table != want[i].Table ||
			string(got[i].Payload) != string(want[i].Payload) {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	if l2.LastLSN() != 3 {
		t.Fatalf("LastLSN = %d, want 3", l2.LastLSN())
	}
}

func TestFileLogRotation(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{SegmentBytes: 256})
	n := LSN(1)
	for ; n <= 40; n++ {
		if err := l.Append(commitRec(n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(n - 1); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Segments < 2 {
		t.Fatalf("expected rotation, got %d segment(s)", st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, recs := openT(t, dir, Options{SegmentBytes: 256})
	defer l2.Close()
	if len(recs) != 40 {
		t.Fatalf("reopen across segments returned %d records, want 40", len(recs))
	}
	for i, r := range recs {
		if r.LSN != LSN(i+1) {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
	}
}

// TestFileLogTornTail cuts the newest segment at every byte offset inside
// its last record; Open must truncate to the preceding record, never error,
// and a subsequent reopen must be stable.
func TestFileLogTornTail(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	for n := LSN(1); n <= 3; n++ {
		if err := l.Append(commitRec(n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(3); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := segmentNames(dir)
	if err != nil || len(names) != 1 {
		t.Fatalf("segments: %v %v", names, err)
	}
	path := filepath.Join(dir, names[0])
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Find the start of record 3: decode frame lengths.
	off := 0
	for i := 0; i < 2; i++ {
		off += frameHeader + int(binary.LittleEndian.Uint32(full[off:]))
	}
	for cut := off + 1; cut < len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, recs := openT(t, dir, Options{})
		if len(recs) != 2 {
			t.Fatalf("cut at %d: got %d records, want 2", cut, len(recs))
		}
		l2.Close()
		// The torn tail must be gone from disk now.
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != off {
			t.Fatalf("cut at %d: truncated to %d bytes, want %d", cut, len(data), off)
		}
		// Restore for the next iteration.
		if err := os.WriteFile(path, full, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFileLogCorruptMiddle flips a payload byte of the middle record: the
// scan must stop before it and drop the rest of the log.
func TestFileLogCorruptMiddle(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	for n := LSN(1); n <= 3; n++ {
		if err := l.Append(commitRec(n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(3); err != nil {
		t.Fatal(err)
	}
	l.Close()
	names, _ := segmentNames(dir)
	path := filepath.Join(dir, names[0])
	data, _ := os.ReadFile(path)
	rec1End := frameHeader + int(binary.LittleEndian.Uint32(data))
	data[rec1End+frameHeader] ^= 0xff // first payload byte of record 2
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, recs := openT(t, dir, Options{})
	defer l2.Close()
	if len(recs) != 1 || recs[0].LSN != 1 {
		t.Fatalf("corrupt middle: got %d records (first %v), want just LSN 1", len(recs), recs)
	}
}

func TestFileLogGroupCommitSkips(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Policy: SyncGroupCommit})
	defer l.Close()
	var lsnMu sync.Mutex
	next := LSN(1)
	const writers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lsnMu.Lock()
				lsn := next
				next++
				err := l.Append(commitRec(lsn))
				lsnMu.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
				if err := l.Sync(lsn); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := l.Stats()
	if st.Syncs+st.SyncSkips < writers*per {
		t.Fatalf("syncs %d + skips %d < %d commits", st.Syncs, st.SyncSkips, writers*per)
	}
	if st.SyncSkips == 0 {
		t.Fatalf("no group-commit skips across %d concurrent committers", writers)
	}
	if st.DurableLSN != LSN(writers*per) {
		t.Fatalf("durable LSN %d, want %d", st.DurableLSN, writers*per)
	}
}

func TestFileLogSyncAlwaysNeverSkips(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Policy: SyncAlways})
	defer l.Close()
	for n := LSN(1); n <= 5; n++ {
		if err := l.Append(commitRec(n)); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(n); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Syncs != 5 || st.SyncSkips != 0 {
		t.Fatalf("SyncAlways: syncs=%d skips=%d, want 5/0", st.Syncs, st.SyncSkips)
	}
}

func TestFileLogTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{SegmentBytes: 128})
	var ckptLSN LSN
	for n := LSN(1); n <= 30; n++ {
		r := commitRec(n)
		if n == 25 {
			r.Type = RecCheckpoint
			ckptLSN = n
		}
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(30); err != nil {
		t.Fatal(err)
	}
	before := l.Stats()
	if before.Segments < 3 {
		t.Fatalf("want several segments before truncation, got %d", before.Segments)
	}
	if err := l.TruncateBefore(ckptLSN); err != nil {
		t.Fatal(err)
	}
	after := l.Stats()
	if after.Bytes >= before.Bytes {
		t.Fatalf("log did not shrink: %d -> %d bytes", before.Bytes, after.Bytes)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, recs := openT(t, dir, Options{SegmentBytes: 128})
	defer l2.Close()
	if len(recs) == 0 || recs[0].LSN != ckptLSN {
		t.Fatalf("after truncation reopen starts at %v, want checkpoint LSN %d", recs, ckptLSN)
	}
	if recs[len(recs)-1].LSN != 30 {
		t.Fatalf("lost tail records: last LSN %d", recs[len(recs)-1].LSN)
	}
}

func TestFileLogBytesSinceCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	for n := LSN(1); n <= 10; n++ {
		if err := l.Append(commitRec(n)); err != nil {
			t.Fatal(err)
		}
	}
	grown := l.BytesSinceCheckpoint()
	if grown == 0 {
		t.Fatal("no bytes since start")
	}
	ck := commitRec(11)
	ck.Type = RecCheckpoint
	if err := l.Append(ck); err != nil {
		t.Fatal(err)
	}
	if got := l.BytesSinceCheckpoint(); got >= grown {
		t.Fatalf("checkpoint did not reset byte counter: %d", got)
	}
	l.Close()
	// The counter must survive reopen.
	l2, _ := openT(t, dir, Options{})
	defer l2.Close()
	if got := l2.BytesSinceCheckpoint(); got >= grown {
		t.Fatalf("reopened byte counter %d not bounded by post-checkpoint suffix", got)
	}
}

// sameRecords compares two record slices by rendered value.
func sameRecords(t *testing.T, label string, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range want {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Fatalf("%s: record %d is %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestFileLogRecords: Records reads the live log back — flushed segments
// plus the tail still in the pending buffer — and agrees with what a reopen
// returns; after TruncateBefore(checkpoint) it starts at the checkpoint.
func TestFileLogRecords(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 128}
	l, _ := openT(t, dir, opts)
	if got := l.Records(); len(got) != 0 {
		t.Fatalf("empty log returned %d records", len(got))
	}
	var want []Record
	const ckptLSN = 25
	for n := LSN(1); n <= 30; n++ {
		r := commitRec(n)
		if n == ckptLSN {
			r.Type = RecCheckpoint
			r.Payload = []byte("snapshot")
		}
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	if err := l.Sync(30); err != nil {
		t.Fatal(err)
	}
	// Two more records that stay in the pending buffer: no Sync follows them.
	for n := LSN(31); n <= 32; n++ {
		if err := l.Append(commitRec(n)); err != nil {
			t.Fatal(err)
		}
		want = append(want, commitRec(n))
	}
	if st := l.Stats(); st.Segments < 3 || len(l.pending) == 0 {
		t.Fatalf("want several segments and an unflushed tail, got %+v with %d pending bytes", st, len(l.pending))
	}
	sameRecords(t, "live log", l.Records(), want)

	if err := l.TruncateBefore(ckptLSN); err != nil {
		t.Fatal(err)
	}
	want = want[ckptLSN-1:]
	got := l.Records()
	if len(got) == 0 || got[0].Type != RecCheckpoint || got[0].LSN != ckptLSN {
		t.Fatalf("after truncation Records starts at %+v, want the checkpoint at LSN %d", got, ckptLSN)
	}
	sameRecords(t, "after truncation", got, want)

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, reopened := openT(t, dir, opts)
	defer l2.Close()
	sameRecords(t, "reopen vs Records before close", reopened, want)
	sameRecords(t, "Records after reopen", l2.Records(), reopened)
}

// TestFileLogFsyncFailureIsSticky: a failed force poisons the log. After EIO
// the kernel may have dropped the dirty pages, so a later fsync succeeding
// says nothing about them — acknowledging a later commit would put it behind
// bytes that may be gone.
func TestFileLogFsyncFailureIsSticky(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncGroupCommit, SyncAlways} {
		inj := faultinj.New()
		l, _ := openT(t, t.TempDir(), Options{Policy: policy, Faults: inj})
		if err := l.Append(commitRec(1)); err != nil {
			t.Fatal(err)
		}
		inj.Arm(faultinj.Fault{Point: faultinj.WALFsync, Once: true})
		if err := l.Sync(1); !errors.Is(err, faultinj.ErrInjected) {
			t.Fatalf("%s: first Sync returned %v, want the injected fsync failure", policy, err)
		}
		// The fault is spent: only stickiness can fail what follows.
		if err := l.Append(commitRec(2)); !errors.Is(err, faultinj.ErrInjected) {
			t.Fatalf("%s: Append after a failed fsync returned %v, want the sticky error", policy, err)
		}
		if err := l.Sync(2); !errors.Is(err, faultinj.ErrInjected) {
			t.Fatalf("%s: Sync after a failed fsync returned %v, want the sticky error", policy, err)
		}
		if st := l.Stats(); st.DurableLSN != 0 {
			t.Fatalf("%s: DurableLSN advanced to %d past a failed fsync", policy, st.DurableLSN)
		}
		if err := l.Close(); !errors.Is(err, faultinj.ErrInjected) {
			t.Fatalf("%s: Close of a poisoned log returned %v", policy, err)
		}
	}
}

// FuzzWALReplay feeds arbitrary bytes to the segment scanner via a real
// directory: Open must never panic, must truncate whatever it rejects, the
// opened log's Records must equal what Open returned, and a second Open of
// the same directory must return identical records.
func FuzzWALReplay(f *testing.F) {
	// Seed with a valid log prefix plus junk tails.
	valid := AppendRecord(nil, Record{LSN: 1, Tx: 1, Type: RecBegin})
	var framed []byte
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(valid)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(valid, crcTable))
	framed = append(framed, hdr[:]...)
	framed = append(framed, valid...)
	f.Add(framed)
	f.Add(framed[:len(framed)-1])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, err := Open(dir, Options{})
		if err != nil {
			return // I/O-level failure is acceptable; panic is not
		}
		sameRecords(t, "Records after Open", l.Records(), recs)
		l.Close()
		l2, recs2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("second Open after truncation failed: %v", err)
		}
		defer l2.Close()
		sameRecords(t, "second Open", recs2, recs)
	})
}

// TestAppendBuffersFrameOfAppendRecord pins the bytes Append buffers: for
// every record type, the frame is the 8-byte header (payload length, then
// its CRC32C, little-endian) followed by AppendRecord(nil, rec). Append
// encodes the record in place into its pending buffer; the bytes must stay
// what a separately encoded payload gives.
func TestAppendBuffersFrameOfAppendRecord(t *testing.T) {
	l, _ := openT(t, t.TempDir(), Options{Policy: SyncGroupCommit})
	defer l.Close()
	row := types.Row{types.NewInt(-7), types.NewString("a\x00b"), types.NewFloat(2.5), types.Null(), types.NewBool(true)}
	old := types.Row{types.NewInt(3), types.NewString(""), types.NewFloat(-0.5), types.NewString("x"), types.NewBool(false)}
	recs := []Record{
		{Tx: 9, Type: RecBegin},
		{Tx: 9, Type: RecInsert, Table: "EMP", RID: storage.RID{Page: 3, Slot: 17}, After: row},
		{Tx: 9, Type: RecDelete, Table: "EMP", RID: storage.RID{Page: 70000, Slot: 2}, Before: old},
		{Tx: 9, Type: RecUpdate, Table: "EMP", RID: storage.RID{Page: 3, Slot: 1}, NewRID: storage.RID{Page: 4, Slot: 0}, Before: old, After: row},
		{Tx: 9, Type: RecDDL, Table: "CREATE TABLE T (a INT)"},
		{Tx: 9, Type: RecAnalyze, Table: "EMP"},
		{Tx: 9, Type: RecCommit},
		{Tx: 10, Type: RecBegin},
		{Tx: 10, Type: RecAbort},
		{Tx: 11, Type: RecCheckpoint, Payload: []byte("catalog snapshot")},
		{Tx: 11, Type: RecInsert, Table: "T", RID: storage.RID{Page: 1}, After: types.Row{}},
	}
	for i, rec := range recs {
		rec.LSN = LSN(i + 1)
		payload := AppendRecord(nil, rec)
		want := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		want = binary.LittleEndian.AppendUint32(want, crc32.Checksum(payload, crcTable))
		want = append(want, payload...)
		before := len(l.pending)
		if err := l.Append(rec); err != nil {
			t.Fatalf("%v: %v", rec.Type, err)
		}
		if rec.Type == RecCheckpoint {
			before = 0 // the checkpoint rotated: earlier frames went to their segment
		}
		if got := l.pending[before:]; !bytes.Equal(got, want) {
			t.Fatalf("%v: buffered frame\n%x\nwant\n%x", rec.Type, got, want)
		}
	}
}

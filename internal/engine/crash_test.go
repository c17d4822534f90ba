package engine

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sqlxnf/internal/faultinj"
	"sqlxnf/internal/storage"
	"sqlxnf/internal/types"
	"sqlxnf/internal/wal"
)

// The crash harness (`make crash`) runs a deterministic workload against a
// durable engine, simulates a kill at every statement boundary and at
// hundreds of torn-write positions inside each statement's log suffix,
// recovers each crash image, and differentially verifies the recovered
// database against an oracle tracking exactly the acknowledged commits.
// The invariant: an acknowledged commit survives any crash; an
// unacknowledged statement disappears entirely.

// crashOpts is the durable engine configuration under test: per-commit
// fsync (so every acked statement is on disk), tiny segments (so the
// workload spans many rotations), auto-checkpoint off (the workload issues
// explicit CHECKPOINTs at known points).
func crashOpts(dir string) Options {
	o := DefaultOptions()
	o.DataDir = dir
	o.Sync = wal.SyncAlways
	o.WALSegmentBytes = 2048
	o.CheckpointBytes = -1
	return o
}

// crashWorkload is the acked-statement sequence. Single-statement
// autocommits and single-Exec BEGIN…COMMIT scripts only, so each element is
// one atomic acknowledgement whose last log record is its commit. It mixes
// DML on a keyed table, duplicate rows on an unkeyed table (RID-replay
// coverage), DDL, views, ANALYZE, explicit transactions, and CHECKPOINTs.
func crashWorkload() []string {
	stmts := []string{
		`CREATE TABLE A (id INT PRIMARY KEY, v VARCHAR)`,
		`CREATE TABLE B (id INT, a_id INT, w VARCHAR)`,
		`CREATE INDEX b_aid ON B (a_id)`,
	}
	for i := 0; i < 12; i++ {
		stmts = append(stmts,
			fmt.Sprintf(`INSERT INTO A VALUES (%d, 'a-%d')`, i, i),
			fmt.Sprintf(`INSERT INTO B VALUES (%d, %d, 'dup')`, i%3, i),
		)
	}
	stmts = append(stmts,
		`INSERT INTO B VALUES (0, 0, 'dup')`, // exact duplicate of an existing row
		`INSERT INTO B VALUES (0, 0, 'dup')`,
		`CHECKPOINT`,
		`UPDATE A SET v = 'patched' WHERE id < 4`,
		`DELETE FROM B WHERE id = 1`,
		`ANALYZE A`,
		`CREATE TABLE C (x INT)`,
		`INSERT INTO C VALUES (1)`,
		`BEGIN; INSERT INTO A VALUES (100, 'tx'); UPDATE A SET v = 'tx2' WHERE id = 100; COMMIT`,
		`BEGIN; INSERT INTO A VALUES (101, 'doomed'); ROLLBACK`,
		`DROP TABLE C`,
		`CREATE VIEW AV AS SELECT id, v FROM A WHERE id < 50`,
		`CHECKPOINT`,
	)
	for i := 0; i < 10; i++ {
		stmts = append(stmts,
			fmt.Sprintf(`INSERT INTO A VALUES (%d, 'late-%d')`, 200+i, i),
			fmt.Sprintf(`UPDATE B SET w = 'w-%d' WHERE a_id = %d`, i, i),
		)
	}
	stmts = append(stmts,
		`DELETE FROM B WHERE id = 0 AND a_id = 0`, // deletes one duplicate
		`ANALYZE B`,
		`CHECKPOINT`,
		`INSERT INTO A VALUES (300, 'after-last-ckpt')`,
		`DELETE FROM A WHERE id = 5`,
		`UPDATE A SET v = 'final' WHERE id = 300`,
	)
	return stmts
}

// fingerprint renders the engine's complete logical state — catalog, table
// contents (order-independent), indexes, views — for differential
// comparison. Statistics and transaction counters are excluded: they are
// recomputed at recovery, not replayed bit-for-bit.
func fingerprint(t *testing.T, e *Engine) string {
	t.Helper()
	var sb strings.Builder
	for _, tn := range e.cat.TableNames() {
		tab, err := e.cat.Table(tn)
		if err != nil {
			t.Fatalf("fingerprint: %v", err)
		}
		fmt.Fprintf(&sb, "table %s family=%q cols=", tn, tab.Family)
		for _, c := range tab.Schema {
			fmt.Fprintf(&sb, "%s:%d:%v,", c.Name, c.Kind, c.NotNull)
		}
		sb.WriteString("\n")
		var rows []string
		err = tab.Heap.Scan(tab.Tag, func(_ storage.RID, row types.Row) (bool, error) {
			rows = append(rows, fmt.Sprint(row))
			return false, nil
		})
		if err != nil {
			t.Fatalf("fingerprint scan of %s: %v", tn, err)
		}
		sort.Strings(rows)
		for _, r := range rows {
			sb.WriteString("  ")
			sb.WriteString(r)
			sb.WriteString("\n")
		}
		ixNames := make([]string, 0, len(tab.Indexes))
		for _, ix := range tab.Indexes {
			ixNames = append(ixNames, fmt.Sprintf("index %s on %s (%s) unique=%v",
				ix.Name, tn, strings.Join(ix.Columns, ","), ix.Unique))
		}
		sort.Strings(ixNames)
		for _, n := range ixNames {
			sb.WriteString(n)
			sb.WriteString("\n")
		}
	}
	for _, vn := range e.cat.ViewNames() {
		v, err := e.cat.View(vn)
		if err != nil {
			t.Fatalf("fingerprint: %v", err)
		}
		fmt.Fprintf(&sb, "view %s xnf=%v def=%q\n", v.Name, v.XNF, v.Definition)
	}
	return sb.String()
}

// snapshotDir reads every WAL segment in dir into memory.
func snapshotDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	img := map[string][]byte{}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		img[e.Name()] = data
	}
	return img
}

// writeImage materializes a crash image into dir (emptied first).
func writeImage(t *testing.T, dir string, img map[string][]byte) {
	t.Helper()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range img {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func cloneImage(img map[string][]byte) map[string][]byte {
	out := make(map[string][]byte, len(img))
	for k, v := range img {
		out[k] = v
	}
	return out
}

func newestFile(t *testing.T, img map[string][]byte) string {
	t.Helper()
	names := make([]string, 0, len(img))
	for k := range img {
		names = append(names, k)
	}
	if len(names) == 0 {
		t.Fatal("crash image has no segments")
	}
	sort.Strings(names)
	return names[len(names)-1]
}

// openDurable opens a fresh durable engine under crashOpts.
func openDurable(t *testing.T) *Engine {
	t.Helper()
	e, err := Open(crashOpts(t.TempDir()))
	if err != nil {
		t.Fatalf("open durable engine: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// crashReopen crashes durable engine e and recovers it: the log directory is
// copied as it stands — no Close, so what the last force left on disk is
// what survives, an open transaction's flushed records included — and the
// copy is opened. e itself keeps running.
func crashReopen(t *testing.T, e *Engine) *Engine {
	t.Helper()
	dir := t.TempDir()
	writeImage(t, dir, snapshotDir(t, e.Options().DataDir))
	re, err := Open(crashOpts(dir))
	if err != nil {
		t.Fatalf("recovery of crash image: %v", err)
	}
	t.Cleanup(func() { re.Close() })
	return re
}

// forceLog commits from a fresh session. The force behind that commit
// carries every record buffered so far to disk, an open transaction's
// included, so a crash image taken next holds that loser for recovery to
// skip. (The loser's session must end it before the test returns: Close's
// checkpoint would otherwise wait out the drain timeout on its table locks.)
func forceLog(e *Engine) {
	e.Session().MustExec("CREATE TABLE FORCED (x INT)")
}

// crashState is everything the harness records while driving the workload.
type crashState struct {
	images  []map[string][]byte // images[i]: disk after statements 0..i-1 acked
	oracles []string            // oracles[i]: fingerprint after statements 0..i-1
	memLens []int               // live log records at each point (replay bound)
	stmts   []string
}

// driveWorkload executes the workload on a durable engine, snapshotting the
// log directory and an in-memory oracle twin after every acknowledgement.
func driveWorkload(t *testing.T, dir string) *crashState {
	t.Helper()
	eng, err := Open(crashOpts(dir))
	if err != nil {
		t.Fatalf("open durable engine: %v", err)
	}
	defer eng.Close()
	twinOpts := DefaultOptions()
	twin := New(twinOpts)
	s, ts := eng.Session(), twin.Session()

	st := &crashState{stmts: crashWorkload()}
	record := func() {
		st.images = append(st.images, snapshotDir(t, dir))
		st.oracles = append(st.oracles, fingerprint(t, twin))
		st.memLens = append(st.memLens, len(eng.Log().Records()))
	}
	record()
	var ckptShrank bool
	for _, stmt := range st.stmts {
		preBytes := eng.WALStats().File.Bytes
		if _, err := s.Exec(stmt); err != nil {
			t.Fatalf("workload %q: %v", stmt, err)
		}
		if _, err := ts.Exec(stmt); err != nil {
			t.Fatalf("twin %q: %v", stmt, err)
		}
		if stmt == "CHECKPOINT" && eng.WALStats().File.Bytes < preBytes {
			ckptShrank = true
		}
		record()
	}
	if got, want := fingerprint(t, eng), st.oracles[len(st.oracles)-1]; got != want {
		t.Fatalf("durable and in-memory engines diverged without any crash:\n%s\nvs\n%s", got, want)
	}
	if !ckptShrank {
		t.Fatal("no CHECKPOINT shrank the durable log")
	}
	return st
}

// recoverAndVerify opens the crash image in dir and checks the recovered
// engine against the expected oracle fingerprint, plus structural health:
// no locks held, replay bounded by the live log at the crash point, and the
// engine accepting new work.
func recoverAndVerify(t *testing.T, dir, wantFP string, maxReplay int, label string) {
	t.Helper()
	eng, err := Open(crashOpts(dir))
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", label, err)
	}
	defer eng.Close()
	if got := fingerprint(t, eng); got != wantFP {
		t.Fatalf("%s: recovered state diverges from oracle\n--- recovered ---\n%s--- oracle ---\n%s", label, got, wantFP)
	}
	if held := eng.Locks().TotalHeld(); held != 0 {
		t.Fatalf("%s: %d locks still held after recovery", label, held)
	}
	info := eng.RecoveryInfo()
	if maxReplay >= 0 && info.Replayed > maxReplay {
		t.Fatalf("%s: replayed %d records, the live log held only %d — recovery not bounded by the last checkpoint", label, info.Replayed, maxReplay)
	}
}

// TestCrashRecovery is the chaos harness entry point: boundary kills, torn
// tails at sub-record granularity, and mid-checkpoint kills, each recovered
// and differentially verified. Run via `make crash`.
func TestCrashRecovery(t *testing.T) {
	workDir := t.TempDir()
	liveDir := filepath.Join(workDir, "live")
	crashDir := filepath.Join(workDir, "crash")
	st := driveWorkload(t, liveDir)

	var crashes, torn int
	// Phase 1: kill at every statement boundary (post-fsync, post-ack).
	for i, img := range st.images {
		writeImage(t, crashDir, img)
		recoverAndVerify(t, crashDir, st.oracles[i], st.memLens[i],
			fmt.Sprintf("boundary %d (%s)", i, stmtAt(st, i)))
		crashes++
	}

	// Phase 2: torn tails. For each transition i → i+1 the bytes fsynced at
	// point i are immutable (per-commit fsync), so a real crash during
	// statement i+1 can only tear the appended suffix. Cut it at several
	// offsets, including mid-record: every cut must recover to oracle i —
	// the statement was never acknowledged.
	for i := 0; i+1 < len(st.images); i++ {
		prev, next := st.images[i], st.images[i+1]
		deleted := false
		for name := range prev {
			if _, ok := next[name]; !ok {
				deleted = true
				break
			}
		}
		newest := newestFile(t, next)
		nb := next[newest]
		label := fmt.Sprintf("torn after %d (%s)", i, stmtAt(st, i+1))

		if deleted {
			// A CHECKPOINT truncated history: the valid mid-crash images are
			// pre-truncation — everything from point i plus the checkpoint's
			// fresh segment torn anywhere. CHECKPOINT changes no data, so
			// every such image must recover to oracle i.
			base := cloneImage(prev)
			for _, c := range cutPoints(0, len(nb)) {
				base[newest] = nb[:c]
				writeImage(t, crashDir, base)
				recoverAndVerify(t, crashDir, st.oracles[i], -1, label)
				crashes++
				if c < len(nb) {
					torn++
				}
			}
			continue
		}

		floor := len(prev[newest]) // 0 when the statement rotated to a new segment
		if floor > 0 && !bytes.Equal(nb[:floor], prev[newest]) {
			t.Fatalf("%s: fsynced prefix of %s changed — durable bytes must be immutable", label, newest)
		}
		if len(nb) == floor {
			continue // read-only statement, nothing appended
		}
		base := cloneImage(next)
		for _, c := range cutPoints(floor, len(nb)) {
			base[newest] = nb[:c]
			writeImage(t, crashDir, base)
			want, maxReplay := st.oracles[i], st.memLens[i]
			if c == len(nb) {
				want, maxReplay = st.oracles[i+1], st.memLens[i+1]
			} else {
				torn++
			}
			recoverAndVerify(t, crashDir, want, maxReplay, fmt.Sprintf("%s cut=%d", label, c))
			crashes++
		}
	}

	const wantCrashes, wantTorn = 500, 100
	if crashes < wantCrashes || torn < wantTorn {
		t.Fatalf("harness coverage too thin: %d crashes (%d torn), want ≥%d (≥%d torn)", crashes, torn, wantCrashes, wantTorn)
	}
	t.Logf("crash harness: %d crash images recovered (%d torn tails), 0 durability violations", crashes, torn)
}

func stmtAt(st *crashState, i int) string {
	if i == 0 {
		return "<empty>"
	}
	s := st.stmts[i-1]
	if len(s) > 40 {
		s = s[:40] + "…"
	}
	return s
}

// cutPoints samples torn-write offsets in (floor, size]: the first byte of
// the suffix, a mid-record tear, a cut just shy of complete, plus evenly
// spaced interior points and the complete suffix itself.
func cutPoints(floor, size int) []int {
	span := size - floor
	set := map[int]bool{}
	for _, c := range []int{floor + 1, floor + span/6, floor + span/4, floor + span/3,
		floor + span/2, floor + 2*span/3, floor + 5*span/6, size - 1, size} {
		if c > floor && c <= size {
			set[c] = true
		}
	}
	cuts := make([]int, 0, len(set))
	for c := range set {
		cuts = append(cuts, c)
	}
	sort.Ints(cuts)
	return cuts
}

// TestCrashFsyncFaults drives the workload with an injected fsync failure
// at a shifting position: the engine must refuse to acknowledge the commit
// whose force failed, and the statements acknowledged before it must
// survive recovery of whatever reached the disk.
func TestCrashFsyncFaults(t *testing.T) {
	stmts := crashWorkload()
	for _, failAt := range []int{0, 3, 9, 17, 26, 41, 58} {
		inj := faultinj.New()
		dir := t.TempDir()
		opts := crashOpts(dir)
		opts.FaultInjector = inj
		eng, err := Open(opts)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		twin := New(DefaultOptions())
		s, ts := eng.Session(), twin.Session()
		inj.Arm(faultinj.Fault{Point: faultinj.WALFsync, After: failAt, Once: true})

		acked := 0
		var oracle string
		for _, stmt := range stmts {
			if _, err := s.Exec(stmt); err != nil {
				if !strings.Contains(err.Error(), "injected") {
					t.Fatalf("failAt=%d %q: unexpected error %v", failAt, stmt, err)
				}
				break // the commit was not acknowledged
			}
			if _, err := ts.Exec(stmt); err != nil {
				t.Fatalf("twin %q: %v", stmt, err)
			}
			acked++
			oracle = fingerprint(t, twin)
		}
		if acked == len(stmts) {
			t.Fatalf("failAt=%d: injected fsync fault never surfaced", failAt)
		}
		eng.Close() // the "crash": abandon the wounded engine
		recovered, err := Open(crashOpts(dir))
		if err != nil {
			t.Fatalf("failAt=%d: recovery: %v", failAt, err)
		}
		got := fingerprint(t, recovered)
		recovered.Close()
		// The unacknowledged statement may or may not have reached the OS
		// buffer before the failed force; either way every acked statement
		// must be present. Compute the acceptable post-crash states: exactly
		// the acked prefix, or acked prefix + the unacked statement's
		// effects (fsync failed after the write reached the OS).
		if got != oracle {
			if _, err := ts.Exec(stmts[acked]); err != nil {
				t.Fatalf("twin extension: %v", err)
			}
			withUnacked := fingerprint(t, twin)
			if got != withUnacked {
				t.Fatalf("failAt=%d: recovered state matches neither the acked prefix nor prefix+1:\n%s", failAt, got)
			}
		}
	}
}

// TestCrashFsyncPoisonsLog: one failed force poisons the log for good. The
// fault is armed once, so only stickiness can fail what follows: every later
// write statement errors (a later fsync succeeding would acknowledge commits
// behind bytes the kernel may already have dropped), reads keep answering,
// no failed statement leaks a lock, and a reopen recovers the acknowledged
// prefix — with or without the one statement whose force failed.
func TestCrashFsyncPoisonsLog(t *testing.T) {
	inj := faultinj.New()
	dir := t.TempDir()
	opts := crashOpts(dir)
	opts.FaultInjector = inj
	eng, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	twin := New(DefaultOptions())
	s, ts := eng.Session(), twin.Session()
	for _, stmt := range []string{
		`CREATE TABLE A (id INT PRIMARY KEY, v VARCHAR)`,
		`INSERT INTO A VALUES (1, 'acked')`,
		`INSERT INTO A VALUES (2, 'acked')`,
	} {
		s.MustExec(stmt)
		ts.MustExec(stmt)
	}
	acked := fingerprint(t, twin)

	const unacked = `INSERT INTO A VALUES (3, 'force failed')`
	inj.Arm(faultinj.Fault{Point: faultinj.WALFsync, Once: true})
	if _, err := s.Exec(unacked); !errors.Is(err, faultinj.ErrInjected) {
		t.Fatalf("commit whose force failed returned %v, want the injected fsync error", err)
	}
	for _, stmt := range []string{
		`INSERT INTO A VALUES (4, 'after poison')`,
		`UPDATE A SET v = 'after poison' WHERE id = 1`,
		`DELETE FROM A WHERE id = 2`,
		`BEGIN; INSERT INTO A VALUES (5, 'tx'); COMMIT`,
		`CREATE TABLE B (x INT)`,
		`CHECKPOINT`,
	} {
		// Contains, not errors.Is: the DDL's error also reports that its
		// catalog change cannot be rolled back, which flattens the chain.
		if _, err := s.Exec(stmt); err == nil || !strings.Contains(err.Error(), "injected fault at wal.fsync") {
			t.Fatalf("%q on a poisoned log returned %v, want the sticky fsync error", stmt, err)
		}
		if s.InTx() {
			t.Fatalf("%q left the session inside a transaction", stmt)
		}
		if held := eng.Locks().TotalHeld(); held != 0 {
			t.Fatalf("%q leaked %d locks", stmt, held)
		}
	}
	if inj.Fired() != 1 {
		t.Fatalf("fault fired %d times, want once", inj.Fired())
	}
	r, err := s.Exec(`SELECT id FROM A WHERE v = 'acked' ORDER BY id`)
	if err != nil || len(r.Rows) != 2 {
		t.Fatalf("read on a poisoned engine: rows=%v err=%v, want the two acked rows", r, err)
	}

	eng.Close() // the "crash": abandon the wounded engine
	recovered, err := Open(crashOpts(dir))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer recovered.Close()
	if got := fingerprint(t, recovered); got != acked {
		ts.MustExec(unacked)
		if got != fingerprint(t, twin) {
			t.Fatalf("recovered state matches neither the acked prefix nor prefix + the unacked statement:\n%s", got)
		}
	}
}

// TestCrashOpenFault verifies the wal.open probe surfaces cleanly.
func TestCrashOpenFault(t *testing.T) {
	inj := faultinj.New()
	inj.Arm(faultinj.Fault{Point: faultinj.WALOpen, Once: true})
	opts := crashOpts(t.TempDir())
	opts.FaultInjector = inj
	if _, err := Open(opts); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("expected injected open failure, got %v", err)
	}
}

// TestCrashTruncateFault exercises the wal.truncate probe: a failure that
// lands after the checkpoint record is appended and forced durable but
// before (or while) the sealed segments behind it are dropped. The
// CHECKPOINT statement reports the error, the stale segments stay on disk,
// and a crash at that exact point must recover cleanly — the recovered
// state is the acked prefix, the surviving old segments are harmless, and
// the next clean CHECKPOINT finishes the interrupted truncation.
func TestCrashTruncateFault(t *testing.T) {
	inj := faultinj.New()
	dir := t.TempDir()
	opts := crashOpts(dir)
	opts.FaultInjector = inj
	eng, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	twin := New(DefaultOptions())
	s, ts := eng.Session(), twin.Session()

	run := func(stmt string) {
		t.Helper()
		if _, err := s.Exec(stmt); err != nil {
			t.Fatalf("%q: %v", stmt, err)
		}
		if _, err := ts.Exec(stmt); err != nil {
			t.Fatalf("twin %q: %v", stmt, err)
		}
	}
	run(`CREATE TABLE A (id INT PRIMARY KEY, v VARCHAR)`)
	for i := 0; i < 60; i++ { // span several 2KB segments
		run(fmt.Sprintf(`INSERT INTO A VALUES (%d, 'pre-%d-%s')`, i, i,
			strings.Repeat("x", 64)))
	}
	segsBefore := len(snapshotDir(t, dir))
	if segsBefore < 3 {
		t.Fatalf("workload too small to rotate segments: %d on disk", segsBefore)
	}

	inj.Arm(faultinj.Fault{Point: faultinj.WALTruncate, Once: true})
	if _, err := s.Exec(`CHECKPOINT`); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("CHECKPOINT with a truncation fault returned %v", err)
	}
	// The checkpoint record is durable but no segment was dropped.
	if got := len(snapshotDir(t, dir)); got < segsBefore {
		t.Fatalf("failed truncation still dropped segments: %d -> %d", segsBefore, got)
	}
	// The engine stays usable after the failed CHECKPOINT.
	run(`INSERT INTO A VALUES (100, 'post-fault')`)
	oracle := fingerprint(t, twin)

	// Crash exactly inside the checkpoint/truncate window and recover.
	eng.Close()
	rec, err := Open(crashOpts(dir))
	if err != nil {
		t.Fatalf("recovery after truncate fault: %v", err)
	}
	if got := fingerprint(t, rec); got != oracle {
		t.Fatalf("recovered state diverged from acked prefix:\n got: %s\nwant: %s", got, oracle)
	}
	// A clean CHECKPOINT on the recovered engine completes the truncation
	// the fault interrupted: the pre-checkpoint segments finally drop.
	rs := rec.Session()
	if _, err := rs.Exec(`CHECKPOINT`); err != nil {
		t.Fatalf("follow-up CHECKPOINT: %v", err)
	}
	if got := len(snapshotDir(t, dir)); got >= segsBefore {
		t.Fatalf("follow-up checkpoint dropped nothing: %d segments, had %d", got, segsBefore)
	}
	if _, err := rs.Exec(`INSERT INTO A VALUES (101, 'post-ckpt')`); err != nil {
		t.Fatalf("insert after follow-up checkpoint: %v", err)
	}
	rec.Close()

	// One more reopen proves the truncated log still recovers everything.
	if _, err := ts.Exec(`INSERT INTO A VALUES (101, 'post-ckpt')`); err != nil {
		t.Fatalf("twin: %v", err)
	}
	final, err := Open(crashOpts(dir))
	if err != nil {
		t.Fatalf("final reopen: %v", err)
	}
	defer final.Close()
	if got, want := fingerprint(t, final), fingerprint(t, twin); got != want {
		t.Fatalf("state after truncation + reopen diverged:\n got: %s\nwant: %s", got, want)
	}
}

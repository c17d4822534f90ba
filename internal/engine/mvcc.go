package engine

// Multi-version concurrency control. Every transaction (explicit or the
// autocommit wrapper around a single statement) captures a snapshot at
// begin: the set of transactions whose effects it can see. Row versions
// carry create/delete transaction stamps (storage.RowVer); scans filter by
// snapshot visibility instead of taking shared table locks, so readers
// never block behind writers. Writers keep exclusive table locks — they
// serialize writer-writer conflicts cheaply at table granularity — and
// detect write-write conflicts against rows committed after their snapshot
// (first-committer-wins, surfaced as ErrWriteConflict). Versions that no
// registered snapshot can need are reclaimed by an inline vacuum sweep
// after commits (no background goroutine: nothing can outlive the engine).

import (
	"errors"

	"sqlxnf/internal/catalog"
	"sqlxnf/internal/comat"
	"sqlxnf/internal/storage"
)

// ErrWriteConflict reports a write-write conflict under snapshot isolation:
// the row a transaction tried to update or delete was replaced or removed
// by a transaction that committed after this one's snapshot was taken
// (first-committer-wins). The transaction is rolled back; it is safe to
// retry, and the retry reads fresh state. Test with errors.Is.
var ErrWriteConflict = errors.New("engine: write-write conflict, retry transaction")

// snapshot is one transaction's (or statement's) view of the version
// history: effects of transaction T are visible iff sees(T).
type snapshot struct {
	// id keys the engine's snapshot registry (not a transaction id).
	id uint64
	// self is the owning transaction (0 for read-only registrations).
	self uint64
	// xmax is the first transaction id NOT visible: everything allocated
	// at or after capture.
	xmax uint64
	// active holds the transactions below xmax that were uncommitted at
	// capture (nil when none) — in-progress peers, also invisible.
	active map[uint64]struct{}
	// cutoff is the catalog.VersionSeed watermark at capture. Because
	// commits bump table versions in the same engine-mutex section that
	// retires the committing transaction from the active set, a table whose
	// current version is <= cutoff provably has no committed change this
	// snapshot cannot see — the comparison Session.sees rests on.
	cutoff uint64
}

// sees reports whether transaction tx's effects are visible. tx 0 marks
// frozen (pre-MVCC or vacuum-frozen) stamps, visible to everyone.
func (sn *snapshot) sees(tx uint64) bool {
	if tx == 0 || tx == sn.self {
		return true
	}
	if tx >= sn.xmax {
		return false
	}
	_, act := sn.active[tx]
	return !act
}

// visible is the storage.VisFunc of this snapshot: a row version is visible
// when its creator is seen and its deleter (if any) is not.
func (sn *snapshot) visible(v storage.RowVer) bool {
	if !sn.sees(v.Created) {
		return false
	}
	return v.Deleted == 0 || !sn.sees(v.Deleted)
}

// horizonBound is the oldest transaction id whose row versions this
// snapshot may still need to distinguish; versions stamped strictly below
// every live snapshot's bound are settled history and safe to vacuum.
func (sn *snapshot) horizonBound() uint64 {
	h := sn.xmax
	if sn.self != 0 && sn.self < h {
		h = sn.self
	}
	for tx := range sn.active {
		if tx < h {
			h = tx
		}
	}
	return h
}

// beginTx allocates a transaction id, captures its snapshot, and registers
// both — one engine-mutex section, so no commit can land between the id
// allocation and the capture.
func (e *Engine) beginTx() (uint64, *snapshot) {
	e.mu.Lock()
	defer e.mu.Unlock()
	id := e.nextTx
	e.nextTx++
	sn := e.captureSnapshotLocked(id)
	e.activeTx[id] = struct{}{}
	e.snaps[sn.id] = sn
	return id, sn
}

// captureSnapshotLocked builds a snapshot of the current commit state.
// Caller holds e.mu.
func (e *Engine) captureSnapshotLocked(self uint64) *snapshot {
	e.snapSeq++
	sn := &snapshot{
		id:     e.snapSeq,
		self:   self,
		xmax:   e.nextTx,
		cutoff: catalog.VersionSeed(),
	}
	if len(e.activeTx) > 0 {
		sn.active = make(map[uint64]struct{}, len(e.activeTx))
		for tx := range e.activeTx {
			if tx != self {
				sn.active[tx] = struct{}{}
			}
		}
	}
	return sn
}

// finishTx ends a transaction's MVCC life. On commit, the version of every
// table it wrote bumps in the same critical section that retires the
// transaction from the active set: a snapshot captured before this section
// treats the transaction as invisible and sees no bump; one captured after
// sees both. There is no in-between, which is what lets version comparisons
// stand in for visibility proofs (snapshot.cutoff).
func (e *Engine) finishTx(txID uint64, sn *snapshot, written map[*catalog.Table]struct{}, committed bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if committed {
		for t := range written {
			t.BumpVersion()
		}
	}
	delete(e.activeTx, txID)
	if sn != nil {
		delete(e.snaps, sn.id)
	}
}

// visFunc returns the session's current row-visibility filter: the open
// transaction's snapshot, or nil (latest-committed rows) outside
// transactions — host-surface reads between statements and recovery replay.
func (s *Session) visFunc() storage.VisFunc {
	if s.snap != nil {
		return s.snap.visible
	}
	return nil
}

// curSnap returns the session's current snapshot, nil outside transactions.
func (s *Session) curSnap() *snapshot {
	return s.snap
}

// sees is the CO cache's one rule (comat.Sees): a CO evaluated against deps
// equals what this session would evaluate now. Every dependency table must
// still exist at its recorded version; a session in a transaction also
// needs each version to predate its snapshot (version <= cutoff) and must
// not have written the table itself (its view includes its own uncommitted
// writes, a shared CO's does not). Sessions outside a snapshot (recovery,
// host calls between statements) read latest-committed state, so current
// versions suffice.
func (s *Session) sees(deps []comat.TableDep) bool {
	sn := s.curSnap()
	for _, d := range deps {
		t, err := s.eng.cat.Table(d.Table)
		if err != nil || t.Version() != d.Version {
			return false
		}
		if sn == nil {
			continue
		}
		if _, wrote := s.written[t]; wrote || d.Version > sn.cutoff {
			return false
		}
	}
	return true
}

// DefaultVacuumDeadRows is the auto-vacuum trigger when Options leaves it 0:
// a commit that brings the engine-wide count of unsettled row versions
// (delete-marked or not-yet-frozen) past this sweeps inline.
const DefaultVacuumDeadRows = 512

// maybeAutoVacuum runs an inline vacuum sweep on the committing session's
// goroutine once enough unsettled versions accumulate. The CAS keeps
// concurrent committers from sweeping the same garbage; the counter resets
// before the sweep so work landing during it re-arms the trigger.
func (e *Engine) maybeAutoVacuum() {
	thr := e.opts.VacuumDeadRows
	if thr == 0 {
		thr = DefaultVacuumDeadRows
	}
	if thr < 0 || e.deadRows.Load() < int64(thr) {
		return
	}
	if !e.vacRunning.CompareAndSwap(false, true) {
		return
	}
	defer e.vacRunning.Store(false)
	e.deadRows.Store(0)
	e.Vacuum()
}

// vacuumHorizon computes the reclamation bound: every transaction id below
// it is settled history for all registered snapshots (and for any snapshot
// captured later, which can only see more).
func (e *Engine) vacuumHorizon() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	h := e.nextTx
	for _, sn := range e.snaps {
		if b := sn.horizonBound(); b < h {
			h = b
		}
	}
	return h
}

// Vacuum reclaims settled row versions across all heaps: versions deleted
// before the horizon are purged (their index entries first, then the cell
// and the version stamp), and versions created before the horizon with no
// delete mark are frozen (stamp dropped — visible to everyone, like loader
// rows). Safe to run concurrently with readers and writers: the horizon
// proves no live snapshot distinguishes the reclaimed versions, and
// PurgeVersion re-checks the stamp under the heap latch so a racing reuse
// of the slot is never purged. Returns the number of versions purged and
// frozen.
func (e *Engine) Vacuum() (purged, frozen int) {
	defer func() {
		e.met.vacSweeps.Inc()
		e.met.vacPurged.Add(int64(purged))
		e.met.vacFrozen.Add(int64(frozen))
	}()
	horizon := e.vacuumHorizon()
	heaps := map[*storage.Heap]bool{}
	byTag := map[uint32]*catalog.Table{}
	for _, tn := range e.cat.TableNames() {
		t, err := e.cat.Table(tn)
		if err != nil {
			continue
		}
		heaps[t.Heap] = true
		byTag[t.Tag] = t
	}
	for h := range heaps {
		for _, ve := range h.VersionEntries() {
			switch {
			case ve.Ver.Deleted != 0 && ve.Ver.Deleted < horizon:
				tag, row, err := h.ReadAny(ve.RID)
				if err != nil {
					continue // already purged by a concurrent sweep
				}
				// Purge before touching indexes: PurgeVersion's stamp check
				// under the heap latch is the arbiter, so if it reports false
				// (a concurrent sweep won, maybe the slot was even reused) the
				// row read above describes someone else's data and its index
				// entries must stay. Readers probing between the purge and the
				// entry removal see a dangling entry, which index scans skip.
				if ok, _ := h.PurgeVersion(ve.RID, ve.Ver); !ok {
					continue
				}
				if t := byTag[tag]; t != nil {
					removeIndexEntriesFor(t, row, ve.RID)
				}
				purged++
			case ve.Ver.Deleted == 0 && ve.Ver.Created != 0 && ve.Ver.Created < horizon:
				if h.FreezeVersion(ve.RID, ve.Ver) {
					frozen++
				}
			}
		}
	}
	return purged, frozen
}

// DeadRowEstimate returns the count of unsettled row versions accumulated
// since the last vacuum sweep (benchmarks and tests).
func (e *Engine) DeadRowEstimate() int64 { return e.deadRows.Load() }

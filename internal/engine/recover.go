package engine

import (
	"fmt"
	"strings"

	"sqlxnf/internal/catalog"
	"sqlxnf/internal/storage"
	"sqlxnf/internal/types"
	"sqlxnf/internal/wal"
)

// RecoveryInfo describes what Open did — tests assert
// recovery cost is bounded by the suffix behind the latest checkpoint, not
// total history.
type RecoveryInfo struct {
	// CheckpointLSN is the checkpoint the recovery loaded (0 = none,
	// replayed from empty).
	CheckpointLSN wal.LSN
	// CheckpointTables counts tables loaded from the checkpoint snapshot.
	CheckpointTables int
	// RecordsSeen counts records scanned from the durable medium.
	RecordsSeen int
	// Replayed counts suffix records applied (committed DDL/DML/ANALYZE;
	// transaction-control records are not counted).
	Replayed int
}

// RecoveryInfo reports what building this engine replayed (zero value for
// engines created empty).
func (e *Engine) RecoveryInfo() RecoveryInfo { return e.recovery }

// Open creates or reopens a database. With Options.DataDir empty it is
// New(opts). Otherwise it opens the directory's segmented WAL (truncating
// any torn tail in place), rebuilds state from the latest checkpoint plus
// the committed suffix, and attaches the log so new commits append durably.
// When recovery replayed anything it ends with a fresh checkpoint — the
// ARIES "checkpoint at restart" — so the next open is cheap again.
//
// Recovery is logical redo: load the latest checkpoint if any, classify the
// suffix's transactions, then replay the winners' records in LSN order.
// Losers' effects never replay, which subsumes undo. The paper's host
// inherits Starburst's page-oriented ARIES-style machinery; this logical
// variant is behaviorally equivalent at the statement level.
func Open(opts Options) (*Engine, error) {
	if opts.DataDir == "" {
		return New(opts), nil
	}
	flog, recs, err := wal.Open(opts.DataDir, wal.Options{
		SegmentBytes: opts.WALSegmentBytes,
		Policy:       opts.Sync,
		Faults:       opts.FaultInjector,
	})
	if err != nil {
		return nil, err
	}
	eng, err := recoverRecords(recs, opts, flog)
	if err != nil {
		_ = flog.Close()
		return nil, err
	}
	return eng, nil
}

// recoverRecords is Open's replay core: records is what flog's segments
// held. New appends continue past the highest LSN among them.
func recoverRecords(records []wal.Record, opts Options, flog *wal.FileLog) (*Engine, error) {
	eng := New(opts)
	eng.log, eng.lastLSN = flog, flog.LastLSN()
	flog.SetMetrics(eng.met.walMetrics())
	info := RecoveryInfo{RecordsSeen: len(records)}
	eng.recovering = true
	s := eng.Session()
	rp := &replayer{s: s, rids: map[string]map[storage.RID]storage.RID{}}

	// Find the newest checkpoint with a decodable payload; a corrupt one
	// (only reachable through byte-level tampering — checkpoints are CRC
	// framed and fsynced before the log truncates behind them) falls back
	// to an earlier checkpoint or a from-empty replay.
	start := 0
	var ckptNextTx uint64
	for i := len(records) - 1; i >= 0; i-- {
		if records[i].Type != wal.RecCheckpoint {
			continue
		}
		img, err := decodeCheckpoint(records[i].Payload)
		if err != nil {
			continue
		}
		if err := rp.loadCheckpoint(img); err != nil {
			eng.recovering = false
			return nil, err
		}
		ckptNextTx = img.nextTx
		info.CheckpointLSN = records[i].LSN
		info.CheckpointTables = len(img.tables)
		start = i + 1
		break
	}

	suffix := records[start:]
	analysis := wal.Analyze(suffix)
	analyzed := map[string]bool{}
	for _, rec := range suffix {
		if !analysis.Committed[rec.Tx] {
			continue
		}
		switch rec.Type {
		case wal.RecDDL:
			if err := rp.replayDDL(rec); err != nil {
				eng.recovering = false
				return nil, err
			}
		case wal.RecInsert:
			t, err := eng.cat.Table(rec.Table)
			if err != nil {
				eng.recovering = false
				return nil, fmt.Errorf("engine: recovery insert: %v", err)
			}
			newRID, err := s.insertRowTx(t, rec.After)
			if err != nil {
				eng.recovering = false
				return nil, fmt.Errorf("engine: recovery insert into %s: %v", rec.Table, err)
			}
			rp.map_(rec.Table, rec.RID, newRID)
		case wal.RecDelete:
			if err := rp.replayDelete(rec); err != nil {
				eng.recovering = false
				return nil, err
			}
		case wal.RecUpdate:
			if err := rp.replayUpdate(rec); err != nil {
				eng.recovering = false
				return nil, err
			}
		case wal.RecAnalyze:
			analyzed[rec.Table] = true
		default:
			continue // transaction control: nothing to apply, nothing to count
		}
		info.Replayed++
	}

	// Statistics replay runs last, against final recovered contents, so a
	// recovered engine plans on the same estimates the crashed one did.
	for tn := range analyzed {
		if eng.cat.HasTable(tn) {
			if _, err := eng.cat.AnalyzeTable(tn); err != nil {
				eng.recovering = false
				return nil, fmt.Errorf("engine: recovery ANALYZE of %s: %v", tn, err)
			}
		}
	}

	// Resume transaction ids after the highest seen anywhere.
	maxTx := ckptNextTx
	for _, rec := range records {
		if rec.Tx+1 > maxTx {
			maxTx = rec.Tx + 1
		}
	}
	eng.mu.Lock()
	if maxTx > eng.nextTx {
		eng.nextTx = maxTx
	}
	eng.mu.Unlock()
	eng.recovering = false
	eng.recovery = info

	// End-of-recovery checkpoint: fold the replayed suffix into a fresh
	// snapshot. Skipped when nothing replayed (a clean reopen must not grow
	// the log).
	if info.Replayed > 0 {
		if _, err := eng.Session().Exec("CHECKPOINT"); err != nil {
			return nil, fmt.Errorf("engine: end-of-recovery checkpoint: %v", err)
		}
	}
	return eng, nil
}

// replayer applies committed suffix records, tracking how original RIDs map
// to RIDs in the rebuilt heaps. Checkpoint rows and replayed inserts seed
// the map; deletes and updates resolve through it with a verified
// before-image check and fall back to a heap scan (first matching row) when
// the mapping is missing or stale.
type replayer struct {
	s    *Session
	rids map[string]map[storage.RID]storage.RID
}

func (rp *replayer) map_(table string, old, now storage.RID) {
	m := rp.rids[table]
	if m == nil {
		m = map[storage.RID]storage.RID{}
		rp.rids[table] = m
	}
	m[old] = now
}

// loadCheckpoint rebuilds catalog objects and table contents from a
// snapshot. Indexes are registered before rows so insertRowTx maintains
// them; statistics recompute for tables analyzed at snapshot time.
func (rp *replayer) loadCheckpoint(img *ckptImage) error {
	eng := rp.s.eng
	for _, t := range img.tables {
		if _, err := eng.cat.CreateTable(t.name, t.schema, t.family); err != nil {
			return fmt.Errorf("engine: checkpoint load: %v", err)
		}
	}
	for _, ix := range img.ixs {
		if _, err := eng.cat.CreateIndex(ix.name, ix.table, ix.columns, ix.unique); err != nil {
			return fmt.Errorf("engine: checkpoint load: %v", err)
		}
	}
	for _, t := range img.tables {
		ct, err := eng.cat.Table(t.name)
		if err != nil {
			return fmt.Errorf("engine: checkpoint load: %v", err)
		}
		for _, r := range t.rows {
			newRID, err := rp.s.insertRowTx(ct, r.row)
			if err != nil {
				return fmt.Errorf("engine: checkpoint load of %s: %v", t.name, err)
			}
			rp.map_(t.name, r.rid, newRID)
		}
	}
	for _, v := range img.views {
		if err := eng.cat.CreateView(v.name, v.def, v.xnf); err != nil {
			return fmt.Errorf("engine: checkpoint load: %v", err)
		}
	}
	for _, t := range img.tables {
		if t.analyzed {
			if _, err := eng.cat.AnalyzeTable(t.name); err != nil {
				return fmt.Errorf("engine: checkpoint load ANALYZE of %s: %v", t.name, err)
			}
		}
	}
	return nil
}

// replayDDL re-executes a logged DDL statement. Replays racing a concurrent
// checkpoint can observe the object already in (or already out of) the
// snapshot; those replays are idempotent skips, not failures.
func (rp *replayer) replayDDL(rec wal.Record) error {
	if _, err := rp.s.Exec(rec.Table); err != nil {
		msg := err.Error()
		if strings.Contains(msg, "already exists") || strings.Contains(msg, "does not exist") {
			return nil
		}
		return fmt.Errorf("engine: recovery of DDL %q: %v", rec.Table, err)
	}
	return nil
}

// target resolves the row a logged delete or update (op) applies to: the
// logged RID through the replay map, if the resident row matches the logged
// before-image (a mapping can go stale across DROP/re-CREATE of a table
// name), else the first row of a scan that matches it — the pre-RID recovery
// behavior, kept as a checked safety net. The resolved mapping is dropped;
// an update re-maps its new RID.
func (rp *replayer) target(rec wal.Record, op string) (*catalog.Table, storage.RID, error) {
	t, err := rp.s.eng.cat.Table(rec.Table)
	if err != nil {
		return nil, storage.NilRID, fmt.Errorf("engine: recovery %s: %v", op, err)
	}
	m := rp.rids[rec.Table]
	target, ok := m[rec.RID]
	if ok {
		row, gerr := t.Heap.Get(t.Tag, target)
		ok = gerr == nil && row.Equal(rec.Before)
	}
	if !ok {
		err = t.Heap.Scan(t.Tag, func(rid storage.RID, row types.Row) (bool, error) {
			target, ok = rid, row.Equal(rec.Before)
			return ok, nil
		})
		if err != nil {
			return nil, storage.NilRID, err
		}
	}
	if !ok {
		return nil, storage.NilRID, fmt.Errorf("engine: recovery %s: no tuple of %s matches %v", op, rec.Table, rec.Before)
	}
	delete(m, rec.RID)
	return t, target, nil
}

func (rp *replayer) replayDelete(rec wal.Record) error {
	t, target, err := rp.target(rec, "delete")
	if err != nil {
		return err
	}
	return rp.s.deleteRowTx(t, target)
}

func (rp *replayer) replayUpdate(rec wal.Record) error {
	t, target, err := rp.target(rec, "update")
	if err != nil {
		return err
	}
	newRID, err := rp.s.updateRowTx(t, target, rec.After)
	if err != nil {
		return err
	}
	rp.map_(rec.Table, rec.NewRID, newRID)
	return nil
}

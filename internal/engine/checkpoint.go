package engine

import (
	"encoding/binary"
	"fmt"

	"sqlxnf/internal/storage"
	"sqlxnf/internal/types"
	"sqlxnf/internal/wal"
)

// The checkpoint payload is a logical snapshot of the whole database:
// catalog objects plus every table's rows with their RIDs. Recovery loads
// the latest checkpoint and replays only the log suffix behind it, which
// bounds restart cost by write volume since the last checkpoint instead of
// total writes ever.

const ckptVersion = 1

// checkpoint executes the CHECKPOINT statement.
//
// Protocol: (1) exclusively lock every table — strict 2PL quiesces writers,
// since any transaction with undo-relevant records holds an exclusive table
// lock until it ends; the sweep re-lists until no new table appears.
// (2) Holding walMu, verify the table list is still complete, snapshot the
// catalog and heaps, and append the checkpoint record — no record of any
// session can interleave, so the snapshot is exactly the state at the
// checkpoint's LSN. (3) Force the record durable, then drop the sealed WAL
// segments behind it. An in-memory engine has no log to fold: after the
// uncommitted-writes check the statement is a no-op.
func (s *Session) checkpoint() (*Result, error) {
	e := s.eng
	if len(s.undo) > 0 {
		// The snapshot reads heaps as they stand, and no lock hides this
		// transaction's own uncommitted rows from it.
		return nil, fmt.Errorf("engine: CHECKPOINT cannot run inside a transaction with uncommitted writes")
	}
	if e.log == nil {
		return &Result{}, nil
	}
	locked := map[string]bool{}
	for {
		for _, tn := range e.cat.TableNames() {
			if locked[tn] {
				continue
			}
			if err := s.lockTable(tn); err != nil {
				return nil, err
			}
			locked[tn] = true
		}
		e.walMu.Lock()
		stable := true
		for _, tn := range e.cat.TableNames() {
			if !locked[tn] {
				stable = false
				break
			}
		}
		if stable {
			break
		}
		// A table appeared between the sweep and walMu (its CREATE may not
		// have logged yet). Release walMu — lock waits while holding it
		// would deadlock against committers — lock the newcomer, re-check.
		e.walMu.Unlock()
	}
	lsn, err := func() (wal.LSN, error) {
		defer e.walMu.Unlock() // taken by the sweep above; a panicking probe must not keep it
		payload, err := e.encodeCheckpoint()
		if err != nil {
			return 0, err
		}
		return s.appendLogLocked(wal.Record{Tx: s.txID, Type: wal.RecCheckpoint, Payload: payload})
	}()
	if err != nil {
		return nil, err
	}
	if err := e.log.Sync(lsn); err != nil {
		return nil, fmt.Errorf("engine: checkpoint not durable: %w", err)
	}
	if err := e.log.TruncateBefore(lsn); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// encodeCheckpoint serializes the logical snapshot. Caller holds walMu and
// exclusive locks on every cataloged table.
func (e *Engine) encodeCheckpoint() ([]byte, error) {
	buf := []byte{ckptVersion}
	e.mu.Lock()
	nextTx := e.nextTx
	e.mu.Unlock()
	buf = binary.AppendUvarint(buf, nextTx)
	names := e.cat.TableNames()
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	type ixEnt struct {
		name, table string
		columns     []string
		unique      bool
	}
	var ixs []ixEnt
	for _, tn := range names {
		t, err := e.cat.Table(tn)
		if err != nil {
			return nil, fmt.Errorf("engine: checkpoint: %v", err)
		}
		buf = appendString(buf, t.Name)
		buf = appendString(buf, t.Family)
		analyzed := byte(0)
		if t.Stats() != nil {
			analyzed = 1
		}
		buf = append(buf, analyzed)
		buf = binary.AppendUvarint(buf, uint64(len(t.Schema)))
		for _, col := range t.Schema {
			buf = appendString(buf, col.Name)
			buf = binary.AppendUvarint(buf, uint64(col.Kind))
			nn := byte(0)
			if col.NotNull {
				nn = 1
			}
			buf = append(buf, nn)
		}
		var nRows uint64
		countAt := len(buf)
		buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // fixed u64 row count backpatch
		err = t.Heap.Scan(t.Tag, func(rid storage.RID, row types.Row) (bool, error) {
			buf = binary.AppendUvarint(buf, uint64(rid.Page))
			buf = binary.AppendUvarint(buf, uint64(rid.Slot))
			buf = row.Encode(buf)
			nRows++
			return false, nil
		})
		if err != nil {
			return nil, fmt.Errorf("engine: checkpoint scan of %s: %v", tn, err)
		}
		binary.LittleEndian.PutUint64(buf[countAt:], nRows)
		for _, ix := range t.Indexes {
			ixs = append(ixs, ixEnt{name: ix.Name, table: t.Name, columns: ix.Columns, unique: ix.Unique})
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(ixs)))
	for _, ix := range ixs {
		buf = appendString(buf, ix.name)
		buf = appendString(buf, ix.table)
		u := byte(0)
		if ix.unique {
			u = 1
		}
		buf = append(buf, u)
		buf = binary.AppendUvarint(buf, uint64(len(ix.columns)))
		for _, c := range ix.columns {
			buf = appendString(buf, c)
		}
	}
	vnames := e.cat.ViewNames()
	buf = binary.AppendUvarint(buf, uint64(len(vnames)))
	for _, vn := range vnames {
		v, err := e.cat.View(vn)
		if err != nil {
			return nil, fmt.Errorf("engine: checkpoint: %v", err)
		}
		buf = appendString(buf, v.Name)
		buf = appendString(buf, v.Definition)
		x := byte(0)
		if v.XNF {
			x = 1
		}
		buf = append(buf, x)
	}
	return buf, nil
}

// ckptImage is a decoded checkpoint payload.
type ckptImage struct {
	nextTx uint64
	tables []ckptTable
	ixs    []ckptIndex
	views  []ckptView
}

type ckptRow struct {
	rid storage.RID
	row types.Row
}

type ckptTable struct {
	name, family string
	analyzed     bool
	schema       types.Schema
	rows         []ckptRow
}

type ckptIndex struct {
	name, table string
	columns     []string
	unique      bool
}

type ckptView struct {
	name, def string
	xnf       bool
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// decodeCheckpoint parses a checkpoint payload without touching engine
// state, so a corrupt payload can fall back to an earlier checkpoint.
func decodeCheckpoint(data []byte) (*ckptImage, error) {
	if len(data) == 0 || data[0] != ckptVersion {
		return nil, fmt.Errorf("engine: unsupported checkpoint payload")
	}
	pos := 1
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("engine: corrupt checkpoint at offset %d", pos)
		}
		pos += n
		return v, nil
	}
	readString := func() (string, error) {
		n, err := readUvarint()
		if err != nil {
			return "", err
		}
		if n > uint64(len(data)-pos) {
			return "", fmt.Errorf("engine: corrupt checkpoint string at offset %d", pos)
		}
		out := string(data[pos : pos+int(n)])
		pos += int(n)
		return out, nil
	}
	img := &ckptImage{}
	var err error
	if img.nextTx, err = readUvarint(); err != nil {
		return nil, err
	}
	nTables, err := readUvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nTables; i++ {
		var t ckptTable
		if t.name, err = readString(); err != nil {
			return nil, err
		}
		if t.family, err = readString(); err != nil {
			return nil, err
		}
		if pos >= len(data) {
			return nil, fmt.Errorf("engine: corrupt checkpoint table %s", t.name)
		}
		t.analyzed = data[pos] == 1
		pos++
		nCols, err := readUvarint()
		if err != nil {
			return nil, err
		}
		for c := uint64(0); c < nCols; c++ {
			var col types.Column
			if col.Name, err = readString(); err != nil {
				return nil, err
			}
			kind, err := readUvarint()
			if err != nil {
				return nil, err
			}
			col.Kind = types.Kind(kind)
			if pos >= len(data) {
				return nil, fmt.Errorf("engine: corrupt checkpoint column %s.%s", t.name, col.Name)
			}
			col.NotNull = data[pos] == 1
			pos++
			t.schema = append(t.schema, col)
		}
		if len(data)-pos < 8 {
			return nil, fmt.Errorf("engine: corrupt checkpoint row count for %s", t.name)
		}
		nRows := binary.LittleEndian.Uint64(data[pos:])
		pos += 8
		for r := uint64(0); r < nRows; r++ {
			page, err := readUvarint()
			if err != nil {
				return nil, err
			}
			slot, err := readUvarint()
			if err != nil {
				return nil, err
			}
			row, used, err := types.DecodeRow(data[pos:])
			if err != nil {
				return nil, fmt.Errorf("engine: corrupt checkpoint row of %s: %v", t.name, err)
			}
			pos += used
			t.rows = append(t.rows, ckptRow{
				rid: storage.RID{Page: storage.PageID(page), Slot: uint16(slot)},
				row: row,
			})
		}
		img.tables = append(img.tables, t)
	}
	nIx, err := readUvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nIx; i++ {
		var ix ckptIndex
		if ix.name, err = readString(); err != nil {
			return nil, err
		}
		if ix.table, err = readString(); err != nil {
			return nil, err
		}
		if pos >= len(data) {
			return nil, fmt.Errorf("engine: corrupt checkpoint index %s", ix.name)
		}
		ix.unique = data[pos] == 1
		pos++
		nCols, err := readUvarint()
		if err != nil {
			return nil, err
		}
		for c := uint64(0); c < nCols; c++ {
			col, err := readString()
			if err != nil {
				return nil, err
			}
			ix.columns = append(ix.columns, col)
		}
		img.ixs = append(img.ixs, ix)
	}
	nViews, err := readUvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nViews; i++ {
		var v ckptView
		if v.name, err = readString(); err != nil {
			return nil, err
		}
		if v.def, err = readString(); err != nil {
			return nil, err
		}
		if pos >= len(data) {
			return nil, fmt.Errorf("engine: corrupt checkpoint view %s", v.name)
		}
		v.xnf = data[pos] == 1
		pos++
		img.views = append(img.views, v)
	}
	return img, nil
}

// Package wal provides the write-ahead log used for transaction rollback
// and crash recovery. The log is logical: records carry table names, RIDs
// and before/after row images, and the engine replays them (repeat history,
// then undo losers). This mirrors the paper's position that XNF reuses the
// host DBMS's transaction and recovery components unchanged.
//
// There is one log: FileLog (file.go) persists records to CRC32C-framed
// segment files under an fsync policy, and Open returns what survived for
// the engine to replay. The caller assigns LSNs. An in-memory engine has no
// log at all; rollback never reads one, it walks the transaction's own undo
// list of the Records it appended.
package wal

import (
	"encoding/binary"
	"fmt"

	"sqlxnf/internal/storage"
	"sqlxnf/internal/types"
)

// LSN is a log sequence number; the first record gets LSN 1.
type LSN uint64

// RecType enumerates log record types.
type RecType uint8

// Log record types.
const (
	RecBegin RecType = iota + 1
	RecCommit
	RecAbort
	RecInsert
	RecDelete
	RecUpdate
	RecCheckpoint
	// RecDDL logs a schema-changing statement; Table holds the statement
	// text, replayed verbatim during recovery.
	RecDDL
	// RecAnalyze logs an ANALYZE of one table (Table holds the table name)
	// so recovery can recompute optimizer statistics. It mutates no rows:
	// rollback ignores it and replay recomputes stats from recovered data.
	RecAnalyze
)

// String names the record type.
func (t RecType) String() string {
	switch t {
	case RecBegin:
		return "BEGIN"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	case RecInsert:
		return "INSERT"
	case RecDelete:
		return "DELETE"
	case RecUpdate:
		return "UPDATE"
	case RecCheckpoint:
		return "CHECKPOINT"
	case RecDDL:
		return "DDL"
	case RecAnalyze:
		return "ANALYZE"
	default:
		return fmt.Sprintf("RecType(%d)", uint8(t))
	}
}

// Record is one log entry. Insert carries After; Delete carries Before;
// Update carries both (and NewRID when the tuple moved). Checkpoint
// records carry an opaque Payload: the engine's logical snapshot of the
// catalog and table contents at the checkpoint LSN.
type Record struct {
	LSN     LSN
	Tx      uint64
	Type    RecType
	Table   string
	RID     storage.RID
	NewRID  storage.RID
	Before  types.Row
	After   types.Row
	Payload []byte
}

// Analysis scans the log and classifies transactions.
type Analysis struct {
	Committed map[uint64]bool
	Aborted   map[uint64]bool
	InFlight  map[uint64]bool // losers: began but neither committed nor aborted
}

// Analyze performs the recovery analysis pass.
func Analyze(records []Record) Analysis {
	a := Analysis{
		Committed: map[uint64]bool{},
		Aborted:   map[uint64]bool{},
		InFlight:  map[uint64]bool{},
	}
	for _, r := range records {
		switch r.Type {
		case RecBegin:
			a.InFlight[r.Tx] = true
		case RecCommit:
			delete(a.InFlight, r.Tx)
			a.Committed[r.Tx] = true
		case RecAbort:
			delete(a.InFlight, r.Tx)
			a.Aborted[r.Tx] = true
		}
	}
	return a
}

// AppendRecord serializes one record onto buf. FileLog's segment files wrap
// each serialized record in a length+CRC32C frame.
func AppendRecord(buf []byte, r Record) []byte {
	buf = binary.AppendUvarint(buf, uint64(r.LSN))
	buf = binary.AppendUvarint(buf, r.Tx)
	buf = append(buf, byte(r.Type))
	buf = binary.AppendUvarint(buf, uint64(len(r.Table)))
	buf = append(buf, r.Table...)
	buf = binary.AppendUvarint(buf, uint64(r.RID.Page))
	buf = binary.AppendUvarint(buf, uint64(r.RID.Slot))
	buf = binary.AppendUvarint(buf, uint64(r.NewRID.Page))
	buf = binary.AppendUvarint(buf, uint64(r.NewRID.Slot))
	buf = appendOptRow(buf, r.Before)
	buf = appendOptRow(buf, r.After)
	buf = binary.AppendUvarint(buf, uint64(len(r.Payload)))
	buf = append(buf, r.Payload...)
	return buf
}

// DecodeRecord reads one record from data, returning it and the number of
// bytes consumed.
func DecodeRecord(data []byte) (Record, int, error) {
	var r Record
	pos := 0
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("wal: corrupt record at offset %d", pos)
		}
		pos += n
		return v, nil
	}
	lsn, err := readUvarint()
	if err != nil {
		return r, 0, err
	}
	r.LSN = LSN(lsn)
	if r.Tx, err = readUvarint(); err != nil {
		return r, 0, err
	}
	if pos >= len(data) {
		return r, 0, fmt.Errorf("wal: truncated record type")
	}
	r.Type = RecType(data[pos])
	pos++
	tl, err := readUvarint()
	if err != nil {
		return r, 0, err
	}
	if tl > uint64(len(data)-pos) {
		return r, 0, fmt.Errorf("wal: truncated table name")
	}
	r.Table = string(data[pos : pos+int(tl)])
	pos += int(tl)
	vals := make([]uint64, 4)
	for j := range vals {
		if vals[j], err = readUvarint(); err != nil {
			return r, 0, err
		}
	}
	r.RID = storage.RID{Page: storage.PageID(vals[0]), Slot: uint16(vals[1])}
	r.NewRID = storage.RID{Page: storage.PageID(vals[2]), Slot: uint16(vals[3])}
	if r.Before, err = readOptRow(data, &pos); err != nil {
		return r, 0, err
	}
	if r.After, err = readOptRow(data, &pos); err != nil {
		return r, 0, err
	}
	pl, err := readUvarint()
	if err != nil {
		return r, 0, err
	}
	if pl > uint64(len(data)-pos) {
		return r, 0, fmt.Errorf("wal: truncated payload")
	}
	if pl > 0 {
		r.Payload = append([]byte(nil), data[pos:pos+int(pl)]...)
		pos += int(pl)
	}
	return r, pos, nil
}

func appendOptRow(buf []byte, r types.Row) []byte {
	if r == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	return r.Encode(buf)
}

func readOptRow(data []byte, pos *int) (types.Row, error) {
	if *pos >= len(data) {
		return nil, fmt.Errorf("wal: truncated row flag")
	}
	flag := data[*pos]
	*pos++
	if flag == 0 {
		return nil, nil
	}
	row, used, err := types.DecodeRow(data[*pos:])
	if err != nil {
		return nil, err
	}
	*pos += used
	return row, nil
}

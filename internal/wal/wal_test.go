package wal

import (
	"testing"

	"sqlxnf/internal/storage"
	"sqlxnf/internal/types"
)

func sampleRecords() []Record {
	row1 := types.Row{types.NewInt(1), types.NewString("NY")}
	row2 := types.Row{types.NewInt(1), types.NewString("SF")}
	return []Record{
		{Tx: 1, Type: RecBegin},
		{Tx: 1, Type: RecInsert, Table: "DEPT", RID: storage.RID{Page: 3, Slot: 4}, After: row1},
		{Tx: 1, Type: RecUpdate, Table: "DEPT", RID: storage.RID{Page: 3, Slot: 4},
			NewRID: storage.RID{Page: 3, Slot: 4}, Before: row1, After: row2},
		{Tx: 1, Type: RecCommit},
		{Tx: 2, Type: RecBegin},
		{Tx: 2, Type: RecDelete, Table: "EMP", RID: storage.RID{Page: 9, Slot: 0}, Before: row2},
	}
}

func TestAnalyze(t *testing.T) {
	recs := sampleRecords()
	a := Analyze(recs)
	if !a.Committed[1] {
		t.Error("tx1 should be committed")
	}
	if !a.InFlight[2] {
		t.Error("tx2 should be in flight (loser)")
	}
	if len(a.Aborted) != 0 {
		t.Error("no aborted transactions expected")
	}
	// Abort classification.
	a = Analyze(append(recs, Record{Tx: 2, Type: RecAbort}))
	if a.InFlight[2] || !a.Aborted[2] {
		t.Error("tx2 should be aborted after abort record")
	}
}

func TestRecTypeString(t *testing.T) {
	names := map[RecType]string{
		RecBegin: "BEGIN", RecCommit: "COMMIT", RecAbort: "ABORT",
		RecInsert: "INSERT", RecDelete: "DELETE", RecUpdate: "UPDATE",
		RecCheckpoint: "CHECKPOINT",
	}
	for k, v := range names {
		if k.String() != v {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), v)
		}
	}
}

package engine

import (
	"cmp"
	"fmt"
	"slices"

	"sqlxnf/internal/catalog"
	"sqlxnf/internal/exec"
	"sqlxnf/internal/obs"
	"sqlxnf/internal/optimizer"
	"sqlxnf/internal/parser"
	"sqlxnf/internal/qgm"
	"sqlxnf/internal/rewrite"
	"sqlxnf/internal/storage"
	"sqlxnf/internal/types"
	"sqlxnf/internal/wal"
)

// ---------------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------------

// logDDL logs a schema change the catalog has already made; text is the
// statement, replayed verbatim at recovery.
func (s *Session) logDDL(text string) (*Result, error) {
	if err := s.logChange(undoEntry{typ: wal.RecDDL}, wal.Record{Tx: s.txID, Type: wal.RecDDL, Table: text}); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func (s *Session) createTable(stmt *parser.CreateTableStmt, text string) (*Result, error) {
	schema := make(types.Schema, len(stmt.Columns))
	var pkCols []string
	for i, cd := range stmt.Columns {
		kind, err := types.ParseKind(cd.TypeName)
		if err != nil {
			return nil, err
		}
		schema[i] = types.Column{Name: cd.Name, Kind: kind, NotNull: cd.NotNull}
		if cd.PrimaryKey {
			pkCols = append(pkCols, cd.Name)
		}
	}
	t, err := s.eng.cat.CreateTable(stmt.Name, schema, stmt.Family)
	if err != nil {
		return nil, err
	}
	if len(pkCols) > 0 {
		if _, err := s.eng.cat.CreateIndex(t.Name+"_PK", t.Name, pkCols, true); err != nil {
			_ = s.eng.cat.DropTable(t.Name)
			return nil, err
		}
	}
	return s.logDDL(text)
}

func (s *Session) createIndex(stmt *parser.CreateIndexStmt, text string) (*Result, error) {
	// DDL keeps exclusive locks under MVCC: no writer may grow the version
	// set while the index is populated from it.
	if err := s.lockTable(stmt.Table); err != nil {
		return nil, err
	}
	ix, err := s.eng.cat.CreateIndex(stmt.Name, stmt.Table, stmt.Columns, stmt.Unique)
	if err != nil {
		return nil, err
	}
	t, err := s.eng.cat.Table(stmt.Table)
	if err != nil {
		return nil, err
	}
	// Populate from every row version, not just live ones: a snapshot older
	// than a delete may still plan against this index and must reach the
	// delete-marked version through it. UNIQUE duplicates count only among
	// live versions (the btree itself is non-unique under MVCC).
	seen := map[string]storage.RID{}
	everything := func(storage.RowVer) bool { return true }
	err = t.Heap.ScanVis(t.Tag, everything, func(rid storage.RID, row types.Row) (bool, error) {
		key, kerr := ix.KeyFor(t.Schema, row)
		if kerr != nil {
			return true, kerr
		}
		if ix.Unique {
			if liveAt(t, rid) {
				if prev, dup := seen[string(key)]; dup && prev != rid {
					return true, fmt.Errorf("engine: cannot create unique index %s: duplicate keys exist", stmt.Name)
				}
				seen[string(key)] = rid
			}
		}
		return false, ix.Tree.Insert(key, rid)
	})
	if err != nil {
		_ = s.eng.cat.DropIndex(stmt.Name)
		return nil, err
	}
	return s.logDDL(text)
}

func (s *Session) createView(stmt *parser.CreateViewStmt, text string) (*Result, error) {
	// Validate the body by building it now.
	if stmt.Select != nil {
		if _, err := s.builder().BuildSelect(stmt.Select); err != nil {
			return nil, err
		}
	} else if stmt.XNF != nil {
		if _, err := s.builder().BuildXNF(stmt.XNF); err != nil {
			return nil, err
		}
	} else {
		return nil, fmt.Errorf("engine: view %q has no body", stmt.Name)
	}
	if stmt.Text == "" {
		return nil, fmt.Errorf("engine: view %q body text missing (parser bug)", stmt.Name)
	}
	if err := s.eng.cat.CreateView(stmt.Name, stmt.Text, stmt.XNF != nil); err != nil {
		return nil, err
	}
	return s.logDDL(text)
}

func (s *Session) drop(stmt *parser.DropStmt, text string) (*Result, error) {
	var err error
	switch stmt.Kind {
	case "TABLE":
		// Exclusive lock: in-flight writers of the table finish (and bump
		// through commit) before the drop lands.
		if err := s.lockTable(stmt.Name); err != nil {
			return nil, err
		}
		err = s.eng.cat.DropTable(stmt.Name)
	case "INDEX":
		err = s.eng.cat.DropIndex(stmt.Name)
	case "VIEW":
		err = s.eng.cat.DropView(stmt.Name)
	default:
		err = fmt.Errorf("engine: unknown DROP kind %q", stmt.Kind)
	}
	if err != nil {
		return nil, err
	}
	return s.logDDL(text)
}

// analyze recomputes optimizer statistics for one table or all tables
// (ANALYZE reads data, it does not change it, so it takes no lock).
func (s *Session) analyze(stmt *parser.AnalyzeStmt) (*Result, error) {
	var names []string
	if stmt.Table != "" {
		names = []string{stmt.Table}
	} else {
		names = s.eng.cat.TableNames()
	}
	var total int64
	for _, n := range names {
		t, err := s.eng.cat.Table(n)
		if err != nil {
			return nil, err
		}
		rows, err := s.eng.cat.AnalyzeTable(n)
		if err != nil {
			return nil, err
		}
		// Log the ANALYZE so recovery recomputes statistics for this table
		// and a recovered engine plans on the same estimates.
		if _, err := s.appendLog(wal.Record{Tx: s.txID, Type: wal.RecAnalyze, Table: t.Name}); err != nil {
			return nil, err
		}
		total += rows
	}
	return &Result{RowsAffected: total}, nil
}

// ---------------------------------------------------------------------------
// Row primitives (WAL + heap + index maintenance)
// ---------------------------------------------------------------------------

// mvccWrite reports whether DML primitives should write multi-version rows:
// inside a transaction (every statement runs in one, explicit or autocommit)
// and not during recovery replay, which reconstructs committed state
// physically — replayed rows carry no stamps, i.e. load frozen.
func (s *Session) mvccWrite() bool {
	return s.inTx && !s.eng.recovering
}

// noteWrite records that the open transaction wrote the table. Commit bumps
// the versions of exactly these tables (finishTx); Session.sees refuses
// shared CO-cache entries over them (the snapshot's view includes this
// transaction's own uncommitted writes, the shared entry's does not).
func (s *Session) noteWrite(t *catalog.Table) {
	if !s.inTx {
		return
	}
	if s.written == nil {
		s.written = map[*catalog.Table]struct{}{}
	}
	s.written[t] = struct{}{}
}

// conflictHere rejects a write whose target version was touched by a
// transaction this one cannot see. Writers hold exclusive table locks, so a
// foreign delete stamp can only belong to a committed transaction — a
// first-committer-wins conflict. A create stamp the snapshot does not see is
// the same conflict reached through a stale RID (host-surface writes).
func (s *Session) conflictHere(t *catalog.Table, ver storage.RowVer) error {
	if ver.Deleted != 0 && ver.Deleted != s.txID {
		s.eng.met.writeConflicts.Inc()
		return fmt.Errorf("%w (table %s)", ErrWriteConflict, t.Name)
	}
	if s.snap != nil && !s.snap.sees(ver.Created) {
		s.eng.met.writeConflicts.Inc()
		return fmt.Errorf("%w (table %s)", ErrWriteConflict, t.Name)
	}
	return nil
}

// liveAt reports whether t holds a latest-committed live version at rid. It
// decodes no column: only the tuple's presence and stamps matter.
func liveAt(t *catalog.Table, rid storage.RID) bool {
	_, live, err := t.Heap.GetVisible(t.Tag, rid, nil, &types.RowDecoder{Cols: []int{}})
	return err == nil && live
}

// checkUnique enforces unique indexes at the engine level. The btrees are
// non-unique (several row versions of one key coexist under MVCC), so a key
// violates iff some other RID with that key holds a live version — live under
// the latest-committed view, which is exact because the writer's exclusive
// table lock excludes concurrent same-table writers. A version the session
// itself delete-marked is dead under that view, so delete-then-reinsert of a
// key inside one transaction works. skip excludes the updated tuple's own
// old version; op words the error like the statement ("insert into",
// "update of"). The key and the probe's RIDs go into the session's scratch
// buffers, so a probe allocates nothing.
func (s *Session) checkUnique(t *catalog.Table, row types.Row, skip storage.RID, op string) error {
	for _, ix := range t.Indexes {
		if !ix.Unique {
			continue
		}
		key, err := ix.AppendKey(s.keyBuf[:0], t.Schema, row)
		if err != nil {
			return err
		}
		s.keyBuf = key
		s.ridBuf = ix.Tree.AppendEQ(s.ridBuf[:0], key)
		for _, rid := range s.ridBuf {
			if rid == skip {
				continue
			}
			if liveAt(t, rid) {
				return fmt.Errorf("engine: %s %s violates unique index %s", op, t.Name, ix.Name)
			}
		}
	}
	return nil
}

// insertRowTx validates, stores, indexes, and logs one tuple.
func (s *Session) insertRowTx(t *catalog.Table, row types.Row) (storage.RID, error) {
	return s.insertRowNearTx(t, storage.NilRID, row)
}

// insertRowNearTx is insertRowTx with a clustering hint: the tuple is placed
// on (or near) the page of the given RID — composite-object clustering.
func (s *Session) insertRowNearTx(t *catalog.Table, near storage.RID, row types.Row) (storage.RID, error) {
	return s.insertRowPlacedTx(t, near, false, row)
}

// insertRowPlacedTx is the one insert primitive: near is the clustering hint,
// fresh starts a new page instead. It coerces a copy of row, so the caller
// keeps row; insertCoerced is the primitive for a row already coerced.
func (s *Session) insertRowPlacedTx(t *catalog.Table, near storage.RID, fresh bool, row types.Row) (storage.RID, error) {
	coerced, err := t.Schema.CoerceRow(row)
	if err != nil {
		return storage.NilRID, fmt.Errorf("engine: insert into %s: %v", t.Name, err)
	}
	return s.insertCoerced(t, near, fresh, coerced)
}

// insertCoerced stores, indexes and logs a row that already has the table's
// column kinds. Like every DML primitive it changes the heap first and logs
// second; should the append fail, the undo entry is already pushed (see
// logChange), so the rollback that follows still reverses the change. No
// structure keeps row: the heap and the log encode it, and the undo entry
// holds only the table and the RID, so a caller may reuse row at once.
func (s *Session) insertCoerced(t *catalog.Table, near storage.RID, fresh bool, row types.Row) (storage.RID, error) {
	if err := s.checkUnique(t, row, storage.NilRID, "insert into"); err != nil {
		return storage.NilRID, err
	}
	var stamp uint64 // 0 = frozen, what recovery replay loads
	if s.mvccWrite() {
		stamp = s.txID
	}
	var rid storage.RID
	var err error
	if fresh {
		rid, err = t.Heap.InsertOnFreshPageTx(t.Tag, row, stamp)
	} else {
		rid, err = t.Heap.InsertNearTx(t.Tag, near, row, stamp)
	}
	if err != nil {
		return storage.NilRID, err
	}
	if err := s.addIndexEntries(t, row, rid); err != nil {
		_, _ = t.Heap.Delete(t.Tag, rid)
		return storage.NilRID, err
	}
	t.AddRows(1)
	s.noteWrite(t)
	if s.mvccWrite() {
		s.versWork++ // create stamp to freeze once settled
	}
	t.ObserveInsert(row)
	if err := s.logChange(undoEntry{typ: wal.RecInsert, t: t, rid: rid},
		wal.Record{Tx: s.txID, Type: wal.RecInsert, Table: t.Name, RID: rid, After: row}); err != nil {
		return storage.NilRID, err
	}
	return rid, nil
}

// deleteRowTx removes one tuple. Under MVCC the tuple is delete-stamped, not
// removed: its cell and index entries stay so concurrent snapshots still
// reach it, and vacuum reclaims both once no snapshot can. Recovery replay
// (and only it) deletes physically.
func (s *Session) deleteRowTx(t *catalog.Table, rid storage.RID) error {
	if s.mvccWrite() {
		row, ver, err := t.Heap.GetVer(t.Tag, rid)
		if err != nil {
			return err
		}
		if err := s.conflictHere(t, ver); err != nil {
			return err
		}
		if err := t.Heap.MarkDeleted(t.Tag, rid, s.txID); err != nil {
			return err
		}
		t.AddRows(-1)
		s.noteWrite(t)
		s.versWork++
		t.ObserveDelete(row)
		return s.logChange(undoEntry{typ: wal.RecDelete, t: t, rid: rid, before: row},
			wal.Record{Tx: s.txID, Type: wal.RecDelete, Table: t.Name, RID: rid, Before: row})
	}
	row, err := t.Heap.Delete(t.Tag, rid)
	if err != nil {
		return err
	}
	removeIndexEntriesFor(t, row, rid)
	t.AddRows(-1)
	t.ObserveDelete(row)
	_, err = s.appendLog(wal.Record{Tx: s.txID, Type: wal.RecDelete, Table: t.Name, RID: rid, Before: row})
	return err
}

// updateRowTx replaces one tuple; the tuple may move to a new RID. Under
// MVCC "replace" is insert-new-version (clustered near the old) plus
// delete-stamp the old version; recovery replay rewrites in place.
func (s *Session) updateRowTx(t *catalog.Table, rid storage.RID, newRow types.Row) (storage.RID, error) {
	coerced, err := t.Schema.CoerceRow(newRow)
	if err != nil {
		return storage.NilRID, fmt.Errorf("engine: update of %s: %v", t.Name, err)
	}
	if s.mvccWrite() {
		old, ver, err := t.Heap.GetVer(t.Tag, rid)
		if err != nil {
			return storage.NilRID, err
		}
		if err := s.conflictHere(t, ver); err != nil {
			return storage.NilRID, err
		}
		if err := s.checkUnique(t, coerced, rid, "update of"); err != nil {
			return storage.NilRID, err
		}
		newRID, err := t.Heap.InsertNearTx(t.Tag, rid, coerced, s.txID)
		if err != nil {
			return storage.NilRID, err
		}
		if err := s.addIndexEntries(t, coerced, newRID); err != nil {
			_, _ = t.Heap.Delete(t.Tag, newRID)
			return storage.NilRID, err
		}
		if err := t.Heap.MarkDeleted(t.Tag, rid, s.txID); err != nil {
			removeIndexEntriesFor(t, coerced, newRID)
			_, _ = t.Heap.Delete(t.Tag, newRID)
			return storage.NilRID, err
		}
		s.noteWrite(t)
		s.versWork += 2 // old version to purge, new stamp to freeze
		t.ObserveDelete(old)
		t.ObserveInsert(coerced)
		if err := s.logChange(undoEntry{typ: wal.RecUpdate, t: t, rid: rid, newRID: newRID, before: old},
			wal.Record{Tx: s.txID, Type: wal.RecUpdate, Table: t.Name,
				RID: rid, NewRID: newRID, Before: old, After: coerced}); err != nil {
			return storage.NilRID, err
		}
		return newRID, nil
	}
	old, err := t.Heap.Get(t.Tag, rid)
	if err != nil {
		return storage.NilRID, err
	}
	if err := s.checkUnique(t, coerced, rid, "update of"); err != nil {
		return storage.NilRID, err
	}
	newRID, err := t.Heap.Update(t.Tag, rid, coerced)
	if err != nil {
		return storage.NilRID, err
	}
	removeIndexEntriesFor(t, old, rid)
	if err := s.addIndexEntries(t, coerced, newRID); err != nil {
		return storage.NilRID, err
	}
	t.ObserveDelete(old)
	t.ObserveInsert(coerced)
	if _, err := s.appendLog(wal.Record{Tx: s.txID, Type: wal.RecUpdate, Table: t.Name,
		RID: rid, NewRID: newRID, Before: old, After: coerced}); err != nil {
		return storage.NilRID, err
	}
	return newRID, nil
}

// addIndexEntries enters the row into every index of the table, encoding
// each key into the session's scratch buffer (the tree copies what it keeps).
func (s *Session) addIndexEntries(t *catalog.Table, row types.Row, rid storage.RID) error {
	for i, ix := range t.Indexes {
		key, err := ix.AppendKey(s.keyBuf[:0], t.Schema, row)
		if err == nil {
			s.keyBuf = key
			err = ix.Tree.Insert(key, rid)
		}
		if err != nil {
			// Undo entries added so far.
			for _, added := range t.Indexes[:i] {
				if key2, kerr := added.KeyFor(t.Schema, row); kerr == nil {
					added.Tree.Delete(key2, rid)
				}
			}
			return err
		}
	}
	return nil
}

// removeIndexEntriesFor drops the row's entry from every index of the table.
// Free function (not a Session method) because the vacuum sweep calls it too.
func removeIndexEntriesFor(t *catalog.Table, row types.Row, rid storage.RID) {
	var key []byte
	for _, ix := range t.Indexes {
		var err error
		if key, err = ix.AppendKey(key[:0], t.Schema, row); err == nil {
			ix.Tree.Delete(key, rid)
		}
	}
}

// ---------------------------------------------------------------------------
// Undo
// ---------------------------------------------------------------------------

// undoEntry is what rollback needs to reverse one change of the open
// transaction. An insert holds its table and RID: rollback takes the row's
// image from the cell it deletes. A delete holds the delete-marked RID and
// the old image, an update both RIDs and the old image: the old version's
// cell stays in place, and its image only re-enters the statistics. A DDL
// entry holds nothing, since DDL cannot roll back.
type undoEntry struct {
	typ    wal.RecType // RecInsert, RecDelete, RecUpdate or RecDDL
	t      *catalog.Table
	rid    storage.RID // the inserted or delete-marked row; an update's old version
	newRID storage.RID // an update's new version
	before types.Row
}

// undoChunk is the most entries one chunk of an undoLog holds.
const undoChunk = 1024

// undoLog lists the open transaction's undo entries, oldest first, in
// chunks: the first holds 8 entries and each next one twice as many, up to
// undoChunk. A one-row transaction allocates a few hundred bytes, a bulk
// load appends without copying the entries it already holds, and the log
// is empty exactly when it holds no chunk.
type undoLog [][]undoEntry

func (u *undoLog) push(e undoEntry) {
	n := len(*u)
	if n == 0 || len((*u)[n-1]) == cap((*u)[n-1]) {
		size := 8
		if n > 0 {
			size = min(2*cap((*u)[n-1]), undoChunk)
		}
		*u = append(*u, make([]undoEntry, 0, size))
		n++
	}
	(*u)[n-1] = append((*u)[n-1], e)
}

// logChange records a change the heap already holds: its undo entry first,
// so the rollback that follows a failed append still reverses the change,
// then its log record. The record's rows are encoded before logChange
// returns; nothing keeps them. Recovery replay keeps no undo and logs
// nothing.
func (s *Session) logChange(u undoEntry, rec wal.Record) error {
	if s.eng.recovering {
		return nil
	}
	s.undo.push(u)
	_, err := s.appendLog(rec)
	return err
}

// reverse undoes one entry. Rollback only runs for live (MVCC) transactions —
// recovery replays committed work forward and never undoes — so it reverses
// the MVCC write shapes: created versions are physically removed (nothing
// committed referenced them), delete stamps are cleared. Version counters
// are NOT bumped and versWork is discarded: a rolled-back transaction leaves
// no committed change and no settled garbage. The statistics sketch is
// compensated: NULL counts reverse exactly; min/max extensions from an
// undone row cannot shrink without a rescan and stay until the next ANALYZE
// (a conservative over-wide range).
func (s *Session) reverse(u undoEntry) error {
	t := u.t
	switch u.typ {
	case wal.RecInsert:
		row, err := t.Heap.Delete(t.Tag, u.rid)
		if err != nil {
			return err
		}
		removeIndexEntriesFor(t, row, u.rid)
		t.AddRows(-1)
		t.ObserveDelete(row)
	case wal.RecDelete:
		// The MVCC delete only stamped the tuple (cell and index entries
		// intact): clearing the stamp resurrects it in place.
		t.Heap.ClearDeleted(u.rid)
		t.AddRows(1)
		t.ObserveInsert(u.before)
	case wal.RecUpdate:
		// Remove the uncommitted new version, resurrect the old one in place.
		after, err := t.Heap.Delete(t.Tag, u.newRID)
		if err != nil {
			return err
		}
		removeIndexEntriesFor(t, after, u.newRID)
		t.ObserveDelete(after)
		t.Heap.ClearDeleted(u.rid)
		t.ObserveInsert(u.before)
	case wal.RecDDL:
		return fmt.Errorf("engine: cannot roll back DDL; DDL autocommits")
	}
	return nil
}

// ---------------------------------------------------------------------------
// DML statements
// ---------------------------------------------------------------------------

func (s *Session) insert(stmt *parser.InsertStmt) (*Result, error) {
	t, err := s.eng.cat.Table(stmt.Table)
	if err != nil {
		return nil, err
	}
	if err := s.lockTable(t.Name); err != nil {
		return nil, err
	}
	// Column positions: explicit list or full schema order.
	positions := make([]int, 0, len(t.Schema))
	if len(stmt.Columns) > 0 {
		for _, c := range stmt.Columns {
			p := t.Schema.Index(c)
			if p < 0 {
				return nil, fmt.Errorf("engine: table %s has no column %q", t.Name, c)
			}
			positions = append(positions, p)
		}
	} else {
		for i := range t.Schema {
			positions = append(positions, i)
		}
	}
	// Every row reaches insertCoerced in one buffer, which it does not keep.
	// Columns the statement does not list stay NULL.
	full := make(types.Row, len(t.Schema))
	for i := range full {
		full[i] = types.Null()
	}
	store := func() error {
		if err := t.Schema.CoerceInPlace(full); err != nil {
			return fmt.Errorf("engine: insert into %s: %v", t.Name, err)
		}
		_, err := s.insertCoerced(t, storage.NilRID, false, full)
		return err
	}
	if stmt.Select != nil {
		sub, err := s.selectStmt(stmt.Select, "")
		if err != nil {
			return nil, err
		}
		for _, src := range sub.Rows {
			if len(src) != len(positions) {
				return nil, fmt.Errorf("engine: INSERT expects %d values, got %d", len(positions), len(src))
			}
			for i, p := range positions {
				full[p] = src[i]
			}
			if err := store(); err != nil {
				return nil, err
			}
		}
		return &Result{RowsAffected: int64(len(sub.Rows))}, nil
	}
	b := s.builder()
	ctx := s.NewExecContext()
	for _, exprRow := range stmt.Rows {
		if len(exprRow) != len(positions) {
			return nil, fmt.Errorf("engine: INSERT expects %d values, got %d", len(positions), len(exprRow))
		}
		for i, p := range positions {
			v, err := constValue(b, ctx, exprRow[i])
			if err != nil {
				return nil, err
			}
			full[p] = v
		}
		if err := store(); err != nil {
			return nil, err
		}
	}
	return &Result{RowsAffected: int64(len(stmt.Rows))}, nil
}

// constValue evaluates one VALUES item. A literal is its value; any other
// item resolves, compiles and evaluates as a constant expression.
func constValue(b *qgm.Builder, ctx *exec.Context, e parser.Expr) (types.Value, error) {
	if lit, ok := e.(*parser.Literal); ok {
		return lit.Val, nil
	}
	qe, err := b.ResolveConstExpr(e)
	if err != nil {
		return types.Value{}, err
	}
	ce, err := optimizer.CompileExpr(qe, nil)
	if err != nil {
		return types.Value{}, err
	}
	return ce.Eval(ctx, nil)
}

// targetRows computes the target set of a searched UPDATE or DELETE: the rows
// of t matching where under the statement's snapshot, and their RIDs. The set
// is an ordinary plan, SELECT t.*, t.__rid FROM t [alias] WHERE …, compiled
// per statement (never plan-cached) and run like any SELECT. Matches return
// sorted by RID, so the caller's mutation order — and the heap's bytes — do
// not depend on the access path. Callers hold t's lock and mutate only after
// this returns (no Halloween problem). See EXECUTOR.md "RID-carrying plans".
func (s *Session) targetRows(ctx *exec.Context, t *catalog.Table, alias string, where parser.Expr) ([]types.Row, []storage.RID, error) {
	tr := s.trace
	var span int
	if tr != nil {
		span = tr.StartSpan(obs.PhaseOptimize)
	}
	box, err := s.builder().BuildTarget(t, alias, where)
	if err != nil {
		return nil, nil, err
	}
	plan, _, err := optimizer.CompileWithInfo(rewrite.Rewrite(box, s.eng.opts.Rewrite), s.eng.opts.Optimizer)
	if err != nil {
		return nil, nil, err
	}
	if tr != nil {
		tr.EndSpan(span)
		tr.Plan = exec.Dump(plan)
		span = tr.StartSpan(obs.PhaseExecute)
	}
	rows, err := exec.Collect(ctx, plan)
	if tr != nil {
		tr.EndSpan(span)
	}
	if err != nil {
		return nil, nil, err
	}
	ridCol := len(t.Schema)
	slices.SortFunc(rows, func(a, b types.Row) int { return cmp.Compare(a[ridCol].Int(), b[ridCol].Int()) })
	return rows, peelRIDs(rows), nil
}

// peelRIDs takes the hidden RID column, the last of every row a RID-carrying
// plan returns, off rows (in place) and returns it as a parallel slice.
func peelRIDs(rows []types.Row) []storage.RID {
	rids := make([]storage.RID, len(rows))
	for i, row := range rows {
		ridCol := len(row) - 1
		rids[i] = storage.UnpackRID(row[ridCol].Int())
		rows[i] = row[:ridCol:ridCol]
	}
	return rids
}

func (s *Session) update(stmt *parser.UpdateStmt) (*Result, error) {
	t, err := s.eng.cat.Table(stmt.Table)
	if err != nil {
		return nil, err
	}
	if err := s.lockTable(t.Name); err != nil {
		return nil, err
	}
	binding := stmt.Alias
	if binding == "" {
		binding = t.Name
	}
	b := s.builder()
	type setOp struct {
		col  int
		expr exec.Expr
	}
	var sets []setOp
	for _, a := range stmt.Set {
		p := t.Schema.Index(a.Column)
		if p < 0 {
			return nil, fmt.Errorf("engine: table %s has no column %q", t.Name, a.Column)
		}
		qe, err := b.ResolveRowExpr(binding, t.Schema, a.Value)
		if err != nil {
			return nil, err
		}
		ce, err := optimizer.CompileExpr(qe, map[int]int{0: 0})
		if err != nil {
			return nil, err
		}
		sets = append(sets, setOp{col: p, expr: ce})
	}
	ctx := s.NewExecContext()
	rows, rids, err := s.targetRows(ctx, t, stmt.Alias, stmt.Where)
	if err != nil {
		return nil, err
	}
	for i, row := range rows {
		newRow := row.Clone()
		for _, so := range sets {
			v, err := so.expr.Eval(ctx, row)
			if err != nil {
				return nil, err
			}
			newRow[so.col] = v
		}
		if _, err := s.updateRowTx(t, rids[i], newRow); err != nil {
			return nil, err
		}
	}
	return &Result{RowsAffected: int64(len(rows)), Stats: *ctx.Stats}, nil
}

func (s *Session) deleteStmt(stmt *parser.DeleteStmt) (*Result, error) {
	t, err := s.eng.cat.Table(stmt.Table)
	if err != nil {
		return nil, err
	}
	if err := s.lockTable(t.Name); err != nil {
		return nil, err
	}
	ctx := s.NewExecContext()
	_, rids, err := s.targetRows(ctx, t, stmt.Alias, stmt.Where)
	if err != nil {
		return nil, err
	}
	for _, rid := range rids {
		if err := s.deleteRowTx(t, rid); err != nil {
			return nil, err
		}
	}
	return &Result{RowsAffected: int64(len(rids)), Stats: *ctx.Stats}, nil
}

// ---------------------------------------------------------------------------
// xnf.Host implementation
// ---------------------------------------------------------------------------

// autoTx wraps a host-surface mutation in an autocommit transaction when no
// explicit transaction is open.
func (s *Session) autoTx(fn func() error) error {
	if s.inTx {
		return fn()
	}
	s.begin()
	if err := fn(); err != nil {
		if rbErr := s.rollback(); rbErr != nil {
			return fmt.Errorf("%v (rollback also failed: %v)", err, rbErr)
		}
		return err
	}
	return s.commit()
}

// RunBox implements xnf.Host: rewrite, optimize, execute, with base-tuple
// provenance, in plan order, when the plan carries it (see nodePlan). The
// context carries the session's node-reference handle so node definitions
// that themselves read FROM "VIEW.NODE" resolve through the CO cache.
func (s *Session) RunBox(box *qgm.Box) ([]types.Row, []storage.RID, error) {
	plan, withRID, err := s.nodePlan(box)
	if err != nil {
		return nil, nil, err
	}
	rows, err := exec.Collect(s.NewExecContext(), plan)
	if err != nil || !withRID {
		return rows, nil, err
	}
	return rows, peelRIDs(rows), nil
}

// nodePlan rewrites and compiles an XNF node derivation. A selection over one
// base table (once the rewrite phase collapsed its wrappers) is compiled with
// the hidden RID column as its last output, like a DML target plan, and serial:
// a Gather under every checkout's child derivations fights the concurrent
// clients for cores and widens the latency tail (EXECUTOR.md "RID-carrying
// plans"). Any other shape compiles as is, without provenance.
func (s *Session) nodePlan(box *qgm.Box) (plan exec.Plan, withRID bool, err error) {
	box = rewrite.Rewrite(box, s.eng.opts.Rewrite)
	opt := s.eng.opts.Optimizer
	if box.Kind == qgm.KindSelect && len(box.Quants) == 1 &&
		box.Quants[0].Input.Kind == qgm.KindBase &&
		!box.Distinct && len(box.OrderBy) == 0 && box.Limit == nil && box.NumParams == 0 {
		box, withRID = box.WithRID(), true
		opt.MaxDOP = -1
	}
	plan, err = optimizer.CompileWith(box, opt)
	return plan, withRID, err
}

// GetRow implements xnf.Host: fetch under the session's snapshot (or the
// latest-committed view between statements).
func (s *Session) GetRow(table string, rid storage.RID) (types.Row, error) {
	t, err := s.eng.cat.Table(table)
	if err != nil {
		return nil, err
	}
	row, ok, err := t.Heap.GetVisible(t.Tag, rid, s.visFunc(), &types.RowDecoder{})
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("engine: %s has no visible row at %v", table, rid)
	}
	return row, nil
}

// InsertRow implements xnf.Host.
func (s *Session) InsertRow(table string, row types.Row) (storage.RID, error) {
	t, err := s.eng.cat.Table(table)
	if err != nil {
		return storage.NilRID, err
	}
	var rid storage.RID
	err = s.autoTx(func() error {
		if lerr := s.lockTable(t.Name); lerr != nil {
			return lerr
		}
		var ierr error
		rid, ierr = s.insertRowTx(t, row)
		return ierr
	})
	return rid, err
}

// InsertRowNear inserts with a clustering hint (used by workload loaders to
// build composite-object clustered layouts).
func (s *Session) InsertRowNear(table string, near storage.RID, row types.Row) (storage.RID, error) {
	t, err := s.eng.cat.Table(table)
	if err != nil {
		return storage.NilRID, err
	}
	var rid storage.RID
	err = s.autoTx(func() error {
		if lerr := s.lockTable(t.Name); lerr != nil {
			return lerr
		}
		var ierr error
		rid, ierr = s.insertRowNearTx(t, near, row)
		return ierr
	})
	return rid, err
}

// InsertRowOnFreshPage places the row at the start of a new page — used by
// cluster-family loaders to anchor each composite-object root before its
// children fill the page via InsertRowNear.
func (s *Session) InsertRowOnFreshPage(table string, row types.Row) (storage.RID, error) {
	t, err := s.eng.cat.Table(table)
	if err != nil {
		return storage.NilRID, err
	}
	var rid storage.RID
	err = s.autoTx(func() error {
		if lerr := s.lockTable(t.Name); lerr != nil {
			return lerr
		}
		var ierr error
		rid, ierr = s.insertRowPlacedTx(t, storage.NilRID, true, row)
		return ierr
	})
	return rid, err
}

// UpdateRow implements xnf.Host.
func (s *Session) UpdateRow(table string, rid storage.RID, row types.Row) (storage.RID, error) {
	t, err := s.eng.cat.Table(table)
	if err != nil {
		return storage.NilRID, err
	}
	var newRID storage.RID
	err = s.autoTx(func() error {
		if lerr := s.lockTable(t.Name); lerr != nil {
			return lerr
		}
		var uerr error
		newRID, uerr = s.updateRowTx(t, rid, row)
		return uerr
	})
	return newRID, err
}

// DeleteRow implements xnf.Host.
func (s *Session) DeleteRow(table string, rid storage.RID) error {
	t, err := s.eng.cat.Table(table)
	if err != nil {
		return err
	}
	return s.autoTx(func() error {
		if lerr := s.lockTable(t.Name); lerr != nil {
			return lerr
		}
		return s.deleteRowTx(t, rid)
	})
}

// TableSchema implements xnf.Host.
func (s *Session) TableSchema(table string) (types.Schema, error) {
	t, err := s.eng.cat.Table(table)
	if err != nil {
		return nil, err
	}
	return t.Schema, nil
}

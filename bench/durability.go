package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sqlxnf"
	"sqlxnf/internal/types"
)

// copyDurable copies the data directory as a crash would leave it: the
// database stays open and is not closed, and only the bytes the log had
// forced to disk are kept. Killing the process would leave the operating
// system's cache intact, so the copy itself drops the unforced tail. The
// clients must be idle. It returns the new directory and the bytes copied.
func copyDurable(e *env) (string, int64, error) {
	keep := e.db.Engine().WALStats().File.DurableBytes
	names, err := filepath.Glob(filepath.Join(e.dir, "wal-*.seg"))
	if err != nil {
		return "", 0, err
	}
	sort.Strings(names) // named by first LSN, zero padded: log order
	dst, err := os.MkdirTemp(outDir, "crash-")
	if err != nil {
		return "", 0, err
	}
	var copied int64
	for _, name := range names {
		if copied == keep {
			break
		}
		n, err := copyFile(filepath.Join(dst, filepath.Base(name)), name, keep-copied)
		if err != nil {
			_ = os.RemoveAll(dst)
			return "", 0, err
		}
		copied += n
	}
	return dst, copied, nil
}

func copyFile(dst, src string, limit int64) (int64, error) {
	in, err := os.Open(src)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(out, io.LimitReader(in, limit))
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// checkRecovery opens a crash copy of the data directory and checks that
// every write a client saw acknowledged is there. It returns the recovery
// time per megabyte of log; a lost acknowledged write is an error.
func checkRecovery(e *env) (msPerMB float64, err error) {
	dir, size, err := copyDurable(e)
	if err != nil {
		return 0, fmt.Errorf("crash copy: %w", err)
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	db, err := openDB(dir)
	if err != nil {
		return 0, fmt.Errorf("recovery: %w", err)
	}
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	defer db.Close()
	if err := verifyModel(db, e); err != nil {
		return 0, fmt.Errorf("after recovery from %d log bytes: %w", size, err)
	}
	return ms / (float64(size) / (1 << 20)), nil
}

// verifyModel compares the database with what the generator loaded and what
// the clients know they changed since.
func verifyModel(db *sqlxnf.DB, e *env) error {
	d := e.data
	sal, descr := map[int]float64{}, map[int]string{}
	live, gone := map[int]bool{}, map[int]bool{}
	unsure := map[int]bool{}
	sumKnown := true
	for _, cs := range e.clients {
		for k, v := range cs.sal {
			sal[k] = v
		}
		for k, v := range cs.descr {
			descr[k] = v
		}
		for _, k := range cs.inserted {
			live[k] = true
		}
		for k := range cs.deleted {
			gone[k] = true
		}
		for k := range cs.unsure {
			unsure[k] = true
		}
		sumKnown = sumKnown && !cs.sumUnsure
	}

	r, err := db.Query("SELECT eno, sal, descr FROM EMP")
	if err != nil {
		return err
	}
	if len(r.Rows) != nEmps {
		return fmt.Errorf("EMP has %d rows, want %d", len(r.Rows), nEmps)
	}
	var sum, wantSum float64
	for _, row := range r.Rows {
		eno := int(row[0].Int())
		got := asFloat(row[1])
		sum += got
		want, written := sal[eno]
		if !written {
			want = d.empSal(eno)
		}
		wantSum += want
		if unsure[eno] {
			continue
		}
		if written && got != want {
			return fmt.Errorf("EMP %d: sal %v, but %v was acknowledged", eno, got, want)
		}
		wantDescr, ok := descr[eno]
		if !ok {
			wantDescr = d.empDescr(eno)
		}
		if row[2].Str() != wantDescr {
			return fmt.Errorf("EMP %d: descr %q, but %q was acknowledged", eno, row[2].Str(), wantDescr)
		}
	}
	// Transfers move salary between employees, so single rows are unknown
	// where they ran, but the total is not.
	if sumKnown && sum != wantSum {
		return fmt.Errorf("SUM(sal) over EMP is %v, want %v", sum, wantSum)
	}

	r, err = db.Query("SELECT sno FROM SKILLS")
	if err != nil {
		return err
	}
	have := make(map[int]bool, len(r.Rows))
	for _, row := range r.Rows {
		have[int(row[0].Int())] = true
	}
	for sno := snoBase + 1; sno <= snoBase+nSkills; sno++ {
		if !have[sno] && !gone[sno] && !unsure[sno] {
			return fmt.Errorf("SKILLS %d: loaded row is missing", sno)
		}
	}
	for k := range live {
		if !have[k] {
			return fmt.Errorf("SKILLS %d: acknowledged insert is missing", k)
		}
	}
	for k := range gone {
		if have[k] {
			return fmt.Errorf("SKILLS %d: acknowledged delete came back", k)
		}
	}
	for table, want := range map[string]int{"DEPT": nDepts, "PROJ": nProjs} {
		r, err := db.Query("SELECT COUNT(*) FROM " + table)
		if err != nil {
			return err
		}
		if got := int(r.Rows[0][0].Int()); got != want {
			return fmt.Errorf("%s has %d rows, want %d", table, got, want)
		}
	}
	return nil
}

// asFloat reads a numeric column, which holds an integer when an integer
// literal was stored into it.
func asFloat(v sqlxnf.Value) float64 {
	if v.Kind() == types.KindInt {
		return float64(v.Int())
	}
	return v.Float()
}

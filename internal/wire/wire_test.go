package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"sqlxnf"
	"sqlxnf/internal/lock"
	company "sqlxnf/internal/workload"
)

func TestWireFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	req := &Request{ID: 7, Op: OpExec, SQL: "SELECT 1", TimeoutMS: 250}
	if err := WriteFrame(&buf, req); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	payload, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	var got Request
	if err := json.Unmarshal(payload, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got != *req {
		t.Fatalf("round trip mismatch: %+v != %+v", got, *req)
	}
}

func TestWireFrameRejectsOversizedLength(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameBytes+1)
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("oversized announced frame accepted")
	}
}

func TestWireErrorRoundTripPreservesIs(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Response{OK: false, Err: ErrServerBusy}); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	payload, _ := ReadFrame(&buf)
	var resp Response
	if err := json.Unmarshal(payload, &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !errors.Is(resp.Err, ErrServerBusy) {
		t.Fatalf("decoded busy error does not match sentinel: %+v", resp.Err)
	}
	if !resp.Err.Retryable {
		t.Fatal("busy must be retryable")
	}
}

func TestClassifyTaxonomy(t *testing.T) {
	cases := []struct {
		err       error
		code      Code
		retryable bool
	}{
		{sqlxnf.ErrWriteConflict, CodeWriteConflict, true},
		{lock.ErrLockTimeout, CodeLockTimeout, true},
		{lock.ErrDeadlock, CodeDeadlock, true},
		{sqlxnf.ErrClosed, CodeShutdown, true},
		{context.DeadlineExceeded, CodeDeadline, false},
		{context.Canceled, CodeCanceled, false},
		{errors.New("engine: unknown column Q"), CodeSQL, false},
		{ErrServerBusy, CodeBusy, true},
	}
	for _, c := range cases {
		got := Classify(c.err)
		if got.Code != c.code || got.Retryable != c.retryable {
			t.Errorf("Classify(%v) = {%s retryable=%v}, want {%s retryable=%v}",
				c.err, got.Code, got.Retryable, c.code, c.retryable)
		}
	}
	// Wrapped errors classify through the chain, as the engine produces them
	// ("%w (transaction rolled back)").
	wrapped := errors.Join(errors.New("context"), sqlxnf.ErrWriteConflict)
	if got := Classify(wrapped); got.Code != CodeWriteConflict {
		t.Errorf("wrapped conflict classified as %s", got.Code)
	}
}

func TestRetryableScript(t *testing.T) {
	cases := []struct {
		sql  string
		want bool
	}{
		{"SELECT 1", true},
		{"UPDATE T SET v = 1 WHERE id = 2;", true},
		{"BEGIN; UPDATE T SET v = 1 WHERE id = 2; COMMIT", true},
		{"BEGIN; INSERT INTO T VALUES (1, 2); UPDATE T SET v = 3 WHERE id = 1; COMMIT;", true},
		// Multi-statement autocommit: the prefix commits independently, so a
		// rerun would repeat it.
		{"INSERT INTO T VALUES (1, 2); UPDATE T SET v = 3 WHERE id = 1", false},
		// Transaction left open, or control statements alone: the client owns
		// the transaction's shape.
		{"BEGIN", false},
		{"BEGIN; UPDATE T SET v = 1 WHERE id = 2", false},
		{"UPDATE T SET v = 1 WHERE id = 2; COMMIT", false},
		{"BEGIN; COMMIT; BEGIN; COMMIT", false},
		{"", false},
		{"NOT SQL AT ALL ((", false},
	}
	for _, c := range cases {
		if got := retryableScript(c.sql); got != c.want {
			t.Errorf("retryableScript(%q) = %v, want %v", c.sql, got, c.want)
		}
	}
}

// renderCOConcat is renderCO as it was written first, a Sprintf concatenated
// per tuple: the reference the golden test and BenchmarkRenderCO hold the
// builder to, byte for byte.
func renderCOConcat(co *sqlxnf.CO) string {
	out := co.String() + "\n"
	for _, n := range co.Nodes {
		mark := ""
		if n.Root {
			mark = "*"
		}
		out += fmt.Sprintf("-- %s%s %v\n", n.Name, mark, n.Schema.Names())
		for _, row := range n.Rows {
			out += fmt.Sprintf("   %v\n", row)
		}
	}
	for _, e := range co.Edges {
		out += fmt.Sprintf("-- %s: %s -> %s (%d connections)\n", e.Name, e.Parent, e.Child, len(e.Conns))
	}
	return out
}

// companyCO checks out department 1 of a two-department company database:
// 66 tuples (1 DEPT, 20 EMP, 5 PROJ, 40 SKILLS), the bench's co_checkout CO.
func companyCO(t testing.TB) *sqlxnf.CO {
	t.Helper()
	db := sqlxnf.Open()
	t.Cleanup(func() { db.Close() })
	cfg := company.CompanyConfig{Departments: 2, EmpsPerDept: 20, ProjsPerDept: 5, SkillsPerEmp: 2, Seed: 1}
	if _, err := company.LoadCompany(db.Engine().Session(), cfg); err != nil {
		t.Fatalf("LoadCompany: %v", err)
	}
	co, err := db.QueryCO(company.CompanyCOQuery(cfg, 1))
	if err != nil {
		t.Fatalf("QueryCO: %v", err)
	}
	if co.Size() < 66 {
		t.Fatalf("company CO has %d tuples", co.Size())
	}
	return co
}

const goldenCOQuery = `OUT OF Xdept AS DEPT, Xemp AS EMP, Xnone AS (SELECT * FROM EMP WHERE eno < 0),
	employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno),
	nobody AS (RELATE Xdept, Xnone WHERE Xdept.dno = Xnone.edno) TAKE *`

const goldenCOText = `CO{Xdept*:3 Xemp:3 Xnone:0 employment(Xdept->Xemp):3 nobody(Xdept->Xnone):0}
-- Xdept* [dno dname budget open]
   (1, toys, games, 1.5e+06, TRUE)
   (2, NULL, 0.25, FALSE)
   (3, , -1e-07, NULL)
-- Xemp [eno ename edno]
   (10, ann, 1)
   (11, bob (jr), 1)
   (12, NULL, 2)
-- Xnone [eno ename edno]
-- employment: Xdept -> Xemp (3 connections)
-- nobody: Xdept -> Xnone (0 connections)
`

// TestRenderCOGolden: the rendered text is byte-identical to the Sprintf
// concatenation it replaced — NULLs, floats, booleans, commas inside
// strings, an empty node, an edge without connections, and the company CO.
func TestRenderCOGolden(t *testing.T) {
	db := sqlxnf.Open()
	defer db.Close()
	db.MustExec(`CREATE TABLE DEPT (dno INT PRIMARY KEY, dname VARCHAR, budget FLOAT, open BOOLEAN);
		CREATE TABLE EMP (eno INT PRIMARY KEY, ename VARCHAR, edno INT);
		INSERT INTO DEPT VALUES (1, 'toys, games', 1.5e6, TRUE), (2, NULL, 0.25, FALSE), (3, '', -1e-7, NULL);
		INSERT INTO EMP VALUES (10, 'ann', 1), (11, 'bob (jr)', 1), (12, NULL, 2)`)
	co, err := db.QueryCO(goldenCOQuery)
	if err != nil {
		t.Fatalf("QueryCO: %v", err)
	}
	if got := renderCO(co); got != goldenCOText {
		t.Fatalf("renderCO:\n%s\nwant:\n%s", got, goldenCOText)
	}
	if got, want := renderCO(co), renderCOConcat(co); got != want {
		t.Fatalf("renderCO:\n%s\nSprintf concatenation:\n%s", got, want)
	}
	co = companyCO(t)
	if got, want := renderCO(co), renderCOConcat(co); got != want {
		t.Fatalf("company CO: renderCO:\n%s\nSprintf concatenation:\n%s", got, want)
	}
}

func BenchmarkRenderCO(b *testing.B) {
	co := companyCO(b)
	for _, arm := range []struct {
		name   string
		render func(*sqlxnf.CO) string
	}{{"builder", renderCO}, {"concat", renderCOConcat}} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				arm.render(co)
			}
		})
	}
}

func TestRenderCOMentionsNodes(t *testing.T) {
	db := sqlxnf.Open()
	defer db.Close()
	db.MustExec(`CREATE TABLE DEPT (dno INT PRIMARY KEY, dname VARCHAR)`)
	db.MustExec(`INSERT INTO DEPT VALUES (1, 'toys')`)
	co, err := db.QueryCO(`OUT OF Xdept AS DEPT TAKE *`)
	if err != nil {
		t.Fatalf("QueryCO: %v", err)
	}
	text := renderCO(co)
	if !strings.Contains(text, "Xdept") || !strings.Contains(text, "toys") {
		t.Fatalf("rendered CO missing content:\n%s", text)
	}
}

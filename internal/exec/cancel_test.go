package exec

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"sqlxnf/internal/types"
)

// waitGoroutines polls until the process goroutine count drops back to the
// baseline (runtime bookkeeping goroutines may lag a Close by a scheduling
// quantum, so a settle loop is required, not a snapshot).
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
		runtime.NumGoroutine(), baseline, buf[:n])
}

// TestGatherCancellationPrompt is the tentpole's latency criterion: cancelling
// a DOP=4 parallel scan of 100k rows mid-flight returns context.Canceled
// within roughly one batch's work, and every worker goroutine exits.
func TestGatherCancellationPrompt(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const n = 100_000
	in := make([]types.Row, n)
	for i := range in {
		in[i] = types.Row{iv(int64(i))}
	}
	cat := testCatalog(t)
	tab := loadTable(t, cat, "BIG", intSchema("id"), in)

	g := NewGather(&MorselScan{Table: tab}, 4)
	ctx := NewContext()
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx.AttachContext(cctx)
	if err := g.Open(ctx); err != nil {
		t.Fatal(err)
	}
	// Consume one batch to prove the scan is live, then pull the rug.
	if _, err := g.NextBatch(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	start := time.Now()
	var err error
	for {
		var batch []types.Row
		batch, err = g.NextBatch(ctx)
		if err != nil || batch == nil {
			break
		}
	}
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("cancelled gather drained to completion without an error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled gather returned %v, want context.Canceled", err)
	}
	// Workers poll at batch boundaries; a full drain of 100k rows takes far
	// longer than this bound, so meeting it proves the early exit. The bound
	// is looser than the production figure (<10ms) to absorb -race and CI
	// scheduling noise.
	if elapsed > 250*time.Millisecond {
		t.Fatalf("cancellation took %v, want near-immediate", elapsed)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, baseline)
}

// TestCollectPreCancelled: a context cancelled before Open never runs the
// plan at all.
func TestCollectPreCancelled(t *testing.T) {
	cat := testCatalog(t)
	tab := loadTable(t, cat, "PC", intSchema("id"), []types.Row{{iv(1)}, {iv(2)}})
	ctx := NewContext()
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctx.AttachContext(cctx)
	if _, err := Collect(ctx, &SeqScan{Table: tab}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Collect returned %v, want context.Canceled", err)
	}
}

// TestInterruptedSemantics pins the Context plumbing: an unattached context
// never reports interruption, a deadline surfaces DeadlineExceeded, and
// detaching (AttachContext(nil)) restores the inert state.
func TestInterruptedSemantics(t *testing.T) {
	ctx := NewContext()
	if err := ctx.Interrupted(); err != nil {
		t.Fatalf("unattached context interrupted: %v", err)
	}
	dctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	ctx.AttachContext(dctx)
	<-dctx.Done()
	if err := ctx.Interrupted(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline reported %v, want DeadlineExceeded", err)
	}
	ctx.AttachContext(nil)
	if err := ctx.Interrupted(); err != nil {
		t.Fatalf("detached context interrupted: %v", err)
	}
}

// TestGatherPanicContainment: a panic inside a worker surfaces as an
// *exec.PanicError through the normal error path instead of crashing the
// process, and the workers all exit.
func TestGatherPanicContainment(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var in []types.Row
	for i := 0; i < 5000; i++ {
		in = append(in, types.Row{iv(int64(i))})
	}
	cat := testCatalog(t)
	tab := loadTable(t, cat, "PAN", intSchema("id"), in)
	g := NewGather(&panicPlan{Child: &MorselScan{Table: tab}}, 4)
	_, err := Collect(NewContext(), g)
	if err == nil {
		t.Fatal("panicking worker produced no error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("worker panic surfaced as %T (%v), want *PanicError", err, err)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError carries no stack trace")
	}
	waitGoroutines(t, baseline)
}

// panicPlan is a test operator that panics on its second batch, after real
// rows have flowed (the worst spot: mid-statement, workers mid-stream).
type panicPlan struct {
	Child   Plan
	batches int
}

func (p *panicPlan) Schema() types.Schema    { return p.Child.Schema() }
func (p *panicPlan) Open(ctx *Context) error { return p.Child.Open(ctx) }
func (p *panicPlan) NextBatch(ctx *Context) ([]types.Row, error) {
	p.batches++
	if p.batches > 1 {
		panic("forced operator panic")
	}
	return p.Child.NextBatch(ctx)
}
func (p *panicPlan) Close() error     { return p.Child.Close() }
func (p *panicPlan) Explain() string  { return "PanicPlan" }
func (p *panicPlan) Children() []Plan { return []Plan{p.Child} }
func (p *panicPlan) Clone() Plan {
	c, ok := ClonePlan(p.Child)
	if !ok {
		return nil
	}
	return &panicPlan{Child: c}
}

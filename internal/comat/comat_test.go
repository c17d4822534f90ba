package comat

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"sqlxnf/internal/types"
	"sqlxnf/internal/xnf"
)

// testCO builds a one-node CO with n integer tuples.
func testCO(n int) *xnf.CO {
	ni := &xnf.NodeInstance{
		Name:   "X",
		Schema: types.Schema{{Name: "a", Kind: types.KindInt}},
		Root:   true,
	}
	for i := 0; i < n; i++ {
		ni.Rows = append(ni.Rows, types.Row{types.NewInt(int64(i))})
	}
	return &xnf.CO{Nodes: []*xnf.NodeInstance{ni}}
}

// versionMap is a VersionFn over a mutable map.
type versionMap struct {
	mu sync.Mutex
	m  map[string]uint64
}

func (vm *versionMap) fn(table string) (uint64, bool) {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	v, ok := vm.m[table]
	return v, ok
}

// sees is the Sees of a reader at latest-committed state: every dependency
// is still at its recorded version.
func (vm *versionMap) sees(deps []TableDep) bool {
	for _, d := range deps {
		if v, ok := vm.fn(d.Table); !ok || v != d.Version {
			return false
		}
	}
	return true
}

// refuse is the Sees of a reader that sees no stored snapshot.
func refuse([]TableDep) bool { return false }

func (vm *versionMap) bump(table string) {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	vm.m[table]++
}

func TestFetchHitAndFineGrainedInvalidation(t *testing.T) {
	c := New(0)
	vm := &versionMap{m: map[string]uint64{"T1": 5, "T2": 9}}
	var mats atomic.Int64
	fetch := func(key, table string) *xnf.CO {
		co, _, err := c.FetchCO(context.Background(), key, 1, vm.sees, func() (*xnf.CO, []TableDep, error) {
			mats.Add(1)
			v, _ := vm.fn(table)
			return testCO(3), []TableDep{{Table: table, Version: v}}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return co
	}
	co1 := fetch("K1", "T1")
	fetch("K2", "T2")
	if got := mats.Load(); got != 2 {
		t.Fatalf("materializations = %d, want 2", got)
	}
	// Repeats hit.
	if co := fetch("K1", "T1"); co != co1 {
		t.Fatal("hit did not serve the cached CO")
	}
	fetch("K2", "T2")
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 2 hits / 2 misses / 2 entries", st)
	}
	// DML to T1 invalidates K1 only; K2 keeps hitting.
	vm.bump("T1")
	fetch("K2", "T2")
	fetch("K1", "T1")
	st = c.Stats()
	if st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1 (exactly the dependent entry)", st.Invalidations)
	}
	if st.Hits != 3 || st.Misses != 3 {
		t.Fatalf("stats after bump = %+v", st)
	}
	// A dropped table invalidates too.
	vm.mu.Lock()
	delete(vm.m, "T2")
	vm.m["T2X"] = 1
	vm.mu.Unlock()
	if _, ok := c.Get("K2", 1, vm.sees); ok {
		t.Fatal("entry over a dropped table validated")
	}
}

func TestEpochEvictsEverything(t *testing.T) {
	c := New(0)
	vm := &versionMap{m: map[string]uint64{"T": 1}}
	mat := func() (*xnf.CO, []TableDep, error) {
		return testCO(1), []TableDep{{Table: "T", Version: 1}}, nil
	}
	if _, _, err := c.FetchCO(context.Background(), "K", 1, vm.sees, mat); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("K", 2, vm.sees); ok {
		t.Fatal("entry survived an epoch change")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestLRUBudgetEviction(t *testing.T) {
	one := coBytes(testCO(100))
	c := New(3*one + one/2) // room for three entries
	vm := &versionMap{m: map[string]uint64{"T": 1}}
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("K%d", i)
		_, _, err := c.FetchCO(context.Background(), key, 1, vm.sees, func() (*xnf.CO, []TableDep, error) {
			return testCO(100), []TableDep{{Table: "T", Version: 1}}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries != 3 {
		t.Fatalf("entries = %d, want 3 under the byte budget", st.Entries)
	}
	if st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
	if st.ResidentBytes > c.budget {
		t.Fatalf("resident %d exceeds budget %d", st.ResidentBytes, c.budget)
	}
	// The survivors are the most recently used.
	ents := c.Entries()
	if len(ents) != 3 || ents[0].Key != "K4" || ents[2].Key != "K2" {
		t.Fatalf("unexpected LRU order: %+v", ents)
	}
}

func TestSingleFlight(t *testing.T) {
	c := New(0)
	vm := &versionMap{m: map[string]uint64{"T": 1}}
	var mats atomic.Int64
	const n = 16
	var wg sync.WaitGroup
	cos := make([]*xnf.CO, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			co, _, err := c.FetchCO(context.Background(), "K", 1, vm.sees, func() (*xnf.CO, []TableDep, error) {
				mats.Add(1)
				time.Sleep(20 * time.Millisecond) // widen the window
				return testCO(10), []TableDep{{Table: "T", Version: 1}}, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			cos[i] = co
		}(i)
	}
	wg.Wait()
	if got := mats.Load(); got != 1 {
		t.Fatalf("materializations = %d, want 1 (single-flight)", got)
	}
	for i := 1; i < n; i++ {
		if cos[i] != cos[0] {
			t.Fatal("flight waiters received different COs")
		}
	}
	st := c.Stats()
	if st.Waits == 0 {
		t.Fatalf("no waits recorded under concurrent fetch: %+v", st)
	}
}

// TestGetServesResidentEntry: one Get asks sees about the entry's sorted
// dependency snapshot and returns the stored CO itself; an entry sees
// refuses is not served, counts no hit, and stays resident.
func TestGetServesResidentEntry(t *testing.T) {
	c := New(0)
	vm := &versionMap{m: map[string]uint64{"A": 3, "B": 4}}
	stored := testCO(2)
	if _, _, err := c.FetchCO(context.Background(), "K", 1, vm.sees, func() (*xnf.CO, []TableDep, error) {
		return stored, []TableDep{{Table: "B", Version: 4}, {Table: "A", Version: 3}}, nil
	}); err != nil {
		t.Fatal(err)
	}
	var asked []TableDep
	co, ok := c.Get("K", 1, func(deps []TableDep) bool {
		asked = deps
		return vm.sees(deps)
	})
	if !ok || co != stored {
		t.Fatalf("Get = %p, %v; want the stored CO %p", co, ok, stored)
	}
	if want := []TableDep{{Table: "A", Version: 3}, {Table: "B", Version: 4}}; !reflect.DeepEqual(asked, want) {
		t.Fatalf("sees was asked about %v, want %v", asked, want)
	}
	if co, ok := c.Get("K", 1, refuse); ok || co != nil {
		t.Fatalf("Get under a refusing sees = %p, %v", co, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Entries != 1 || st.Invalidations != 0 {
		t.Fatalf("stats = %+v, want 1 hit and the refused entry resident", st)
	}
	if ents := c.Entries(); len(ents) != 1 || ents[0].Hits != 1 || ents[0].DepKey != "A@3;B@4" {
		t.Fatalf("entries = %+v", ents)
	}
	if co, ok := c.Get("K", 1, vm.sees); !ok || co != stored {
		t.Fatal("the refused entry stopped serving a reader that sees it")
	}
	if co, ok := c.Get("absent", 1, vm.sees); ok || co != nil {
		t.Fatalf("Get on an absent key = %p, %v", co, ok)
	}
}

// TestWaiterDoesNotSeeFlight: a waiter whose sees refuses the runner's
// snapshot does not take the flight's CO; it materializes its own, which is
// not stored, and the runner's entry stays resident.
func TestWaiterDoesNotSeeFlight(t *testing.T) {
	c := New(0)
	vm := &versionMap{m: map[string]uint64{"T": 1}}
	release := make(chan struct{})
	started := make(chan struct{})
	runnerCO := testCO(4)
	runnerDone := make(chan error, 1)
	go func() {
		_, _, err := c.FetchCO(context.Background(), "K", 1, vm.sees, func() (*xnf.CO, []TableDep, error) {
			close(started)
			<-release
			return runnerCO, []TableDep{{Table: "T", Version: 1}}, nil
		})
		runnerDone <- err
	}()
	<-started
	waiterCO := testCO(1)
	waiterDone := make(chan *xnf.CO, 1)
	go func() {
		co, hit, err := c.FetchCO(context.Background(), "K", 1, refuse, func() (*xnf.CO, []TableDep, error) {
			return waiterCO, []TableDep{{Table: "T", Version: 1}}, nil
		})
		if err != nil || hit {
			t.Errorf("waiter: hit=%v err=%v, want its own materialization", hit, err)
		}
		waiterDone <- co
	}()
	for c.Stats().Waits == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-runnerDone; err != nil {
		t.Fatal(err)
	}
	if co := <-waiterDone; co != waiterCO {
		t.Fatal("a waiter that does not see the flight's snapshot got the flight's CO")
	}
	if co, ok := c.Get("K", 1, vm.sees); !ok || co != runnerCO {
		t.Fatal("the runner's entry is not resident after the waiter's private materialization")
	}
	if st := c.Stats(); st.Entries != 1 || st.Misses != 2 || st.Invalidations != 0 {
		t.Fatalf("stats = %+v, want 1 entry, 2 misses, no invalidation", st)
	}
}

// TestRacingFlightStoresNothing: a commit that moves a dependency after the
// runner read its versions makes the runner's own sees refuse the store.
// The runner still gets its CO; nothing is resident, and the next fetch
// misses.
func TestRacingFlightStoresNothing(t *testing.T) {
	c := New(0)
	vm := &versionMap{m: map[string]uint64{"T": 1}}
	raced := testCO(3)
	co, hit, err := c.FetchCO(context.Background(), "K", 1, vm.sees, func() (*xnf.CO, []TableDep, error) {
		v, _ := vm.fn("T")
		vm.bump("T")
		return raced, []TableDep{{Table: "T", Version: v}}, nil
	})
	if err != nil || hit || co != raced {
		t.Fatalf("runner: co=%p hit=%v err=%v, want its own CO", co, hit, err)
	}
	if st := c.Stats(); st.Entries != 0 || st.ResidentBytes != 0 {
		t.Fatalf("a flight that raced a commit stored its CO: %+v", st)
	}
	var mats int
	if _, hit, err := c.FetchCO(context.Background(), "K", 1, vm.sees, func() (*xnf.CO, []TableDep, error) {
		mats++
		v, _ := vm.fn("T")
		return testCO(3), []TableDep{{Table: "T", Version: v}}, nil
	}); err != nil || hit || mats != 1 {
		t.Fatalf("next fetch: hit=%v err=%v materializations=%d, want a miss", hit, err, mats)
	}
}

// TestCOBytesChargesValueSize: each one-column tuple adds a row header plus
// one types.Value to a CO's charge against the byte budget.
func TestCOBytesChargesValueSize(t *testing.T) {
	per := coBytes(testCO(2)) - coBytes(testCO(1))
	if want := 24 + int64(unsafe.Sizeof(types.Value{})); per != want {
		t.Fatalf("a one-column tuple charges %d B, want %d", per, want)
	}
}

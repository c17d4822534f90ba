package comat

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

func (vm *versionMap) bump(table string) {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	vm.m[table]++
}

func TestDepKeyRoundTrip(t *testing.T) {
	cases := [][]TableDep{
		nil,
		{{Table: "EMP", Version: 0}},
		{{Table: "EMP", Version: 7}, {Table: "DEPT", Version: 12}},
		{{Table: `WEIRD;NAME`, Version: 1}, {Table: `ESC\@PED`, Version: 2}},
		{{Table: "", Version: 3}},
	}
	for _, deps := range cases {
		enc := EncodeDepKey(deps)
		dec, err := DecodeDepKey(enc)
		if err != nil {
			t.Fatalf("DecodeDepKey(%q): %v", enc, err)
		}
		// Encode sorts; compare canonically.
		if EncodeDepKey(dec) != enc {
			t.Fatalf("round trip drifted: %q -> %v -> %q", enc, dec, EncodeDepKey(dec))
		}
	}
	// Order-insensitivity.
	a := EncodeDepKey([]TableDep{{Table: "A", Version: 1}, {Table: "B", Version: 2}})
	b := EncodeDepKey([]TableDep{{Table: "B", Version: 2}, {Table: "A", Version: 1}})
	if a != b {
		t.Fatalf("encoding is order-sensitive: %q vs %q", a, b)
	}
	// Malformed inputs must error, not validate.
	for _, bad := range []string{"EMP", "EMP@", "EMP@x", "EMP@1;", "@1;EMP@2x", `EMP\q@1`, "EMP@01"} {
		if _, err := DecodeDepKey(bad); err == nil {
			t.Errorf("DecodeDepKey(%q) accepted malformed input", bad)
		}
	}
}

func TestFetchHitAndFineGrainedInvalidation(t *testing.T) {
	c := New(0)
	vm := &versionMap{m: map[string]uint64{"T1": 5, "T2": 9}}
	var mats atomic.Int64
	fetch := func(key, table string) *xnf.CO {
		co, _, err := c.FetchCO(context.Background(), key, 1, vm.fn, func() (*xnf.CO, []TableDep, error) {
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
	if _, _, ok := c.Get("K2", 1, vm.fn); ok {
		t.Fatal("entry over a dropped table validated")
	}
}

func TestEpochEvictsEverything(t *testing.T) {
	c := New(0)
	vm := &versionMap{m: map[string]uint64{"T": 1}}
	mat := func() (*xnf.CO, []TableDep, error) {
		return testCO(1), []TableDep{{Table: "T", Version: 1}}, nil
	}
	if _, _, err := c.FetchCO(context.Background(), "K", 1, vm.fn, mat); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Get("K", 2, vm.fn); ok {
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
		_, _, err := c.FetchCO(context.Background(), key, 1, vm.fn, func() (*xnf.CO, []TableDep, error) {
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
			co, _, err := c.FetchCO(context.Background(), "K", 1, vm.fn, func() (*xnf.CO, []TableDep, error) {
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

// TestGetServesResidentEntry: one Get returns the stored CO itself and the
// tables of its dependency snapshot, so a caller checks its snapshot against
// the entry it was served and nothing else.
func TestGetServesResidentEntry(t *testing.T) {
	c := New(0)
	vm := &versionMap{m: map[string]uint64{"A": 3, "B": 4}}
	stored := testCO(2)
	deps := []TableDep{{Table: "B", Version: 4}, {Table: "A", Version: 3}}
	if _, _, err := c.FetchCO(context.Background(), "K", 1, vm.fn, func() (*xnf.CO, []TableDep, error) {
		return stored, deps, nil
	}); err != nil {
		t.Fatal(err)
	}
	co, tables, ok := c.Get("K", 1, vm.fn)
	if !ok || co != stored {
		t.Fatalf("Get = %p, %v; want the stored CO %p", co, ok, stored)
	}
	// The canonical dependency key sorts by table name.
	if !reflect.DeepEqual(tables, []string{"A", "B"}) {
		t.Fatalf("tables = %v, want [A B]", tables)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("hits = %d, want 1", st.Hits)
	}
	if co, tables, ok := c.Get("absent", 1, vm.fn); ok || co != nil || tables != nil {
		t.Fatalf("Get on an absent key = %p, %v, %v", co, tables, ok)
	}
}

package storage

import (
	"fmt"
	"sync"
	"testing"

	"sqlxnf/internal/types"
)

// morselHeap loads n rows into a fresh heap and returns it with the tag used.
func morselHeap(t *testing.T, n int) (*Heap, uint32) {
	t.Helper()
	bp := NewBufferPool(NewDisk(), 1<<14)
	h, err := CreateHeap(bp)
	if err != nil {
		t.Fatal(err)
	}
	const tag = 7
	for i := 0; i < n; i++ {
		row := types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("r-%d", i))}
		if _, err := h.Insert(tag, row); err != nil {
			t.Fatal(err)
		}
	}
	return h, tag
}

// TestMorselDispatcherCoversChainOnce: concurrent workers claiming morsels of
// the page directory collectively read every row exactly once, regardless of
// claim interleaving.
func TestMorselDispatcherCoversChainOnce(t *testing.T) {
	const total = 5000
	h, tag := morselHeap(t, total)
	for _, workers := range []int{1, 2, 4, 7} {
		disp := h.MorselDispatcher(3)
		var mu sync.Mutex
		seen := make(map[int64]int, total)
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				r := h.MorselReader(tag)
				var rows []types.Row
				for {
					pages := disp.Claim()
					if len(pages) == 0 {
						return
					}
					for _, id := range pages {
						rows = rows[:0]
						var rerr error
						rows, rerr = r.ReadPage(id, rows)
						if rerr != nil {
							errs[w] = rerr
							return
						}
						mu.Lock()
						for _, row := range rows {
							seen[row[0].Int()]++
						}
						mu.Unlock()
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if len(seen) != total {
			t.Fatalf("workers=%d: saw %d distinct rows, want %d", workers, len(seen), total)
		}
		for id, n := range seen {
			if n != 1 {
				t.Fatalf("workers=%d: row %d read %d times", workers, id, n)
			}
		}
	}
}

// TestMorselDispatcherSkipsForeignTags: a reader over one table of a cluster
// family never surfaces the other table's tuples.
func TestMorselDispatcherSkipsForeignTags(t *testing.T) {
	bp := NewBufferPool(NewDisk(), 1<<14)
	h, err := CreateHeap(bp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		tag := uint32(1 + i%2)
		if _, err := h.Insert(tag, types.Row{types.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	disp := h.MorselDispatcher(0)
	r := h.MorselReader(1)
	count := 0
	for {
		pages := disp.Claim()
		if len(pages) == 0 {
			break
		}
		for _, id := range pages {
			rows, err := r.ReadPage(id, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range rows {
				if row[0].Int()%2 != 0 {
					t.Fatalf("tag-1 reader surfaced tag-2 row %v", row)
				}
				count++
			}
		}
	}
	if count != 150 {
		t.Fatalf("tag-1 rows = %d, want 150", count)
	}
}

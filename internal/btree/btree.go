// Package btree implements an order-preserving B+tree index mapping encoded
// keys (see types.EncodeKey) to tuple RIDs. Indexes are memory-resident —
// the buffer-pool I/O the reproduction measures concerns heap pages; index
// probes model Starburst's buffer-resident index access path.
//
// The tree stores (key, rid) composites, so duplicate user keys coexist in
// non-unique indexes and every stored entry is totally ordered; separators
// carry the full composite, which keeps duplicates that span leaves
// reachable. Unique indexes reject a second rid under an existing key.
package btree

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"

	"sqlxnf/internal/storage"
)

// ErrDuplicate is returned when inserting an existing key into a unique tree.
var ErrDuplicate = errors.New("btree: duplicate key in unique index")

const (
	maxEntries = 64             // fan-out of leaf and internal nodes
	minEntries = maxEntries / 2 // underflow threshold
)

// entry is one (key, rid) pair; internal nodes reuse it as separators.
type entry struct {
	key []byte
	rid storage.RID
}

// compareEntry orders by key bytes, then by RID, making every composite
// unique inside non-unique indexes.
func compareEntry(a, b entry) int {
	if c := bytes.Compare(a.key, b.key); c != 0 {
		return c
	}
	if a.rid.Page != b.rid.Page {
		if a.rid.Page < b.rid.Page {
			return -1
		}
		return 1
	}
	if a.rid.Slot != b.rid.Slot {
		if a.rid.Slot < b.rid.Slot {
			return -1
		}
		return 1
	}
	return 0
}

type node struct {
	leaf     bool
	entries  []entry // leaf payload
	seps     []entry // internal separators: len(children)-1
	children []*node
	next     *node // leaf chain for range scans
}

// Tree is a B+tree index. Under MVCC, index readers no longer hold table
// locks, so the tree carries its own latch: public methods take mu and
// delegate to unexported unlatched implementations. Key byte slices are
// copied at insert and never mutated afterwards, so entries handed out by
// scans stay valid after the latch drops.
type Tree struct {
	mu     sync.RWMutex
	root   *node
	unique bool
	size   int
	// path and idx are findLeaf's reused descent record (write latch).
	path []*node
	idx  []int
}

// New creates an empty tree. unique enforces at most one RID per key.
func New(unique bool) *Tree {
	return &Tree{root: &node{leaf: true}, unique: unique}
}

// Len returns the number of stored entries.
func (t *Tree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// Unique reports whether the index enforces key uniqueness.
func (t *Tree) Unique() bool { return t.unique }

// Height returns the tree height (1 for a lone leaf).
func (t *Tree) Height() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	h, n := 1, t.root
	for !n.leaf {
		h++
		n = n.children[0]
	}
	return h
}

// findLeaf descends to the leaf that would contain composite e, recording
// the path for structural maintenance. The path lives in the tree's scratch
// slices, valid until the next findLeaf: callers hold the write latch.
func (t *Tree) findLeaf(e entry) (*node, []*node, []int) {
	path, idx := t.path[:0], t.idx[:0]
	n := t.root
	for !n.leaf {
		// The child left of the first separator above e.
		i := sort.Search(len(n.seps), func(j int) bool { return compareEntry(n.seps[j], e) > 0 })
		path = append(path, n)
		idx = append(idx, i)
		n = n.children[i]
	}
	t.path, t.idx = path, idx
	return n, path, idx
}

// lowerBound returns the first position in entries with entry >= e.
func lowerBound(entries []entry, e entry) int {
	lo, hi := 0, len(entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if compareEntry(entries[mid], e) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Insert adds (key, rid). Re-inserting an identical (key, rid) pair is a
// no-op. For unique trees a second rid under an existing key returns
// ErrDuplicate.
func (t *Tree) Insert(key []byte, rid storage.RID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.unique {
		dup := false
		t.scanLocked(key, key, true, true, func(_ []byte, r storage.RID) bool {
			dup = r != rid
			return false
		})
		if dup {
			return ErrDuplicate
		}
	}
	e := entry{key: append([]byte(nil), key...), rid: rid}
	leaf, path, idx := t.findLeaf(e)
	i := lowerBound(leaf.entries, e)
	if i < len(leaf.entries) && compareEntry(leaf.entries[i], e) == 0 {
		return nil // exact duplicate: idempotent
	}
	leaf.entries = append(leaf.entries, entry{})
	copy(leaf.entries[i+1:], leaf.entries[i:])
	leaf.entries[i] = e
	t.size++
	if len(leaf.entries) > maxEntries {
		t.splitLeaf(leaf, path, idx)
	}
	return nil
}

func (t *Tree) splitLeaf(leaf *node, path []*node, idx []int) {
	mid := len(leaf.entries) / 2
	right := &node{leaf: true, next: leaf.next}
	right.entries = append(right.entries, leaf.entries[mid:]...)
	leaf.entries = leaf.entries[:mid:mid]
	leaf.next = right
	t.insertInternal(path, idx, right.entries[0], right)
}

// insertInternal pushes a new separator/child pair up the path, splitting
// internal nodes as needed.
func (t *Tree) insertInternal(path []*node, idx []int, sep entry, right *node) {
	for level := len(path) - 1; ; level-- {
		if level < 0 {
			t.root = &node{
				seps:     []entry{sep},
				children: []*node{t.root, right},
			}
			return
		}
		parent := path[level]
		i := idx[level]
		parent.seps = append(parent.seps, entry{})
		copy(parent.seps[i+1:], parent.seps[i:])
		parent.seps[i] = sep
		parent.children = append(parent.children, nil)
		copy(parent.children[i+2:], parent.children[i+1:])
		parent.children[i+1] = right
		if len(parent.children) <= maxEntries {
			return
		}
		// Split the internal node.
		midIdx := len(parent.seps) / 2
		sep = parent.seps[midIdx]
		newRight := &node{
			seps:     append([]entry(nil), parent.seps[midIdx+1:]...),
			children: append([]*node(nil), parent.children[midIdx+1:]...),
		}
		parent.seps = parent.seps[:midIdx:midIdx]
		parent.children = parent.children[: midIdx+1 : midIdx+1]
		right = newRight
	}
}

// Delete removes (key, rid). It returns false when the pair is absent. In a
// unique tree the stored rid wins when the caller passes a stale one: the
// entry matching key alone is removed.
func (t *Tree) Delete(key []byte, rid storage.RID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := entry{key: key, rid: rid}
	if t.deleteExact(e) {
		return true
	}
	if !t.unique {
		return false
	}
	// Fall back to key-only lookup for unique trees.
	var found *entry
	t.scanLocked(key, key, true, true, func(k []byte, r storage.RID) bool {
		found = &entry{key: append([]byte(nil), k...), rid: r}
		return false
	})
	if found == nil {
		return false
	}
	return t.deleteExact(*found)
}

func (t *Tree) deleteExact(e entry) bool {
	leaf, path, idx := t.findLeaf(e)
	i := lowerBound(leaf.entries, e)
	if i >= len(leaf.entries) || compareEntry(leaf.entries[i], e) != 0 {
		return false
	}
	leaf.entries = append(leaf.entries[:i], leaf.entries[i+1:]...)
	t.size--
	t.rebalance(leaf, path, idx)
	return true
}

// rebalance restores the minimum-occupancy invariant after a deletion.
func (t *Tree) rebalance(n *node, path []*node, idx []int) {
	for level := len(path) - 1; level >= 0; level-- {
		under := false
		if n.leaf {
			under = len(n.entries) < minEntries
		} else {
			under = len(n.children) < minEntries
		}
		if !under {
			return
		}
		parent := path[level]
		i := idx[level]
		// Try borrowing from the left sibling, then the right, else merge.
		if i > 0 && t.canLend(parent.children[i-1]) {
			t.borrowFromLeft(parent, i)
			return
		}
		if i < len(parent.children)-1 && t.canLend(parent.children[i+1]) {
			t.borrowFromRight(parent, i)
			return
		}
		if i > 0 {
			t.merge(parent, i-1)
		} else {
			t.merge(parent, i)
		}
		n = parent
	}
	// Root underflow: collapse a one-child internal root.
	if !t.root.leaf && len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
}

func (t *Tree) canLend(n *node) bool {
	if n.leaf {
		return len(n.entries) > minEntries
	}
	return len(n.children) > minEntries
}

func (t *Tree) borrowFromLeft(parent *node, i int) {
	left, cur := parent.children[i-1], parent.children[i]
	if cur.leaf {
		e := left.entries[len(left.entries)-1]
		left.entries = left.entries[:len(left.entries)-1]
		cur.entries = append([]entry{e}, cur.entries...)
		parent.seps[i-1] = cur.entries[0]
		return
	}
	k := left.seps[len(left.seps)-1]
	c := left.children[len(left.children)-1]
	left.seps = left.seps[:len(left.seps)-1]
	left.children = left.children[:len(left.children)-1]
	cur.seps = append([]entry{parent.seps[i-1]}, cur.seps...)
	cur.children = append([]*node{c}, cur.children...)
	parent.seps[i-1] = k
}

func (t *Tree) borrowFromRight(parent *node, i int) {
	cur, right := parent.children[i], parent.children[i+1]
	if cur.leaf {
		e := right.entries[0]
		right.entries = right.entries[1:]
		cur.entries = append(cur.entries, e)
		parent.seps[i] = right.entries[0]
		return
	}
	cur.seps = append(cur.seps, parent.seps[i])
	cur.children = append(cur.children, right.children[0])
	parent.seps[i] = right.seps[0]
	right.seps = right.seps[1:]
	right.children = right.children[1:]
}

// merge folds child i+1 into child i of parent.
func (t *Tree) merge(parent *node, i int) {
	left, right := parent.children[i], parent.children[i+1]
	if left.leaf {
		left.entries = append(left.entries, right.entries...)
		left.next = right.next
	} else {
		left.seps = append(left.seps, parent.seps[i])
		left.seps = append(left.seps, right.seps...)
		left.children = append(left.children, right.children...)
	}
	parent.seps = append(parent.seps[:i], parent.seps[i+1:]...)
	parent.children = append(parent.children[:i+1], parent.children[i+2:]...)
}

// SeekEQ returns the RIDs stored under exactly key.
func (t *Tree) SeekEQ(key []byte) []storage.RID { return t.AppendEQ(nil, key) }

// AppendEQ appends the RIDs stored under exactly key to dst and returns the
// extended slice: a caller probing once per row reuses one buffer.
func (t *Tree) AppendEQ(dst []storage.RID, key []byte) []storage.RID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.scanLocked(key, key, true, true, func(_ []byte, rid storage.RID) bool {
		dst = append(dst, rid)
		return true
	})
	return dst
}

// Scan visits entries with lo <= key <= hi in order. nil bounds are
// unbounded; loInc/hiInc select inclusive or exclusive endpoints. The
// callback returns false to stop. The tree latch is held across the whole
// scan, so the callback must not mutate this tree.
func (t *Tree) Scan(lo, hi []byte, loInc, hiInc bool, fn func(key []byte, rid storage.RID) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.scanLocked(lo, hi, loInc, hiInc, fn)
}

func (t *Tree) scanLocked(lo, hi []byte, loInc, hiInc bool, fn func(key []byte, rid storage.RID) bool) {
	// Descend left on key equality so leading duplicates are not skipped:
	// into the child left of the first separator whose key is not below lo.
	n := t.root
	for !n.leaf {
		i := 0
		if lo != nil {
			i = sort.Search(len(n.seps), func(j int) bool { return bytes.Compare(n.seps[j].key, lo) >= 0 })
		}
		n = n.children[i]
	}
	// Entries are sorted, so once one passes the lower bound all that
	// follow do: the bound is searched for, leaf by leaf, only until then.
	passed := lo == nil
	for ; n != nil; n = n.next {
		entries := n.entries
		if !passed {
			entries = entries[sort.Search(len(entries), func(j int) bool {
				c := bytes.Compare(entries[j].key, lo)
				return c > 0 || c == 0 && loInc
			}):]
			passed = len(entries) > 0
		}
		for _, e := range entries {
			if hi != nil {
				c := bytes.Compare(e.key, hi)
				if c > 0 || (c == 0 && !hiInc) {
					return
				}
			}
			if !fn(e.key, e.rid) {
				return
			}
		}
	}
}

// iterBatch is how many entries an Iterator buffers per latch acquisition:
// large enough to amortize the RLock, small enough to keep writers flowing.
const iterBatch = 64

// Iterator streams a bounded range incrementally: each refill takes the tree
// latch, buffers up to iterBatch in-range entries, and remembers the last
// (key, rid) composite handed out; the next refill re-seeks strictly past it.
// Structural mutation between refills is therefore safe — concurrent writers
// under MVCC only add or remove entries the scanning snapshot cannot see
// anyway. The executor's streaming index scans pull batches off it.
type Iterator struct {
	t            *Tree
	lo, hi       []byte
	loInc, hiInc bool
	started      bool
	last         entry // last buffered composite; resume point
	buf          []entry
	i            int
	done         bool
}

// Iter positions an iterator at the first entry with key >= lo (key > lo
// when loInc is false) ranging up to hi under the same bound semantics as
// Scan. nil bounds are unbounded.
func (t *Tree) Iter(lo, hi []byte, loInc, hiInc bool) *Iterator {
	return &Iterator{t: t, lo: lo, hi: hi, loInc: loInc, hiInc: hiInc}
}

// Next returns the next in-range entry, or ok=false when the range is
// exhausted. Returned keys are immutable tree-owned byte slices and stay
// valid indefinitely.
func (it *Iterator) Next() (key []byte, rid storage.RID, ok bool) {
	if it.i >= len(it.buf) {
		if it.done {
			return nil, storage.RID{}, false
		}
		it.refill()
		if it.i >= len(it.buf) {
			return nil, storage.RID{}, false
		}
	}
	e := it.buf[it.i]
	it.i++
	return e.key, e.rid, true
}

// refill buffers the next batch of in-range entries under the tree latch.
func (it *Iterator) refill() {
	it.buf = it.buf[:0]
	it.i = 0
	t := it.t
	t.mu.RLock()
	defer t.mu.RUnlock()
	// Descend to the leaf where the range (or the resume point) starts,
	// going left on key equality so leading duplicates are not skipped.
	seek := it.lo
	if it.started {
		seek = it.last.key
	}
	n := t.root
	for !n.leaf {
		i := 0
		if seek != nil {
			for i < len(n.seps) && bytes.Compare(seek, n.seps[i].key) > 0 {
				i++
			}
		}
		n = n.children[i]
	}
	for n != nil {
		for _, e := range n.entries {
			if it.started {
				if compareEntry(e, it.last) <= 0 {
					continue
				}
			} else if it.lo != nil {
				c := bytes.Compare(e.key, it.lo)
				if c < 0 || (c == 0 && !it.loInc) {
					continue
				}
			}
			if it.hi != nil {
				c := bytes.Compare(e.key, it.hi)
				if c > 0 || (c == 0 && !it.hiInc) {
					it.done = true
					return
				}
			}
			it.buf = append(it.buf, e)
			if len(it.buf) >= iterBatch {
				it.last = e
				it.started = true
				return
			}
		}
		n = n.next
	}
	if len(it.buf) > 0 {
		it.last = it.buf[len(it.buf)-1]
		it.started = true
	}
	it.done = true
}

// Validate checks structural invariants (ordering, occupancy, leaf chain,
// separator correctness). Tests call it after mutation storms.
func (t *Tree) Validate() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.root == nil {
		return fmt.Errorf("btree: nil root")
	}
	count := 0
	var prev *entry
	err := t.validateNode(t.root, nil, nil, true, func(e entry) error {
		if prev != nil && compareEntry(*prev, e) >= 0 {
			return fmt.Errorf("btree: leaf chain out of order")
		}
		cp := e
		prev = &cp
		count++
		return nil
	})
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("btree: size %d but %d entries reachable", t.size, count)
	}
	return nil
}

func (t *Tree) validateNode(n *node, lo, hi *entry, isRoot bool, visit func(entry) error) error {
	if n.leaf {
		if !isRoot && len(n.entries) < minEntries {
			return fmt.Errorf("btree: leaf underflow (%d entries)", len(n.entries))
		}
		for _, e := range n.entries {
			if lo != nil && compareEntry(e, *lo) < 0 {
				return fmt.Errorf("btree: entry below separator")
			}
			if hi != nil && compareEntry(e, *hi) >= 0 {
				return fmt.Errorf("btree: entry above separator")
			}
			if err := visit(e); err != nil {
				return err
			}
		}
		return nil
	}
	if len(n.children) != len(n.seps)+1 {
		return fmt.Errorf("btree: internal node fan-out mismatch")
	}
	if !isRoot && len(n.children) < minEntries {
		return fmt.Errorf("btree: internal underflow (%d children)", len(n.children))
	}
	for i, c := range n.children {
		clo, chi := lo, hi
		if i > 0 {
			clo = &n.seps[i-1]
		}
		if i < len(n.seps) {
			chi = &n.seps[i]
		}
		if err := t.validateNode(c, clo, chi, false, visit); err != nil {
			return err
		}
	}
	return nil
}

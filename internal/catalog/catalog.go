// Package catalog maintains the schema objects of a database: base tables
// (each bound to a heap and owner tag), secondary indexes, SQL views, and
// XNF composite-object views. Tables may join a cluster family, sharing one
// heap so that related tuples of different tables co-locate on pages —
// the paper's composite-object clustering.
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"sqlxnf/internal/btree"
	"sqlxnf/internal/storage"
	"sqlxnf/internal/types"
)

// Index is a secondary index over one or more columns of a table.
type Index struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool
	Tree    *btree.Tree
}

// KeyFor extracts the index key values from a row of the owning table.
func (ix *Index) KeyFor(schema types.Schema, row types.Row) ([]byte, error) {
	return ix.AppendKey(nil, schema, row)
}

// AppendKey appends the key KeyFor returns to dst, so that a writer can
// encode every key of a row into one reused buffer.
func (ix *Index) AppendKey(dst []byte, schema types.Schema, row types.Row) ([]byte, error) {
	for _, col := range ix.Columns {
		p := schema.Index(col)
		if p < 0 {
			return nil, fmt.Errorf("catalog: index %s references missing column %q", ix.Name, col)
		}
		dst = types.AppendKey(dst, row[p])
	}
	return dst, nil
}

// Table is a base table bound to storage.
type Table struct {
	Name    string
	Schema  types.Schema
	Tag     uint32
	Heap    *storage.Heap
	Family  string // cluster family, "" when the table owns its heap
	Indexes []*Index
	// rows is the live tuple count, maintained by the engine on every
	// insert/delete; the optimizer's cardinality estimates read it. Atomic
	// because MVCC readers cost plans while writers mutate.
	rows atomic.Int64
	// stats is the ANALYZE snapshot (nil until first ANALYZE). The pointer
	// swaps atomically so statistics refresh without blocking concurrent
	// plan compilation.
	stats atomic.Pointer[TableStats]
	// version marks DML mutations to this table (insert/update/delete and
	// their rollback compensations). Unlike the catalog epoch — which tracks
	// schema and statistics changes — the version tracks *data* changes, at
	// the granularity the composite-object cache needs: a materialized CO
	// records the versions of its component tables, and a mismatch on any of
	// them invalidates exactly the COs that read that table. Values come from
	// a process-wide seed, so no two incarnations of a table — or two bumps
	// of the same table — ever share a version: a DROP TABLE + re-CREATE
	// under the same name can never revisit a version an old dependency
	// snapshot recorded (the ABA a per-table counter restarting at zero
	// would allow).
	version atomic.Uint64
}

// verSeed issues globally unique table versions (see Table.version).
var verSeed atomic.Uint64

// VersionSeed returns the current global version watermark: every version a
// table carried at (or before) the call is <= the returned value, and every
// bump issued after the call is > it. MVCC snapshots record it at capture to
// prove "no table committed a change since" by a plain version comparison.
func VersionSeed() uint64 { return verSeed.Load() }

// Version returns the table's DML version marker.
func (t *Table) Version() uint64 { return t.version.Load() }

// BumpVersion records one data mutation by installing a fresh globally
// unique version.
func (t *Table) BumpVersion() { t.version.Store(verSeed.Add(1)) }

// RowCount returns the live tuple count.
func (t *Table) RowCount() int64 { return t.rows.Load() }

// AddRows adjusts the live tuple count by delta.
func (t *Table) AddRows(delta int64) { t.rows.Add(delta) }

// SetRowCount installs an absolute live tuple count (loaders, tests).
func (t *Table) SetRowCount(n int64) { t.rows.Store(n) }

// Stats returns the current statistics snapshot, or nil before ANALYZE.
func (t *Table) Stats() *TableStats { return t.stats.Load() }

// SetStats installs a statistics snapshot.
func (t *Table) SetStats(ts *TableStats) { t.stats.Store(ts) }

// ObserveInsert folds one inserted row into the statistics snapshot,
// copy-on-write: concurrent plan compilation reads a consistent snapshot
// while DML refreshes it.
func (t *Table) ObserveInsert(row types.Row) {
	for {
		old := t.stats.Load()
		if old == nil {
			return
		}
		nw := old.clone()
		nw.ObserveInsert(row)
		if t.stats.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveDelete folds one deleted row into the statistics snapshot,
// copy-on-write.
func (t *Table) ObserveDelete(row types.Row) {
	for {
		old := t.stats.Load()
		if old == nil {
			return
		}
		nw := old.clone()
		nw.ObserveDelete(row)
		if t.stats.CompareAndSwap(old, nw) {
			return
		}
	}
}

// View is a named query definition; XNF marks composite-object views.
type View struct {
	Name       string
	Definition string
	XNF        bool
}

// Catalog is the schema registry for one database.
type Catalog struct {
	mu       sync.RWMutex
	bp       *storage.BufferPool
	tables   map[string]*Table
	indexes  map[string]*Index
	views    map[string]*View
	families map[string]*storage.Heap
	nextTag  uint32
	// epoch counts schema and statistics changes. Every DDL mutation and
	// every ANALYZE bumps it; the engine's prepared-plan cache stamps each
	// entry with the epoch at compile time and evicts entries whose stamp is
	// stale, so plans never outlive the schema or the statistics they were
	// costed under. DML does not bump it — cached plans read live heaps.
	epoch atomic.Uint64
}

// Epoch returns the current schema/statistics epoch.
func (c *Catalog) Epoch() uint64 { return c.epoch.Load() }

func (c *Catalog) bumpEpoch() { c.epoch.Add(1) }

// New creates an empty catalog over the buffer pool.
func New(bp *storage.BufferPool) *Catalog {
	return &Catalog{
		bp:       bp,
		tables:   make(map[string]*Table),
		indexes:  make(map[string]*Index),
		views:    make(map[string]*View),
		families: make(map[string]*storage.Heap),
		nextTag:  1,
	}
}

// BufferPool returns the pool the catalog's heaps live on.
func (c *Catalog) BufferPool() *storage.BufferPool { return c.bp }

func norm(name string) string { return strings.ToUpper(name) }

// CreateTable registers a table. family optionally names a cluster family;
// tables in the same family share a heap.
func (c *Catalog) CreateTable(name string, schema types.Schema, family string) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := norm(name)
	if _, exists := c.tables[key]; exists {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	if _, exists := c.views[key]; exists {
		return nil, fmt.Errorf("catalog: %q already names a view", name)
	}
	if len(schema) == 0 {
		return nil, fmt.Errorf("catalog: table %q needs at least one column", name)
	}
	seen := map[string]bool{}
	for _, col := range schema {
		cn := norm(col.Name)
		if seen[cn] {
			return nil, fmt.Errorf("catalog: duplicate column %q in table %q", col.Name, name)
		}
		seen[cn] = true
	}
	var heap *storage.Heap
	var err error
	if family != "" {
		fkey := norm(family)
		heap = c.families[fkey]
		if heap == nil {
			heap, err = storage.CreateHeap(c.bp)
			if err != nil {
				return nil, err
			}
			c.families[fkey] = heap
		}
	} else {
		heap, err = storage.CreateHeap(c.bp)
		if err != nil {
			return nil, err
		}
	}
	t := &Table{
		Name:   key,
		Schema: schema.Clone(),
		Tag:    c.nextTag,
		Heap:   heap,
		Family: norm(family),
	}
	// Seed the version from the global counter so a recreated table never
	// starts at a version a previous incarnation already used.
	t.version.Store(verSeed.Add(1))
	c.nextTag++
	c.tables[key] = t
	c.bumpEpoch()
	return t, nil
}

// Table looks up a base table.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[norm(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: table %q does not exist", name)
	}
	return t, nil
}

// TableVersion reports a table's current DML version; ok is false when the
// table does not exist (dropped tables invalidate dependents through this).
func (c *Catalog) TableVersion(name string) (uint64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[norm(name)]
	if !ok {
		return 0, false
	}
	return t.Version(), true
}

// HasTable reports table existence without an error value.
func (c *Catalog) HasTable(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.tables[norm(name)]
	return ok
}

// DropTable removes a table and its indexes.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := norm(name)
	t, ok := c.tables[key]
	if !ok {
		return fmt.Errorf("catalog: table %q does not exist", name)
	}
	for _, ix := range t.Indexes {
		delete(c.indexes, norm(ix.Name))
	}
	delete(c.tables, key)
	c.bumpEpoch()
	return nil
}

// TableNames returns all table names, sorted.
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// CreateIndex registers an index over existing columns. The caller (engine)
// populates the tree from current table contents.
func (c *Catalog) CreateIndex(name, table string, columns []string, unique bool) (*Index, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := norm(name)
	if _, exists := c.indexes[key]; exists {
		return nil, fmt.Errorf("catalog: index %q already exists", name)
	}
	t, ok := c.tables[norm(table)]
	if !ok {
		return nil, fmt.Errorf("catalog: index %q references missing table %q", name, table)
	}
	if len(columns) == 0 {
		return nil, fmt.Errorf("catalog: index %q needs at least one column", name)
	}
	for _, col := range columns {
		if !t.Schema.Has(col) {
			return nil, fmt.Errorf("catalog: index %q references missing column %q", name, col)
		}
	}
	// The tree is always non-unique internally: MVCC updates keep the old
	// version's entry beside the new one under the same key, so uniqueness
	// is enforced at the engine level against *live* versions only.
	ix := &Index{
		Name:    key,
		Table:   t.Name,
		Columns: append([]string(nil), columns...),
		Unique:  unique,
		Tree:    btree.New(false),
	}
	c.indexes[key] = ix
	t.Indexes = append(t.Indexes, ix)
	c.bumpEpoch()
	return ix, nil
}

// Index looks up an index by name.
func (c *Catalog) Index(name string) (*Index, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ix, ok := c.indexes[norm(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: index %q does not exist", name)
	}
	return ix, nil
}

// DropIndex removes an index.
func (c *Catalog) DropIndex(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := norm(name)
	ix, ok := c.indexes[key]
	if !ok {
		return fmt.Errorf("catalog: index %q does not exist", name)
	}
	if t, ok := c.tables[ix.Table]; ok {
		for i, cand := range t.Indexes {
			if cand == ix {
				t.Indexes = append(t.Indexes[:i], t.Indexes[i+1:]...)
				break
			}
		}
	}
	delete(c.indexes, key)
	c.bumpEpoch()
	return nil
}

// CreateView registers a named view definition. xnf marks XNF CO views.
func (c *Catalog) CreateView(name, definition string, xnf bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := norm(name)
	if _, exists := c.views[key]; exists {
		return fmt.Errorf("catalog: view %q already exists", name)
	}
	if _, exists := c.tables[key]; exists {
		return fmt.Errorf("catalog: %q already names a table", name)
	}
	c.views[key] = &View{Name: key, Definition: definition, XNF: xnf}
	c.bumpEpoch()
	return nil
}

// View looks up a view.
func (c *Catalog) View(name string) (*View, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.views[norm(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: view %q does not exist", name)
	}
	return v, nil
}

// HasView reports view existence.
func (c *Catalog) HasView(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.views[norm(name)]
	return ok
}

// DropView removes a view.
func (c *Catalog) DropView(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := norm(name)
	if _, ok := c.views[key]; !ok {
		return fmt.Errorf("catalog: view %q does not exist", name)
	}
	delete(c.views, key)
	c.bumpEpoch()
	return nil
}

// ViewNames returns all view names, sorted.
func (c *Catalog) ViewNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.views))
	for n := range c.views {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

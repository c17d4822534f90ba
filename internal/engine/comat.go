package engine

// Composite-object cache wiring: the session-side fetch protocol over
// internal/comat. Under MVCC the protocol that keeps cached
// materializations transactionally sound is a snapshot compare:
//
//  1. validate the entry's recorded per-table versions against the
//     catalog's current counters (the entry equals latest-committed state),
//  2. then check the session's snapshot covers those tables
//     (snapshotCovers: every current version predates the snapshot's
//     capture watermark and the transaction wrote none of them itself).
//
// Versions bump only at commit, atomically with retiring the committing
// transaction from the snapshot-visible active set, so the two comparisons
// together prove the shared entry is byte-for-byte what this snapshot would
// materialize. When the snapshot does not cover — someone committed to a
// component table after this transaction began, or the transaction changed
// a component itself — the CO is evaluated privately under the snapshot and
// served without being stored (a shared entry must always equal
// latest-committed state). Materialization itself stays single-flight:
// concurrent sessions needing the same stale entry share one evaluation.

import (
	"fmt"
	"strings"

	"sqlxnf/internal/catalog"
	"sqlxnf/internal/comat"
	"sqlxnf/internal/exec"
	"sqlxnf/internal/faultinj"
	"sqlxnf/internal/parser"
	"sqlxnf/internal/qgm"
	"sqlxnf/internal/types"
	"sqlxnf/internal/xnf"
)

// maxCOFetchDepth bounds nested composite-object fetches (a node definition
// may itself read FROM "VIEW.NODE"). View cycles cannot be created — CREATE
// VIEW validates its body, and closing a cycle would require resolving a
// view that does not exist yet — so this is a defense against builder bugs,
// not a semantic limit. The counter is atomic because parallel workers
// resolving a node reference on a hash-join build side share the session.
const maxCOFetchDepth = 32

// newExecContext returns an execution context with the session's
// composite-object handle bound, so plans containing NodeScan leaves can
// resolve FROM "VIEW.NODE" rows at Open, and the current statement's
// lifecycle context attached, so operators observe cancellation at batch
// boundaries.
func (s *Session) newExecContext() *exec.Context {
	ctx := exec.NewContext()
	ctx.NodeRows = s.nodeRows
	ctx.Vis = s.visFunc()
	ctx.AttachContext(s.sctx)
	return ctx
}

// nodeRows is the bind-time node-instance handle (exec.Context.NodeRows):
// it resolves a component table of an XNF view to its current rows, served
// from the CO cache when the materialization is still valid. The returned
// rows are shared with the cache; NodeScan copies them into its batches.
// Safe for concurrent calls from parallel workers.
func (s *Session) nodeRows(view, node string) ([]types.Row, error) {
	co, _, err := s.fetchViewCO(view)
	if err != nil {
		return nil, err
	}
	n := co.Node(node)
	if n == nil {
		return nil, fmt.Errorf("engine: XNF view %q has no node %q", view, node)
	}
	return n.Rows, nil
}

// resolveXNFNode implements the builder's XNFNodeResolver: it materializes
// (or fetches) the view's CO to learn the node's schema and current row
// count, but hands the builder only the reference — rows bind at execute
// through nodeRows, which is what makes node-ref plans cacheable.
func (s *Session) resolveXNFNode(view, node string) (*qgm.XNFNodeRef, error) {
	co, hit, err := s.fetchViewCO(view)
	if err != nil {
		return nil, err
	}
	n := co.Node(node)
	if n == nil {
		return nil, fmt.Errorf("engine: XNF view %q has no node %q", view, node)
	}
	return &qgm.XNFNodeRef{
		View: strings.ToUpper(view), Node: n.Name, Schema: n.Schema,
		EstRows: int64(len(n.Rows)), Cached: hit,
	}, nil
}

// fetchViewCO returns the materialized composite object of a stored XNF
// view, cached under key "VIEW:<name>".
func (s *Session) fetchViewCO(view string) (*xnf.CO, bool, error) {
	v, err := s.eng.cat.View(view)
	if err != nil {
		return nil, false, err
	}
	if !v.XNF {
		return nil, false, fmt.Errorf("engine: %q is not an XNF view", view)
	}
	return s.fetchCO("VIEW:"+v.Name, func() (*qgm.XNFSpec, error) {
		return s.viewSpec(v)
	})
}

// viewSpec builds the compiled spec of a stored XNF view.
func (s *Session) viewSpec(v *catalog.View) (*qgm.XNFSpec, error) {
	st, err := parser.ParseOne(v.Definition)
	if err != nil {
		return nil, err
	}
	xq, ok := st.(*parser.XNFQuery)
	if !ok {
		return nil, fmt.Errorf("engine: stored XNF view %q is not an XNF query", v.Name)
	}
	box, err := s.builder().BuildXNF(xq)
	if err != nil {
		return nil, err
	}
	return box.XNF, nil
}

// fetchCO is the core checkout: serve the cached CO for key when its
// dependency versions still hold, otherwise materialize with single-flight.
// The returned CO is shared and read-only — TAKE results clone it before
// reaching the application. hit reports a served cache entry.
func (s *Session) fetchCO(key string, specFn func() (*qgm.XNFSpec, error)) (*xnf.CO, bool, error) {
	if s.coFetchDepth.Add(1) > maxCOFetchDepth {
		s.coFetchDepth.Add(-1)
		return nil, false, fmt.Errorf("engine: composite-object references nest deeper than %d (cycle?)", maxCOFetchDepth)
	}
	defer s.coFetchDepth.Add(-1)

	evaluate := func(spec *qgm.XNFSpec) (*xnf.CO, error) {
		// The comat.materialize probe sits before the evaluator: an injected
		// failure here fails the flight cleanly (waiters retry, nothing is
		// stored), proving a failed materialization never poisons the cache.
		if err := s.eng.faults.Hit(faultinj.ComatMat); err != nil {
			return nil, err
		}
		ev := xnf.NewEvaluator(s, s.eng.opts.XNF)
		co, err := ev.Evaluate(spec)
		s.eng.met.addEvalStats(&ev.Stats)
		return co, err
	}
	cm := s.eng.comat
	if cm == nil || key == "" {
		spec, err := specFn()
		if err != nil {
			return nil, false, err
		}
		co, err := evaluate(spec)
		return co, false, err
	}

	// Epoch precedes every read and the materialization below, mirroring
	// the prepared-plan cache: a concurrent DDL/ANALYZE makes the stored
	// entry conservatively stale rather than silently current.
	epoch := s.eng.cat.Epoch()
	vf := s.eng.cat.TableVersion

	// Fast path: a cached entry names its own dependency tables, so the
	// hit path never builds the spec — validate the entry, then confirm the
	// session's snapshot covers its dependency set.
	if tables, ok := cm.PeekDeps(key, epoch); ok {
		if co, ok := cm.Get(key, epoch, vf); ok && s.snapshotCovers(tables) {
			return co, true, nil
		}
	}

	spec, err := specFn()
	if err != nil {
		return nil, false, err
	}
	tables, err := s.specTables(spec)
	if err != nil {
		return nil, false, err
	}
	mine := false
	co, hit, err := cm.FetchCO(s.sctx, key, epoch, vf, func() (*xnf.CO, []comat.TableDep, error) {
		mine = true
		co, err := evaluate(spec)
		if err != nil {
			return nil, nil, err
		}
		// Dependency snapshot: versions read after the evaluation, then
		// checked against the session snapshot's capture watermark. Covered
		// deps prove no commit touched any dependency between snapshot
		// capture and this read, so the snapshot evaluation the CO came from
		// equals latest-committed state and the entry is safe to share. Nil
		// deps mark the CO private: comat serves it to this fetch only and
		// stores nothing.
		deps := make([]comat.TableDep, 0, len(tables))
		for _, tn := range tables {
			ver, ok := vf(tn)
			if !ok {
				return nil, nil, fmt.Errorf("engine: table %q vanished during CO materialization", tn)
			}
			deps = append(deps, comat.TableDep{Table: tn, Version: ver})
		}
		if !s.depsCovered(deps) {
			return co, nil, nil
		}
		return co, deps, nil
	})
	if err != nil {
		return nil, false, err
	}
	if mine {
		// This session ran the evaluation under its own snapshot: the result
		// is correct for it whether or not it was stored.
		return co, false, nil
	}
	// Served by someone else's flight (or a validate inside the retry loop):
	// the CO tracks latest-committed state, which serves this session only if
	// its snapshot covers the dependency set — checked after the entry
	// validates, so "covered" still proves no commit landed in between.
	// Otherwise evaluate privately: correctness beats sharing for
	// transactions straddling commits.
	if hit && s.snapshotCovers(tables) {
		return co, true, nil
	}
	if !hit {
		if co2, ok := cm.Get(key, epoch, vf); ok && s.snapshotCovers(tables) {
			return co2, true, nil
		}
	}
	co, err = evaluate(spec)
	return co, false, err
}

// specTables returns every base table a spec's materialization reads —
// the tables under node definitions and edge USING inputs, plus,
// transitively, the tables behind any FROM "VIEW.NODE" reference inside a
// node definition. This transitive closure is the CO's dependency set: DML
// to a table reachable only through a nested view still changes the outer
// CO's contents, so it must invalidate the outer entry too.
func (s *Session) specTables(spec *qgm.XNFSpec) ([]string, error) {
	seen := map[string]bool{}
	seenViews := map[string]bool{}
	var out []string
	var addSpec func(sp *qgm.XNFSpec) error
	addBox := func(box *qgm.Box) error {
		for _, tn := range collectBoxTables(box) {
			if !seen[tn] {
				seen[tn] = true
				out = append(out, tn)
			}
		}
		for _, vn := range collectNodeRefViews(box) {
			if seenViews[vn] {
				continue
			}
			seenViews[vn] = true
			v, err := s.eng.cat.View(vn)
			if err != nil {
				return err
			}
			sub, err := s.viewSpec(v)
			if err != nil {
				return err
			}
			if err := addSpec(sub); err != nil {
				return err
			}
		}
		return nil
	}
	addSpec = func(sp *qgm.XNFSpec) error {
		for _, n := range sp.AllNodes() {
			if n.Def != nil {
				if err := addBox(n.Def); err != nil {
					return err
				}
			}
		}
		for _, e := range sp.AllEdges() {
			for _, u := range e.Using {
				if err := addBox(u.Input); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := addSpec(spec); err != nil {
		return nil, err
	}
	return out, nil
}

// collectNodeRefViews lists the distinct XNF views referenced by NodeRef
// boxes under a box tree.
func collectNodeRefViews(box *qgm.Box) []string {
	seen := map[string]bool{}
	var out []string
	walkBoxes(box, func(b *qgm.Box) bool {
		if b.Kind == qgm.KindNodeRef && !seen[b.View] {
			seen[b.View] = true
			out = append(out, b.View)
		}
		return true
	})
	return out
}

// nodeRefPlanDeps resolves the statement-level dependency metadata of a box
// that references XNF view nodes: the current version snapshot of the
// transitive base tables behind each referenced view, which invalidates the
// cached plan when a component table changes (and so refreshes the NodeRef
// cardinality estimates baked into the plan).
func (s *Session) nodeRefPlanDeps(box *qgm.Box) ([]comat.TableDep, error) {
	views := collectNodeRefViews(box)
	if len(views) == 0 {
		return nil, nil
	}
	var deps []comat.TableDep
	seen := map[string]bool{}
	for _, vn := range views {
		v, err := s.eng.cat.View(vn)
		if err != nil {
			return nil, err
		}
		spec, err := s.viewSpec(v)
		if err != nil {
			return nil, err
		}
		vtabs, err := s.specTables(spec)
		if err != nil {
			return nil, err
		}
		for _, tn := range vtabs {
			if seen[tn] {
				continue
			}
			seen[tn] = true
			ver, ok := s.eng.cat.TableVersion(tn)
			if !ok {
				return nil, fmt.Errorf("engine: table %q behind view %q does not exist", tn, vn)
			}
			deps = append(deps, comat.TableDep{Table: tn, Version: ver})
		}
	}
	return deps, nil
}

// COCacheStats snapshots the composite-object cache counters (zero value
// when the cache is disabled).
func (e *Engine) COCacheStats() comat.Stats {
	if e.comat == nil {
		return comat.Stats{}
	}
	return e.comat.Stats()
}

// COCacheEntries lists resident composite-object cache entries, most
// recently used first (nil when the cache is disabled).
func (e *Engine) COCacheEntries() []comat.Entry {
	if e.comat == nil {
		return nil
	}
	return e.comat.Entries()
}

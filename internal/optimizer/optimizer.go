// Package optimizer compiles QGM boxes into executable plans: access-path
// selection (sequential vs index scan), predicate pushdown to scans, greedy
// join ordering under a cardinality model, hash joins for equality
// predicates, and operator placement for grouping, distinct, order and
// limit. It corresponds to the paper's "plan optimization and query
// refinement" stages (Fig. 8); as the paper notes, handling of joins is the
// heavily used part since parent/child relationships compute by joins.
package optimizer

import (
	"fmt"
	"math"

	"sqlxnf/internal/catalog"
	"sqlxnf/internal/exec"
	"sqlxnf/internal/qgm"
	"sqlxnf/internal/types"
)

// Options toggles optimizer features (benches ablate them). The zero
// value enables everything.
type Options struct {
	NoIndexes    bool
	NoHashJoins  bool
	NoIndexJoins bool
	// MaxDOP caps intra-query parallelism: < 0 disables it, 0 means
	// automatic (GOMAXPROCS, capped — see parallel.go), > 0 forces that cap
	// even on fewer cores (benchmarks and the parallel parity tests use it).
	MaxDOP int
}

// DefaultOptions enables everything.
func DefaultOptions() Options { return Options{} }

// Fallback selectivity constants of the textbook cost model, used when the
// catalog has no ANALYZE statistics for the columns involved (see cost.go
// for the statistics-driven estimates that replace them).
const (
	selEquality = 0.05
	selRange    = 0.30
	selOther    = 0.50
	defaultCard = 1000.0
)

// Compile lowers a box to a physical plan with default options.
func Compile(box *qgm.Box) (exec.Plan, error) { return CompileWith(box, DefaultOptions()) }

// CompileWith lowers a box to a physical plan.
func CompileWith(box *qgm.Box, opt Options) (exec.Plan, error) {
	plan, _, err := CompileWithInfo(box, opt)
	return plan, err
}

// CompileWithInfo lowers a box to a physical plan and reports the
// value-dependent planning assumptions it made (bind guards). The engine
// stores the guards next to a cached parameterized plan and re-checks them
// against each execution's bindings; a badly diverging binding falls back to
// a fresh compile instead of running a plan chosen for a different constant.
func CompileWithInfo(box *qgm.Box, opt Options) (exec.Plan, *CompileInfo, error) {
	c := &compiler{opt: opt, info: &CompileInfo{}}
	plan, err := c.compileBox(box)
	if err != nil {
		return nil, nil, err
	}
	plan = c.parallelize(plan)
	return plan, c.info, nil
}

// CompileExpr compiles a scalar expression over one flat row, outside any
// plan (UPDATE SET and INSERT values, XNF relationship predicates and
// attributes): offsets maps each quantifier it reads to where its columns
// start in the row, nil when it reads none.
func CompileExpr(e qgm.Expr, offsets map[int]int) (exec.Expr, error) {
	c := &compiler{opt: DefaultOptions()}
	return c.compileExpr(e, offsets)
}

type compiler struct {
	opt  Options
	info *CompileInfo
	// pos maps each base quantifier of the select box being compiled to
	// where its scan puts every column of the base box: pos[q][col] is an
	// index into the scan's row, -1 for a column the box never reads. A
	// quantifier without an entry emits its input's columns in place.
	pos map[int][]int
}

func (c *compiler) compileBox(box *qgm.Box) (exec.Plan, error) {
	switch box.Kind {
	case qgm.KindBase:
		return &exec.SeqScan{Table: box.Table, WithRID: box.RID}, nil
	case qgm.KindValues:
		rows := make([]types.Row, len(box.ValueRows))
		for i, r := range box.ValueRows {
			rows[i] = types.Row(r)
		}
		return &exec.Values{Out: box.Out, Rows: rows}, nil
	case qgm.KindNodeRef:
		return &exec.NodeScan{View: box.View, Node: box.Node, Out: box.Out,
			EstRows: float64(box.EstRows), COCached: box.COCached}, nil
	case qgm.KindSelect:
		return c.compileSelect(box)
	case qgm.KindGroup:
		return c.compileGroup(box)
	case qgm.KindXNF:
		return nil, fmt.Errorf("optimizer: XNF box %q must pass through the XNF semantic rewrite first", box.Name)
	default:
		return nil, fmt.Errorf("optimizer: box kind %v not supported", box.Kind)
	}
}

func (c *compiler) compileGroup(box *qgm.Box) (exec.Plan, error) {
	if len(box.Quants) != 1 {
		return nil, fmt.Errorf("optimizer: group box needs exactly one input")
	}
	child, err := c.compileBox(box.Quants[0].Input)
	if err != nil {
		return nil, err
	}
	g := &exec.GroupAgg{Child: child, Out: box.Out}
	for _, k := range box.GroupBy {
		cr, ok := k.(*qgm.ColRef)
		if !ok || cr.Quant != 0 {
			return nil, fmt.Errorf("optimizer: group key must be an input column")
		}
		g.KeyIdxs = append(g.KeyIdxs, cr.Col)
	}
	for _, a := range box.Aggs {
		def := exec.AggDef{Distinct: a.Distinct, ArgIdx: -1}
		switch a.Kind {
		case qgm.AggCount:
			def.Kind = exec.AggCount
		case qgm.AggCountStar:
			def.Kind = exec.AggCountStar
		case qgm.AggSum:
			def.Kind = exec.AggSum
		case qgm.AggAvg:
			def.Kind = exec.AggAvg
		case qgm.AggMin:
			def.Kind = exec.AggMin
		case qgm.AggMax:
			def.Kind = exec.AggMax
		}
		if a.Arg != nil {
			cr, ok := a.Arg.(*qgm.ColRef)
			if !ok || cr.Quant != 0 {
				return nil, fmt.Errorf("optimizer: aggregate argument must be an input column")
			}
			def.ArgIdx = cr.Col
		}
		g.Aggs = append(g.Aggs, def)
	}
	return g, nil
}

// quantState tracks one quantifier during join planning.
type quantState struct {
	idx    int
	plan   exec.Plan
	schema types.Schema
	card   float64
	joined bool
	isBase bool
	box    *qgm.Box
	cols   []int      // base quantifier: the table columns its access reads
	pushed []qgm.Expr // single-quant conjuncts (in box numbering)
}

// columnMaps lists, for every base quantifier of a select box, the table
// columns the box reads through it, ascending: those its head and its
// conjuncts reference — join keys and EXISTS correlations included. A
// quantifier that reads every column gets nil, the access paths' "every
// column", whose decode skips the per-value list check. pos is the
// compiler's map of the scan's row: the listed columns in order, then the
// RID column when the base box exposes it (a scan carries it whenever it
// does); pos[q][col] is -1 for a column the box never reads.
func columnMaps(box *qgm.Box) (cols, pos map[int][]int) {
	pos = map[int][]int{}
	for qi, q := range box.Quants {
		if q.Input.Kind == qgm.KindBase {
			pos[qi] = make([]int, len(q.Input.Out))
		}
	}
	mark := func(e qgm.Expr) {
		qgm.WalkExpr(e, func(x qgm.Expr) bool {
			if cr, ok := x.(*qgm.ColRef); ok && pos[cr.Quant] != nil {
				pos[cr.Quant][cr.Col] = 1
			}
			return true
		})
	}
	for _, h := range box.Head {
		mark(h.Expr)
	}
	mark(box.Pred)
	cols = make(map[int][]int, len(pos))
	for qi, p := range pos {
		base := box.Quants[qi].Input
		list := make([]int, 0, len(p))
		for col, read := range p {
			p[col] = -1
			if read == 1 && col < len(base.Table.Schema) {
				p[col] = len(list)
				list = append(list, col)
			}
		}
		if base.RID {
			p[len(p)-1] = len(list)
		}
		if len(list) == len(base.Table.Schema) {
			list = nil
		}
		cols[qi] = list
	}
	return cols, pos
}

func (c *compiler) compileSelect(box *qgm.Box) (exec.Plan, error) {
	conjuncts := qgm.Conjuncts(box.Pred)
	nQ := len(box.Quants)

	// Classify conjuncts.
	var perQuant = make([][]qgm.Expr, nQ)
	var joinConj []qgm.Expr
	var residual []qgm.Expr
	for _, cj := range conjuncts {
		if exprHasExists(cj) {
			residual = append(residual, cj)
			continue
		}
		used := qgm.QuantsUsed(cj)
		switch len(used) {
		case 0:
			residual = append(residual, cj)
		case 1:
			for q := range used {
				perQuant[q] = append(perQuant[q], cj)
			}
		default:
			joinConj = append(joinConj, cj)
		}
	}

	// Every column reference of this box compiles through its base
	// quantifiers' column maps; an EXISTS subquery compiles its own box
	// under its own maps and hands these back.
	cols, pos := columnMaps(box)
	defer func(outer map[int][]int) { c.pos = outer }(c.pos)
	c.pos = pos

	// Build per-quant access paths.
	states := make([]*quantState, nQ)
	for qi, q := range box.Quants {
		st := &quantState{idx: qi, box: q.Input, pushed: perQuant[qi]}
		if q.Input.Kind == qgm.KindBase {
			st.isBase = true
			st.cols = cols[qi]
			plan, card, err := c.baseAccessPath(q.Input, st.cols, perQuant[qi])
			if err != nil {
				return nil, err
			}
			st.plan, st.card = plan, card
			st.schema = plan.Schema()
		} else {
			sub, err := c.compileBox(q.Input)
			if err != nil {
				return nil, err
			}
			st.plan = sub
			st.schema = q.Input.Out
			st.card = c.estimateBoxCard(q.Input)
			for _, cj := range perQuant[qi] {
				st.card *= conjSelectivity(cj)
			}
			if st.card < 1 {
				st.card = 1
			}
			// Push single-quant conjuncts as a filter above the subplan.
			if len(perQuant[qi]) > 0 {
				pred, err := c.compilePredicateFor(perQuant[qi], map[int]int{qi: 0})
				if err != nil {
					return nil, err
				}
				st.plan = &exec.Filter{Child: st.plan, Pred: pred}
			}
		}
		states[qi] = st
	}

	var plan exec.Plan
	offsets := make(map[int]int)
	var joinedSchema types.Schema
	remaining := append([]qgm.Expr(nil), joinConj...)

	if nQ == 0 {
		return nil, fmt.Errorf("optimizer: select box %q has no quantifiers", box.Name)
	}

	// Seed with the smallest input.
	first := 0
	for i := 1; i < nQ; i++ {
		if states[i].card < states[first].card {
			first = i
		}
	}
	plan = states[first].plan
	joinedSchema = states[first].schema.Clone()
	offsets[first] = 0
	states[first].joined = true
	curCard := states[first].card

	for joinedCount := 1; joinedCount < nQ; joinedCount++ {
		// Choose the next quantifier: prefer one connected by a join
		// conjunct, minimizing estimated output cardinality under the
		// statistics-driven selectivity model (1/max(NDV) for equi-joins
		// whose sides resolve to ANALYZEd base columns).
		best := -1
		bestCard := 0.0
		bestConnected := false
		for i, st := range states {
			if st.joined {
				continue
			}
			connected := false
			est := curCard * st.card
			for _, cj := range remaining {
				if conjConnects(cj, offsets, i) {
					connected = true
					est *= joinSelectivity(box, cj)
				}
			}
			if best == -1 || (connected && !bestConnected) ||
				(connected == bestConnected && est < bestCard) {
				best, bestCard, bestConnected = i, est, connected
			}
		}
		st := states[best]

		// Partition remaining join conjuncts into ones now evaluable.
		var now []qgm.Expr
		var later []qgm.Expr
		for _, cj := range remaining {
			if conjEvaluable(cj, offsets, best) {
				now = append(now, cj)
			} else {
				later = append(later, cj)
			}
		}
		remaining = later

		// Offsets after this join: new quant appended at current width.
		newOffsets := make(map[int]int, len(offsets)+1)
		for k, v := range offsets {
			newOffsets[k] = v
		}
		newOffsets[best] = len(joinedSchema)

		// Index-nested-loop candidates. (a) The new quantifier as the probed
		// inner — a base table whose index leading columns are covered by
		// equality conjuncts, probed once per outer row: the paper's
		// parent/child edge-join shape. (b) The sides swapped: when exactly
		// one base quantifier is joined so far, the new input can instead be
		// the outer probing the already-joined table's index, which wins when
		// the new input is small and the joined table's own access path would
		// scan it whole (the ROADMAP index-join sidedness item).
		ijPlan, ijCost, ijOK, err := c.tryIndexJoin(box, st, now, offsets, newOffsets, plan, curCard, bestCard)
		if err != nil {
			return nil, err
		}
		// Hash join pays the full inner build plus one probe per outer row.
		useIJ := false
		if ijOK {
			useIJ = ijCost < tableCard(st.box.Table)+curCard
		}
		if joinedCount == 1 && states[first].isBase {
			swOuter := map[int]int{best: 0}
			swNew := map[int]int{best: 0, first: len(st.schema)}
			swPlan, swCost, swOK, err := c.tryIndexJoin(box, states[first], now, swOuter, swNew, st.plan, st.card, bestCard)
			if err != nil {
				return nil, err
			}
			if swOK {
				// Whole-pipeline comparison: keeping the seed as outer pays
				// its access path plus the chosen join; swapping drops the
				// seed's access path entirely — the probes read only the
				// tuples the new outer reaches.
				keepCost := accessCostOr(states[first].plan, curCard)
				if useIJ {
					keepCost += ijCost
				} else {
					keepCost += accessCostOr(st.plan, st.card) + curCard
				}
				if accessCostOr(st.plan, st.card)+swCost < keepCost {
					plan = swPlan
					joinedSchema = st.schema.Concat(joinedSchema)
					offsets = swNew
					states[best].joined = true
					curCard = bestCard
					if curCard < 1 {
						curCard = 1
					}
					continue
				}
			}
		}
		if useIJ {
			plan = ijPlan
			joinedSchema = joinedSchema.Concat(st.schema)
			offsets = newOffsets
			states[best].joined = true
			curCard = bestCard
			if curCard < 1 {
				curCard = 1
			}
			continue
		}

		// Split equalities usable as hash keys.
		var leftKeys, rightKeys []exec.Expr
		var residualJoin []qgm.Expr
		for _, cj := range now {
			l, r, ok := equiJoinSides(cj, offsets, best)
			if ok && !c.opt.NoHashJoins {
				lk, err := c.compileExpr(l, offsets)
				if err != nil {
					return nil, err
				}
				// Right side compiled against the new quant alone.
				rk, err := c.compileExpr(r, map[int]int{best: 0})
				if err != nil {
					return nil, err
				}
				leftKeys = append(leftKeys, lk)
				rightKeys = append(rightKeys, rk)
			} else {
				residualJoin = append(residualJoin, cj)
			}
		}
		// A hash join builds on its right input. The greedy order appends the
		// new quantifier there; when the joined side is estimated smaller, it
		// builds instead and the new quantifier probes, its columns first.
		buildJoined := len(leftKeys) > 0 && curCard < st.card
		if buildJoined {
			newOffsets = map[int]int{best: 0}
			for k, v := range offsets {
				newOffsets[k] = v + len(st.schema)
			}
		}
		var resPred exec.Expr
		if len(residualJoin) > 0 {
			p, err := c.compilePredicateFor(residualJoin, newOffsets)
			if err != nil {
				return nil, err
			}
			resPred = p
		}
		switch {
		case buildJoined:
			plan = exec.NewHashJoin(st.plan, plan, rightKeys, leftKeys, resPred)
			joinedSchema = st.schema.Concat(joinedSchema)
		case len(leftKeys) > 0:
			plan = exec.NewHashJoin(plan, st.plan, leftKeys, rightKeys, resPred)
			joinedSchema = joinedSchema.Concat(st.schema)
		default:
			plan = exec.NewNLJoin(plan, st.plan, resPred)
			joinedSchema = joinedSchema.Concat(st.schema)
		}
		offsets = newOffsets
		states[best].joined = true
		curCard = bestCard
		if curCard < 1 {
			curCard = 1
		}
	}

	// Residual predicates (Exists and constants) after all joins.
	if len(residual) > 0 {
		pred, err := c.compilePredicateFor(residual, offsets)
		if err != nil {
			return nil, err
		}
		plan = &exec.Filter{Child: plan, Pred: pred}
	}

	// Projection. A projection of plain columns folds into a hash join
	// right below it, which then builds only the rows the head keeps.
	exprs := make([]exec.Expr, len(box.Head))
	for i, h := range box.Head {
		e, err := c.compileExpr(h.Expr, offsets)
		if err != nil {
			return nil, err
		}
		exprs[i] = e
	}
	hj, isHJ := plan.(*exec.HashJoin)
	if emit, plain := plainCols(exprs); isHJ && hj.Residual == nil && plain {
		hj.Project(emit, box.Out)
	} else {
		plan = &exec.Project{Child: plan, Exprs: exprs, Out: box.Out}
	}

	if box.Distinct {
		plan = &exec.Distinct{Child: plan}
	}
	if len(box.OrderBy) > 0 {
		keys := make([]exec.SortKey, len(box.OrderBy))
		for i, o := range box.OrderBy {
			keys[i] = exec.SortKey{Idx: o.HeadIdx, Desc: o.Desc}
		}
		plan = &exec.Sort{Child: plan, Keys: keys}
	}
	if box.HiddenSort > 0 {
		// Trim hidden sort columns after ordering.
		n := len(box.Head) - box.HiddenSort
		trim := make([]exec.Expr, n)
		for i := range trim {
			trim[i] = exec.Col{Idx: i}
		}
		plan = &exec.Project{Child: plan, Exprs: trim, Out: box.Out[:n].Clone()}
	}
	if box.Limit != nil {
		plan = &exec.Limit{Child: plan, N: *box.Limit}
	}
	return plan, nil
}

// plainCols returns the input position each expression copies, when every
// one is a plain column reference.
func plainCols(exprs []exec.Expr) ([]int, bool) {
	cols := make([]int, len(exprs))
	for i, e := range exprs {
		c, ok := e.(exec.Col)
		if !ok {
			return nil, false
		}
		cols[i] = c.Idx
	}
	return cols, true
}

// accessCandidate is one index access path: an equality-conjunct prefix of
// the index columns (the composite probe key) plus, on the column right
// after the prefix, at most one IN list or else one range conjunct.
type accessCandidate struct {
	ix       *catalog.Index
	eqConjs  []int      // pushed-conjunct index per bound key position
	eqVals   []qgm.Expr // probe values, in index-column order
	inCj     int        // pushed-conjunct index of the IN list
	inList   []qgm.Expr // its items (nil = no IN list)
	rangeCol int        // schema column of the range conjunct (-1 = none)
	rangeCj  int        // pushed-conjunct index of the range conjunct
	rangeCmp string
	rangeVal qgm.Expr
	sel      float64 // fraction of rows the index delivers
	cost     float64
}

// usesConj reports whether the candidate consumed pushed conjunct ci.
func (cand *accessCandidate) usesConj(ci int) bool {
	if cand.rangeCol >= 0 && cand.rangeCj == ci || cand.inList != nil && cand.inCj == ci {
		return true
	}
	for _, used := range cand.eqConjs {
		if used == ci {
			return true
		}
	}
	return false
}

// baseAccessPath picks an index or sequential scan for a base table given
// its pushed conjuncts, returning the plan and estimated cardinality. The
// scan reads the table columns cols lists. The
// choice is cost-based: for every index, the longest run of equality
// conjuncts over its leading columns forms one composite probe key
// (optionally extended by a range conjunct on the next column), each
// candidate is costed with the statistics-driven selectivity, and the winner
// is compared against the full sequential scan — a low-selectivity range no
// longer drags the table through random heap fetches just because an index
// exists.
func (c *compiler) baseAccessPath(base *qgm.Box, cols []int, pushed []qgm.Expr) (exec.Plan, float64, error) {
	t := base.Table
	rows := tableCard(t)

	var best *accessCandidate
	if !c.opt.NoIndexes {
		// Indexable conjuncts by schema column. Constants only (parameter
		// slots resolve at Open, also fine).
		type colPred struct {
			ci  int
			cmp string
			val qgm.Expr
		}
		eqByCol := map[int]colPred{}
		inByCol := map[int]colPred{}
		rangeByCol := map[int][]colPred{}
		for ci, cj := range pushed {
			col, cmp, valExpr, ok := indexableConjunct(cj)
			if !ok {
				continue
			}
			p := colPred{ci: ci, cmp: cmp, val: valExpr}
			switch cmp {
			case "=":
				if _, dup := eqByCol[col]; !dup {
					eqByCol[col] = p
				}
			case "IN":
				if _, dup := inByCol[col]; !dup {
					inByCol[col] = p
				}
			default:
				rangeByCol[col] = append(rangeByCol[col], p)
			}
		}
		for _, ix := range t.Indexes {
			cand := accessCandidate{ix: ix, rangeCol: -1}
			sel := 1.0
			for _, colName := range ix.Columns {
				col := t.Schema.Index(colName)
				p, ok := eqByCol[col]
				if !ok {
					break
				}
				cand.eqConjs = append(cand.eqConjs, p.ci)
				cand.eqVals = append(cand.eqVals, p.val)
				sel *= eqSelectivity(t, col)
			}
			if ix.Unique && len(cand.eqConjs) == len(ix.Columns) {
				sel = 1 / rows
			}
			// The column right after the prefix: an IN list — one more equality,
			// probed once per value — or else one range conjunct.
			if len(cand.eqConjs) < len(ix.Columns) {
				col := t.Schema.Index(ix.Columns[len(cand.eqConjs)])
				if p, ok := inByCol[col]; ok {
					cand.inCj, cand.inList = p.ci, p.val.(*qgm.InList).List
					one := sel * eqSelectivity(t, col)
					if ix.Unique && len(cand.eqConjs)+1 == len(ix.Columns) {
						one = 1 / rows
					}
					sel = math.Min(1, float64(len(cand.inList))*one)
				} else {
					for _, p := range rangeByCol[col] {
						rs := rangeSelectivity(t, col, p.cmp, p.val)
						if cand.rangeCol < 0 || rs < cand.sel/sel {
							cand.rangeCol, cand.rangeCj = col, p.ci
							cand.rangeCmp, cand.rangeVal = p.cmp, p.val
							cand.sel = sel * rs
						}
					}
				}
			}
			if cand.rangeCol < 0 {
				if len(cand.eqConjs) == 0 && cand.inList == nil {
					continue
				}
				cand.sel = sel
			}
			// One tree descent per probe key: one, or one per IN-list value.
			probes := math.Max(1, float64(len(cand.inList)))
			cand.cost = probes*indexProbeCost + cand.sel*rows*randomFetchCost
			if best == nil || cand.cost < best.cost {
				chosen := cand
				best = &chosen
			}
		}
	}

	var scan exec.Plan
	card := rows
	seqCost := rows
	useIndex := false
	if best != nil {
		// The sequential scan filters every row through the list the index
		// scan would have probed with.
		seqCost += rows * float64(len(best.inList)) * inListCompareCost
		if len(best.eqConjs) > 0 || best.inList != nil {
			// Equality probes default to the index — they return few rows,
			// and cost noise on tiny tables shouldn't flip a point lookup —
			// unless ANALYZE stats prove the key is common enough that a
			// sequential scan is actually cheaper.
			useIndex = true
			leadCol := t.Schema.Index(best.ix.Columns[0])
			if _, hasStats := colNDV(t, leadCol); hasStats &&
				!(best.ix.Unique && len(best.eqConjs) == len(best.ix.Columns)) {
				useIndex = best.cost < seqCost
			}
		} else {
			useIndex = best.cost < seqCost
		}
		c.recordRangeGuard(t, best, useIndex)
	}
	if useIndex {
		is, err := c.buildIndexScan(t, best)
		if err != nil {
			return nil, 0, err
		}
		card = rows * best.sel
		if card < 1 {
			card = 1
		}
		is.EstRows = card
		is.Cols, is.WithRID = cols, base.RID
		scan = is
	} else {
		scan = &exec.SeqScan{Table: t, EstRows: rows, Cols: cols, WithRID: base.RID}
	}

	// Remaining conjuncts become a filter; estimate their selectivity.
	var rest []qgm.Expr
	for i, cj := range pushed {
		if useIndex && best.usesConj(i) {
			continue
		}
		rest = append(rest, cj)
		card *= conjSelectivityOn(t, cj)
	}
	if len(rest) > 0 {
		pred, err := c.compilePredicateFor(rest, map[int]int{anyQuant(rest): 0})
		if err != nil {
			return nil, 0, err
		}
		scan = &exec.Filter{Child: scan, Pred: pred}
	}
	if card < 1 {
		card = 1
	}
	return scan, card, nil
}

// buildIndexScan lowers a winning candidate into an IndexScan: the equality
// prefix becomes both bounds, and a range conjunct extends one side by one
// more key column. Prefix-extension flags follow the btree key encoding: a
// bare prefix bound sorts below every longer composite key that starts with
// it, so inclusive upper bounds over a prefix (and exclusive lower bounds)
// must extend through PrefixUpper.
func (c *compiler) buildIndexScan(t *catalog.Table, cand *accessCandidate) (*exec.IndexScan, error) {
	eqExprs, err := c.compileExprs(cand.eqVals, nil)
	if err != nil {
		return nil, err
	}
	is := &exec.IndexScan{Table: t, Index: cand.ix}
	m := len(eqExprs)
	nCols := len(cand.ix.Columns)
	if cand.inList != nil {
		if is.In, err = c.compileExprs(cand.inList, nil); err != nil {
			return nil, err
		}
		m++ // each probe key is the prefix plus one list value
	}
	if cand.rangeCol < 0 {
		is.Lo, is.Hi = eqExprs, eqExprs
		is.LoInc, is.HiInc = true, true
		is.HiPrefix = m < nCols
		return is, nil
	}
	rv, err := c.compileExpr(cand.rangeVal, nil)
	if err != nil {
		return nil, err
	}
	extended := append(append([]exec.Expr{}, eqExprs...), rv)
	switch cand.rangeCmp {
	case ">", ">=":
		is.Lo = extended
		is.LoInc = cand.rangeCmp == ">="
		is.LoPrefix = cand.rangeCmp == ">" && m+1 < nCols
		if m > 0 {
			is.Hi = eqExprs
			is.HiInc, is.HiPrefix = true, true
		}
	case "<", "<=":
		is.Hi = extended
		is.HiInc = cand.rangeCmp == "<="
		is.HiPrefix = cand.rangeCmp == "<=" && m+1 < nCols
		// No lower bound of its own, but the range column's NULLs sort first
		// under the prefix and must stay out.
		is.Lo = eqExprs
		is.LoPastNull = true
	}
	return is, nil
}

// tryIndexJoin builds the cheapest batched index-nested-loop candidate that
// joins quantifier inner — probed through one of its indexes — under an
// outer plan whose row layout is described by outerOffsets. It succeeds when
// inner ranges over a base table and some index's leading columns are
// covered by equality conjuncts: equi-join conjuncts keyed by outer
// expressions, interleaved with the inner side's pushed `col = const`
// conjuncts, combined into one composite probe key. Unused evaluable join
// conjuncts and unused pushed conjuncts move into the join's residual
// predicate (inner's standalone access path is discarded — the index join
// reads the base table directly). The returned cost is the probe-side
// estimate outerCard·(probe + matches·fetch); the caller weighs it against
// the alternatives.
func (c *compiler) tryIndexJoin(box *qgm.Box, inner *quantState, now []qgm.Expr,
	outerOffsets, newOffsets map[int]int, outer exec.Plan, outerCard, outCard float64,
) (exec.Plan, float64, bool, error) {
	// An index join reads the base table itself and fills no RID column.
	if c.opt.NoIndexes || c.opt.NoIndexJoins || !inner.isBase || inner.box.RID {
		return nil, 0, false, nil
	}
	t := inner.box.Table
	innerRows := tableCard(t)

	// Equality sources per inner schema column: equi-join conjuncts (keyed
	// by an outer-side expression) and pushed constant equalities.
	type eqSource struct {
		join    bool
		nowIdx  int      // index into now (join) or inner.pushed (constant)
		keyExpr qgm.Expr // outer expression (join) or constant expression
	}
	joinByCol := map[int]eqSource{}
	for ci, cj := range now {
		l, r, ok := equiJoinSides(cj, outerOffsets, inner.idx)
		if !ok {
			continue
		}
		cr, isCol := r.(*qgm.ColRef)
		if !isCol {
			continue
		}
		if _, dup := joinByCol[cr.Col]; !dup {
			joinByCol[cr.Col] = eqSource{join: true, nowIdx: ci, keyExpr: l}
		}
	}
	constByCol := map[int]eqSource{}
	for pi, cj := range inner.pushed {
		col, cmp, valExpr, ok := indexableConjunct(cj)
		if !ok || cmp != "=" {
			continue
		}
		if _, dup := constByCol[col]; !dup {
			constByCol[col] = eqSource{nowIdx: pi, keyExpr: valExpr}
		}
	}
	if len(joinByCol) == 0 {
		return nil, 0, false, nil
	}

	// Pick the cheapest index: bind each leading column to a join conjunct
	// (preferred — it consumes a join edge) or a pushed constant.
	bestCost := math.Inf(1)
	var bestIx *catalog.Index
	var bestKeys []eqSource
	for _, ix := range t.Indexes {
		var keys []eqSource
		sel := 1.0
		joins := 0
		for _, colName := range ix.Columns {
			col := t.Schema.Index(colName)
			src, ok := joinByCol[col]
			if ok {
				joins++
			} else if src, ok = constByCol[col]; !ok {
				break
			}
			keys = append(keys, src)
			sel *= eqSelectivity(t, col)
		}
		if joins == 0 {
			continue
		}
		matches := innerRows * sel
		if ix.Unique && len(keys) == len(ix.Columns) {
			matches = 1
		}
		cost := outerCard * (indexProbeCost + matches*randomFetchCost)
		if cost < bestCost {
			bestCost, bestIx, bestKeys = cost, ix, keys
		}
	}
	if bestIx == nil {
		return nil, 0, false, nil
	}

	keyExprs := make([]exec.Expr, len(bestKeys))
	usedNow := map[int]bool{}
	usedPushed := map[int]bool{}
	for i, src := range bestKeys {
		var err error
		if src.join {
			keyExprs[i], err = c.compileExpr(src.keyExpr, outerOffsets)
			usedNow[src.nowIdx] = true
		} else {
			keyExprs[i], err = c.compileExpr(src.keyExpr, nil)
			usedPushed[src.nowIdx] = true
		}
		if err != nil {
			return nil, 0, false, err
		}
	}
	// Residual: the unused evaluable join conjuncts plus the inner side's
	// unused pushed conjuncts, all over the concatenated row.
	var residual []qgm.Expr
	for ci, cj := range now {
		if !usedNow[ci] {
			residual = append(residual, cj)
		}
	}
	for pi, cj := range inner.pushed {
		if !usedPushed[pi] {
			residual = append(residual, cj)
		}
	}
	var resPred exec.Expr
	if len(residual) > 0 {
		var err error
		if resPred, err = c.compilePredicateFor(residual, newOffsets); err != nil {
			return nil, 0, false, err
		}
	}
	ij := exec.NewIndexJoin(outer, t, bestIx, inner.cols, keyExprs, resPred)
	ij.EstRows = outCard
	return ij, bestCost, true, nil
}

// accessCostOr approximates the cost of producing one quantifier's input
// stream: the rows its scan visits (index scans pay probe plus fetches).
// Filters and projections ride along for free at this granularity; derived
// inputs without a physical cost fall back to the given cardinality.
func accessCostOr(p exec.Plan, fallback float64) float64 {
	switch n := p.(type) {
	case *exec.SeqScan:
		return tableCard(n.Table)
	case *exec.IndexScan:
		est := n.EstRows
		if est < 1 {
			est = 1
		}
		return indexProbeCost + est*randomFetchCost
	case *exec.Filter:
		return accessCostOr(n.Child, fallback)
	case *exec.Project:
		return accessCostOr(n.Child, fallback)
	default:
		if fallback < 1 {
			return 1
		}
		return fallback
	}
}

func anyQuant(conj []qgm.Expr) int {
	for _, cj := range conj {
		for q := range qgm.QuantsUsed(cj) {
			return q
		}
	}
	return 0
}

func conjSelectivity(cj qgm.Expr) float64 {
	if b, ok := cj.(*qgm.Binary); ok {
		switch b.Op {
		case "=":
			return selEquality
		case "<", "<=", ">", ">=":
			return selRange
		}
	}
	return selOther
}

// indexableConjunct matches col <cmp> constant shapes, and col IN (constants)
// as cmp "IN" with val the *qgm.InList itself. NOT IN and a list holding a
// column reference never qualify.
func indexableConjunct(cj qgm.Expr) (col int, cmp string, val qgm.Expr, ok bool) {
	if in, isIn := cj.(*qgm.InList); isIn {
		cr, isCol := in.E.(*qgm.ColRef)
		if !isCol || in.Negate {
			return 0, "", nil, false
		}
		for _, item := range in.List {
			if !isConstant(item) {
				return 0, "", nil, false
			}
		}
		return cr.Col, "IN", in, true
	}
	b, isBin := cj.(*qgm.Binary)
	if !isBin {
		return 0, "", nil, false
	}
	switch b.Op {
	case "=", "<", "<=", ">", ">=":
	default:
		return 0, "", nil, false
	}
	if cr, isCol := b.L.(*qgm.ColRef); isCol {
		if isConstant(b.R) {
			return cr.Col, b.Op, b.R, true
		}
	}
	if cr, isCol := b.R.(*qgm.ColRef); isCol {
		if isConstant(b.L) {
			return cr.Col, flipCmp(b.Op), b.L, true
		}
	}
	return 0, "", nil, false
}

func flipCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	default:
		return op
	}
}

func isConstant(e qgm.Expr) bool {
	constant := true
	qgm.WalkExpr(e, func(x qgm.Expr) bool {
		switch x.(type) {
		case *qgm.ColRef, *qgm.Exists:
			constant = false
		}
		return constant
	})
	return constant
}

// conjConnects reports whether cj references quant q and only quants that
// are already joined (plus q).
func conjConnects(cj qgm.Expr, offsets map[int]int, q int) bool {
	used := qgm.QuantsUsed(cj)
	if !used[q] {
		return false
	}
	for u := range used {
		if u == q {
			continue
		}
		if _, ok := offsets[u]; !ok {
			return false
		}
	}
	return true
}

// conjEvaluable reports whether cj only references joined quants plus q.
func conjEvaluable(cj qgm.Expr, offsets map[int]int, q int) bool {
	for u := range qgm.QuantsUsed(cj) {
		if u == q {
			continue
		}
		if _, ok := offsets[u]; !ok {
			return false
		}
	}
	return true
}

// equiJoinSides splits cj into (left side over joined quants, right side
// over quant q) when cj is an equality usable as a hash-join key.
func equiJoinSides(cj qgm.Expr, offsets map[int]int, q int) (l, r qgm.Expr, ok bool) {
	b, isBin := cj.(*qgm.Binary)
	if !isBin || b.Op != "=" {
		return nil, nil, false
	}
	sideOf := func(e qgm.Expr) (onlyQ, onlyJoined bool) {
		onlyQ, onlyJoined = true, true
		for u := range qgm.QuantsUsed(e) {
			if u != q {
				onlyQ = false
			}
			if _, joined := offsets[u]; !joined {
				onlyJoined = false
			}
		}
		if len(qgm.QuantsUsed(e)) == 0 {
			onlyQ, onlyJoined = false, false // constants make poor keys
		}
		return
	}
	lq, lj := sideOf(b.L)
	rq, rj := sideOf(b.R)
	switch {
	case lj && rq:
		return b.L, b.R, true
	case rj && lq:
		return b.R, b.L, true
	default:
		return nil, nil, false
	}
}

func exprHasExists(e qgm.Expr) bool {
	found := false
	qgm.WalkExpr(e, func(x qgm.Expr) bool {
		if _, ok := x.(*qgm.Exists); ok {
			found = true
		}
		return !found
	})
	return found
}

// compilePredicateFor compiles a conjunct list under an offset mapping.
func (c *compiler) compilePredicateFor(conj []qgm.Expr, offsets map[int]int) (exec.Expr, error) {
	var out exec.Expr
	for _, cj := range conj {
		e, err := c.compileExpr(cj, offsets)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = e
		} else {
			out = exec.BinOp{Op: "AND", L: out, R: e}
		}
	}
	return out, nil
}

// compileExprs lowers a list of expressions under one offset mapping.
func (c *compiler) compileExprs(es []qgm.Expr, offsets map[int]int) ([]exec.Expr, error) {
	out := make([]exec.Expr, len(es))
	for i, e := range es {
		var err error
		if out[i], err = c.compileExpr(e, offsets); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// compileExpr lowers a QGM expression to an exec expression; offsets maps
// quantifier index to flat row offset (nil for expressions with no columns),
// and c.pos places a base quantifier's columns after its offset.
func (c *compiler) compileExpr(e qgm.Expr, offsets map[int]int) (exec.Expr, error) {
	switch x := e.(type) {
	case *qgm.ColRef:
		off, ok := offsets[x.Quant]
		if !ok {
			return nil, fmt.Errorf("optimizer: column %s references unjoined quantifier %d", x, x.Quant)
		}
		col := x.Col
		if pos := c.pos[x.Quant]; pos != nil {
			if col = pos[x.Col]; col < 0 {
				return nil, fmt.Errorf("optimizer: column %s is not read by its scan", x)
			}
		}
		return exec.Col{Idx: off + col}, nil
	case *qgm.Const:
		if x.Param > 0 {
			// Parameter-slot constant: read the per-execution binding array
			// instead of baking the compile-time literal into the plan.
			return exec.BindRef{Idx: x.Param - 1}, nil
		}
		return exec.Const{V: x.Val}, nil
	case *qgm.Param:
		return exec.ParamRef{Idx: x.Idx}, nil
	case *qgm.Binary:
		l, err := c.compileExpr(x.L, offsets)
		if err != nil {
			return nil, err
		}
		r, err := c.compileExpr(x.R, offsets)
		if err != nil {
			return nil, err
		}
		return exec.BinOp{Op: x.Op, L: l, R: r}, nil
	case *qgm.Unary:
		inner, err := c.compileExpr(x.E, offsets)
		if err != nil {
			return nil, err
		}
		if x.Op == "NOT" {
			return exec.Not{E: inner}, nil
		}
		return exec.Neg{E: inner}, nil
	case *qgm.IsNull:
		inner, err := c.compileExpr(x.E, offsets)
		if err != nil {
			return nil, err
		}
		return exec.IsNull{E: inner, Negate: x.Negate}, nil
	case *qgm.InList:
		inner, err := c.compileExpr(x.E, offsets)
		if err != nil {
			return nil, err
		}
		list, err := c.compileExprs(x.List, offsets)
		if err != nil {
			return nil, err
		}
		return exec.InList{E: inner, List: list, Negate: x.Negate}, nil
	case *qgm.Exists:
		sub, err := c.compileBox(x.Sub)
		if err != nil {
			return nil, err
		}
		corr, err := c.compileExprs(x.Corr, offsets)
		if err != nil {
			return nil, err
		}
		return exec.ExistsOp{Plan: sub, Corr: corr, Negate: x.Negate}, nil
	default:
		return nil, fmt.Errorf("optimizer: unsupported expression %T", e)
	}
}

package xnf

import (
	"fmt"
	"strings"

	"sqlxnf/internal/exec"
	"sqlxnf/internal/parser"
	"sqlxnf/internal/qgm"
	"sqlxnf/internal/types"
)

// Restrictions (paper §3.3) and the path expressions inside them (§3.5)
// evaluate against instance0: the reachable, pre-restriction CO of the
// current composition level, which reach records in each node's in flags.
// A restriction compiles once into an exec.Expr over a flat row, so SQL
// and XNF share one evaluator for 3VL, comparison, arithmetic and LIKE;
// only COUNT(path) and EXISTS path are XNF's own (pathExpr).

// member reports whether tuple i of n belongs to instance0.
func (n *gnode) member(i int) bool { return n.alive[i] && n.in[i] }

// connOK reports whether connection ci of e belongs to instance0.
func (e *gedge) connOK(ci int) bool {
	conn := e.conns[ci]
	return e.alive[ci] && e.parent.member(conn.P) && e.child.member(conn.C)
}

// applyRestriction compiles r and drops the node tuples or connections it
// does not keep. A node restriction reads the tuple itself; an edge
// restriction reads parent ++ child ++ the connection's attributes.
func (ev *Evaluator) applyRestriction(g *egraph, r qgm.XNFRestrictionSpec) error {
	if r.IsEdge {
		e := g.edge(r.Target)
		if e == nil {
			return fmt.Errorf("xnf: restriction on unknown relationship %q", r.Target)
		}
		p := &restrictVar{name: e.parent.name, node: e.parent}
		c := &restrictVar{name: e.child.name, node: e.child, at: len(e.parent.schema)}
		if len(r.Vars) == 2 {
			p.name, c.name = r.Vars[0], r.Vars[1]
		}
		sc := &scope{g: g, vars: []*restrictVar{p, c}}
		if len(e.attrSchema) > 0 {
			sc.attrs, sc.attrAt = e, c.at+len(e.child.schema)
		}
		var row types.Row
		return restrict(sc, r, e.alive, func(ci int) types.Row {
			conn := e.conns[ci]
			p.idx, c.idx = conn.P, conn.C
			row = append(append(append(row[:0], e.parent.rows[conn.P]...), e.child.rows[conn.C]...), conn.Attrs...)
			return row
		})
	}
	n := g.node(r.Target)
	if n == nil {
		return fmt.Errorf("xnf: restriction on unknown component %q", r.Target)
	}
	v := &restrictVar{name: n.name, node: n}
	if len(r.Vars) == 1 {
		v.name = r.Vars[0]
	}
	return restrict(&scope{g: g, vars: []*restrictVar{v}}, r, n.alive, func(i int) types.Row {
		v.idx = i
		return n.rows[i]
	})
}

// restrict compiles r's predicate in sc and keeps each alive[i] only where
// the predicate evaluates to True; bind binds sc's variables to element i
// and returns its row.
func restrict(sc *scope, r qgm.XNFRestrictionSpec, alive []bool, bind func(i int) types.Row) error {
	pred, err := sc.compile(r.RawPred)
	if err == nil {
		for i := range alive {
			if alive[i] {
				if alive[i], err = exec.EvalPred(nil, pred, bind(i)); err != nil {
					break
				}
			}
		}
	}
	if err != nil {
		return fmt.Errorf("xnf: restriction on %s: %v", r.Target, err)
	}
	return nil
}

// restrictVar is a tuple variable: the node it ranges over, where its
// columns start in its scope's row, and the tuple it is bound to. The loop
// that binds the variable sets idx before each evaluation; a path anchored
// at the variable starts from it.
type restrictVar struct {
	name string
	node *gnode
	at   int
	idx  int
}

// scope is one level of names a restriction predicate sees: tuple
// variables, then the restricted edge's attributes (after the tuples in
// the row). A qualified path step opens an inner scope whose row is its
// tuple followed by the outer scope's row, so outer columns sit width
// columns further right.
type scope struct {
	g      *egraph
	vars   []*restrictVar
	attrs  *gedge
	attrAt int
	width  int
	outer  *scope
}

// lookup finds a variable by name, innermost scope first.
func (sc *scope) lookup(name string) *restrictVar {
	for s := sc; s != nil; s = s.outer {
		for _, v := range s.vars {
			if strings.EqualFold(v.name, name) {
				return v
			}
		}
	}
	return nil
}

// column resolves a column reference to its position in sc's row,
// innermost scope first. Within a scope, tuple variables come before the
// edge's attributes, and an unqualified name must name one variable's
// column.
func (sc *scope) column(cr *parser.ColumnRef) (exec.Expr, error) {
	q := cr.Qualifier
	for s, shift := sc, 0; s != nil; shift, s = shift+s.width, s.outer {
		col := -1
		for _, v := range s.vars {
			ci := v.node.schema.Index(cr.Name)
			if q != "" {
				if !strings.EqualFold(v.name, q) {
					continue
				}
				if ci < 0 {
					return nil, fmt.Errorf("xnf: column %q not found in %s", cr.Name, v.node.name)
				}
				return exec.Col{Idx: shift + v.at + ci}, nil
			}
			if ci < 0 {
				continue
			}
			if col >= 0 {
				return nil, fmt.Errorf("xnf: column %q is ambiguous in restriction", cr.Name)
			}
			col = shift + v.at + ci
		}
		if col < 0 && s.attrs != nil && (q == "" || strings.EqualFold(s.attrs.name, q)) {
			ai := s.attrs.attrSchema.Index(cr.Name)
			if ai < 0 && q != "" {
				return nil, fmt.Errorf("xnf: attribute %q not found in relationship %s", cr.Name, s.attrs.name)
			}
			if ai >= 0 {
				col = shift + s.attrAt + ai
			}
		}
		if col >= 0 {
			return exec.Col{Idx: col}, nil
		}
	}
	if q != "" {
		return nil, fmt.Errorf("xnf: unknown variable %q", q)
	}
	return nil, fmt.Errorf("xnf: column %q not found in restriction scope", cr.Name)
}

// compile lowers a restriction expression to exec's scalar nodes over sc's
// row; path expressions become pathExprs. Every name resolves here.
func (sc *scope) compile(e parser.Expr) (exec.Expr, error) {
	switch x := e.(type) {
	case *parser.Literal:
		return exec.Const{V: x.Val}, nil
	case *parser.ColumnRef:
		return sc.column(x)
	case *parser.BinaryExpr:
		l, err := sc.compile(x.L)
		if err != nil {
			return nil, err
		}
		r, err := sc.compile(x.R)
		if err != nil {
			return nil, err
		}
		return exec.BinOp{Op: x.Op, L: l, R: r}, nil
	case *parser.UnaryExpr:
		inner, err := sc.compile(x.E)
		if err != nil {
			return nil, err
		}
		if x.Op == "NOT" {
			return exec.Not{E: inner}, nil
		}
		return exec.Neg{E: inner}, nil
	case *parser.IsNullExpr:
		inner, err := sc.compile(x.E)
		if err != nil {
			return nil, err
		}
		return exec.IsNull{E: inner, Negate: x.Negate}, nil
	case *parser.InExpr:
		inner, err := sc.compile(x.E)
		if err != nil {
			return nil, err
		}
		list := make([]exec.Expr, len(x.List))
		for i, le := range x.List {
			if list[i], err = sc.compile(le); err != nil {
				return nil, err
			}
		}
		return exec.InList{E: inner, List: list, Negate: x.Negate}, nil
	case *parser.ExistsExpr:
		if x.Path == nil {
			return nil, fmt.Errorf("xnf: EXISTS subqueries are not supported in XNF restrictions; use a path expression")
		}
		p, err := sc.path(x.Path)
		if err != nil {
			return nil, err
		}
		p.negate = x.Negate
		return p, nil
	case *parser.FuncExpr:
		if x.PathArg == nil {
			return nil, fmt.Errorf("xnf: %s over non-path arguments is not supported in restrictions", x.Name)
		}
		p, err := sc.path(x.PathArg)
		if err != nil {
			return nil, err
		}
		switch x.Name {
		case "COUNT":
			p.count = true
			return p, nil
		case "SUM", "AVG", "MIN", "MAX":
			return nil, fmt.Errorf("xnf: %s over a path needs a column; only COUNT and EXISTS are supported", x.Name)
		default:
			return nil, fmt.Errorf("xnf: unknown function %s", x.Name)
		}
	case *parser.PathExpr:
		return nil, fmt.Errorf("xnf: a bare path expression denotes a table; wrap it in COUNT or EXISTS")
	default:
		return nil, fmt.Errorf("xnf: unsupported restriction expression %T", e)
	}
}

// pathExpr is COUNT(path) or [NOT] EXISTS path over instance0. A path
// denotes the tuples of its target node it reaches (§3.5); only the size
// of that set is read, so each set is a []bool compiled once and reused.
type pathExpr struct {
	count, negate bool
	anchor        *restrictVar // nil: the path starts at every member of start
	start         *gnode
	from          []bool
	steps         []pathStep
}

// pathStep traverses edge (forward: parent to child), filling set over
// the target node, or, with edge nil, keeps the current tuples that satisfy
// a qualified node step's pred, bound to v. pred reads v's tuple followed
// by the row the path was evaluated on, built in row.
type pathStep struct {
	edge    *gedge
	forward bool
	set     []bool
	v       *restrictVar
	pred    exec.Expr
	row     types.Row
}

// path resolves a path expression's anchor and steps. A step names an
// edge incident on the current node (or a role of it), or the current node
// itself, optionally qualified.
func (sc *scope) path(p *parser.PathExpr) (*pathExpr, error) {
	pe := &pathExpr{}
	if v := sc.lookup(p.Anchor); v != nil {
		pe.anchor, pe.start = v, v.node
	} else if pe.start = sc.g.node(p.Anchor); pe.start == nil {
		return nil, fmt.Errorf("xnf: path anchor %q is neither a variable nor a component table", p.Anchor)
	}
	pe.from = make([]bool, len(pe.start.rows))
	cur := pe.start
	for _, step := range p.Steps {
		if e, forward := edgeStep(sc.g, cur, step.Name); e != nil {
			cur = e.child
			if !forward {
				cur = e.parent
			}
			pe.steps = append(pe.steps, pathStep{edge: e, forward: forward, set: make([]bool, len(cur.rows))})
			continue
		}
		n := sc.g.node(step.Name)
		if n == nil {
			return nil, fmt.Errorf("xnf: path step %q is neither a relationship nor the current component table", step.Name)
		}
		if n != cur {
			return nil, fmt.Errorf("xnf: path step %s does not follow from %s (no relationship traversed)", step.Name, cur.name)
		}
		if step.Pred == nil {
			continue
		}
		v := &restrictVar{name: step.Var, node: n}
		if v.name == "" {
			v.name = n.name
		}
		inner := &scope{g: sc.g, vars: []*restrictVar{v}, width: len(n.schema), outer: sc}
		pred, err := inner.compile(step.Pred)
		if err != nil {
			return nil, err
		}
		pe.steps = append(pe.steps, pathStep{v: v, pred: pred})
	}
	return pe, nil
}

// edgeStep matches a path step name against edges incident on cur. Step
// names may be edge names (direction inferred from which side cur is on;
// parent→child preferred for cyclic edges) or role names (the role names
// the *target* side: stepping to the "manager" role traverses child→parent
// when manager is the parent role).
func edgeStep(g *egraph, cur *gnode, name string) (*gedge, bool) {
	for _, e := range g.edges {
		if strings.EqualFold(e.name, name) {
			switch cur {
			case e.parent: // includes cyclic edges: default parent→child
				return e, true
			case e.child:
				return e, false
			}
		}
		if e.childRole != "" && strings.EqualFold(e.childRole, name) && e.parent == cur {
			return e, true
		}
		if e.parentRole != "" && strings.EqualFold(e.parentRole, name) && e.child == cur {
			return e, false
		}
	}
	return nil, false
}

// Eval implements exec.Expr over the row of the scope the path was
// compiled in.
func (p *pathExpr) Eval(ctx *exec.Context, row types.Row) (types.Value, error) {
	cur := p.from
	if p.anchor != nil {
		clear(cur)
		cur[p.anchor.idx] = p.start.member(p.anchor.idx)
	} else {
		for i := range cur {
			cur[i] = p.start.member(i)
		}
	}
	for i := range p.steps {
		st := &p.steps[i]
		if st.edge == nil {
			for idx, in := range cur {
				if !in {
					continue
				}
				st.v.idx = idx
				st.row = append(append(st.row[:0], st.v.node.rows[idx]...), row...)
				keep, err := exec.EvalPred(ctx, st.pred, st.row)
				if err != nil {
					return types.Null(), err
				}
				cur[idx] = keep
			}
			continue
		}
		next := st.set
		clear(next)
		for ci, conn := range st.edge.conns {
			if !st.edge.connOK(ci) {
				continue
			}
			if st.forward && cur[conn.P] {
				next[conn.C] = true
			} else if !st.forward && cur[conn.C] {
				next[conn.P] = true
			}
		}
		cur = next
	}
	n := 0
	for _, in := range cur {
		if in {
			n++
		}
	}
	if p.count {
		return types.NewInt(int64(n)), nil
	}
	return types.NewBool((n > 0) != p.negate), nil
}

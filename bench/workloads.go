package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"sqlxnf/internal/wire"
	company "sqlxnf/internal/workload"
)

// An op is one request a client sends and how to judge the reply.
type op struct {
	class int // index into workload.classes
	sql   string
	// verify returns "" for a right answer, otherwise what was wrong.
	verify func(*wire.Response) string
	// acked runs once the server acknowledged the op with a right answer;
	// lost runs when it failed. Write ops use them to keep the client's model
	// of its own rows, which the durability check reads back.
	acked, lost func()
}

// classDef is one op class of a workload. slots is its share of each
// 20-operation cycle, so the mix is fixed by count, not by chance.
type classDef struct {
	name  string
	slots int
	write bool
}

const cycleLen = 20

type workload struct {
	name    string
	why     string
	classes []classDef
	// warmOps is the untimed warm-up, in operations over all clients, sized
	// to take a few seconds on the host the bounds were derived on.
	warmOps int
	// shadowEvery: the traced pass replays one operation in this many
	// through the single layers.
	shadowEvery int
	next        func(cs *clientState, class int) op
}

// clientState is one closed-loop client: its seeded generator and, for the
// write workloads, what it knows about the rows it owns. It lives as long as
// the env, across warm-up, window and traced pass.
type clientState struct {
	id, clients int
	data        *dataset
	rng         *rand.Rand
	zipf        *rand.Zipf
	order       []int // class per slot of the current cycle
	pos         int
	uniq        int // never-repeated counter (take_fresh text, upd_pk values, ins keys)

	// The client's model of the rows only it writes, read back by the
	// durability check.
	sal       map[int]float64 // eno -> last acknowledged sal (co_checkout)
	descr     map[int]string  // eno -> last acknowledged descr (oltp_write)
	inserted  []int           // acknowledged, not yet deleted SKILLS keys, oldest first
	deleted   map[int]bool    // acknowledged deletes
	unsure    map[int]bool    // keys whose last write failed: state unknown
	sumUnsure bool            // a write that moves SUM(sal) failed
	origSkill int             // next original SKILLS row this client may delete
}

func newClientState(w *workload, d *dataset, id, clients int) *clientState {
	rng := rand.New(rand.NewSource(int64(mix(d.seed, 100+uint64(id), hashName(w.name)))))
	cs := &clientState{
		id: id, clients: clients, data: d, rng: rng,
		zipf:    rand.NewZipf(rng, 1.1, 1, nDepts-1),
		sal:     map[int]float64{},
		descr:   map[int]string{},
		deleted: map[int]bool{},
		unsure:  map[int]bool{},
	}
	for c, cd := range w.classes {
		for i := 0; i < cd.slots; i++ {
			cs.order = append(cs.order, c)
		}
	}
	if len(cs.order) != cycleLen {
		panic(fmt.Sprintf("workload %s: class slots sum to %d, want %d", w.name, len(cs.order), cycleLen))
	}
	cs.pos = cycleLen
	return cs
}

func hashName(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// nextClass walks the cycle, reshuffling it each time round.
func (cs *clientState) nextClass() int {
	if cs.pos == cycleLen {
		cs.rng.Shuffle(cycleLen, func(i, j int) { cs.order[i], cs.order[j] = cs.order[j], cs.order[i] })
		cs.pos = 0
	}
	c := cs.order[cs.pos]
	cs.pos++
	return c
}

func (cs *clientState) zipfDept() int { return 1 + int(cs.zipf.Uint64()) }

// ownEno draws an employee only this client writes.
func (cs *clientState) ownEno() int {
	return enoBase + 1 + cs.rng.Intn(nEmps/cs.clients)*cs.clients + cs.id
}

// ownEnoIn draws one of a department's employees only this client writes.
func (cs *clientState) ownEnoIn(dno int) int {
	return firstEno(dno) + cs.rng.Intn(empsPerDept/cs.clients)*cs.clients + cs.id
}

var workloads = []*workload{pointRead, scanAgg, coCheckout, oltpWrite}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// classNames lists every op class once, in workload order: the names behind
// the client.<class>.* layer metrics.
func classNames() []string {
	var out []string
	seen := map[string]bool{}
	for _, w := range workloads {
		for _, c := range w.classes {
			if !seen[c.name] {
				seen[c.name] = true
				out = append(out, c.name)
			}
		}
	}
	return out
}

// ---- reply helpers ----

func num(v any) float64 {
	f, _ := v.(float64)
	return f
}

func wantRows(r *wire.Response, n int) string {
	if len(r.Rows) != n {
		return fmt.Sprintf("%d rows, want %d", len(r.Rows), n)
	}
	return ""
}

func wantAffected(n int64) func(*wire.Response) string {
	return func(r *wire.Response) string {
		if r.RowsAffected != n {
			return fmt.Sprintf("%d rows affected, want %d", r.RowsAffected, n)
		}
		return ""
	}
}

// ---- point_read ----

// hotEmps is the slice of EMP the point reads draw from: 4k rows, well
// inside the 256-page pool.
const (
	hotEmps  = 4000
	hotDepts = hotEmps / empsPerDept
)

func pkGet(cs *clientState, class, eno int, descr string) op {
	d := cs.data
	return op{
		class: class,
		sql:   "SELECT eno, ename, descr, edno FROM EMP WHERE eno = " + strconv.Itoa(eno),
		verify: func(r *wire.Response) string {
			if msg := wantRows(r, 1); msg != "" {
				return msg
			}
			row := r.Rows[0]
			if len(row) != 4 || num(row[0]) != float64(eno) || row[1] != d.empName(eno) ||
				row[2] != descr || num(row[3]) != float64(deptOfEno(eno)) {
				return fmt.Sprintf("row %v, want [%d %s %s %d]", row, eno, d.empName(eno), descr, deptOfEno(eno))
			}
			return ""
		},
	}
}

// deptEmpSums returns what fk_range and join2 must add up to for one
// department: the employee numbers and the generated salaries.
func deptEmpSums(d *dataset, dno int) (enoSum, salSum float64) {
	lo := firstEno(dno)
	return float64(empsPerDept*lo + empsPerDept*(empsPerDept-1)/2), d.salSum(lo, lo+empsPerDept)
}

var pointRead = &workload{
	name: "point_read",
	why:  "microsecond statements on plan-cache hits: wire, literal extraction and the plan cache do the work, exec/storage/wal almost none",
	classes: []classDef{
		{name: "pk_get", slots: 14},
		{name: "fk_range", slots: 4},
		{name: "join2", slots: 2},
	},
	warmOps:     100000,
	shadowEvery: 50,
	next: func(cs *clientState, class int) op {
		d := cs.data
		switch class {
		case 0:
			eno := enoBase + 1 + cs.rng.Intn(hotEmps)
			return pkGet(cs, class, eno, d.empDescr(eno))
		case 1:
			dno := 1 + cs.rng.Intn(hotDepts)
			return op{
				class: class,
				sql:   "SELECT eno, sal FROM EMP WHERE edno = " + strconv.Itoa(dno),
				verify: func(r *wire.Response) string {
					if msg := wantRows(r, empsPerDept); msg != "" {
						return msg
					}
					wantE, wantS := deptEmpSums(d, dno)
					var e, s float64
					for _, row := range r.Rows {
						e += num(row[0])
						s += num(row[1])
					}
					if e != wantE || s != wantS {
						return fmt.Sprintf("dept %d sums (%v,%v), want (%v,%v)", dno, e, s, wantE, wantS)
					}
					return ""
				},
			}
		default:
			dno := 1 + cs.rng.Intn(hotDepts)
			return op{
				class: class,
				sql:   "SELECT d.dname, e.eno, e.sal FROM DEPT d, EMP e WHERE d.dno = e.edno AND d.dno = " + strconv.Itoa(dno),
				verify: func(r *wire.Response) string {
					if msg := wantRows(r, empsPerDept); msg != "" {
						return msg
					}
					wantE, _ := deptEmpSums(d, dno)
					var e float64
					for _, row := range r.Rows {
						if row[0] != d.deptName(dno) {
							return fmt.Sprintf("dname %v, want %s", row[0], d.deptName(dno))
						}
						e += num(row[1])
					}
					if e != wantE {
						return fmt.Sprintf("dept %d eno sum %v, want %v", dno, e, wantE)
					}
					return ""
				},
			}
		}
	},
}

// ---- scan_agg ----

// Scan predicates draw from a handful of thresholds: statements with GROUP
// BY or ORDER BY are plan-cached under their literal text, so a few distinct
// texts keep the plan cache hitting and the work in the operators.
const nThresholds = 8

func threshold(j int) int { return salFloor + salStep*5*j + salStep/2 }

const wideRows = 10000

var scanAgg = &workload{
	name: "scan_agg",
	why:  "millisecond statements over a database twice the pool: exec kernels, storage scanners and Gather do the work; wide_result sends one big frame",
	classes: []classDef{
		{name: "filter_agg", slots: 8},
		{name: "hash_join_agg", slots: 4},
		{name: "topn", slots: 6},
		{name: "wide_result", slots: 2},
	},
	warmOps:     200,
	shadowEvery: 4,
	next: func(cs *clientState, class int) op {
		d := cs.data
		switch class {
		case 0, 1:
			j := cs.rng.Intn(nThresholds)
			sql := fmt.Sprintf("SELECT descr, COUNT(*), SUM(sal) FROM EMP WHERE sal > %d GROUP BY descr", threshold(j))
			perEmp := 1.0
			if class == 1 {
				sql = fmt.Sprintf("SELECT e.descr, COUNT(*), SUM(e.sal) FROM EMP e, SKILLS s WHERE e.eno = s.esno AND e.sal > %d GROUP BY e.descr", threshold(j))
				perEmp = skillsPerEmp
			}
			return op{class: class, sql: sql, verify: func(r *wire.Response) string {
				if msg := wantRows(r, len(descrs)); msg != "" {
					return msg
				}
				for k, name := range descrs {
					g := d.groups[j][k]
					if !slices.ContainsFunc(r.Rows, func(row []any) bool {
						return row[0] == name && num(row[1]) == perEmp*g.cnt && num(row[2]) == perEmp*g.sum
					}) {
						return fmt.Sprintf("no group (%s,%v,%v) in %v", name, perEmp*g.cnt, perEmp*g.sum, r.Rows)
					}
				}
				return ""
			}}
		case 2:
			t := threshold(1 + cs.rng.Intn(nThresholds-1))
			top := float64(t - salStep/2) // the highest salary level below t
			return op{
				class: class,
				sql:   fmt.Sprintf("SELECT eno, sal FROM EMP WHERE sal < %d ORDER BY sal DESC LIMIT 10", t),
				verify: func(r *wire.Response) string {
					if msg := wantRows(r, 10); msg != "" {
						return msg
					}
					for _, row := range r.Rows {
						if num(row[1]) != top || d.empSal(int(num(row[0]))) != top {
							return fmt.Sprintf("row %v, want an employee at salary %v", row, top)
						}
					}
					return ""
				},
			}
		default:
			lo := enoBase + 1 + 2000*cs.rng.Intn((nEmps-wideRows)/2000+1)
			return op{
				class: class,
				sql:   fmt.Sprintf("SELECT eno, ename, sal FROM EMP WHERE eno >= %d AND eno < %d", lo, lo+wideRows),
				verify: func(r *wire.Response) string {
					if msg := wantRows(r, wideRows); msg != "" {
						return msg
					}
					var e, s float64
					for _, row := range r.Rows {
						e += num(row[0])
						s += num(row[2])
					}
					wantE := float64(wideRows*lo + wideRows*(wideRows-1)/2)
					wantS := d.salSum(lo, lo+wideRows)
					if e != wantE || s != wantS || r.Rows[0][1] != d.empName(int(num(r.Rows[0][0]))) {
						return fmt.Sprintf("range %d sums (%v,%v), want (%v,%v)", lo, e, s, wantE, wantS)
					}
					return ""
				},
			}
		}
	},
}

// ---- co_checkout ----

// coCounts tallies a rendered composite object: rows per node, connections
// per edge, keyed by name.
func coCounts(text string) map[string]int {
	out := map[string]int{}
	node := ""
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "-- "):
			rest := line[3:]
			if i := strings.Index(rest, ": "); i >= 0 && strings.HasSuffix(rest, " connections)") {
				j := strings.LastIndex(rest, "(")
				n, _ := strconv.Atoi(strings.TrimSuffix(rest[j+1:], " connections)"))
				out[rest[:i]] = n
				node = ""
				continue
			}
			node = strings.TrimSuffix(strings.SplitN(rest, " ", 2)[0], "*")
			out[node] = 0
		case strings.HasPrefix(line, "   ") && node != "":
			out[node]++
		}
	}
	return out
}

// verifyCO checks a checkout of one department holding emps employees.
func verifyCO(emps int) func(*wire.Response) string {
	want := map[string]int{
		"Xdept": 1, "Xemp": emps, "Xproj": projsPerDept, "Xskills": emps * skillsPerEmp,
		"employment": emps, "ownership": projsPerDept, "empproperty": emps * skillsPerEmp,
	}
	return func(r *wire.Response) string {
		got := coCounts(r.COText)
		for k, n := range want {
			if got[k] != n {
				return fmt.Sprintf("%s has %d, want %d (all: %v)", k, got[k], n, got)
			}
		}
		return ""
	}
}

const takeTail = "TAKE *"

// restrictedCO is the company CO with a node restriction on Xemp.
func restrictedCO(dno, sal int) string {
	q := company.CompanyCOQuery(companyCfg, dno)
	return strings.TrimSuffix(q, takeTail) + fmt.Sprintf("WHERE Xemp e SUCH THAT e.sal > %d %s", sal, takeTail)
}

// freshCO is the company CO under a statement text never sent before (the
// extra conjunct is always true), so the CO cache cannot have it.
func freshCO(dno, uniq int) string {
	q := company.CompanyCOQuery(companyCfg, dno)
	root := fmt.Sprintf("WHERE dno = %d)", dno)
	return strings.Replace(q, root, fmt.Sprintf("WHERE dno = %d AND dno < %d)", dno, uniq), 1)
}

var coCheckout = &workload{
	name: "co_checkout",
	why:  "the paper's operation: hits exercise comat and CO encode, misses the XNF evaluator, and the writes beside them exercise invalidation",
	classes: []classDef{
		{name: "take_dept", slots: 15},
		{name: "take_restricted", slots: 2},
		{name: "take_fresh", slots: 2},
		{name: "emp_update", slots: 1, write: true},
	},
	warmOps:     200,
	shadowEvery: 4,
	next: func(cs *clientState, class int) op {
		d := cs.data
		switch class {
		case 0:
			return op{class: class, sql: company.CompanyCOQuery(companyCfg, cs.zipfDept()), verify: verifyCO(empsPerDept)}
		case 1:
			dno := cs.zipfDept()
			t := salFloor + salStep*cs.rng.Intn(salLevels-1) + salStep/2
			emps := 0
			for eno := firstEno(dno); eno < firstEno(dno)+empsPerDept; eno++ {
				if d.empSal(eno) > float64(t) {
					emps++
				}
			}
			return op{class: class, sql: restrictedCO(dno, t), verify: verifyCO(emps)}
		case 2:
			cs.uniq++
			uniq := 1000000 + cs.id*100000000 + cs.uniq
			return op{class: class, sql: freshCO(1+cs.rng.Intn(nDepts), uniq), verify: verifyCO(empsPerDept)}
		default:
			eno := cs.ownEnoIn(cs.zipfDept())
			sal := int(d.empSal(eno)) + cs.rng.Intn(salStep/2)
			return op{
				class:  class,
				sql:    fmt.Sprintf("UPDATE EMP SET sal = %d WHERE eno = %d", sal, eno),
				verify: wantAffected(1),
				acked:  func() { cs.sal[eno] = float64(sal); delete(cs.unsure, eno) },
				lost:   func() { cs.unsure[eno] = true; cs.sumUnsure = true },
			}
		}
	},
}

// ---- oltp_write ----

// insBase is where client-inserted SKILLS keys start, far above the loaded
// ones; each client has its own range.
const insBase = 1000000

func (cs *clientState) firstInsKey() int { return insBase + cs.id*100000000 }

var oltpWrite = &workload{
	name: "oltp_write",
	why:  "the write path: wal append, fsync and group commit, table locks, MVCC stamping and vacuum, btree upkeep, checkpoints; reads run beside the writers",
	classes: []classDef{
		{name: "upd_pk", slots: 7, write: true},
		{name: "ins", slots: 5, write: true},
		{name: "del_pk", slots: 2, write: true},
		{name: "xfer_tx", slots: 2, write: true},
		{name: "pk_get", slots: 4},
	},
	warmOps:     300,
	shadowEvery: 4,
	next: func(cs *clientState, class int) op {
		switch class {
		case 0:
			eno := cs.ownEno()
			cs.uniq++
			v := fmt.Sprintf("c%d-%d", cs.id, cs.uniq)
			return op{
				class:  class,
				sql:    fmt.Sprintf("UPDATE EMP SET descr = '%s' WHERE eno = %d", v, eno),
				verify: wantAffected(1),
				acked:  func() { cs.descr[eno] = v; delete(cs.unsure, eno) },
				lost:   func() { cs.unsure[eno] = true },
			}
		case 1:
			cs.uniq++
			sno := cs.firstInsKey() + cs.uniq
			return op{
				class:  class,
				sql:    fmt.Sprintf("INSERT INTO SKILLS VALUES (%d, 'skill-%d', %d)", sno, sno%37, cs.ownEno()),
				verify: wantAffected(1),
				acked:  func() { cs.inserted = append(cs.inserted, sno) },
				lost:   func() { cs.unsure[sno] = true },
			}
		case 2:
			// Delete the oldest row this client inserted; before it has
			// inserted any, one of the loaded rows only it touches.
			var sno int
			if len(cs.inserted) > 0 {
				sno = cs.inserted[0]
				cs.inserted = cs.inserted[1:]
			} else {
				sno = snoBase + 1 + cs.origSkill*cs.clients + cs.id
				cs.origSkill++
			}
			return op{
				class:  class,
				sql:    "DELETE FROM SKILLS WHERE sno = " + strconv.Itoa(sno),
				verify: wantAffected(1),
				acked:  func() { cs.deleted[sno] = true },
				lost:   func() { cs.unsure[sno] = true },
			}
		case 3:
			// Move salary between two employees in one frame: SUM(sal) over
			// EMP never changes, whoever else commits in between.
			a, b := cs.ownEno(), enoBase+1+cs.rng.Intn(nEmps)
			if b == a {
				b = enoBase + 1 + (b-enoBase)%nEmps
			}
			x := 1 + cs.rng.Intn(9)
			return op{
				class: class,
				sql: fmt.Sprintf("BEGIN; UPDATE EMP SET sal = sal - %d WHERE eno = %d; UPDATE EMP SET sal = sal + %d WHERE eno = %d; COMMIT",
					x, a, x, b),
				verify: func(*wire.Response) string { return "" },
				lost:   func() { cs.sumUnsure = true },
			}
		default:
			eno := cs.ownEno()
			descr, ok := cs.descr[eno]
			if !ok {
				descr = cs.data.empDescr(eno)
			}
			o := pkGet(cs, class, eno, descr)
			if cs.unsure[eno] {
				o.verify = func(r *wire.Response) string { return wantRows(r, 1) }
			}
			return o
		}
	},
}

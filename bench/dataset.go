package main

import (
	"fmt"
	"strconv"
	"strings"

	"sqlxnf/internal/wire"
	company "sqlxnf/internal/workload"
)

// The dataset is the paper's company schema in the internal/workload shapes
// (same DDL, same key ranges as company.LoadCompany): 66 000 rows in 488
// pages, about twice the default 256-page buffer pool. Every column value is a pure
// function of (seed, key), so the harness knows every answer without asking
// the database.
const (
	nDepts       = 1000
	empsPerDept  = 20
	projsPerDept = 5
	skillsPerEmp = 2

	nEmps   = nDepts * empsPerDept
	nProjs  = nDepts * projsPerDept
	nSkills = nEmps * skillsPerEmp

	enoBase = 1000  // eno runs enoBase+1 .. enoBase+nEmps
	pnoBase = 5000  // pno runs pnoBase+1 .. pnoBase+nProjs
	snoBase = 90000 // sno runs snoBase+1 .. snoBase+nSkills

	// Salaries are multiples of salStep; updates add less than salStep/2 and
	// restriction thresholds sit at odd multiples of salStep/2, so a salary
	// update never changes which employees a threshold selects.
	salStep   = 100
	salLevels = 40
	salFloor  = 1000
)

const schemaDDL = `
CREATE TABLE DEPT (dno INT NOT NULL PRIMARY KEY, dname VARCHAR, loc VARCHAR, budget FLOAT, dmgrno INT);
CREATE TABLE EMP (eno INT NOT NULL PRIMARY KEY, ename VARCHAR, sal FLOAT, descr VARCHAR, edno INT);
CREATE TABLE PROJ (pno INT NOT NULL PRIMARY KEY, pname VARCHAR, budget FLOAT, pdno INT, pmgrno INT);
CREATE TABLE SKILLS (sno INT NOT NULL PRIMARY KEY, sname VARCHAR, esno INT);
CREATE INDEX emp_edno ON EMP (edno);
CREATE INDEX proj_pdno ON PROJ (pdno);
`

var (
	locs   = []string{"NY", "SF", "LA", "CHI", "BOS"}
	descrs = []string{"staff", "manager", "contractor"}
)

var companyCfg = company.CompanyConfig{
	Departments: nDepts, EmpsPerDept: empsPerDept, ProjsPerDept: projsPerDept, SkillsPerEmp: skillsPerEmp,
}

// mix is splitmix64 over (seed, column tag, key).
func mix(seed int64, tag, key uint64) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + tag*0xBF58476D1CE4E5B9 + key
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// dataset answers "what does row k hold" for one seed. The EMP columns the
// verifiers read most are tabulated once, so checking a reply costs the
// client a lookup, not a hash.
type dataset struct {
	seed      int64
	sal       []float64 // by eno-enoBase-1
	descr     []uint8   // index into descrs
	salPrefix []float64 // salPrefix[i] = sum of sal[:i]
	// groups[j][k] is what a GROUP BY descr over "sal > threshold(j)" must
	// return for descrs[k].
	groups [nThresholds][3]struct{ cnt, sum float64 }
}

func newDataset(seed int64) *dataset {
	d := &dataset{seed: seed, sal: make([]float64, nEmps), descr: make([]uint8, nEmps), salPrefix: make([]float64, nEmps+1)}
	for i := 0; i < nEmps; i++ {
		eno := uint64(enoBase + 1 + i)
		d.sal[i] = float64(salFloor + salStep*(mix(seed, 3, eno)%salLevels))
		d.descr[i] = uint8(mix(seed, 4, eno) % uint64(len(descrs)))
		d.salPrefix[i+1] = d.salPrefix[i] + d.sal[i]
		for j := 0; j < nThresholds; j++ {
			if d.sal[i] > float64(threshold(j)) {
				g := &d.groups[j][d.descr[i]]
				g.cnt++
				g.sum += d.sal[i]
			}
		}
	}
	return d
}

func firstEno(dno int) int  { return enoBase + (dno-1)*empsPerDept + 1 }
func deptOfEno(eno int) int { return (eno-enoBase-1)/empsPerDept + 1 }

func (d *dataset) deptName(dno int) string { return "dept-" + strconv.Itoa(dno) }
func (d *dataset) deptLoc(dno int) string  { return locs[mix(d.seed, 1, uint64(dno))%uint64(len(locs))] }
func (d *dataset) deptBudget(dno int) float64 {
	return float64(100000 + mix(d.seed, 2, uint64(dno))%900000)
}
func (d *dataset) empName(eno int) string  { return "emp-" + strconv.Itoa(eno) }
func (d *dataset) empSal(eno int) float64  { return d.sal[eno-enoBase-1] }
func (d *dataset) empDescr(eno int) string { return descrs[d.descr[eno-enoBase-1]] }
func (d *dataset) projBudget(pno int) float64 {
	return float64(10000 + mix(d.seed, 5, uint64(pno))%90000)
}
func (d *dataset) skillName(sno int) string {
	return "skill-" + strconv.FormatUint(mix(d.seed, 6, uint64(sno))%37, 10)
}

// salSum adds the generated salaries of employees lo <= eno < hi.
func (d *dataset) salSum(lo, hi int) float64 {
	return d.salPrefix[hi-enoBase-1] - d.salPrefix[lo-enoBase-1]
}

// loadStats reports what load put into the database.
type loadStats struct {
	Rows      int
	UserBytes int64 // bytes of INSERT text sent: the user data as a client ships it
}

// load creates the schema and fills it through the wire: multi-row INSERTs
// inside one transaction (per-row autocommit would be fsync-bound), then
// ANALYZE.
func (d *dataset) load(c *wire.Client) (loadStats, error) {
	var st loadStats
	if _, err := c.Exec(schemaDDL); err != nil {
		return st, fmt.Errorf("ddl: %w", err)
	}
	if _, err := c.Exec("BEGIN"); err != nil {
		return st, err
	}
	const rowsPerInsert = 500
	var b strings.Builder
	pending := 0
	table := ""
	flush := func() error {
		if pending == 0 {
			return nil
		}
		st.Rows += pending
		st.UserBytes += int64(b.Len())
		_, err := c.Exec(b.String())
		b.Reset()
		pending = 0
		if err != nil {
			return fmt.Errorf("load %s: %w", table, err)
		}
		return nil
	}
	add := func(t, tuple string) error {
		if t != table || pending == rowsPerInsert {
			if err := flush(); err != nil {
				return err
			}
			table = t
		}
		if pending == 0 {
			b.WriteString("INSERT INTO " + t + " VALUES ")
		} else {
			b.WriteByte(',')
		}
		b.WriteString(tuple)
		pending++
		return nil
	}
	for dno := 1; dno <= nDepts; dno++ {
		if err := add("DEPT", fmt.Sprintf("(%d,'%s','%s',%.0f,%d)",
			dno, d.deptName(dno), d.deptLoc(dno), d.deptBudget(dno), firstEno(dno))); err != nil {
			return st, err
		}
	}
	for eno := enoBase + 1; eno <= enoBase+nEmps; eno++ {
		if err := add("EMP", fmt.Sprintf("(%d,'%s',%.0f,'%s',%d)",
			eno, d.empName(eno), d.empSal(eno), d.empDescr(eno), deptOfEno(eno))); err != nil {
			return st, err
		}
	}
	for i := 0; i < nProjs; i++ {
		pno, dno := pnoBase+1+i, i/projsPerDept+1
		if err := add("PROJ", fmt.Sprintf("(%d,'proj-%d',%.0f,%d,%d)",
			pno, pno, d.projBudget(pno), dno, firstEno(dno)+i%empsPerDept)); err != nil {
			return st, err
		}
	}
	for i := 0; i < nSkills; i++ {
		sno := snoBase + 1 + i
		if err := add("SKILLS", fmt.Sprintf("(%d,'%s',%d)",
			sno, d.skillName(sno), enoBase+1+i/skillsPerEmp)); err != nil {
			return st, err
		}
	}
	if err := flush(); err != nil {
		return st, err
	}
	if _, err := c.Exec("COMMIT"); err != nil {
		return st, err
	}
	if _, err := c.Exec("ANALYZE"); err != nil {
		return st, fmt.Errorf("analyze: %w", err)
	}
	return st, nil
}

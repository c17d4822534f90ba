// Degree-of-parallelism decision. After physical planning, the optimizer
// rewrites eligible pipeline segments for morsel-driven parallel execution:
// a Filter/Project chain over a SeqScan (optionally through the probe side
// of hash joins) becomes a worker template with a MorselScan leaf, wrapped
// in an exec.Gather; a GroupAgg over such a chain aggregates with per-worker
// tables instead. The decision is cardinality-driven: pipelines whose
// driving scan is estimated under parallelRowThreshold rows stay serial, so
// point lookups and the prepared-plan hit path pay zero overhead.
package optimizer

import (
	"runtime"

	"sqlxnf/internal/exec"
)

// parallelRowThreshold is the driving-scan cardinality below which a
// pipeline stays serial: at ~10k rows the per-query cost of spawning
// workers and cloning the pipeline outweighs the scan itself.
const parallelRowThreshold = 10_000

// maxAutoDOP caps the automatic degree of parallelism; beyond ~8 workers
// the gather channel and the serial consumers above it dominate.
const maxAutoDOP = 8

// dop resolves the session's degree-of-parallelism cap: MaxDOP < 0 disables
// parallelism, 0 means automatic (GOMAXPROCS capped at maxAutoDOP), and a
// positive value forces that cap regardless of core count (benchmarks force
// DOP on small machines with it).
func (c *compiler) dop() int {
	switch {
	case c.opt.MaxDOP < 0:
		return 1
	case c.opt.MaxDOP > 0:
		return c.opt.MaxDOP
	}
	n := runtime.GOMAXPROCS(0)
	if n > maxAutoDOP {
		n = maxAutoDOP
	}
	return n
}

// dopFor scales the worker count to the driving cardinality: a scan barely
// over the threshold gets two workers, not the whole machine.
func dopFor(est float64, cap int) int {
	n := int(est/parallelRowThreshold) + 1
	if n < cap {
		return n
	}
	return cap
}

// parallelize rewrites the compiled plan for intra-query parallelism.
// Everything above an inserted Gather — Sort, Limit, Distinct, residual
// EXISTS filters, the XNF machinery — remains a serial NextBatch consumer.
func (c *compiler) parallelize(p exec.Plan) exec.Plan {
	dop := c.dop()
	if dop < 2 {
		return p
	}
	return parallelizeNode(p, dop)
}

func parallelizeNode(p exec.Plan, dop int) exec.Plan {
	switch n := p.(type) {
	case *exec.GroupAgg:
		if est, ok := pipelineEst(n.Child); ok && est >= parallelRowThreshold && cloneable(n.Child) {
			n.Child = morselize(n.Child, dop)
			n.DOP = dopFor(est, dop)
			return n
		}
		n.Child = parallelizeNode(n.Child, dop)
		return n
	case *exec.Filter, *exec.Project, *exec.HashJoin:
		if est, ok := pipelineEst(p); ok && est >= parallelRowThreshold && cloneable(p) {
			return exec.NewGather(morselize(p, dop), dopFor(est, dop))
		}
		switch x := p.(type) {
		case *exec.Filter:
			x.Child = parallelizeNode(x.Child, dop)
		case *exec.Project:
			x.Child = parallelizeNode(x.Child, dop)
		case *exec.HashJoin:
			x.Left = parallelizeNode(x.Left, dop)
			x.Right = parallelizeNode(x.Right, dop)
		}
		return p
	case *exec.Sort:
		n.Child = parallelizeNode(n.Child, dop)
		return n
	case *exec.Limit:
		n.Child = parallelizeNode(n.Child, dop)
		return n
	case *exec.Distinct:
		n.Child = parallelizeNode(n.Child, dop)
		return n
	case *exec.NLJoin:
		n.Left = parallelizeNode(n.Left, dop)
		n.Right = parallelizeNode(n.Right, dop)
		return n
	case *exec.IndexJoin:
		n.Left = parallelizeNode(n.Left, dop)
		return n
	default:
		return p
	}
}

// cloneable reports whether a pipeline can serve as a worker template —
// workers are structural clones, so every node (including EXISTS subplans in
// predicates) must be cloneable. Checked before morselizing: the morselized
// shape has identical cloneability, but an uncloneable plan must stay serial
// and un-morselized.
func cloneable(p exec.Plan) bool {
	_, ok := exec.ClonePlan(p)
	return ok
}

// pipelineEst reports whether p is a parallelizable pipeline — a chain of
// Filter/Project operators over a SeqScan, possibly threading through the
// probe (left) side of hash joins — and the driving scan's estimated rows.
// The estimate decides both whether to parallelize and how many workers.
func pipelineEst(p exec.Plan) (float64, bool) {
	switch n := p.(type) {
	case *exec.SeqScan:
		est := n.EstRows
		if est <= 0 {
			est = float64(n.Table.RowCount())
		}
		return est, true
	case *exec.Filter:
		return pipelineEst(n.Child)
	case *exec.Project:
		return pipelineEst(n.Child)
	case *exec.HashJoin:
		// The probe side must be pipeline-shaped (it hosts the workers'
		// morsel leaf), but either side's cardinality justifies going
		// parallel: the greedy join order seeds with the smallest input, so
		// the expensive side of a join is usually the build — which the
		// sharedBuild splits across the same workers.
		lest, ok := pipelineEst(n.Left)
		if !ok {
			return 0, false
		}
		if best, bok := buildPipelineEst(n.Right); bok && best > lest {
			return best, true
		}
		return lest, true
	}
	return 0, false
}

// morselize converts a verified pipeline into a worker template: the driving
// SeqScan becomes a MorselScan (workers share its dispatcher), and each hash
// join on the spine is marked for a shared parallel build. A build side that
// is itself a big scan pipeline is morselized too, so the build phase splits
// across workers; small or non-pipeline build sides stay serial inside the
// shared build.
func morselize(p exec.Plan, dop int) exec.Plan {
	switch n := p.(type) {
	case *exec.SeqScan:
		return morselScan(n)
	case *exec.Filter:
		n.Child = morselize(n.Child, dop)
		return n
	case *exec.Project:
		n.Child = morselize(n.Child, dop)
		return n
	case *exec.HashJoin:
		n.Left = morselize(n.Left, dop)
		n.Shared = true
		if est, ok := buildPipelineEst(n.Right); ok && est >= parallelRowThreshold {
			n.Right = morselizeBuild(n.Right)
		}
		return n
	}
	return p
}

// morselScan is the parallel leaf standing in for a serial scan.
func morselScan(n *exec.SeqScan) *exec.MorselScan {
	return &exec.MorselScan{Table: n.Table, EstRows: n.EstRows, Cols: n.Cols, WithRID: n.WithRID}
}

// buildPipelineEst is pipelineEst restricted to plain chains over a SeqScan
// — build sides do not nest further joins into the parallel build.
func buildPipelineEst(p exec.Plan) (float64, bool) {
	switch n := p.(type) {
	case *exec.SeqScan:
		est := n.EstRows
		if est <= 0 {
			est = float64(n.Table.RowCount())
		}
		return est, true
	case *exec.Filter:
		return buildPipelineEst(n.Child)
	case *exec.Project:
		return buildPipelineEst(n.Child)
	}
	return 0, false
}

func morselizeBuild(p exec.Plan) exec.Plan {
	switch n := p.(type) {
	case *exec.SeqScan:
		return morselScan(n)
	case *exec.Filter:
		n.Child = morselizeBuild(n.Child)
		return n
	case *exec.Project:
		n.Child = morselizeBuild(n.Child)
		return n
	}
	return p
}

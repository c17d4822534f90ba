package xnf

import (
	"testing"

	"sqlxnf/internal/qgm"
	"sqlxnf/internal/storage"
	"sqlxnf/internal/types"
)

func mkNode(name string, root bool, n int) *NodeInstance {
	ni := &NodeInstance{
		Name:   name,
		Schema: types.Schema{{Name: "id", Kind: types.KindInt}},
		Root:   root,
	}
	for i := 0; i < n; i++ {
		ni.Rows = append(ni.Rows, types.Row{types.NewInt(int64(i))})
		ni.RIDs = append(ni.RIDs, storage.NilRID)
	}
	return ni
}

func TestCOValidateWellFormedness(t *testing.T) {
	co := &CO{
		Nodes: []*NodeInstance{mkNode("A", true, 2), mkNode("B", false, 2)},
		Edges: []*EdgeInstance{{Name: "ab", Parent: "A", Child: "B",
			Conns: []Conn{{P: 0, C: 1}}}},
	}
	if err := co.Validate(); err != nil {
		t.Fatal(err)
	}
	// Dangling parent index.
	co.Edges[0].Conns = []Conn{{P: 9, C: 0}}
	if err := co.Validate(); err == nil {
		t.Error("dangling parent index should fail validation")
	}
	// Missing partner table.
	co2 := &CO{
		Nodes: []*NodeInstance{mkNode("A", true, 1)},
		Edges: []*EdgeInstance{{Name: "ab", Parent: "A", Child: "MISSING"}},
	}
	if err := co2.Validate(); err == nil {
		t.Error("missing partner table should fail validation (well-formedness)")
	}
}

func TestCOCheckReachability(t *testing.T) {
	// A(root) -> B, where B[1] has no incoming connection: violation.
	co := &CO{
		Nodes: []*NodeInstance{mkNode("A", true, 1), mkNode("B", false, 2)},
		Edges: []*EdgeInstance{{Name: "ab", Parent: "A", Child: "B",
			Conns: []Conn{{P: 0, C: 0}}}},
	}
	if err := co.CheckReachability(); err == nil {
		t.Error("unreachable B[1] should violate the constraint")
	}
	co.Edges[0].Conns = append(co.Edges[0].Conns, Conn{P: 0, C: 1})
	if err := co.CheckReachability(); err != nil {
		t.Errorf("all connected: %v", err)
	}
	// Transitive reachability through a chain.
	co3 := &CO{
		Nodes: []*NodeInstance{mkNode("A", true, 1), mkNode("B", false, 1), mkNode("C", false, 1)},
		Edges: []*EdgeInstance{
			{Name: "ab", Parent: "A", Child: "B", Conns: []Conn{{P: 0, C: 0}}},
			{Name: "bc", Parent: "B", Child: "C", Conns: []Conn{{P: 0, C: 0}}},
		},
	}
	if err := co3.CheckReachability(); err != nil {
		t.Errorf("chain reachability: %v", err)
	}
}

func TestCOAccessors(t *testing.T) {
	co := &CO{
		Nodes: []*NodeInstance{mkNode("A", true, 3), mkNode("B", false, 2)},
		Edges: []*EdgeInstance{{Name: "ab", Parent: "A", Child: "B",
			Conns: []Conn{{P: 0, C: 0}, {P: 1, C: 1}}}},
	}
	if co.Node("a") == nil || co.Node("A") == nil {
		t.Error("case-insensitive node lookup")
	}
	if co.Edge("AB") == nil {
		t.Error("case-insensitive edge lookup")
	}
	if co.Node("zzz") != nil || co.Edge("zzz") != nil {
		t.Error("missing lookups should be nil")
	}
	if co.Size() != 5 || co.ConnCount() != 2 {
		t.Errorf("Size=%d ConnCount=%d", co.Size(), co.ConnCount())
	}
	if s := co.String(); s == "" {
		t.Error("empty String()")
	}
}

func specWith(nodes []string, edges [][2]string) *qgm.XNFSpec {
	spec := &qgm.XNFSpec{}
	for _, n := range nodes {
		spec.Nodes = append(spec.Nodes, &qgm.XNFNode{Name: n})
	}
	for _, e := range edges {
		spec.Edges = append(spec.Edges, &qgm.XNFEdge{Name: e[0] + e[1], Parent: e[0], Child: e[1]})
	}
	return spec
}

// TestSpecAcyclic: topoNodes is the evaluator's acyclicity test; it orders
// a DAG and fails on a cycle or a self edge.
func TestSpecAcyclic(t *testing.T) {
	specAcyclic := func(spec *qgm.XNFSpec) bool {
		_, err := topoNodes(spec)
		return err == nil
	}
	if !specAcyclic(specWith([]string{"A", "B", "C"}, [][2]string{{"A", "B"}, {"B", "C"}})) {
		t.Error("chain should be acyclic")
	}
	if specAcyclic(specWith([]string{"A", "B"}, [][2]string{{"A", "B"}, {"B", "A"}})) {
		t.Error("2-cycle should be cyclic")
	}
	if specAcyclic(specWith([]string{"A"}, [][2]string{{"A", "A"}})) {
		t.Error("self edge should be cyclic")
	}
	// Diamond (shared node) is acyclic.
	if !specAcyclic(specWith([]string{"A", "B", "C", "D"},
		[][2]string{{"A", "B"}, {"A", "C"}, {"B", "D"}, {"C", "D"}})) {
		t.Error("diamond should be acyclic")
	}
}

func TestTopoNodes(t *testing.T) {
	spec := specWith([]string{"C", "A", "B"}, [][2]string{{"A", "B"}, {"B", "C"}})
	order, err := topoNodes(spec)
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n.Name] = i
	}
	if !(pos["A"] < pos["B"] && pos["B"] < pos["C"]) {
		t.Errorf("order = %v", pos)
	}
	if _, err := topoNodes(specWith([]string{"A", "B"}, [][2]string{{"A", "B"}, {"B", "A"}})); err == nil {
		t.Error("cycle should fail topo sort")
	}
}

func TestFlattenSpec(t *testing.T) {
	inner := specWith([]string{"A", "B"}, [][2]string{{"A", "B"}})
	inner.Take = qgm.XNFTakeSpec{All: true}
	outer := &qgm.XNFSpec{
		Bases: []*qgm.XNFSpec{inner},
		Nodes: []*qgm.XNFNode{{Name: "C"}},
		Edges: []*qgm.XNFEdge{{Name: "bc", Parent: "B", Child: "C"}},
		Take:  qgm.XNFTakeSpec{All: true},
	}
	flat := flattenSpec(outer)
	if len(flat.Bases) != 0 || len(flat.Nodes) != 3 || len(flat.Edges) != 2 {
		t.Errorf("flatten: bases=%d nodes=%d edges=%d", len(flat.Bases), len(flat.Nodes), len(flat.Edges))
	}
	// A restricted base cannot merge.
	inner2 := specWith([]string{"A"}, nil)
	inner2.Take = qgm.XNFTakeSpec{All: true}
	inner2.Restrictions = []qgm.XNFRestrictionSpec{{Target: "A"}}
	outer2 := &qgm.XNFSpec{Bases: []*qgm.XNFSpec{inner2}, Take: qgm.XNFTakeSpec{All: true}}
	flat2 := flattenSpec(outer2)
	if len(flat2.Bases) != 1 {
		t.Error("restricted base must stay hierarchical")
	}
	// A base with structural projection merges only kept components.
	inner3 := specWith([]string{"A", "B"}, [][2]string{{"A", "B"}})
	inner3.Take = qgm.XNFTakeSpec{Items: []qgm.XNFTakeItem{{Name: "A", AllCols: true}}}
	outer3 := &qgm.XNFSpec{Bases: []*qgm.XNFSpec{inner3}, Take: qgm.XNFTakeSpec{All: true}}
	flat3 := flattenSpec(outer3)
	if len(flat3.Nodes) != 1 || flat3.Nodes[0].Name != "A" || len(flat3.Edges) != 0 {
		t.Errorf("projected flatten: %+v", flat3)
	}
}

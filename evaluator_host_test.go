package sqlxnf

import (
	"testing"

	"sqlxnf/internal/engine"
	"sqlxnf/internal/parser"
	"sqlxnf/internal/qgm"
	"sqlxnf/internal/storage"
	"sqlxnf/internal/types"
	"sqlxnf/internal/workload"
	"sqlxnf/internal/xnf"
)

// recordingHost runs the XNF evaluator's boxes on an engine session and
// counts those that read a Values box with rows: a node table copied into
// a query.
type recordingHost struct {
	*engine.Session
	valuesBoxes int
}

func (h *recordingHost) RunBox(box *qgm.Box) ([]types.Row, []storage.RID, error) {
	if readsValueRows(box) {
		h.valuesBoxes++
	}
	return h.Session.RunBox(box)
}

func readsValueRows(box *qgm.Box) bool {
	if box.Kind == qgm.KindValues && len(box.ValueRows) > 0 {
		return true
	}
	for _, q := range box.Quants {
		if readsValueRows(q.Input) {
			return true
		}
	}
	for _, in := range box.Inputs {
		if readsValueRows(in) {
			return true
		}
	}
	return false
}

// usingEdges counts the relationships with a USING clause on every level
// of spec.
func usingEdges(spec *qgm.XNFSpec) int64 {
	var n int64
	for _, e := range spec.Edges {
		if len(e.Using) > 0 {
			n++
		}
	}
	for _, b := range spec.Bases {
		n += usingEdges(b)
	}
	return n
}

// TestEvaluatorQueriesNodesAndUsingTablesOnly: the evaluator finds a
// relationship's connections from the node tuples it already derived, so
// the only host queries of the E3, E5, E6 and E13 TAKEs are node
// derivations and one USING query per relationship with USING; no query
// reads a node table copied into a Values box. Both E13 arms run, with and
// without shared subexpressions.
func TestEvaluatorQueriesNodesAndUsingTablesOnly(t *testing.T) {
	cfg := benchCompanyConfig()
	for _, noShare := range []bool{false, true} {
		db := companyDB(t, cfg)
		companyViews(t, db)
		for _, q := range []string{
			"OUT OF ALL_DEPS_ORG TAKE *", // E3
			`OUT OF EXT_ALL_DEPS_ORG WHERE Xdept SUCH THAT loc = 'NY'
				TAKE Xdept(*), employment, Xemp(*), projmanagement, membership(*), Xproj(*)`, // E5
			`OUT OF EXT_ALL_DEPS_ORG WHERE Xdept d SUCH THAT COUNT(d->employment->projmanagement) >= 1 TAKE *`, // E6
			`OUT OF EXT_ALL_DEPS_ORG WHERE Xdept d SUCH THAT
				EXISTS d->employment->(Xemp e WHERE e.sal > 2000)->projmanagement->Xproj TAKE *`, // E6
			workload.CompanyCOQuery(cfg, 11), // E13
		} {
			st, err := parser.ParseOne(q)
			if err != nil {
				t.Fatal(err)
			}
			box, err := qgm.NewBuilder(db.Engine().Catalog(), nil).BuildXNF(st.(*parser.XNFQuery))
			if err != nil {
				t.Fatal(err)
			}
			h := &recordingHost{Session: db.Session()}
			ev := xnf.NewEvaluator(h, xnf.Options{NoSharedSubexpressions: noShare})
			if _, err := ev.Evaluate(box.XNF); err != nil {
				t.Fatal(err)
			}
			if h.valuesBoxes != 0 {
				t.Errorf("NoSharedSubexpressions=%v: %d queries read a Values box with rows\n%s", noShare, h.valuesBoxes, q)
			}
			if got, want := ev.Stats.EdgeQueries, usingEdges(box.XNF); got != want {
				t.Errorf("NoSharedSubexpressions=%v: %d edge queries, want %d (one per relationship with USING)\n%s", noShare, got, want, q)
			}
		}
	}
}

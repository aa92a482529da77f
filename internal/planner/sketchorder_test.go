package planner_test

import (
	"math"
	"slices"
	"testing"

	"github.com/tasterdb/taster/internal/exec"
	"github.com/tasterdb/taster/internal/meta"
	"github.com/tasterdb/taster/internal/planner"
	"github.com/tasterdb/taster/internal/sqlparser"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/warehouse"
	"github.com/tasterdb/taster/internal/workload"
)

// TestSketchJoinProbeSideJoinsInAnyOrder: a sketch-join's probe side joins
// its tables in the query's order as far as that order joins, so a text
// whose next written table joins only a later one still gets the candidate,
// exactly as the text with those joins written the other way round does,
// and it answers what the exact plan answers. The store interns a
// sketch-join descriptor only for a plan set that has a candidate building
// it: no entry is left that nothing can build.
func TestSketchJoinProbeSideJoinsInAnyOrder(t *testing.T) {
	w := workload.TPCH(0.002, 3)
	const head = "SELECT SUM(l_extendedprice) FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
	const tail = " ERROR WITHIN 10% AT CONFIDENCE 95%"
	for _, text := range []string{
		head + "JOIN supplier ON l_suppkey = s_suppkey JOIN customer ON o_custkey = c_custkey AND c_nationkey = s_nationkey" + tail,
		head + "JOIN customer ON o_custkey = c_custkey JOIN supplier ON l_suppkey = s_suppkey AND c_nationkey = s_nationkey" + tail,
	} {
		q, err := sqlparser.Parse(text, w.Catalog)
		if err != nil {
			t.Fatalf("%v\nSQL: %s", err, text)
		}
		store := meta.NewStore(nil)
		wh := warehouse.NewManager(1<<30, 1<<30, nil)
		ps, err := planner.New(store, wh, storage.DefaultCostModel()).PlanWith(q, wh.View())
		if err != nil {
			t.Fatalf("%v\nSQL: %s", err, text)
		}
		var descs []string
		built := map[uint64]bool{}
		for _, c := range ps.Candidates {
			descs = append(descs, c.Desc)
			for _, cs := range c.Creates {
				built[cs.Entry.Desc.ID] = true
			}
		}
		if i := slices.Index(descs, "build sketch-join on lineitem"); i < 0 {
			t.Errorf("no sketch-join candidate: %v\nSQL: %s", descs, text)
		} else if got, want := answer(t, ps.Candidates[i]), answer(t, ps.Exact); math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Errorf("the sketch-join answers %v, the exact plan %v\nSQL: %s", got, want, text)
		}
		for _, e := range store.Entries() {
			if !built[e.Desc.ID] {
				t.Errorf("store entry #%d (%s on %s) has no candidate building it: %v\nSQL: %s", e.Desc.ID, e.Desc.Kind, e.Desc.Table, descs, text)
			}
		}
	}
}

// answer runs a candidate of a one-cell query and returns its cell.
func answer(t *testing.T, c planner.Candidate) float64 {
	t.Helper()
	op, err := exec.Compile(c.Root, 1, exec.NewContext(0.95))
	if err != nil {
		t.Fatalf("%s: %v", c.Desc, err)
	}
	out, err := exec.Run(op)
	if err != nil {
		t.Fatalf("%s: %v", c.Desc, err)
	}
	return out.Vecs[0].F64[0]
}

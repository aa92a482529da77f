package planner

import (
	"testing"

	"github.com/tasterdb/taster/internal/exec"
	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/obs"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
)

// TestFilteredBranchChargeMatchesExecBuild: the planner prices a filtered
// join branch at exactly the base bytes and scanned tuples the executor's
// build side charges for the same σ(table). The dimension is four
// partitions clustered on its id, so its filter prunes two of them, keeps
// one whole and one in part.
func TestFilteredBranchChargeMatchesExecBuild(t *testing.T) {
	b := storage.NewBuilder("products", storage.Schema{
		{Name: "products.id", Typ: storage.Int64},
		{Name: "products.category", Typ: storage.Int64},
	})
	for i := 0; i < 400; i++ {
		b.Int(0, int64(i))
		b.Int(1, int64(i%5))
	}
	sales, products := salesTable(), b.Build(4)
	q := &Query{
		Tables: []TableRef{{Name: "sales", Table: sales}, {Name: "products", Table: products}},
		Joins: []JoinPred{{
			LeftTable: "sales", LeftCol: "sales.product",
			RightTable: "products", RightCol: "products.id",
		}},
		Filter: expr.Pred{expr.Compare("products.id", expr.LT, storage.IntValue(150))},
		Aggs:   []plan.AggSpec{{Kind: stats.Count}},
	}
	p, _, _ := testPlanner()
	jo, err := newJoinOrder(q)
	if err != nil {
		t.Fatal(err)
	}
	// Priced as the exact plan is: the fact leaf on the spine, then the one
	// walk that builds and charges the join.
	var cost planCost
	fact := jo.branches[0]
	fact.charge(&cost, false)
	root, _ := joinOn(fact.node, fact.est, jo.dims, &cost)
	build := root.(*plan.Join).Right.(*plan.Filter).Child.(*plan.Scan)
	ctx := exec.NewContext(0.95)
	ctx.TraceNodes = map[plan.Node]*obs.TraceNode{}
	op, err := exec.Compile(p.finishPlan(q, root), 1, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Run(op); err != nil {
		t.Fatal(err)
	}

	// The fact table has no filter: both sides charge all of it.
	planned, charged := cost.baseBytes-sales.Bytes(), ctx.Stats.BaseBytes-sales.Bytes()
	if planned != charged {
		t.Fatalf("planner charges the filtered branch %d bytes, the build side %d", planned, charged)
	}
	if half := products.PartitionBytes(0) + products.PartitionBytes(1); charged != half {
		t.Fatalf("build side charged %d bytes, want the two unpruned partitions' %d", charged, half)
	}
	// The branch's rows are what its filter is charged for, serially.
	if scanned := ctx.TraceNodes[build].PhysRows; cost.serialVecTuples != scanned || scanned != 200 {
		t.Fatalf("planner charges the filtered branch %d rows, the build side scanned %d, want 200", cost.serialVecTuples, scanned)
	}
}

package exec_test

// Grouping through a join: an aggregate whose GROUP BY columns all live on
// one join's build side, read by nothing else on the spine, folds by the
// build table's group ids, which that join emits in place of the columns'
// values. Every shape that decides it, either way, against the oracle.

import (
	"fmt"
	"testing"

	"github.com/tasterdb/taster/internal/exec"
	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/workload"
)

// idJoins lists, bottom-up, which spine joins of a compiled plan carry the
// group id column.
func idJoins(t *testing.T, root plan.Node) []bool {
	t.Helper()
	op, err := exec.Compile(root, 7, exec.NewContext(0.95))
	if err != nil {
		t.Fatal(err)
	}
	var carry []bool
	for _, s := range exec.JoinSchemas(op) {
		carry = append(carry, s.Index(exec.GroupIDCol) >= 0)
	}
	return carry
}

// TestGroupThroughMeetsTheOracle: each shape lowers as its name says — the
// joins carrying the group id, bottom-up — and meets the oracle at workers
// 1 / 4 / 8, answers and charges.
func TestGroupThroughMeetsTheOracle(t *testing.T) {
	cat := workload.TPCH(0.002, 5).Catalog
	scan := func(name string) plan.Node {
		tb, err := cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		return &plan.Scan{Table: tb}
	}
	join := func(l, r plan.Node, lk, rk string) plan.Node {
		return &plan.Join{Left: l, Right: r, LeftKeys: []string{lk}, RightKeys: []string{rk}}
	}
	where := func(child plan.Node, terms ...expr.Term) plan.Node { return &plan.Filter{Child: child, Pred: terms} }
	agg := func(child plan.Node, groupBy []string, aggs ...plan.AggSpec) plan.Node {
		return &plan.Aggregate{Child: child, GroupBy: groupBy, Aggs: aggs}
	}
	count := plan.AggSpec{Kind: stats.Count}
	sum := func(c string) plan.AggSpec { return plan.AggSpec{Kind: stats.Sum, Col: c} }
	avg := func(c string) plan.AggSpec { return plan.AggSpec{Kind: stats.Avg, Col: c} }
	by := func(cols ...string) []string { return cols }

	lineSuppNation := join(join(scan("lineitem"), scan("supplier"), "lineitem.l_suppkey", "supplier.s_suppkey"), scan("nation"), "supplier.s_nationkey", "nation.n_nationkey")
	lineOrders := join(scan("lineitem"), scan("orders"), "lineitem.l_orderkey", "orders.o_orderkey")
	lineOrdersPart := join(lineOrders, scan("part"), "lineitem.l_partkey", "part.p_partkey")
	for _, c := range []struct {
		name  string
		root  plan.Node
		carry []bool
	}{
		{"eligible at the last hop (q7)",
			agg(lineSuppNation, by("nation.n_name"), sum("lineitem.l_extendedprice"), count), []bool{false, true}},
		{"eligible at a middle hop, the id carried through the next (q8)",
			agg(lineOrdersPart, by("orders.o_orderpriority"), avg("lineitem.l_extendedprice")), []bool{true, true}},
		{"two group columns of one build side",
			agg(lineSuppNation, by("nation.n_regionkey", "nation.n_name"), count, avg("supplier.s_acctbal")), []bool{false, true}},
		{"grouped by the join's own build key",
			agg(lineSuppNation, by("nation.n_nationkey"), sum("lineitem.l_quantity")), []bool{false, true}},
		{"a filter above the join reads another build column",
			agg(where(lineOrders, expr.Compare("orders.o_totalprice", expr.GT, storage.FloatValue(100000))), by("orders.o_orderpriority"), count), []bool{true}},
		{"fanout: a build key with many rows",
			agg(join(scan("part"), scan("partsupp"), "part.p_partkey", "partsupp.ps_partkey"), by("partsupp.ps_suppkey"), sum("part.p_retailprice"), count), []bool{true}},
		{"an empty build",
			agg(join(scan("lineitem"), where(scan("orders"), expr.Compare("orders.o_orderkey", expr.LT, storage.IntValue(-1))), "lineitem.l_orderkey", "orders.o_orderkey"),
				by("orders.o_orderpriority"), count), []bool{true}},
		{"an empty build below the one grouped through",
			agg(join(join(scan("lineitem"), where(scan("part"), expr.Compare("part.p_size", expr.LT, storage.IntValue(0))), "lineitem.l_partkey", "part.p_partkey"),
				scan("orders"), "lineitem.l_orderkey", "orders.o_orderkey"), by("orders.o_orderpriority"), count), []bool{false, true}},
		{"ineligible: a group column is a later join's key",
			agg(join(lineOrders, scan("customer"), "orders.o_custkey", "customer.c_custkey"), by("orders.o_custkey"), count), []bool{false, false}},
		{"ineligible: a filter above the join reads a group column",
			agg(where(lineOrders, expr.Compare("orders.o_orderpriority", expr.NE, storage.StringValue("5-LOW"))), by("orders.o_orderpriority"), count), []bool{false}},
		{"ineligible: a group column is also an aggregate column",
			agg(lineOrders, by("orders.o_orderdate"), sum("orders.o_orderdate"), count), []bool{false}},
		{"ineligible: the groups span the fact table and a dimension",
			agg(lineOrders, by("lineitem.l_returnflag", "orders.o_orderpriority"), sum("lineitem.l_quantity")), []bool{false}},
		{"ineligible: the groups span two dimensions",
			agg(lineOrdersPart, by("orders.o_orderpriority", "part.p_brand"), count), []bool{false, false}},
		{"ineligible: grouped by a fact column",
			agg(lineOrders, by("lineitem.l_shipmode"), count), []bool{false}},
	} {
		if got := idJoins(t, c.root); fmt.Sprint(got) != fmt.Sprint(c.carry) {
			t.Fatalf("%s: joins carrying the group id %v, want %v\n%s", c.name, got, c.carry, plan.Format(c.root))
		}
		mustMatchOraclePlan(t, c.name, c.root)
	}
}

// TestGroupThroughSampled: over a sampled leaf the joined rows carry weights,
// and grouping through the join folds them into the same accumulators in
// the same order as grouping by the gathered values — which a filter above
// the join that reads the group column and keeps every row forces — so the
// answers and intervals are bit-equal, at workers 1 / 4 / 8.
func TestGroupThroughSampled(t *testing.T) {
	cat := workload.TPCH(0.01, 5).Catalog
	tbl := func(name string) *storage.Table {
		tb, err := cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	sampled := &plan.SynopsisOp{Child: &plan.Scan{Table: tbl("lineitem")}, Kind: plan.UniformSample, P: 0.1, Accuracy: stats.DefaultAccuracy}
	spine := &plan.Join{
		Left:  &plan.Join{Left: sampled, Right: &plan.Scan{Table: tbl("supplier")}, LeftKeys: []string{"lineitem.l_suppkey"}, RightKeys: []string{"supplier.s_suppkey"}},
		Right: &plan.Scan{Table: tbl("nation")}, LeftKeys: []string{"supplier.s_nationkey"}, RightKeys: []string{"nation.n_nationkey"},
	}
	aggs := []plan.AggSpec{{Kind: stats.Sum, Col: "lineitem.l_extendedprice"}, {Kind: stats.Avg, Col: "lineitem.l_quantity"}, {Kind: stats.Count}}
	through := &plan.Aggregate{Child: spine, GroupBy: []string{"nation.n_name"}, Aggs: aggs}
	gathered := &plan.Aggregate{
		Child:   &plan.Filter{Child: spine, Pred: expr.Pred{expr.Compare("nation.n_name", expr.NE, storage.StringValue("no such nation"))}},
		GroupBy: []string{"nation.n_name"}, Aggs: aggs,
	}
	if got := idJoins(t, through); fmt.Sprint(got) != "[false true]" {
		t.Fatalf("the sampled spine carries the group id at %v, want [false true]", got)
	}
	if got := idJoins(t, gathered); fmt.Sprint(got) != "[false false]" {
		t.Fatalf("the filtered spine carries the group id at %v, want none", got)
	}
	for _, workers := range []int{1, 4, 8} {
		_, want := engineRun(t, gathered, workerCtx(workers, 0))
		out, got := engineRun(t, through, workerCtx(workers, 0))
		if got != want {
			t.Fatalf("workers=%d: grouped through the join\n%s\ngrouped by the gathered values\n%s", workers, got, want)
		}
		if out[0].Len() == 0 {
			t.Fatalf("workers=%d: vacuous: no group", workers)
		}
	}
}

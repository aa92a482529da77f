package exec_test

// Grouping by a version's numbering: an aggregate whose GROUP BY columns all
// belong to one spine table — the leaf, or one join's build side — folds by
// that table version's group ids (storage.Table.GroupIDs), which the table
// adds to the spine as one more column. Every shape that decides it, either
// way, against the oracle; every weighted shape against the value-keyed
// lowering of the same plan.

import (
	"fmt"
	"testing"

	"github.com/tasterdb/taster/internal/exec"
	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/persist"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
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

// leafNumbered reports whether a plan's leaf scan carries the group id
// column: whether its aggregate folds by the leaf's numbering.
func leafNumbered(t *testing.T, root plan.Node) bool {
	t.Helper()
	op, err := exec.Compile(root, 7, exec.NewContext(0.95))
	if err != nil {
		t.Fatal(err)
	}
	return exec.LeafSchema(op).Index(exec.GroupIDCol) >= 0
}

// TestGroupThroughMeetsTheOracle: each shape lowers as its name says — the
// joins carrying the group id, bottom-up — and meets the oracle at workers
// 1 / 4 / 8, answers and charges. A group column something else on the spine
// reads is carried beside the id. The sketch-join shapes — grouped by the
// probe leaf, by a probe-side join's build side, across two probe tables, by
// a leaf the rule turns down, and not at all over an empty join — meet the
// oracle's Join+Aggregate with the payload built inline and again reused.
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
		{"a build side, the last hop (q7)",
			agg(lineSuppNation, by("nation.n_name"), sum("lineitem.l_extendedprice"), count), []bool{false, true}},
		{"a build side at a middle hop, the id carried through the next (q8)",
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
		{"an empty build below the one numbering the groups",
			agg(join(join(scan("lineitem"), where(scan("part"), expr.Compare("part.p_size", expr.LT, storage.IntValue(0))), "lineitem.l_partkey", "part.p_partkey"),
				scan("orders"), "lineitem.l_orderkey", "orders.o_orderkey"), by("orders.o_orderpriority"), count), []bool{false, true}},
		{"a group column a later join's key also reads",
			agg(join(lineOrders, scan("customer"), "orders.o_custkey", "customer.c_custkey"), by("orders.o_custkey"), count), []bool{true, true}},
		{"a group column a filter above the join also reads",
			agg(where(lineOrders, expr.Compare("orders.o_orderpriority", expr.NE, storage.StringValue("5-LOW"))), by("orders.o_orderpriority"), count), []bool{true}},
		{"a group column an aggregate also reads",
			agg(lineOrders, by("orders.o_orderdate"), sum("orders.o_orderdate"), count), []bool{true}},
		{"a fact column: the leaf numbers the groups",
			agg(lineOrders, by("lineitem.l_shipmode"), count), []bool{true}},
		{"value-keyed: the groups span the fact table and a dimension",
			agg(lineOrders, by("lineitem.l_returnflag", "orders.o_orderpriority"), sum("lineitem.l_quantity")), []bool{false}},
		{"value-keyed: the groups span two dimensions",
			agg(lineOrdersPart, by("orders.o_orderpriority", "part.p_brand"), count), []bool{false, false}},
	} {
		if got := idJoins(t, c.root); fmt.Sprint(got) != fmt.Sprint(c.carry) {
			t.Fatalf("%s: joins carrying the group id %v, want %v\n%s", c.name, got, c.carry, plan.Format(c.root))
		}
		mustMatchOraclePlan(t, c.name, c.root)
	}

	// The sketch sink groups the probe side through the same lowering: a
	// probe-spine table's numbering, or value-keyed. q11 needs a supplier
	// table with 16 rows a nation or more for its leaf to be numbered; the
	// small catalog's 20 suppliers are the leaf the rule turns down.
	big := workload.TPCH(0.05, 5).Catalog
	bigScan := func(name string) plan.Node {
		tb, err := big.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		return &plan.Scan{Table: tb}
	}
	sketch := func(probe plan.Node, probeKey string, build plan.Node, buildKey, aggCol string, groupBy []string, aggs ...plan.AggSpec) *plan.SketchJoin {
		return &plan.SketchJoin{Probe: probe, ProbeKeys: []string{probeKey}, Build: build, BuildKeys: []string{buildKey},
			AggCol: aggCol, GroupBy: groupBy, Aggs: aggs}
	}
	shipped := where(scan("lineitem"), expr.Compare("lineitem.l_shipdate", expr.GE, storage.IntValue(1200)))
	cheap := func(ps plan.Node) plan.Node {
		return where(ps, expr.Compare("partsupp.ps_availqty", expr.LT, storage.IntValue(6000)))
	}
	suppNation := join(scan("supplier"), scan("nation"), "supplier.s_nationkey", "nation.n_nationkey")
	for _, c := range []struct {
		name  string
		root  *plan.SketchJoin
		leaf  bool
		carry []bool
	}{
		{"sketch: the probe leaf numbers the groups (q14)",
			sketch(scan("part"), "part.p_partkey", shipped, "lineitem.l_partkey", "lineitem.l_extendedprice", by("part.p_brand"),
				sum("lineitem.l_extendedprice"), count, avg("part.p_retailprice")), true, nil},
		{"sketch: the probe leaf numbers the groups (q11)",
			sketch(bigScan("supplier"), "supplier.s_suppkey", cheap(bigScan("partsupp")),
				"partsupp.ps_suppkey", "partsupp.ps_supplycost", by("supplier.s_nationkey"), sum("partsupp.ps_supplycost"), count), true, nil},
		{"sketch: a probe-side join's build side numbers the groups (q7)",
			sketch(suppNation, "supplier.s_suppkey", shipped, "lineitem.l_suppkey", "lineitem.l_extendedprice", by("nation.n_name"),
				sum("lineitem.l_extendedprice"), avg("supplier.s_acctbal")), false, []bool{true}},
		{"sketch, value-keyed: the groups span two probe tables",
			sketch(suppNation, "supplier.s_suppkey", shipped, "lineitem.l_suppkey", "lineitem.l_extendedprice", by("nation.n_regionkey", "supplier.s_nationkey"),
				sum("lineitem.l_extendedprice"), count), false, []bool{false}},
		{"sketch, value-keyed: a probe leaf under 16 rows a group",
			sketch(scan("supplier"), "supplier.s_suppkey", cheap(scan("partsupp")), "partsupp.ps_suppkey", "partsupp.ps_supplycost", by("supplier.s_nationkey"),
				sum("partsupp.ps_supplycost"), count), false, nil},
		{"sketch: a global aggregate over an empty join",
			sketch(where(scan("part"), expr.Compare("part.p_size", expr.LT, storage.IntValue(0))), "part.p_partkey", shipped, "lineitem.l_partkey", "lineitem.l_extendedprice", nil,
				sum("lineitem.l_extendedprice"), count, avg("lineitem.l_extendedprice")), false, nil},
	} {
		if got := leafNumbered(t, c.root); got != c.leaf {
			t.Fatalf("%s: the leaf carries the group id: %t, want %t\n%s", c.name, got, c.leaf, plan.Format(c.root))
		}
		if got := idJoins(t, c.root); fmt.Sprint(got) != fmt.Sprint(c.carry) {
			t.Fatalf("%s: joins carrying the group id %v, want %v\n%s", c.name, got, c.carry, plan.Format(c.root))
		}
		mustSketchMeetOracle(t, c.name, c.root)
	}
}

// TestGroupByLeafMeetsTheOracle: GROUP BY columns of the leaf fold by the
// leaf's numbering, the scan slicing each batch's ids from its table rows —
// through zone pruning that skips partitions, beside a filter, an aggregate
// or a join key that reads a group column, and through later joins — and
// meet the oracle at workers 1 / 4 / 8 and over a retiled catalog, answers
// and charges. Groups spanning the leaf and a dimension stay value-keyed.
func TestGroupByLeafMeetsTheOracle(t *testing.T) {
	w, retiled := queryCatalogs()
	part, err := w.Catalog.Table("part")
	if err != nil {
		t.Fatal(err)
	}
	pType := part.Column(part.Schema().Index("p_type")).Str[0]
	for _, c := range []struct {
		name  string
		sql   string
		leaf  bool
		carry []bool
	}{
		{"q15: a fact column, zone pruning skipping partitions both sides",
			`SELECT l_suppkey, SUM(l_extendedprice) FROM lineitem WHERE l_orderkey BETWEEN 1000 AND 1999 GROUP BY l_suppkey`, true, nil},
		{"a group column the filter also reads",
			`SELECT l_shipmode, COUNT(*), SUM(l_quantity) FROM lineitem WHERE l_shipmode IN ('AIR', 'MAIL', 'SHIP') GROUP BY l_shipmode`, true, nil},
		{"a group column an aggregate also reads",
			`SELECT l_quantity, SUM(l_quantity), COUNT(*) FROM lineitem WHERE l_discount < 0.05 GROUP BY l_quantity`, true, nil},
		{"two columns of the leaf",
			`SELECT l_returnflag, l_linestatus, SUM(l_quantity), AVG(l_discount) FROM lineitem GROUP BY l_returnflag, l_linestatus`, true, nil},
		{"q12: the id carried through a join",
			`SELECT l_shipmode, COUNT(*) FROM lineitem JOIN orders ON l_orderkey = o_orderkey WHERE l_shipmode IN ('AIR', 'MAIL') AND l_shipdate >= 1200 GROUP BY l_shipmode`, true, []bool{true}},
		{"q20: the id carried through a filtered build",
			fmt.Sprintf(`SELECT ps_suppkey, SUM(ps_availqty) FROM partsupp JOIN part ON ps_partkey = p_partkey WHERE p_type = '%s' GROUP BY ps_suppkey`, pType), true, []bool{true}},
		{"a group column the join's key also reads",
			`SELECT l_partkey, COUNT(*), SUM(l_extendedprice) FROM lineitem JOIN part ON l_partkey = p_partkey WHERE p_size < 20 GROUP BY l_partkey`, true, []bool{true}},
		{"the id carried through two joins",
			`SELECT l_returnflag, SUM(l_extendedprice) FROM lineitem JOIN orders ON l_orderkey = o_orderkey JOIN customer ON o_custkey = c_custkey GROUP BY l_returnflag`, true, []bool{true, true}},
		{"value-keyed: a fact column of four rows a group, under a filter",
			`SELECT l_orderkey, COUNT(*), SUM(l_quantity) FROM lineitem WHERE l_shipdate < 300 GROUP BY l_orderkey`, false, nil},
		{"value-keyed: the groups span the leaf and a dimension",
			`SELECT l_returnflag, o_orderpriority, COUNT(*) FROM lineitem JOIN orders ON l_orderkey = o_orderkey GROUP BY l_returnflag, o_orderpriority`, false, []bool{false}},
	} {
		root, _ := mustMeetOracle(t, c.name, w.Catalog, retiled.Catalog, c.sql+" EXACT")
		if got := leafNumbered(t, root); got != c.leaf {
			t.Fatalf("%s: the leaf carries the group id: %t, want %t\n%s", c.name, got, c.leaf, plan.Format(root))
		}
		if got := idJoins(t, root); fmt.Sprint(got) != fmt.Sprint(c.carry) {
			t.Fatalf("%s: joins carrying the group id %v, want %v\n%s", c.name, got, c.carry, plan.Format(root))
		}
	}
	// The first case is vacuous unless pruning skipped partitions on both
	// sides of the rows it reads.
	root := exactRoot(t, retiled.Catalog, `SELECT l_suppkey, SUM(l_extendedprice) FROM lineitem WHERE l_orderkey BETWEEN 1000 AND 1999 GROUP BY l_suppkey EXACT`)
	li, err := retiled.Catalog.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	ctx := workerCtx(4, 0)
	engineRun(t, root, ctx)
	if scanned := ctx.Stats.BaseBytes; scanned*2 >= li.Bytes() {
		t.Fatalf("vacuous: the pruned leaf scanned %d of %d bytes", scanned, li.Bytes())
	}
}

// TestGroupByLeafAppendedVersion: an appended version numbers its own rows —
// its delta brings keys below and between the old ones, so every old row's
// id moves — and answers as the oracle does, while the old version keeps
// its numbering and its answer.
func TestGroupByLeafAppendedVersion(t *testing.T) {
	cat := workload.TPCH(0.002, 3).Catalog
	old, err := cat.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	delta := storage.NewBuilder("lineitem", old.Schema())
	for i := 0; i < 700; i++ {
		for c := range old.Schema() {
			delta.CopyFrom(c, old.Column(c), i)
		}
	}
	d := delta.Build(1)
	for i := range d.Column(2).I64 {
		d.Column(2).I64[i] = int64(i%3) - 1 // suppkeys -1, 0 and 1
	}
	next, err := old.Append(d)
	if err != nil {
		t.Fatal(err)
	}
	q := func(tbl *storage.Table) plan.Node {
		return &plan.Aggregate{
			Child:   &plan.Filter{Child: &plan.Scan{Table: tbl}, Pred: expr.Pred{expr.Compare("lineitem.l_shipdate", expr.GE, storage.IntValue(600))}},
			GroupBy: []string{"lineitem.l_suppkey"},
			Aggs:    []plan.AggSpec{{Kind: stats.Sum, Col: "lineitem.l_extendedprice"}, {Kind: stats.Count}},
		}
	}
	_, before := mustMatchOraclePlan(t, "the old version", q(old))
	mustMatchOraclePlan(t, "the appended version", q(next))
	if _, after := mustMatchOraclePlan(t, "the old version, again", q(old)); after != before {
		t.Fatal("the old version's answer moved after the appended version was queried")
	}
	if !leafNumbered(t, q(next)) {
		t.Fatal("the appended version's aggregate is not numbered by its leaf")
	}
}

// keyedTwins answers an aggregate numbered (Compile) and value-keyed
// (CompileValueKeyed) at workers 1 / 4 / 8, every sampler in mat
// materializing, and demands the two lowerings agree bit for bit: answers
// and intervals, all five counters, and the persisted bytes of every sample
// the run built. It returns the numbered run's built samples at workers 1.
func keyedTwins(t *testing.T, label string, root *plan.Aggregate, mat ...*plan.SynopsisOp) []exec.Built {
	t.Helper()
	var built []exec.Built
	run := func(workers int, compile func(*plan.Aggregate, uint64, *exec.Context) (*exec.PipelineOp, error)) (string, []exec.Built) {
		ctx := workerCtx(workers, 0)
		for i, n := range mat {
			ctx.Materialize[n] = uint64(i)
		}
		op, err := compile(root, 11, ctx)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		out, err := exec.Run(op)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		st := ctx.Stats
		line := fmt.Sprintf("%s base=%d warehouse=%d cpu=%d shuffle=%d out=%d", renderAnswer(out, op),
			st.BaseBytes, st.WarehouseBytes, st.CPUTuples, st.ShuffleBytes, st.OutputRows)
		for _, b := range st.Built {
			line += fmt.Sprintf(" sample=%x", persist.Encode(b.Synopsis))
		}
		if out.Len() == 0 {
			t.Fatalf("%s: vacuous: no group", label)
		}
		return line, st.Built
	}
	compile := func(n *plan.Aggregate, seed uint64, ctx *exec.Context) (*exec.PipelineOp, error) {
		return exec.Compile(n, seed, ctx)
	}
	for _, workers := range []int{1, 4, 8} {
		got, bs := run(workers, compile)
		want, _ := run(workers, exec.CompileValueKeyed)
		if got != want {
			t.Fatalf("%s workers=%d: numbered\n%s\nvalue-keyed\n%s", label, workers, got, want)
		}
		if workers == 1 {
			built = bs
		}
	}
	return built
}

// TestGroupThroughSampled: over a sampled leaf, inline or stored, rows carry
// weights, and folding by a numbering — a build side's or the leaf's — folds
// them into the same accumulators in the same order as the value-keyed
// lowering of the same plan: answers, intervals, charges and the built
// sample's bytes are bit-equal at workers 1 / 4 / 8. The stored sample holds
// the leaf's own columns: the group id column never reaches it.
func TestGroupThroughSampled(t *testing.T) {
	cat := workload.TPCH(0.01, 5).Catalog
	tbl := func(name string) *storage.Table {
		tb, err := cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	lineitem := tbl("lineitem")
	uniform := func() *plan.SynopsisOp {
		return &plan.SynopsisOp{Child: &plan.Scan{Table: lineitem}, Kind: plan.UniformSample, P: 0.1, Accuracy: stats.DefaultAccuracy}
	}
	aggs := []plan.AggSpec{{Kind: stats.Sum, Col: "lineitem.l_extendedprice"}, {Kind: stats.Avg, Col: "lineitem.l_quantity"}, {Kind: stats.Count}}

	sampled := uniform()
	spine := &plan.Join{
		Left:  &plan.Join{Left: sampled, Right: &plan.Scan{Table: tbl("supplier")}, LeftKeys: []string{"lineitem.l_suppkey"}, RightKeys: []string{"supplier.s_suppkey"}},
		Right: &plan.Scan{Table: tbl("nation")}, LeftKeys: []string{"supplier.s_nationkey"}, RightKeys: []string{"nation.n_nationkey"},
	}
	through := &plan.Aggregate{Child: spine, GroupBy: []string{"nation.n_name"}, Aggs: aggs}
	if got := idJoins(t, through); fmt.Sprint(got) != "[false true]" {
		t.Fatalf("the sampled spine carries the group id at %v, want [false true]", got)
	}
	keyedTwins(t, "a build side's numbering over a sampled leaf", through)

	// The leaf's numbering under an inline uniform sampler, materializing.
	bySupp := &plan.Aggregate{Child: sampled, GroupBy: []string{"lineitem.l_suppkey"}, Aggs: aggs}
	if !leafNumbered(t, bySupp) {
		t.Fatal("the uniform-sampled leaf does not carry the group id")
	}
	built := keyedTwins(t, "the leaf's numbering under a uniform sampler", bySupp, sampled)
	if len(built) != 1 {
		t.Fatalf("the uniform sampler built %d samples, want 1", len(built))
	}
	smp := built[0].Synopsis.(*synopses.Sample)
	if !smp.Rows.Schema().Equal(append(lineitem.Schema().Clone(), storage.Col{Name: synopses.WeightCol, Typ: storage.Float64})) {
		t.Fatalf("the stored sample's schema is %v", smp.Rows.Schema().Names())
	}

	// The leaf's numbering carried through a join, sampled.
	carried := uniform()
	viaOrders := &plan.Aggregate{
		Child:   &plan.Join{Left: carried, Right: &plan.Scan{Table: tbl("orders")}, LeftKeys: []string{"lineitem.l_orderkey"}, RightKeys: []string{"orders.o_orderkey"}},
		GroupBy: []string{"lineitem.l_shipmode"}, Aggs: aggs,
	}
	if got := idJoins(t, viaOrders); fmt.Sprint(got) != "[true]" {
		t.Fatalf("the sampled leaf's id is carried at %v, want [true]", got)
	}
	keyedTwins(t, "the leaf's numbering through a join, sampled", viaOrders, carried)

	// The leaf's numbering under an inline distinct sampler stratified on a
	// group column, materializing.
	distinct := &plan.SynopsisOp{Child: &plan.Scan{Table: lineitem}, Kind: plan.DistinctSample, P: 0.05, Delta: 20,
		StratCols: []string{"lineitem.l_returnflag"}, Accuracy: stats.DefaultAccuracy}
	byFlag := &plan.Aggregate{Child: distinct, GroupBy: []string{"lineitem.l_returnflag", "lineitem.l_linestatus"}, Aggs: aggs}
	if len(keyedTwins(t, "the leaf's numbering under a distinct sampler", byFlag, distinct)) != 1 {
		t.Fatal("the distinct sampler built no sample")
	}

	// The stored sample as the leaf: its own rows table's numbering.
	for _, inBuffer := range []bool{false, true} {
		for _, groupBy := range [][]string{{"lineitem.l_suppkey"}, {"lineitem.l_shipmode", "lineitem.l_returnflag"}} {
			stored := &plan.Aggregate{Child: &plan.SynopsisScan{SynopsisID: 1, Sample: smp, Label: "lineitem", InBuffer: inBuffer}, GroupBy: groupBy, Aggs: aggs}
			if !leafNumbered(t, stored) {
				t.Fatalf("the stored sample's leaf does not carry the group id for %v", groupBy)
			}
			keyedTwins(t, fmt.Sprintf("a stored sample's numbering by %v, in buffer %t", groupBy, inBuffer), stored)
		}
	}
}

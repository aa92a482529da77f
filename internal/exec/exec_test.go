package exec

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
)

// orders: 1000 rows, 10 customers, amount = row index.
func ordersTable() *storage.Table {
	b := storage.NewBuilder("orders", storage.Schema{
		{Name: "orders.id", Typ: storage.Int64},
		{Name: "orders.cust", Typ: storage.Int64},
		{Name: "orders.amount", Typ: storage.Float64},
	})
	for i := 0; i < 1000; i++ {
		b.Int(0, int64(i))
		b.Int(1, int64(i%10))
		b.Float(2, float64(i))
	}
	return b.Build(3)
}

// customers: 10 rows with a region each (2 regions).
func customersTable() *storage.Table {
	b := storage.NewBuilder("cust", storage.Schema{
		{Name: "cust.id", Typ: storage.Int64},
		{Name: "cust.region", Typ: storage.String},
	})
	for i := 0; i < 10; i++ {
		region := "east"
		if i%2 == 1 {
			region = "west"
		}
		b.Int(0, int64(i))
		b.Str(1, region)
	}
	return b.Build(1)
}

// amountAbove is a filter the zone maps can reason about: orders.amount
// equals the row index, so ordersTable's Build(3) layout clusters it into
// three disjoint ranges and a range predicate excludes whole partitions.
func amountAbove(v float64) expr.Pred {
	return expr.Pred{expr.Compare("orders.amount", expr.GE, storage.FloatValue(v))}
}

func runPlan(t *testing.T, n plan.Node, ctx *Context) *storage.Batch {
	t.Helper()
	op, err := Compile(n, 42, ctx)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(op)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func allRows(b *storage.Batch) [][]storage.Value {
	var rows [][]storage.Value
	for i := 0; i < b.Len(); i++ {
		rows = append(rows, b.Row(i))
	}
	return rows
}

// drainPlan reads n as a join's build side reads it.
func drainPlan(t *testing.T, n plan.Node, ctx *Context) *storage.Batch {
	t.Helper()
	out, err := DrainBuildSide(n, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestScanCountsBytes(t *testing.T) {
	tbl := ordersTable()
	ctx := NewContext(0.95)
	out := drainPlan(t, &plan.Scan{Table: tbl}, ctx)
	if n := len(allRows(out)); n != 1000 {
		t.Fatalf("scanned %d rows", n)
	}
	if ctx.Stats.BaseBytes != tbl.Bytes() {
		t.Fatalf("BaseBytes = %d, want %d", ctx.Stats.BaseBytes, tbl.Bytes())
	}
	if ctx.Stats.SimulatedSeconds(storage.DefaultCostModel()) <= 0 {
		t.Fatal("simulated time must be positive")
	}
}

func TestFilterProject(t *testing.T) {
	tbl := ordersTable()
	ctx := NewContext(0.95)
	f := &plan.Filter{
		Child: &plan.Scan{Table: tbl},
		Pred:  expr.Pred{expr.Compare("orders.id", expr.LT, storage.IntValue(10))},
	}
	if rows := allRows(drainPlan(t, f, ctx)); len(rows) != 10 {
		t.Fatalf("filtered rows = %d", len(rows))
	}
}

// ordersJoinCustomers is orders ⋈ cust under an aggregate — a join compiles
// only as part of a spine.
func ordersJoinCustomers(leftKeys, rightKeys []string, groupBy []string, aggs ...plan.AggSpec) *plan.Aggregate {
	return &plan.Aggregate{
		Child: &plan.Join{
			Left:      &plan.Scan{Table: ordersTable()},
			Right:     &plan.Scan{Table: customersTable()},
			LeftKeys:  leftKeys,
			RightKeys: rightKeys,
		},
		GroupBy: groupBy,
		Aggs:    aggs,
	}
}

func TestHashJoin(t *testing.T) {
	ctx := NewContext(0.95)
	agg := ordersJoinCustomers([]string{"orders.cust"}, []string{"cust.id"},
		[]string{"cust.region"}, plan.AggSpec{Kind: stats.Count}, plan.AggSpec{Kind: stats.Max, Col: "orders.id"})
	rows := allRows(runPlan(t, agg, ctx))
	// Every order matches exactly one customer; both sides' columns reach the
	// sink (a group column from the build side, an aggregate from the probe).
	if len(rows) != 2 || rows[0][1].F+rows[1][1].F != 1000 {
		t.Fatalf("join rows per region = %v, want two regions totalling 1000", rows)
	}
	if rows[0][0].S != "east" || rows[0][2].F != 998 || rows[1][2].F != 999 {
		t.Fatalf("joined columns wrong: %v", rows)
	}
	// The build side (10 cust rows) and the probe input both cross an exchange.
	if ctx.Stats.ShuffleBytes <= 0 {
		t.Fatal("join must charge shuffle bytes")
	}
}

func TestHashJoinErrors(t *testing.T) {
	ctx := NewContext(0.95)
	count := plan.AggSpec{Kind: stats.Count}
	if _, err := Compile(ordersJoinCustomers([]string{"nope"}, []string{"cust.id"}, nil, count), 1, ctx); err == nil {
		t.Fatal("want unknown left key error")
	}
	if _, err := Compile(ordersJoinCustomers([]string{"orders.cust"}, []string{"nope"}, nil, count), 1, ctx); err == nil {
		t.Fatal("want unknown right key error")
	}
	if _, err := Compile(ordersJoinCustomers(nil, nil, nil, count), 1, ctx); err == nil {
		t.Fatal("want empty key error")
	}
	// Keys of different types never match; the join refuses them, naming both
	// columns, as planner.Query.Validate does.
	_, err := Compile(ordersJoinCustomers([]string{"orders.cust", "orders.amount"}, []string{"cust.id", "cust.region"}, nil, count), 1, ctx)
	if err == nil || !strings.Contains(err.Error(), "orders.amount") || !strings.Contains(err.Error(), "cust.region") {
		t.Fatalf("mismatched key types: err = %v, want a refusal naming orders.amount and cust.region", err)
	}
}

func TestExactAggregate(t *testing.T) {
	ctx := NewContext(0.95)
	agg := &plan.Aggregate{
		Child:   &plan.Scan{Table: ordersTable()},
		GroupBy: []string{"orders.cust"},
		Aggs: []plan.AggSpec{
			{Kind: stats.Count},
			{Kind: stats.Sum, Col: "orders.amount"},
			{Kind: stats.Avg, Col: "orders.amount"},
			{Kind: stats.Min, Col: "orders.amount"},
			{Kind: stats.Max, Col: "orders.amount"},
		},
	}
	op, err := Compile(agg, 1, ctx)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(op)
	if err != nil {
		t.Fatal(err)
	}
	rows := allRows(out)
	if len(rows) != 10 {
		t.Fatalf("groups = %d", len(rows))
	}
	// Group 0: ids 0,10,...,990 → count 100, sum 49500, avg 495, min 0, max 990.
	g0 := rows[0]
	if g0[0].I != 0 {
		t.Fatalf("first group = %v (must be sorted)", g0[0])
	}
	if g0[1].F != 100 || g0[2].F != 49500 || g0[3].F != 495 || g0[4].F != 0 || g0[5].F != 990 {
		t.Fatalf("group 0 aggregates = %v", g0)
	}
	// Exact execution → zero-width intervals.
	ivs := op.Intervals()
	if len(ivs) != 10 {
		t.Fatalf("interval rows = %d", len(ivs))
	}
	for _, row := range ivs {
		for _, iv := range row {
			if iv.HalfWidth != 0 {
				t.Fatalf("exact interval has width: %+v", iv)
			}
		}
	}
}

func TestAggregateErrors(t *testing.T) {
	ctx := NewContext(0.95)
	over := func(tbl *storage.Table, groupBy []string, aggs ...plan.AggSpec) *plan.Aggregate {
		return &plan.Aggregate{Child: &plan.Scan{Table: tbl}, GroupBy: groupBy, Aggs: aggs}
	}
	if _, err := Compile(over(ordersTable(), []string{"nope"}), 1, ctx); err == nil {
		t.Fatal("want unknown group column error")
	}
	if _, err := Compile(over(ordersTable(), nil, plan.AggSpec{Kind: stats.Sum, Col: "nope"}), 1, ctx); err == nil {
		t.Fatal("want unknown agg column error")
	}
	if _, err := Compile(over(customersTable(), nil, plan.AggSpec{Kind: stats.Sum, Col: "cust.region"}), 1, ctx); err == nil {
		t.Fatal("want non-numeric agg error")
	}
	if _, err := Compile(over(ordersTable(), nil, plan.AggSpec{Kind: stats.Sum}), 1, ctx); err == nil {
		t.Fatal("want missing column error")
	}
}

func TestSampledAggregateWithinError(t *testing.T) {
	ctx := NewContext(0.95)
	syn := &plan.SynopsisOp{
		Child: &plan.Scan{Table: ordersTable()},
		Kind:  plan.DistinctSample,
		P:     0.3, Delta: 20, StratCols: []string{"orders.cust"},
	}
	agg := &plan.Aggregate{
		Child:   syn,
		GroupBy: []string{"orders.cust"},
		Aggs:    []plan.AggSpec{{Kind: stats.Sum, Col: "orders.amount"}, {Kind: stats.Count}},
	}
	op, err := Compile(agg, 7, ctx)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(op)
	if err != nil {
		t.Fatal(err)
	}
	rows := allRows(out)
	if len(rows) != 10 {
		t.Fatalf("missing groups: %d/10", len(rows))
	}
	// The honest check is against the reported CI: the true value must fall
	// within a few half-widths (4σ-ish) of every estimate, and within 1
	// half-width for most groups (95% nominal coverage).
	ivs := op.Intervals()
	covered := 0
	for i, row := range rows {
		cust := row[0].I
		trueSum := 0.0
		for v := int64(cust); v < 1000; v += 10 {
			trueSum += float64(v)
		}
		iv := ivs[i][0]
		if iv.HalfWidth <= 0 {
			t.Fatalf("sampled aggregate must carry CI, got %+v", iv)
		}
		dev := math.Abs(iv.Estimate - trueSum)
		if dev > 4*iv.HalfWidth {
			t.Fatalf("group %d: estimate %v vs %v exceeds 4 half-widths (%v)",
				cust, iv.Estimate, trueSum, iv.HalfWidth)
		}
		if dev <= iv.HalfWidth {
			covered++
		}
		cnt := row[2].F
		if math.Abs(cnt-100) > 60 {
			t.Fatalf("group %d count estimate %v", cust, cnt)
		}
	}
	if covered < 6 {
		t.Fatalf("only %d/10 groups inside their 95%% CI", covered)
	}
}

func TestSamplerMaterializesByproduct(t *testing.T) {
	ctx := NewContext(0.95)
	syn := &plan.SynopsisOp{
		Child: &plan.Scan{Table: ordersTable()},
		Kind:  plan.UniformSample,
		P:     0.5,
	}
	ctx.Materialize[syn] = 7
	agg := &plan.Aggregate{
		Child: syn,
		Aggs:  []plan.AggSpec{{Kind: stats.Count}},
	}
	runPlan(t, agg, ctx)
	if len(ctx.Stats.Built) != 1 {
		t.Fatalf("built synopses = %d", len(ctx.Stats.Built))
	}
	b := ctx.Stats.Built[0]
	if b.Node != syn || b.ID != 7 || b.SourceRows != 1000 {
		t.Fatalf("built = {node %v, id %d, source rows %d}, want {the sampler, 7, 1000}", b.Node, b.ID, b.SourceRows)
	}
	s, ok := b.Synopsis.(*synopses.Sample)
	if !ok {
		t.Fatalf("built synopsis is %T, want a sample", b.Synopsis)
	}
	if s.SourceRows != 1000 || s.Strategy != "uniform" {
		t.Fatalf("sample = %+v", s)
	}
	if n := s.Rows.NumRows(); n < 400 || n > 600 {
		t.Fatalf("sample rows = %d, want ≈500", n)
	}
	if s.Rows.Name != "synopsis_7" {
		t.Fatalf("sample name = %q", s.Rows.Name)
	}
}

func TestSamplerErrors(t *testing.T) {
	ctx := NewContext(0.95)
	syn := &plan.SynopsisOp{
		Child:     &plan.Scan{Table: ordersTable()},
		Kind:      plan.DistinctSample,
		P:         0.1,
		Delta:     5,
		StratCols: []string{"nope"},
	}
	over := func(n plan.Node) plan.Node {
		return &plan.Aggregate{Child: n, Aggs: []plan.AggSpec{{Kind: stats.Count}}}
	}
	if _, err := Compile(over(syn), 1, ctx); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("err = %v, want an unknown stratification column error", err)
	}
	bad := &plan.SynopsisOp{Child: &plan.Scan{Table: ordersTable()}, Kind: plan.SketchJoinSynopsis}
	if _, err := Compile(over(bad), 1, ctx); err == nil {
		t.Fatal("want unsupported kind error")
	}
}

func TestJoinOfSampledSideCarriesWeights(t *testing.T) {
	ctx := NewContext(0.95)
	syn := &plan.SynopsisOp{
		Child: &plan.Scan{Table: ordersTable()},
		Kind:  plan.UniformSample,
		P:     0.5,
	}
	j := &plan.Join{
		Left:      syn,
		Right:     &plan.Scan{Table: customersTable()},
		LeftKeys:  []string{"orders.cust"},
		RightKeys: []string{"cust.id"},
	}
	agg := &plan.Aggregate{
		Child:   j,
		GroupBy: []string{"cust.region"},
		Aggs:    []plan.AggSpec{{Kind: stats.Count}},
	}
	rows := allRows(runPlan(t, agg, ctx))
	if len(rows) != 2 {
		t.Fatalf("regions = %d", len(rows))
	}
	// Each region truly has 500 orders; HT estimate should be close.
	for _, r := range rows {
		if math.Abs(r[1].F-500) > 150 {
			t.Fatalf("region %v count = %v, want ≈500", r[0], r[1].F)
		}
	}
	// The join schema carries exactly one weight column: the probe side's,
	// passed through where the sampled side holds it.
	spec, err := resolveJoinSpec(synopses.SampleSchema(ordersTable().Schema()), customersTable().Schema(), j.LeftKeys, j.RightKeys, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc := spec.schema
	wcount := 0
	for _, c := range sc {
		if c.Name == synopses.WeightCol {
			wcount++
		}
	}
	if wcount != 1 || sc.Index(synopses.WeightCol) != len(ordersTable().Schema()) {
		t.Fatalf("join schema weights wrong: %v", sc.Names())
	}
}

func TestSketchJoinInlineBuild(t *testing.T) {
	node := &plan.SketchJoin{
		Probe:     &plan.Scan{Table: customersTable()},
		Build:     &plan.Scan{Table: ordersTable()},
		ProbeKeys: []string{"cust.id"},
		BuildKeys: []string{"orders.cust"},
		AggCol:    "orders.amount",
		GroupBy:   []string{"cust.region"},
		Aggs: []plan.AggSpec{
			{Kind: stats.Count},
			{Kind: stats.Sum, Col: "orders.amount"},
			{Kind: stats.Count, Col: "cust.region"}, // a probe-side string column: still the counts
		},
	}
	// A build the run does not keep answers alike and records nothing.
	unkept := NewContext(0.95)
	runPlan(t, node, unkept)
	if len(unkept.Stats.Built) != 0 {
		t.Fatalf("an unkept inline build recorded %d synopses", len(unkept.Stats.Built))
	}
	ctx := NewContext(0.95)
	ctx.Materialize[node] = 3
	op, err := Compile(node, 5, ctx)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(op)
	if err != nil {
		t.Fatal(err)
	}
	rows := allRows(out)
	if len(rows) != 2 {
		t.Fatalf("groups = %d", len(rows))
	}
	// True totals: east (even custs) count 500, sum = Σ even-cust amounts.
	var eastSum, westSum float64
	for i := 0; i < 1000; i++ {
		if (i%10)%2 == 0 {
			eastSum += float64(i)
		} else {
			westSum += float64(i)
		}
	}
	// The payload is exact and every sum is an integer, so the answers are
	// the join's exactly, with zero-width intervals.
	for _, r := range rows {
		wantSum := eastSum
		if r[0].S == "west" {
			wantSum = westSum
		}
		if r[1].F != 500 || r[2].F != wantSum || r[3].F != 500 {
			t.Fatalf("region %v = %v, want counts 500 and sum %v", r[0], r[1:], wantSum)
		}
	}
	if len(ctx.Stats.Built) != 1 {
		t.Fatal("a kept inline build must record the sketch for retention")
	}
	b := ctx.Stats.Built[0]
	if b.Node != node || b.ID != 3 || b.SourceRows != 1000 {
		t.Fatalf("built = {node %v, id %d, source rows %d}, want {the sketch-join, 3, 1000}", b.Node, b.ID, b.SourceRows)
	}
	sk, ok := b.Synopsis.(*synopses.SketchJoin)
	if !ok {
		t.Fatalf("built synopsis is %T, want a sketch-join", b.Synopsis)
	}
	if n := sk.Rows.NumRows(); n != 10 {
		t.Fatalf("the payload holds %d rows, want one per customer key (10)", n)
	}
	ivs := op.Intervals()
	if len(ivs) != 2 {
		t.Fatalf("sketch intervals = %+v", ivs)
	}
	for _, row := range ivs {
		for _, iv := range row {
			if iv.HalfWidth != 0 {
				t.Fatalf("sketch intervals = %+v, want zero half-widths", ivs)
			}
		}
	}
}

// builtSketch runs an inline sketch-join once and returns the payload it
// stored: what a reuse plan reads.
func builtSketch(t *testing.T, node *plan.SketchJoin) *synopses.SketchJoin {
	t.Helper()
	ctx := NewContext(0.95)
	ctx.Materialize[node] = 1
	runPlan(t, node, ctx)
	if len(ctx.Stats.Built) != 1 {
		t.Fatalf("the inline build recorded %d synopses", len(ctx.Stats.Built))
	}
	return ctx.Stats.Built[0].Synopsis.(*synopses.SketchJoin)
}

func TestSketchJoinReuseMaterialized(t *testing.T) {
	orders := ordersTable()
	node := &plan.SketchJoin{
		Probe:     &plan.Scan{Table: customersTable()},
		Build:     &plan.Scan{Table: orders},
		ProbeKeys: []string{"cust.id"},
		BuildKeys: []string{"orders.cust"},
		AggCol:    "orders.amount",
		GroupBy:   []string{"cust.region"},
		Aggs:      []plan.AggSpec{{Kind: stats.Avg, Col: "orders.amount"}},
	}
	node.Sketch, node.Build = builtSketch(t, node), nil
	ctx := NewContext(0.95)
	rows := allRows(runPlan(t, node, ctx))
	if len(rows) != 2 {
		t.Fatalf("groups = %d", len(rows))
	}
	// Reuse path must not rescan the orders table.
	if ctx.Stats.BaseBytes >= orders.Bytes() {
		t.Fatalf("BaseBytes = %d includes build side; reuse must avoid it", ctx.Stats.BaseBytes)
	}
	// AVG(amount) per region: east's orders are those with i%10 ∈
	// {0,2,4,6,8}, whose amounts average 499; west's average 500.
	for _, r := range rows {
		want := 499.0
		if r[0].S == "west" {
			want = 500
		}
		if r[1].F != want {
			t.Fatalf("region %v avg = %v, want %v", r[0], r[1].F, want)
		}
	}
	if len(ctx.Stats.Built) != 0 {
		t.Fatal("reuse path must not record a new sketch")
	}
}

// TestCountOverColumnIsCountStar: storage has no NULLs, so COUNT(col) folds
// no column — on the aggregation spine (grouped and not) and as a sketch-join
// whose build-side aggregate column is a string — and equals COUNT(*) exactly
// under its own alias.
func TestCountOverColumnIsCountStar(t *testing.T) {
	counts := []plan.AggSpec{{Kind: stats.Count, Col: "cust.region"}, {Kind: stats.Count}}
	for _, groupBy := range [][]string{nil, {"cust.region"}} {
		agg := &plan.Aggregate{Child: &plan.Scan{Table: customersTable()}, GroupBy: groupBy, Aggs: counts}
		op, err := Compile(agg, 1, NewContext(0.95))
		if err != nil {
			t.Fatal(err)
		}
		if got := op.Schema().Names(); got[len(got)-2] != "count_cust_region" {
			t.Fatalf("columns = %v", got)
		}
		out, err := Run(op)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range allRows(out) {
			n := len(r)
			if want := float64(10 / (1 + len(groupBy))); r[n-2].F != want || r[n-1].F != want {
				t.Fatalf("group by %v: row %v, want both counts %v", groupBy, r, want)
			}
		}
	}

	node := &plan.SketchJoin{
		Probe:     &plan.Scan{Table: ordersTable()},
		Build:     &plan.Scan{Table: customersTable()},
		ProbeKeys: []string{"orders.cust"},
		BuildKeys: []string{"cust.id"},
		AggCol:    "cust.region",
		Aggs:      counts,
	}
	rows := allRows(runPlan(t, node, NewContext(0.95)))
	if len(rows) != 1 || rows[0][0].F != 1000 || rows[0][1].F != 1000 {
		t.Fatalf("sketch-join counts = %v, want both 1000", rows)
	}
}

func TestSketchJoinErrors(t *testing.T) {
	ctx := NewContext(0.95)
	node := func() *plan.SketchJoin {
		return &plan.SketchJoin{
			Probe:     &plan.Scan{Table: customersTable()},
			Build:     &plan.Scan{Table: ordersTable()},
			ProbeKeys: []string{"cust.id"},
			BuildKeys: []string{"orders.cust"},
			GroupBy:   []string{"cust.region"},
		}
	}
	if _, err := Compile(node(), 1, ctx); err != nil {
		t.Fatalf("the well-formed node must compile: %v", err)
	}
	for _, c := range []struct {
		name   string
		break_ func(n *plan.SketchJoin)
		want   string
	}{
		{"no sketch and no build input", func(n *plan.SketchJoin) { n.Build = nil }, "no materialized sketch"},
		{"sampled build input", func(n *plan.SketchJoin) {
			n.Build = &plan.SynopsisOp{Child: n.Build, Kind: plan.UniformSample, P: 0.5}
		}, "cannot compile *plan.SynopsisOp in a sketch-join's build side"},
		// Every sketch-join cell is exact, with a zero half-width: a sampled
		// probe would report an estimate as exact.
		{"sampled probe input", func(n *plan.SketchJoin) {
			n.Probe = &plan.SynopsisOp{Child: n.Probe, Kind: plan.UniformSample, P: 0.5}
		}, "probe side carries sampler weights"},
		{"stored sample as probe input", func(n *plan.SketchJoin) {
			smp := synopses.BuildSampleFromTable("s", customersTable(), synopses.NewUniformSampler(0.5, 3), nil)
			n.Probe = &plan.SynopsisScan{SynopsisID: 1, Sample: smp, Label: "cust"}
		}, "probe side carries sampler weights"},
		{"probe key typed unlike its build key", func(n *plan.SketchJoin) { n.ProbeKeys = []string{"cust.region"} },
			"cust.region is VARCHAR but orders.cust is BIGINT"},
		{"unknown probe key", func(n *plan.SketchJoin) { n.ProbeKeys = []string{"nope"} }, "probe key"},
		{"unknown build key", func(n *plan.SketchJoin) { n.BuildKeys = []string{"nope"} }, "build key"},
		{"unknown group column", func(n *plan.SketchJoin) { n.GroupBy = []string{"nope"} }, "group column"},
		{"probe side off the spine", func(n *plan.SketchJoin) {
			n.Probe = &plan.Aggregate{Child: n.Probe, Aggs: []plan.AggSpec{{Kind: stats.Count}}}
		}, "a sketch-join over *plan.Aggregate"},
	} {
		n := node()
		c.break_(n)
		if _, err := Compile(n, 1, ctx); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err = %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}

func TestSynopsisScanChargesWarehouseBytes(t *testing.T) {
	tbl := ordersTable()
	smp := synopses.BuildSampleFromTable("s", tbl, synopses.NewUniformSampler(0.2, 3), nil)
	ctx := NewContext(0.95)
	count := []plan.AggSpec{{Kind: stats.Count}}
	ss := &plan.Aggregate{Child: &plan.SynopsisScan{SynopsisID: 1, Sample: smp, Label: "orders"}, Aggs: count}
	runPlan(t, ss, ctx)
	if ctx.Stats.WarehouseBytes != smp.Rows.Bytes() {
		t.Fatalf("WarehouseBytes = %d, want %d", ctx.Stats.WarehouseBytes, smp.Rows.Bytes())
	}
	if ctx.Stats.BaseBytes != 0 {
		t.Fatal("synopsis scan must not charge base bytes")
	}
	// Buffer-resident scans are free of I/O.
	ctx2 := NewContext(0.95)
	ss2 := &plan.Aggregate{Child: &plan.SynopsisScan{SynopsisID: 1, Sample: smp, Label: "orders", InBuffer: true}, Aggs: count}
	runPlan(t, ss2, ctx2)
	if ctx2.Stats.WarehouseBytes != 0 {
		t.Fatal("buffer scan must be free")
	}
}

func TestAggregateOverSynopsisScanIsHT(t *testing.T) {
	tbl := ordersTable()
	smp := synopses.BuildSampleFromTable("s", tbl,
		synopses.NewDistinctSampler(0.3, 10, []int{1}, 11), []string{"orders.cust"})
	ctx := NewContext(0.95)
	agg := &plan.Aggregate{
		Child:   &plan.SynopsisScan{SynopsisID: 2, Sample: smp, Label: "orders"},
		GroupBy: []string{"orders.cust"},
		Aggs:    []plan.AggSpec{{Kind: stats.Count}},
	}
	rows := allRows(runPlan(t, agg, ctx))
	if len(rows) != 10 {
		t.Fatalf("groups = %d", len(rows))
	}
	for _, r := range rows {
		if math.Abs(r[1].F-100) > 50 {
			t.Fatalf("HT count = %v, want ≈100", r[1].F)
		}
	}
}

func TestSortAndLimit(t *testing.T) {
	ctx := NewContext(0.95)
	agg := &plan.Aggregate{
		Child:   &plan.Scan{Table: ordersTable()},
		GroupBy: []string{"orders.cust"},
		Aggs:    []plan.AggSpec{{Kind: stats.Sum, Col: "orders.amount"}},
	}
	srt := &plan.Sort{Child: agg, By: []string{"sum_orders_amount"}, Desc: []bool{true}, Limit: 3}
	op, err := Compile(srt, 1, ctx)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(op)
	if err != nil {
		t.Fatal(err)
	}
	rows := allRows(out)
	if len(rows) != 3 {
		t.Fatalf("limit produced %d rows", len(rows))
	}
	if rows[0][1].F < rows[1][1].F || rows[1][1].F < rows[2][1].F {
		t.Fatalf("descending order violated: %v", rows)
	}
	// Intervals permuted alongside.
	ivs := op.Intervals()
	if len(ivs) != 3 {
		t.Fatalf("sorted intervals = %d", len(ivs))
	}
	if _, err := Compile(&plan.Sort{Child: agg, By: []string{"nope"}}, 1, ctx); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("err = %v, want an unknown sort column error", err)
	}
}

func TestCompileUnknownNode(t *testing.T) {
	ctx := NewContext(0.95)
	if _, err := Compile(nil, 1, ctx); err == nil {
		t.Fatal("want error for nil node")
	}
	// An aggregate the morsel spine cannot run is an error naming the node
	// that broke the shape — there is no second executor to fall back to.
	inner := &plan.Aggregate{Child: &plan.Scan{Table: ordersTable()}, Aggs: []plan.AggSpec{{Kind: stats.Count}}}
	outer := &plan.Aggregate{Child: inner, Aggs: []plan.AggSpec{{Kind: stats.Count}}}
	if _, err := Compile(outer, 1, ctx); err == nil || !strings.Contains(err.Error(), "*plan.Aggregate") {
		t.Fatalf("aggregate over aggregate: err = %v, want one naming *plan.Aggregate", err)
	}
	// A join is only ever part of a spine: a bare one does not compile.
	join := ordersJoinCustomers([]string{"orders.cust"}, []string{"cust.id"}, nil).Child
	if _, err := Compile(join, 1, ctx); err == nil || !strings.Contains(err.Error(), "*plan.Join") {
		t.Fatalf("bare join: err = %v, want one naming *plan.Join", err)
	}
	// A build side is σ(base table): samples live on the spine and joins are
	// left-deep, so a sampler, a stored sample or a join there is an error
	// naming it.
	cust := customersTable()
	smp := synopses.BuildSampleFromTable("s", cust, synopses.NewUniformSampler(0.5, 3), nil)
	for _, build := range []plan.Node{
		&plan.SynopsisOp{Child: &plan.Scan{Table: cust}, Kind: plan.UniformSample, P: 0.5},
		&plan.SynopsisScan{SynopsisID: 1, Sample: smp, Label: "cust"},
		join,
	} {
		bushy := &plan.Aggregate{
			Child: &plan.Join{
				Left: &plan.Scan{Table: regionsTable()}, Right: build,
				LeftKeys: []string{"reg.name"}, RightKeys: []string{"cust.region"},
			},
			Aggs: []plan.AggSpec{{Kind: stats.Count}},
		}
		want := fmt.Sprintf("cannot compile %T in a join's build side", build)
		if _, err := Compile(bushy, 1, ctx); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%T in a build side: err = %v, want one mentioning %q", build, err, want)
		}
	}
	// A sample's one home is directly on the spine's Scan: a sampler above a
	// join or above a filter is an error naming the sampler.
	pred := expr.Pred{expr.Compare("orders.amount", expr.GT, storage.IntValue(0))}
	for _, below := range []plan.Node{join, &plan.Filter{Child: &plan.Scan{Table: ordersTable()}, Pred: pred}} {
		smpOp := &plan.SynopsisOp{Child: below, Kind: plan.UniformSample, P: 0.5}
		agg := &plan.Aggregate{Child: smpOp, Aggs: []plan.AggSpec{{Kind: stats.Count}}}
		want := fmt.Sprintf("over %s: a sample-kind sampler fits the morsel spine only directly on its Scan", smpOp)
		if _, err := Compile(agg, 1, ctx); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("sampler above %T: err = %v, want one mentioning %q", below, err, want)
		}
	}
}

func TestNewContextDefaults(t *testing.T) {
	c := NewContext(0)
	if c.Confidence != stats.DefaultAccuracy.Confidence {
		t.Fatalf("confidence = %v", c.Confidence)
	}
}

package exec_test

// Exact plans against the oracle (oracle_test.go). What each test pins beyond
// the answer — cost counters — is a closed-form expectation on the fixture:
// orders rows are 24 bytes (three 8-byte columns), cust rows 28 (an int64 and
// a 4-letter string at 16 bytes of header), reg rows 28.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/tasterdb/taster/internal/exec"
	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/meta"
	"github.com/tasterdb/taster/internal/obs"
	"github.com/tasterdb/taster/internal/persist"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/planner"
	"github.com/tasterdb/taster/internal/sqlparser"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
	"github.com/tasterdb/taster/internal/warehouse"
	"github.com/tasterdb/taster/internal/workload"
)

const (
	ordersRowBytes = 24
	custRowBytes   = 28
	regRowBytes    = 28
)

// engineRun compiles and runs a plan, returning the batches and a bit-exact
// rendering of rows and intervals (%v prints the shortest text that
// round-trips a float64, so equal strings mean equal bits).
func engineRun(t testing.TB, n plan.Node, ctx *exec.Context) ([]*storage.Batch, string) {
	t.Helper()
	op, err := exec.Compile(n, 7, ctx)
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Run(op)
	if err != nil {
		t.Fatal(err)
	}
	return out, renderAnswer(out, op)
}

// renderAnswer is the bit-exact text of an answer: its rows, then the
// intervals the operator reports for them.
func renderAnswer(out []*storage.Batch, op exec.Operator) string {
	var fp strings.Builder
	for _, b := range out {
		for i := 0; i < b.Len(); i++ {
			fmt.Fprintf(&fp, "%v\n", b.Row(i))
		}
	}
	if rep, ok := op.(exec.IntervalReporter); ok {
		fmt.Fprintf(&fp, "|%v", rep.Intervals())
	}
	return fp.String()
}

func workerCtx(workers, morselRows int) *exec.Context {
	ctx := exec.NewContext(0.95)
	ctx.Workers, ctx.MorselRows = workers, morselRows
	return ctx
}

func mustCharge(t *testing.T, label string, got *exec.RunStats, baseBytes, cpuTuples, shuffleBytes, outputRows int64) {
	t.Helper()
	if got.BaseBytes != baseBytes || got.CPUTuples != cpuTuples || got.ShuffleBytes != shuffleBytes ||
		got.OutputRows != outputRows || got.WarehouseBytes != 0 {
		t.Fatalf("%s: charged base=%d cpu=%d shuffle=%d out=%d warehouse=%d, want base=%d cpu=%d shuffle=%d out=%d warehouse=0",
			label, got.BaseBytes, got.CPUTuples, got.ShuffleBytes, got.OutputRows, got.WarehouseBytes,
			baseBytes, cpuTuples, shuffleBytes, outputRows)
	}
}

// mustChargeOracle holds an engine run's counters to the oracle's charge.
func mustChargeOracle(t *testing.T, label string, want oracleCost, got *exec.RunStats) {
	t.Helper()
	mustCharge(t, label, got, want.base, want.cpu, want.shuffle, want.out)
}

// TestAggMatchesOracleExact: exact aggregation carries no randomness and the
// fixture's values are integers, so the morsel executor must reproduce the
// oracle exactly whatever the morsel boundaries do to the order of its sums.
func TestAggMatchesOracleExact(t *testing.T) {
	const n = 20000
	agg := &plan.Aggregate{
		Child:   &plan.Scan{Table: exec.BigOrders(n)},
		GroupBy: []string{"orders.cust"},
		Aggs: []plan.AggSpec{
			{Kind: stats.Count},
			{Kind: stats.Sum, Col: "orders.amount"},
			{Kind: stats.Avg, Col: "orders.amount"},
		},
	}
	ctx := workerCtx(8, 512)
	out, _ := engineRun(t, agg, ctx)
	mustMatchOracle(t, "exact aggregate", oracleEval(t, agg), out, 0)
	// Every row is scanned once and aggregated once, and crosses the
	// aggregation exchange whole.
	mustCharge(t, "exact aggregate", ctx.Stats, n*ordersRowBytes, 2*n, n*ordersRowBytes, 10)
}

// TestJoinMatchesOracleExact: an exact join pipeline must reproduce the
// oracle's nested answer — rows and cost counters — at every worker count.
func TestJoinMatchesOracleExact(t *testing.T) {
	const n = 20000
	agg := &plan.Aggregate{
		Child: &plan.Join{
			Left: &plan.Scan{Table: exec.BigOrders(n)}, Right: &plan.Scan{Table: exec.CustomersTable()},
			LeftKeys: []string{"orders.cust"}, RightKeys: []string{"cust.id"},
		},
		GroupBy: []string{"cust.region"},
		Aggs: []plan.AggSpec{
			{Kind: stats.Count},
			{Kind: stats.Sum, Col: "orders.amount"},
		},
	}
	want := oracleEval(t, agg)
	for _, workers := range []int{1, 2, 4, 8} {
		ctx := workerCtx(workers, 512)
		out, _ := engineRun(t, agg, ctx)
		label := fmt.Sprintf("workers=%d", workers)
		mustMatchOracle(t, label, want, out, 0)
		// Build: 10 rows scanned and exchanged. Probe: n rows scanned and
		// exchanged, n joined rows out (every order has its customer), each
		// aggregated once and exchanged at the joined width.
		mustCharge(t, label, ctx.Stats,
			n*ordersRowBytes+10*custRowBytes,
			10+3*n,
			10*custRowBytes+n*ordersRowBytes+n*(ordersRowBytes+custRowBytes),
			2)
	}
}

// TestMultiJoinMatchesOracleExact covers a two-join spine
// (fact ⋈ dim ⋈ dim-of-dim) with a string join key on the second hop.
func TestMultiJoinMatchesOracleExact(t *testing.T) {
	agg := &plan.Aggregate{
		Child: &plan.Join{
			Left: &plan.Join{
				Left: &plan.Scan{Table: exec.BigOrders(12000)}, Right: &plan.Scan{Table: exec.CustomersTable()},
				LeftKeys: []string{"orders.cust"}, RightKeys: []string{"cust.id"},
			},
			Right:    &plan.Scan{Table: exec.RegionsTable()},
			LeftKeys: []string{"cust.region"}, RightKeys: []string{"reg.name"},
		},
		GroupBy: []string{"reg.rank"},
		Aggs:    []plan.AggSpec{{Kind: stats.Count}, {Kind: stats.Avg, Col: "orders.amount"}},
	}
	want := oracleEval(t, agg)
	for _, workers := range []int{1, 4} {
		out, _ := engineRun(t, agg, workerCtx(workers, 1000))
		mustMatchOracle(t, fmt.Sprintf("workers=%d", workers), want, out, 0)
	}
}

// TestMultiJoinEmptyInnerMatchesOracle: with an empty *inner* build on a
// two-join spine the answer is the global aggregate's zero row, and builds
// drain top-down until the first empty one — here both, the empty one being
// the deeper — while the probe side is never scanned.
func TestMultiJoinEmptyInnerMatchesOracle(t *testing.T) {
	fact := exec.BigOrders(12000)
	emptyCust := &plan.Filter{
		Child: &plan.Scan{Table: exec.CustomersTable()},
		Pred:  expr.Pred{expr.Compare("cust.id", expr.LT, storage.IntValue(-1))},
	}
	agg := &plan.Aggregate{
		Child: &plan.Join{
			Left: &plan.Join{
				Left: &plan.Scan{Table: fact}, Right: emptyCust,
				LeftKeys: []string{"orders.cust"}, RightKeys: []string{"cust.id"},
			},
			Right:    &plan.Scan{Table: exec.RegionsTable()},
			LeftKeys: []string{"cust.region"}, RightKeys: []string{"reg.name"},
		},
		Aggs: []plan.AggSpec{{Kind: stats.Count}},
	}
	ctx := workerCtx(4, 0)
	out, _ := engineRun(t, agg, ctx)
	mustMatchOracle(t, "empty inner build", oracleEval(t, agg), out, 0)
	// The region build: 2 rows scanned and exchanged. The customer build:
	// cust.id < -1 zone-prunes the table's only partition, so nothing is
	// read and the filter sees no batch. No probe.
	mustCharge(t, "empty inner build", ctx.Stats, 2*regRowBytes, 2, 2*regRowBytes, 1)
	if ctx.Stats.BaseBytes >= fact.Bytes() {
		t.Fatalf("early-out did not skip the probe scan (BaseBytes=%d)", ctx.Stats.BaseBytes)
	}
}

// joinKeyShape is one kind of join key that is not a single fixed-width
// column: the key column types, and the key values of fact row i and
// dimension row j. Rows from split on (0: none) reach their table by Append.
type joinKeyShape struct {
	name                string
	types               []storage.Type
	factRows, dimRows   int
	factSplit, dimSplit int
	fact, dim           func(i int) []storage.Value
	// dicts is how many dictionaries the first key column's partitions carry
	// in each table (-1: not checked).
	dicts int
}

// keyShapeTable builds table name — a leading column, then the shape's key
// columns k0, k1, … — from rows 0..n-1: rows before split in two
// partitions, the rest appended.
func keyShapeTable(t *testing.T, name string, lead storage.Col, types []storage.Type, n, split int, row func(i int) []storage.Value) *storage.Table {
	t.Helper()
	schema := storage.Schema{lead}
	for k, typ := range types {
		schema = append(schema, storage.Col{Name: fmt.Sprintf("%s.k%d", name, k), Typ: typ})
	}
	build := func(lo, hi, parts int) *storage.Table {
		b := storage.NewBuilder(name, schema)
		for i := lo; i < hi; i++ {
			b.AddRow(row(i)...)
		}
		return b.Build(parts)
	}
	if split == 0 {
		return build(0, n, 2)
	}
	tbl, err := build(0, split, 2).Append(build(split, n, 1))
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// keyDicts counts the distinct dictionaries the partitions of tbl's first key
// column carry.
func keyDicts(tbl *storage.Table) int {
	seen := map[*storage.Dict]bool{}
	for p := 0; p < tbl.Partitions(); p++ {
		for _, b := range tbl.Scan(p, storage.BatchSize) {
			if d := b.Vecs[1].Dict; d != nil {
				seen[d] = true
			}
		}
	}
	return len(seen)
}

// TestJoinKeysMatchOracle: every key the numbered path takes — an Int64
// column with no locality, duplicates among it; a float64 column with -0, two
// NaN payloads and both infinities; a bool column; a string column, coded,
// uncoded or under two dictionaries, NUL bytes embedded; and multi-column
// keys mixing types, floats with -0 and two NaN payloads among them — is
// found through the build table version's numbering (Table.GroupIDs). Its
// answers must be the oracle's, and so must every cost counter, at workers
// 1 / 4 / 8 and through a JoinCache's first sight (a miss, admitted) and two
// hits.
func TestJoinKeysMatchOracle(t *testing.T) {
	strs := []string{"alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta", "iota", "kappa", "lambda", "mu"}
	nuls := []string{"", "\x00", "a", "a\x00", "a\x00b", "\x00a", "a\x00\x00"}
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000002), 1.5, -1.5, math.Inf(1)}
	edges := append(floats, math.Inf(-1), 2.5) // 2.5: no dimension row carries it
	rng := rand.New(rand.NewSource(5))
	sparse := make([]int64, 360) // the first 300 are dimension keys
	for i := range sparse {
		sparse[i] = rng.Int63()
	}
	str := func(s string) []storage.Value { return []storage.Value{storage.StringValue(s)} }
	for _, sh := range []joinKeyShape{
		{name: "sparse int64", types: []storage.Type{storage.Int64}, factRows: 3000, dimRows: 400, dicts: -1,
			fact: func(i int) []storage.Value { return []storage.Value{storage.IntValue(sparse[i*7%360])} },
			dim:  func(j int) []storage.Value { return []storage.Value{storage.IntValue(sparse[j%300])} }},
		{name: "float64", types: []storage.Type{storage.Float64}, factRows: 3000, dimRows: 12, dicts: -1,
			fact: func(i int) []storage.Value { return []storage.Value{storage.FloatValue(edges[i%9])} },
			dim:  func(j int) []storage.Value { return []storage.Value{storage.FloatValue(edges[j%8])} }},
		{name: "bool", types: []storage.Type{storage.Bool}, factRows: 3000, dimRows: 5, dicts: -1,
			fact: func(i int) []storage.Value { return []storage.Value{storage.BoolValue(i%3 == 0)} },
			dim:  func(j int) []storage.Value { return []storage.Value{storage.BoolValue(j%3 == 0)} }},
		{name: "coded strings", types: []storage.Type{storage.String}, factRows: 3000, dimRows: 20, dicts: 1,
			fact: func(i int) []storage.Value { return str(strs[i%12]) },
			dim:  func(j int) []storage.Value { return str(strs[j%10]) }},
		{name: "uncoded strings", types: []storage.Type{storage.String}, factRows: 5000, dimRows: 4500, dicts: 0,
			fact: func(i int) []storage.Value { return str(fmt.Sprintf("k%05d", i*7%6000)) },
			dim:  func(j int) []storage.Value { return str(fmt.Sprintf("k%05d", j)) }},
		{name: "two dictionaries", types: []storage.Type{storage.String}, factRows: 3000, dimRows: 30, factSplit: 2000, dimSplit: 20, dicts: 2,
			fact: func(i int) []storage.Value { return str(strs[i%10+i/2000*(i%3)]) },
			dim:  func(j int) []storage.Value { return str(strs[j%10+j/20*(j%3)]) }},
		{name: "NUL-embedded strings", types: []storage.Type{storage.String}, factRows: 3000, dimRows: 12, dicts: -1,
			fact: func(i int) []storage.Value { return str(nuls[i%7]) },
			dim:  func(j int) []storage.Value { return str(nuls[j%6]) }},
		{name: "int64, string", types: []storage.Type{storage.Int64, storage.String}, factRows: 3000, dimRows: 24, dicts: -1,
			fact: func(i int) []storage.Value {
				return []storage.Value{storage.IntValue(int64(i % 9)), storage.StringValue(strs[i%5])}
			},
			dim: func(j int) []storage.Value {
				return []storage.Value{storage.IntValue(int64(j % 6)), storage.StringValue(strs[j%4])}
			}},
		{name: "float64, bool", types: []storage.Type{storage.Float64, storage.Bool}, factRows: 3000, dimRows: 14, dicts: -1,
			fact: func(i int) []storage.Value {
				return []storage.Value{storage.FloatValue(floats[i%7]), storage.BoolValue(i%3 == 0)}
			},
			dim: func(j int) []storage.Value {
				return []storage.Value{storage.FloatValue(floats[j%7]), storage.BoolValue(j%2 == 0)}
			}},
	} {
		t.Run(sh.name, func(t *testing.T) {
			fact := keyShapeTable(t, "jf", storage.Col{Name: "jf.amt", Typ: storage.Float64}, sh.types, sh.factRows, sh.factSplit,
				func(i int) []storage.Value {
					return append([]storage.Value{storage.FloatValue(float64(i % 50))}, sh.fact(i)...)
				})
			dim := keyShapeTable(t, "jd", storage.Col{Name: "jd.g", Typ: storage.Int64}, sh.types, sh.dimRows, sh.dimSplit,
				func(j int) []storage.Value {
					return append([]storage.Value{storage.IntValue(int64(j % 5))}, sh.dim(j)...)
				})
			if sh.dicts >= 0 && (keyDicts(fact) != sh.dicts || keyDicts(dim) != sh.dicts) {
				t.Fatalf("fixture: key dictionaries %d (fact) and %d (dim), want %d each", keyDicts(fact), keyDicts(dim), sh.dicts)
			}
			var factKeys, dimKeys []string
			for k := range sh.types {
				factKeys = append(factKeys, fmt.Sprintf("jf.k%d", k))
				dimKeys = append(dimKeys, fmt.Sprintf("jd.k%d", k))
			}
			agg := &plan.Aggregate{
				Child: &plan.Join{
					Left: &plan.Scan{Table: fact}, Right: &plan.Scan{Table: dim},
					LeftKeys: factKeys, RightKeys: dimKeys,
				},
				GroupBy: []string{"jd.g"},
				Aggs:    []plan.AggSpec{{Kind: stats.Count}, {Kind: stats.Sum, Col: "jf.amt"}},
			}
			want := oracleEval(t, agg)
			if len(want.rows) == 0 {
				t.Fatal("fixture: no fact row finds a match")
			}
			var base string
			check := func(label string, ctx *exec.Context) {
				t.Helper()
				out, fp := engineRun(t, agg, ctx)
				mustMatchOracle(t, label, want, out, 0)
				mustChargeOracle(t, label, want.cost, ctx.Stats)
				if base == "" {
					base = fp
				} else if fp != base {
					t.Fatalf("%s: answer differs from workers=1", label)
				}
			}
			for _, workers := range []int{1, 4, 8} {
				check(fmt.Sprintf("workers=%d", workers), workerCtx(workers, 512))
			}
			jc := exec.NewJoinCache(1 << 30)
			jc.Obs = &obs.JoinCacheObs{}
			for run := 0; run < 3; run++ {
				ctx := workerCtx(4, 512)
				ctx.Joins = jc
				check(fmt.Sprintf("join cache run %d", run), ctx)
			}
			if a, h := jc.Obs.Admissions.Value(), jc.Obs.Hits.Value(); a != 1 || h != 2 {
				t.Fatalf("join cache admissions/hits = %d/%d, want one admission and two hits", a, h)
			}
		})
	}
}

// TestExactSinkNonFinite: an exact aggregate is its sums, and its interval
// has no width, whatever the values. SUM / AVG / COUNT over groups holding
// +Inf, -Inf and NaN, grouped and not, at workers 1 / 4 over 2-row morsels:
// every estimate is the oracle's bit for bit and every half-width exactly 0.
func TestExactSinkNonFinite(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	rows := []struct {
		g string
		x float64
	}{
		{"a", 1}, {"a", inf}, {"a", 2}, {"b", 3}, {"b", -inf}, {"c", nan}, {"c", 4},
		{"d", inf}, {"d", -inf}, {"e", 5}, {"e", 6}, {"f", inf}, {"f", inf},
	}
	b := storage.NewBuilder("t", storage.Schema{{Name: "t.g", Typ: storage.String}, {Name: "t.x", Typ: storage.Float64}})
	for _, r := range rows {
		b.Str(0, r.g)
		b.Float(1, r.x)
	}
	tbl := b.Build(1)
	aggs := []plan.AggSpec{{Kind: stats.Sum, Col: "t.x"}, {Kind: stats.Avg, Col: "t.x"}, {Kind: stats.Count}}
	where := func(p expr.Term) plan.Node { return &plan.Filter{Child: &plan.Scan{Table: tbl}, Pred: expr.Pred{p}} }
	// Which NaN a sum ends in depends on the order its NaN sources meet in
	// (an operation keeps its first operand's payload), so no input mixes
	// the NaN row with an ∞ − ∞.
	for _, agg := range []*plan.Aggregate{
		{Child: &plan.Scan{Table: tbl}, GroupBy: []string{"t.g"}, Aggs: aggs},
		{Child: where(expr.Compare("t.x", expr.GT, storage.FloatValue(4))), Aggs: aggs},
		{Child: where(expr.In("t.g", storage.StringValue("b"), storage.StringValue("d"))), Aggs: aggs},
		{Child: where(expr.Compare("t.g", expr.EQ, storage.StringValue("c"))), Aggs: aggs},
	} {
		want := oracleEval(t, agg)
		for _, workers := range []int{1, 4} {
			ctx := workerCtx(workers, 2)
			op, err := exec.Compile(agg, 7, ctx)
			if err != nil {
				t.Fatal(err)
			}
			out, err := exec.Run(op)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s workers=%d", plan.Format(agg), workers)
			if len(out) != 1 || out[0].Len() != len(want.rows) {
				t.Fatalf("%s: engine answered %d batches, oracle %d rows", label, len(out), len(want.rows))
			}
			ivs := op.(exec.IntervalReporter).Intervals()
			for i, w := range want.rows {
				got := out[0].Row(i)
				lead := len(w) - len(aggs)
				for k := range aggs {
					g, o := got[lead+k].F, w[lead+k].F
					if math.Float64bits(g) != math.Float64bits(o) {
						t.Fatalf("%s: row %d %s: engine %v, oracle %v", label, i, aggs[k].Kind, g, o)
					}
					if iv := ivs[i][k]; math.Float64bits(iv.Estimate) != math.Float64bits(g) || math.Float64bits(iv.HalfWidth) != 0 {
						t.Fatalf("%s: row %d %s: interval %+v for estimate %v, want half-width 0", label, i, aggs[k].Kind, iv, g)
					}
				}
			}
		}
	}
}

// TestPrunedScanMatchesUnpruned: the compiled Filter-over-Scan leaf chain
// prunes provably excluded partitions; the rows are the oracle's whatever
// the layout, the bytes charge only the surviving partitions — all of a
// one-partition copy, whose single zone spans every amount.
func TestPrunedScanMatchesUnpruned(t *testing.T) {
	tbl := exec.OrdersTable()
	f := &plan.Filter{Child: &plan.Scan{Table: tbl}, Pred: exec.AmountAbove(700)}
	want := oracleEval(t, f)
	if len(want.rows) != 300 {
		t.Fatalf("oracle kept %d rows, want 300", len(want.rows))
	}
	whole := &plan.Filter{Child: &plan.Scan{Table: tbl.Repartition(0)}, Pred: f.Pred}

	on := exec.NewContext(0.95)
	pruned, _ := engineRun(t, f, on)
	off := exec.NewContext(0.95)
	full, _ := engineRun(t, whole, off)
	mustMatchOracle(t, "pruned scan", want, pruned, 0)
	mustMatchOracle(t, "one-partition scan", want, full, 0)

	if off.Stats.BaseBytes != tbl.Bytes() {
		t.Fatalf("one-partition charge = %d, want full %d", off.Stats.BaseBytes, tbl.Bytes())
	}
	// amount >= 700 zone-excludes the first two of the three partitions: only
	// the last one's bytes may be charged.
	if last := tbl.PartitionBytes(tbl.Partitions() - 1); on.Stats.BaseBytes != last {
		t.Fatalf("pruned charge = %d, want last partition's %d", on.Stats.BaseBytes, last)
	}
}

// TestPruneAllPartitions: a predicate no row can satisfy prunes every
// partition — zero rows, zero base bytes, no error.
func TestPruneAllPartitions(t *testing.T) {
	ctx := exec.NewContext(0.95)
	f := &plan.Filter{Child: &plan.Scan{Table: exec.OrdersTable()}, Pred: exec.AmountAbove(1e9)}
	out, _ := engineRun(t, f, ctx)
	mustMatchOracle(t, "impossible predicate", oracleEval(t, f), out, 0)
	if len(out) != 0 {
		t.Fatalf("impossible predicate returned %d batches", len(out))
	}
	if ctx.Stats.BaseBytes != 0 {
		t.Fatalf("fully pruned scan charged %d bytes", ctx.Stats.BaseBytes)
	}
}

// TestAggPruneMatchesOracle: the morsel pipeline prunes the same partitions
// as the leaf-chain scan — the oracle's rows over the three-partition table
// and a one-partition copy, at any worker count, and counters that differ by
// exactly the pruned partitions.
func TestAggPruneMatchesOracle(t *testing.T) {
	tbl := exec.OrdersTable()
	agg := &plan.Aggregate{
		Child:   &plan.Filter{Child: &plan.Scan{Table: tbl}, Pred: exec.AmountAbove(700)},
		GroupBy: []string{"orders.cust"},
		Aggs:    []plan.AggSpec{{Kind: stats.Sum, Col: "orders.amount"}},
	}
	want := oracleEval(t, agg)
	// Only the last partition survives the zone test: its rows are scanned
	// and filtered, the 300 at or above 700 aggregated and exchanged.
	last := tbl.PartitionBytes(tbl.Partitions() - 1)
	lastRows := last / ordersRowBytes
	for _, workers := range []int{1, 4} {
		ctx := workerCtx(workers, 0)
		out, _ := engineRun(t, agg, ctx)
		label := fmt.Sprintf("pruned, workers=%d", workers)
		mustMatchOracle(t, label, want, out, 0)
		mustCharge(t, label, ctx.Stats, last, lastRows+lastRows+300, 300*ordersRowBytes, 10)
	}
	whole := &plan.Aggregate{
		Child:   &plan.Filter{Child: &plan.Scan{Table: tbl.Repartition(0)}, Pred: exec.AmountAbove(700)},
		GroupBy: agg.GroupBy,
		Aggs:    agg.Aggs,
	}
	ctx := workerCtx(4, 0)
	out, _ := engineRun(t, whole, ctx)
	mustMatchOracle(t, "one partition", want, out, 0)
	mustCharge(t, "one partition", ctx.Stats, tbl.Bytes(), 1000+1000+300, 300*ordersRowBytes, 10)
}

// TestSketchJoinDeterministicAcrossWorkerCounts: the determinism contract
// covers the sketch sink as it covers the aggregate's — probe = bare scan,
// filter over scan, two-join spine; sketch built inline and reused — with
// byte-identical rows, interval bits, all four cost counters and, for inline
// builds, the persisted bytes of the built sketch at any worker count — also
// at 64-row morsels, dozens per worker, where partials are merged as morsels
// finish and reused many times over. The
// answer itself is held to the oracle's for the Join+Aggregate pair the
// sketch-join stands for: the payload holds the exact per-key counts and
// sums, and only the even order ids have build rows, so the odd customers'
// groups match nothing and the sink must drop them.
func TestSketchJoinDeterministicAcrossWorkerCounts(t *testing.T) {
	fact := exec.BigOrders(30000)
	lb := storage.NewBuilder("lines", storage.Schema{
		{Name: "lines.order", Typ: storage.Int64},
		{Name: "lines.price", Typ: storage.Float64},
	})
	for i := 0; i < 30000; i++ {
		lb.Int(0, int64(2*(i%1500)))
		lb.Float(1, float64(i%97)/7) // fractional: the per-key sums are not integers
	}
	lines := lb.Build(4)

	aggs := []plan.AggSpec{
		{Kind: stats.Count},
		{Kind: stats.Sum, Col: "lines.price"},
		{Kind: stats.Avg, Col: "lines.price"},
		{Kind: stats.Sum, Col: "orders.amount"}, // probe-side column
	}
	// cust < 7 keeps a scattered 70 % of every batch: a real selection vector.
	filtered := &plan.Filter{
		Child: &plan.Scan{Table: fact},
		Pred:  expr.Pred{expr.Compare("orders.cust", expr.LT, storage.IntValue(7))},
	}
	twoJoins := &plan.Join{
		Left: &plan.Join{
			Left: filtered, Right: &plan.Scan{Table: exec.CustomersTable()},
			LeftKeys: []string{"orders.cust"}, RightKeys: []string{"cust.id"},
		},
		Right:    &plan.Scan{Table: exec.RegionsTable()},
		LeftKeys: []string{"cust.region"}, RightKeys: []string{"reg.name"},
	}
	for _, probe := range []struct {
		name    string
		node    plan.Node
		groupBy []string
		groups  int
	}{
		{"bare scan", &plan.Scan{Table: fact}, []string{"orders.cust"}, 5},
		{"filter over scan", filtered, nil, 1},
		{"two-join spine", twoJoins, []string{"reg.rank", "cust.region"}, 1},
	} {
		want := oracleEval(t, &plan.Aggregate{
			Child: &plan.Join{
				Left: probe.node, Right: &plan.Scan{Table: lines},
				LeftKeys: []string{"orders.id"}, RightKeys: []string{"lines.order"},
			},
			GroupBy: probe.groupBy,
			Aggs:    aggs,
		})
		if len(want.rows) != probe.groups {
			t.Fatalf("%s: oracle answers %d groups, fixture meant %d", probe.name, len(want.rows), probe.groups)
		}
		var stored *synopses.SketchJoin
		for _, inline := range []bool{true, false} {
			node := &plan.SketchJoin{
				Probe:     probe.node,
				ProbeKeys: []string{"orders.id"},
				BuildKeys: []string{"lines.order"},
				AggCol:    "lines.price",
				GroupBy:   probe.groupBy,
				Aggs:      aggs,
			}
			if inline {
				node.Build = &plan.Scan{Table: lines}
			} else {
				node.Sketch = stored
			}
			label := fmt.Sprintf("%s, inline=%t", probe.name, inline)

			for _, geo := range []struct {
				morselRows int
				workers    []int
			}{{512, []int{1, 3, 8, 16}}, {64, []int{1, 2, 4, 8}}} {
				where := fmt.Sprintf("%s, morsel rows %d", label, geo.morselRows)
				var base, baseSketch string
				var baseStats exec.RunStats
				for _, workers := range geo.workers {
					ctx := workerCtx(workers, geo.morselRows)
					out, fp := engineRun(t, node, ctx)
					var sketch string
					if inline {
						if len(ctx.Stats.BuiltSketches) != 1 || ctx.Stats.BuiltSketches[0].Op != node {
							t.Fatalf("%s workers=%d: built sketches = %+v", where, workers, ctx.Stats.BuiltSketches)
						}
						stored = ctx.Stats.BuiltSketches[0].Sketch
						sketch = string(persist.Encode(stored))
					} else if len(ctx.Stats.BuiltSketches) != 0 {
						t.Fatalf("%s workers=%d: reuse recorded a built sketch", where, workers)
					}
					st := *ctx.Stats
					st.BuiltSamples, st.BuiltSketches = nil, nil
					if workers == 1 {
						mustMatchOracle(t, where, want, out, 1e-9)
						base, baseSketch, baseStats = fp, sketch, st
						if probe.name == "bare scan" {
							// The sketch sink's own charge is one CPU tuple per
							// probe row and no exchange: 30000 rows scanned and
							// looked up; an inline build scans and adds 30000 more.
							cpu, bytes := int64(2*30000), fact.Bytes()
							if inline {
								cpu, bytes = cpu+2*30000, bytes+lines.Bytes()
							}
							mustCharge(t, where, &st, bytes, cpu, 0, 5)
						}
						continue
					}
					if fp != base {
						t.Fatalf("%s: workers=%d rows or intervals diverge from workers=1", where, workers)
					}
					if sketch != baseSketch {
						t.Fatalf("%s: workers=%d built a different sketch than workers=1", where, workers)
					}
					if st.BaseBytes != baseStats.BaseBytes || st.WarehouseBytes != baseStats.WarehouseBytes ||
						st.CPUTuples != baseStats.CPUTuples || st.ShuffleBytes != baseStats.ShuffleBytes ||
						st.OutputRows != baseStats.OutputRows {
						t.Fatalf("%s: workers=%d counters %+v, workers=1 %+v", where, workers, st, baseStats)
					}
				}
			}
		}
	}
}

// TestOracleMeetsTheCatalogs: every template of the three workload
// generators, two instances each, planned EXACT by the planner; the exact
// root is answered by the oracle and by the engine at workers 1 / 4 / 8 and
// over a repartitioned copy of the catalog. Engine runs are bit-equal to
// each other — rows and intervals; the oracle agrees cell for cell: group
// keys and COUNTs exactly, the rest within 1e-9 relative (the generated
// measures are not integers, and the engine sums per morsel). The oracle
// charges as well, over its own full-width rows, and every engine run's cost
// counters equal its charge exactly — the retiled run against an oracle over
// the retiled catalog, whose partitions prune differently.
func TestOracleMeetsTheCatalogs(t *testing.T) {
	if testing.Short() {
		t.Skip("plans and answers every workload template six ways")
	}
	gens := []struct {
		name string
		gen  func() *workload.Workload
	}{
		{"tpch", func() *workload.Workload { return workload.TPCH(0.002, 3) }},
		{"tpcds", func() *workload.Workload { return workload.TPCDS(0.005, 3) }},
		{"instacart", func() *workload.Workload { return workload.Instacart(0.02, 3) }},
	}
	for _, g := range gens {
		t.Run(g.name, func(t *testing.T) {
			w, retiled := g.gen(), g.gen()
			// 797 is prime: partition boundaries land nowhere near the morsel
			// grid.
			retiled.Catalog.Repartition(797)
			r := rand.New(rand.NewSource(11))
			joins, sorts, emptyBuilds := 0, 0, 0
			for _, tpl := range w.Templates {
				for i := 0; i < 2; i++ {
					sql := tpl.Instantiate(r) + " EXACT"
					root, want := mustMeetOracle(t, tpl.Name, w.Catalog, retiled.Catalog, sql)
					plan.Walk(root, func(n plan.Node) {
						switch n.(type) {
						case *plan.Join:
							joins++
						case *plan.Sort:
							sorts++
						}
					})
					if want.cost.shuffle == 0 {
						emptyBuilds++
					}
				}
			}
			if joins == 0 {
				t.Fatalf("vacuous run: %d joins, %d sorts across %d templates", joins, sorts, len(w.Templates))
			}
			t.Logf("%d joins, %d sorts, %d plans that exchange nothing (an empty topmost build stops them)", joins, sorts, emptyBuilds)
		})
	}
}

// exactRoot plans sql over cat and returns the root of its EXACT plan.
func exactRoot(t testing.TB, cat *storage.Catalog, sql string) plan.Node {
	t.Helper()
	q, err := sqlparser.Parse(sql, cat)
	if err != nil {
		t.Fatalf("%v\nSQL: %s", err, sql)
	}
	pl := planner.New(meta.NewStore(nil), warehouse.NewManager(1<<20, 1<<20, nil), storage.DefaultCostModel())
	ps, err := pl.PlanWith(q, pl.WH.View())
	if err != nil {
		t.Fatalf("%v\nSQL: %s", err, sql)
	}
	return ps.Exact.Root
}

// mustMeetOracle plans sql EXACT over cat and holds the engine to the
// oracle (mustMatchOraclePlan), and the same over retiled — the same rows,
// partitioned differently — against an oracle over retiled. It returns the
// plan and the oracle's answer over cat.
func mustMeetOracle(t *testing.T, name string, cat, retiled *storage.Catalog, sql string) (plan.Node, relation) {
	t.Helper()
	root := exactRoot(t, cat, sql)
	want, base := mustMatchOraclePlan(t, name+"\nSQL: "+sql, root)
	ctx, tiledRoot := workerCtx(4, 0), exactRoot(t, retiled, sql)
	out, fp := engineRun(t, tiledRoot, ctx)
	mustMatchOracle(t, name+" retiled\nSQL: "+sql, want, out, 1e-9)
	mustChargeOracle(t, name+" retiled\nSQL: "+sql, oracleEval(t, tiledRoot).cost, ctx.Stats)
	if fp != base {
		t.Fatalf("%s: engine answer over the retiled catalog differs\nSQL: %s", name, sql)
	}
	return root, want
}

// mustMatchOraclePlan answers an exact plan with the oracle and with the
// engine at workers 1 / 4 / 8: answers bit-equal to each other and equal to
// the oracle's (group keys and COUNTs exactly, the rest within 1e-9
// relative), and every run's counters equal to the oracle's charge. It
// returns the oracle's answer and the engine's bit-exact rendering.
func mustMatchOraclePlan(t *testing.T, label string, root plan.Node) (relation, string) {
	t.Helper()
	want := oracleEval(t, root)
	var base string
	for _, workers := range []int{1, 4, 8} {
		ctx := workerCtx(workers, 0)
		out, fp := engineRun(t, root, ctx)
		label := fmt.Sprintf("%s workers=%d", label, workers)
		mustMatchOracle(t, label, want, out, 1e-9)
		mustChargeOracle(t, label, want.cost, ctx.Stats)
		if base == "" {
			base = fp
		} else if fp != base {
			t.Fatalf("%s: engine answer differs from workers=1", label)
		}
	}
	return want, base
}

// TestSketchJoinsMeetTheCatalogs: every sketch-join candidate the planner
// emits for every template of the three workload generators, two instances
// each, answered by its inline build and by the reuse of what that build
// stored — through persist's codec, as the warehouse holds it — at workers
// 1 / 4 / 8, against the oracle's answer to the Join+Aggregate pair it
// stands for: group keys and COUNTs exactly, the rest within 1e-9 relative.
// The build side is unsampled, so the per-key table is exact and every cell's
// half-width is zero.
func TestSketchJoinsMeetTheCatalogs(t *testing.T) {
	if testing.Short() {
		t.Skip("plans and answers every sketch-join candidate six ways")
	}
	gens := []struct {
		name string
		gen  func() *workload.Workload
	}{
		{"tpch", func() *workload.Workload { return workload.TPCH(0.002, 3) }},
		{"tpcds", func() *workload.Workload { return workload.TPCDS(0.005, 3) }},
		{"instacart", func() *workload.Workload { return workload.Instacart(0.02, 3) }},
	}
	for _, g := range gens {
		t.Run(g.name, func(t *testing.T) {
			w := g.gen()
			r := rand.New(rand.NewSource(11))
			sketches := 0
			for _, tpl := range w.Templates {
				for i := 0; i < 2; i++ {
					sql := tpl.Instantiate(r) + " ERROR WITHIN 10% AT CONFIDENCE 95%"
					q, err := sqlparser.Parse(sql, w.Catalog)
					if err != nil {
						t.Fatalf("%v\nSQL: %s", err, sql)
					}
					pl := planner.New(meta.NewStore(nil), warehouse.NewManager(1<<20, 1<<20, nil), storage.DefaultCostModel())
					ps, err := pl.PlanWith(q, pl.WH.View())
					if err != nil {
						t.Fatalf("%v\nSQL: %s", err, sql)
					}
					for _, c := range ps.Candidates {
						sj, ok := c.Root.(*plan.SketchJoin)
						if !ok || sj.Build == nil {
							continue
						}
						sketches++
						mustSketchMeetOracle(t, fmt.Sprintf("%s %s\nSQL: %s", tpl.Name, c.Desc, sql), sj)
					}
				}
			}
			if sketches == 0 {
				t.Fatalf("vacuous run: no sketch-join candidate across %d templates", len(w.Templates))
			}
			t.Logf("%d sketch-join candidates, each inline and reused", sketches)
		})
	}
}

// mustSketchMeetOracle answers a sketch-join with an inline build by that
// build and by the reuse of what it stored — through persist's codec, as the
// warehouse holds it — at workers 1 / 4 / 8, against the oracle's answer to
// the Join+Aggregate pair it stands for: group keys and COUNTs exactly, the
// rest within 1e-9 relative, every cell's half-width zero (the build side is
// unsampled, so the per-key table is exact), and every run bit-equal to the
// first at its worker count's turn.
func mustSketchMeetOracle(t *testing.T, label string, sj *plan.SketchJoin) {
	t.Helper()
	want := oracleEval(t, &plan.Aggregate{
		Child:   &plan.Join{Left: sj.Probe, Right: sj.Build, LeftKeys: sj.ProbeKeys, RightKeys: sj.BuildKeys},
		GroupBy: sj.GroupBy,
		Aggs:    sj.Aggs,
	})
	reuse := *sj
	reuse.Build = nil
	for _, node := range []*plan.SketchJoin{sj, &reuse} {
		label := fmt.Sprintf("%s, inline=%t", label, node.Build != nil)
		var base string
		for _, workers := range []int{1, 4, 8} {
			ctx := workerCtx(workers, 0)
			op, err := exec.Compile(node, 7, ctx)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			out, err := exec.Run(op)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			mustMatchOracle(t, fmt.Sprintf("%s workers=%d", label, workers), want, out, 1e-9)
			for _, row := range op.(exec.IntervalReporter).Intervals() {
				for _, iv := range row {
					if iv.HalfWidth != 0 {
						t.Fatalf("%s workers=%d: half-width %v, want 0", label, workers, iv.HalfWidth)
					}
				}
			}
			if fp := renderAnswer(out, op); base == "" {
				base = fp
			} else if fp != base {
				t.Fatalf("%s: workers=%d answer differs from workers=1", label, workers)
			}
			if node == sj && workers == 1 {
				stored, err := persist.Decode(persist.Encode(ctx.Stats.BuiltSketches[0].Sketch))
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				reuse.Sketch = stored.(*synopses.SketchJoin)
			}
		}
	}
}

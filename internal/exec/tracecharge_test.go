package exec_test

import (
	"strings"
	"testing"

	"github.com/tasterdb/taster/internal/exec"
	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/obs"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
)

// traceCounts is what a trace node counted.
type traceCounts struct {
	batches, rowsOut, physRows int64
	cached                     bool
}

// TestBuildAndRootTraceCounters pins, by hand from the fixtures' layout,
// every traced node's counters and every run's charge, for a sorted
// aggregate over a join whose build side is a filter, and for a sketch-join
// whose inline build is one; each plan runs twice over one join cache.
//
// orders is 1000 rows of 24 bytes in partitions of 334, 334 and 332 rows,
// amount equal to the row; cust is 10 rows of 28 bytes in one partition,
// east the even ids. A scan counts every batch it reads, a filter the
// batches with a survivor, and a run's node its one output batch.
func TestBuildAndRootTraceCounters(t *testing.T) {
	orders, cust := exec.OrdersTable(), exec.CustomersTable()
	custBelow7 := &plan.Filter{
		Child: &plan.Scan{Table: cust},
		Pred:  expr.Pred{expr.Compare("cust.id", expr.LT, storage.IntValue(7))},
	}
	join := &plan.Join{
		Left: &plan.Scan{Table: orders}, Right: custBelow7,
		LeftKeys: []string{"orders.cust"}, RightKeys: []string{"cust.id"},
	}
	agg := &plan.Aggregate{
		Child:   join,
		GroupBy: []string{"cust.region"},
		Aggs:    []plan.AggSpec{{Kind: stats.Count}, {Kind: stats.Sum, Col: "orders.amount"}},
	}
	sorted := &plan.Sort{Child: agg, By: []string{"count_star"}, Desc: []bool{true}, Limit: 1}

	lastPart := exec.AmountAbove(700)
	build := &plan.Filter{Child: &plan.Scan{Table: orders}, Pred: lastPart}
	sketch := &plan.SketchJoin{
		Probe:     &plan.Scan{Table: cust},
		Build:     build,
		ProbeKeys: []string{"cust.id"},
		BuildKeys: []string{"orders.cust"},
		AggCol:    "orders.amount",
		GroupBy:   []string{"cust.region"},
		Aggs:      []plan.AggSpec{{Kind: stats.Count}, {Kind: stats.Sum, Col: "orders.amount"}},
	}

	type want struct {
		nodes              map[plan.Node]traceCounts
		base, cpu, shuffle int64
		cachedLine         string // in the second run's trace; "" for none
		rows               int
	}
	cases := []struct {
		name string
		root plan.Node
		// first and second run
		runs [2]want
	}{{
		name: "sorted join aggregate",
		root: sorted,
		runs: func() [2]want {
			// The build scans 10 cust rows, evaluates them and keeps 7, each
			// exchanged at 28 bytes. The spine scans and exchanges 1000 orders,
			// the join emits the 700 whose customer survived, and the sink
			// takes and exchanges them at 24+28 bytes; the sort orders 2 rows.
			base := int64(1000*24 + 10*28)
			cpu := int64(10 + 10 + 1000 + 700 + 700 + 2)
			shuffle := int64(7*28 + 1000*24 + 700*(24+28))
			miss := map[plan.Node]traceCounts{
				sorted:           {batches: 1, rowsOut: 1, physRows: 1},
				agg:              {batches: 1, rowsOut: 2, physRows: 2},
				custBelow7:       {batches: 1, rowsOut: 7, physRows: 10},
				custBelow7.Child: {batches: 1, rowsOut: 10, physRows: 10},
			}
			// Served from the cache: the build's counters are the cached
			// table's survivors on its root, and nothing else.
			hit := map[plan.Node]traceCounts{
				sorted:           miss[sorted],
				agg:              miss[agg],
				custBelow7:       {rowsOut: 7, cached: true},
				custBelow7.Child: {cached: true},
			}
			return [2]want{
				{nodes: miss, base: base, cpu: cpu, shuffle: shuffle, rows: 1},
				{nodes: hit, base: base, cpu: cpu, shuffle: shuffle, rows: 1,
					cachedLine: "└─ Filter(cust.id < 7)  (cached rows=7)"},
			}
		}(),
	}, {
		name: "sketch-join with a filtered inline build",
		root: sketch,
		runs: func() [2]want {
			// amount >= 700 prunes the first two orders partitions: the build
			// reads the last one's 332 rows as one batch, evaluates them, and
			// folds the 300 that survive; the probe scans 10 cust rows and
			// folds each. The payload is broadcast: nothing is exchanged.
			base := int64(332*24 + 10*28)
			cpu := int64(332 + 332 + 300 + 10 + 10)
			nodes := map[plan.Node]traceCounts{
				sketch:      {batches: 1, rowsOut: 2, physRows: 2},
				build:       {batches: 1, rowsOut: 300, physRows: 332},
				build.Child: {batches: 1, rowsOut: 332, physRows: 332},
			}
			w := want{nodes: nodes, base: base, cpu: cpu, rows: 2}
			return [2]want{w, w}
		}(),
	}}

	jc := exec.NewJoinCache(1 << 20)
	for _, c := range cases {
		for run, w := range c.runs {
			ctx := workerCtx(2, 0)
			ctx.Joins = jc
			ctx.TraceNodes = make(map[plan.Node]*obs.TraceNode)
			_, fp := engineRun(t, c.root, ctx)
			if n := strings.Count(fp, "\n"); n != w.rows {
				t.Fatalf("%s run %d: %d rows, want %d", c.name, run, n, w.rows)
			}
			for n, wc := range w.nodes {
				tn := ctx.TraceNodes[n]
				if tn == nil {
					t.Fatalf("%s run %d: %s has no trace node", c.name, run, n)
				}
				got := traceCounts{batches: tn.Batches, rowsOut: tn.RowsOut, physRows: tn.PhysRows, cached: tn.Cached}
				if got != wc {
					t.Errorf("%s run %d: %s counted %+v, want %+v", c.name, run, n, got, wc)
				}
			}
			traced := 0
			for _, tn := range ctx.TraceNodes {
				if tn != nil {
					traced++
				}
			}
			if traced != len(w.nodes) {
				t.Errorf("%s run %d: %d traced nodes, want %d", c.name, run, traced, len(w.nodes))
			}
			s := ctx.Stats
			if s.BaseBytes != w.base || s.CPUTuples != w.cpu || s.ShuffleBytes != w.shuffle {
				t.Errorf("%s run %d: charged base=%d cpu=%d shuffle=%d, want base=%d cpu=%d shuffle=%d",
					c.name, run, s.BaseBytes, s.CPUTuples, s.ShuffleBytes, w.base, w.cpu, w.shuffle)
			}
			trace := exec.BuildTraceTree(c.root, ctx.TraceNodes, nil).Render()
			if w.cachedLine != "" && !strings.Contains(trace, w.cachedLine) {
				t.Errorf("%s run %d: trace lacks %q:\n%s", c.name, run, w.cachedLine, trace)
			}
			if w.cachedLine == "" && strings.Contains(trace, "cached") {
				t.Errorf("%s run %d: a build that ran renders as cached:\n%s", c.name, run, trace)
			}
		}
	}
}

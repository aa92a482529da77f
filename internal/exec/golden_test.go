package exec_test

// Approximate plans and spine edges the oracle cannot reach, held to a
// recording (testdata/spine_golden.txt): every plan the planner emits for
// every workload template — inline-sample builds, sketch-join builds, then
// the reuse plans over what those builds stored — plus hand-built
// edge shapes. Per plan the recording pins the answer fingerprint (rows and
// interval bits), all five RunStats counters and the persist.Encode bytes of
// every synopsis the run built. `go test ./internal/exec -run
// TestSpineGolden -update` regenerates it; a refactor of the spine must not.

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/tasterdb/taster/internal/exec"
	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/meta"
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

var updateGolden = flag.Bool("update", false, "rewrite testdata/spine_golden.txt from this run")

func hashOf(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenRun executes root with every node in mat keeping its synopsis, under
// its position in mat as its id (a sample's table is synopsis_<id>), at the
// seed the engine derives from the plan text, and renders one recording line.
// It returns the run's stats so the caller can store what it built.
func goldenRun(t *testing.T, label string, root plan.Node, mat []plan.Node, workers int) (string, *exec.RunStats) {
	t.Helper()
	ctx := workerCtx(workers, 0)
	for i, n := range mat {
		ctx.Materialize[n] = uint64(i)
	}
	op, err := exec.Compile(root, synopses.SeedFromString(plan.Format(root), 42), ctx)
	if err != nil {
		t.Fatalf("%s: %v\n%s", label, err, plan.Format(root))
	}
	mustBeNarrow(t, label, root, op, ctx.Materialize)
	out, err := exec.Run(op)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	st := ctx.Stats
	line := fmt.Sprintf("%s\tanswer=%s base=%d warehouse=%d cpu=%d shuffle=%d out=%d",
		label, hashOf([]byte(renderAnswer(out, op))), st.BaseBytes, st.WarehouseBytes, st.CPUTuples, st.ShuffleBytes, st.OutputRows)
	for _, b := range st.Built {
		switch syn := b.Synopsis.(type) {
		case *synopses.Sample:
			line += fmt.Sprintf(" sample[%d rows]=%s", syn.Rows.NumRows(), hashOf(persist.Encode(syn)))
		case *synopses.SketchJoin:
			line += " sketch=" + hashOf(persist.Encode(syn))
		}
	}
	return line, st
}

// mustBeNarrow walks the plan from its sink down the spine, collecting the
// column names each node reads, and demands that no joined batch holds a
// column nothing above its join names: every column of every spine join's
// physical output schema binds to a name read above it (or is the weight).
// Below a materializing sampler the whole row is read, so nothing is asked.
//
// A sink — aggregate or sketch-join — whose GROUP BY columns all belong to
// one spine table — the leaf, or one join's build table — folds by that
// table's numbering: from that table up every join carries the group id
// column, a group column only where something else reads it, and no join
// below it carries the id.
func mustBeNarrow(t *testing.T, label string, root plan.Node, op *exec.PipelineOp, mat map[plan.Node]uint64) {
	t.Helper()
	n := root
	if s, ok := n.(*plan.Sort); ok {
		n = s.Child
	}
	names := []string{synopses.WeightCol}
	var groupBy []string
	switch sink := n.(type) {
	case *plan.Aggregate:
		groupBy = sink.GroupBy
		for _, ag := range sink.Aggs {
			if ag.Kind != stats.Count {
				names = append(names, ag.Col)
			}
		}
		n = sink.Child
	case *plan.SketchJoin:
		groupBy = sink.GroupBy
		names = append(names, sink.ProbeKeys...)
		for _, ag := range sink.Aggs {
			if ag.Kind != stats.Count && ag.Col != sink.AggCol {
				names = append(names, ag.Col)
			}
		}
		n = sink.Probe
	}
	var spine []plan.Node // top-down
	for n != nil {
		spine = append(spine, n)
		switch t := n.(type) {
		case *plan.Filter:
			n = t.Child
		case *plan.SynopsisOp:
			n = t.Child
		case *plan.Join:
			n = t.Left
		default:
			n = nil
		}
	}
	through := groupsThrough(spine, groupBy)
	if through < 0 {
		names = append(names, groupBy...)
	} else {
		names = append(names, exec.GroupIDCol)
	}

	var readAbove [][]string // per spine join, top-down; nil: the whole row
	var carriesID []bool     // per spine join, top-down
	whole := false
	for i, n := range spine {
		switch t := n.(type) {
		case *plan.Filter:
			names = t.Pred.Columns(names)
		case *plan.SynopsisOp:
			names = append(names, t.StratCols...)
			if _, ok := mat[t]; ok {
				whole = true
			}
		case *plan.Join:
			if whole {
				readAbove = append(readAbove, nil)
			} else {
				readAbove = append(readAbove, append([]string(nil), names...))
			}
			carriesID = append(carriesID, through >= 0 && i <= through)
			names = append(names, t.LeftKeys...)
		}
	}
	schemas := exec.JoinSchemas(op)
	if len(schemas) != len(readAbove) {
		t.Fatalf("%s: %d spine joins compiled, the plan has %d", label, len(schemas), len(readAbove))
	}
	for k, sch := range schemas {
		top := len(readAbove) - 1 - k
		above := readAbove[top]
		if got := sch.Index(exec.GroupIDCol) >= 0; got != carriesID[top] {
			t.Fatalf("%s: join %d (bottom-up) carries the group id: %t, want %t", label, k, got, carriesID[top])
		}
		for _, c := range sch {
			named := above == nil || c.Name == exec.GroupIDCol
			for _, name := range above {
				named = named || storage.Schema{c}.Index(name) == 0
			}
			if !named {
				t.Fatalf("%s: join %d (bottom-up) carries %q, which nothing above it reads (%v)", label, k, c.Name, above)
			}
		}
	}
}

// groupsThrough returns the position in spine (top-down) of the table a
// sink grouping by groupBy folds by the numbering of — the leaf, or
// the join whose build table it is — or -1: the one table that holds every
// group column, when no other table on the spine holds one and, for a
// base-table leaf, its groups average exec.LeafRowsPerGroup rows or more.
func groupsThrough(spine []plan.Node, groupBy []string) int {
	if len(groupBy) == 0 {
		return -1
	}
	holds := func(n plan.Node, name string) bool {
		if f, ok := n.(*plan.Filter); ok {
			n = f.Child
		}
		switch t := n.(type) {
		case *plan.Scan:
			return t.Table.Schema().Index(name) >= 0
		case *plan.SynopsisScan:
			return t.Sample.Rows.Schema().Index(name) >= 0
		}
		return false
	}
	at := -1
	for i, n := range spine {
		var tbl plan.Node // the leaf or a build side
		switch t := n.(type) {
		case *plan.Join:
			tbl = t.Right
		case *plan.Scan, *plan.SynopsisScan:
			tbl = t
		default:
			continue
		}
		some, all := false, true
		for _, g := range groupBy {
			h := holds(tbl, g)
			some, all = some || h, all && h
		}
		switch {
		case all && at < 0:
			at = i
		case some:
			return -1
		}
	}
	if at >= 0 {
		if leaf, ok := spine[at].(*plan.Scan); ok && leaf.Table.GroupCount(groupBy)*exec.LeafRowsPerGroup > leaf.Table.NumRows() {
			return -1
		}
	}
	return at
}

// goldenWorkload records every candidate of every template, cold, then
// stores each build's byproduct and records the reuse candidates of a re-plan.
func goldenWorkload(t *testing.T, w *workload.Workload, lines *[]string) {
	store := meta.NewStore(nil)
	wh := warehouse.NewManager(1<<30, 1<<30, nil)
	pl := planner.New(store, wh, storage.DefaultCostModel())
	planSet := func(sql string) *planner.PlanSet {
		q, err := sqlparser.Parse(sql, w.Catalog)
		if err != nil {
			t.Fatalf("%v\nSQL: %s", err, sql)
		}
		ps, err := pl.PlanWith(q, wh.View())
		if err != nil {
			t.Fatalf("%v\nSQL: %s", err, sql)
		}
		return ps
	}
	r := rand.New(rand.NewSource(23))
	kinds := map[string]int{}
	for _, tpl := range w.Templates {
		sql := tpl.Instantiate(r) + " ERROR WITHIN 10% AT CONFIDENCE 95%"
		for ci, c := range planSet(sql).Candidates {
			var mat []plan.Node
			for _, cs := range c.Creates {
				mat = append(mat, cs.Node)
			}
			label := fmt.Sprintf("%s/%s/cold%d %s", w.Name, tpl.Name, ci, c.Desc)
			line, st := goldenRun(t, label, c.Root, mat, 4)
			if again, _ := goldenRun(t, label, c.Root, mat, 1); again != line {
				t.Fatalf("%s: workers=1 differs from workers=4\n%s\n%s", label, again, line)
			}
			*lines = append(*lines, line)
			kinds[family(c.Desc)]++
			for _, cs := range c.Creates {
				var it *warehouse.Item
				var srcRows int64
				for _, b := range st.Built {
					if b.Node == cs.Node {
						it, srcRows = warehouse.NewItem(cs.Entry.Desc.ID, b.Synopsis), b.SourceRows
					}
				}
				if it == nil {
					t.Fatalf("%s: the run did not build synopsis #%d", label, cs.Entry.Desc.ID)
				}
				if wh.Has(cs.Entry.Desc.ID) {
					continue
				}
				if err := wh.PutWarehouse(it); err != nil {
					t.Fatal(err)
				}
				store.SetActualSize(cs.Entry.Desc.ID, it.Size)
				store.SetFreshness(cs.Entry.Desc.ID, srcRows)
			}
		}
		for ci, c := range planSet(sql).Candidates {
			if len(c.Uses) == 0 {
				continue
			}
			label := fmt.Sprintf("%s/%s/warm%d %s", w.Name, tpl.Name, ci, c.Desc)
			line, _ := goldenRun(t, label, c.Root, nil, 4)
			*lines = append(*lines, line)
			kinds[family(c.Desc)]++
		}
	}
	t.Logf("%s: plan families recorded: %v", w.Name, kinds)
	if w.Name == "tpch" {
		for _, k := range []string{"build distinct-sample", "build sketch-join", "reuse sample", "reuse sketch-join"} {
			if kinds[k] == 0 {
				t.Fatalf("vacuous recording: no %q plan among %v", k, kinds)
			}
		}
	}
}

// family is a plan description's first two words: "build uniform", "reuse
// sketch-join", …
func family(desc string) string {
	f := append(strings.Fields(desc), "", "")
	return f[0] + " " + f[1]
}

// goldenEdge is a hand-built spine whose samplers in mat materialize.
type goldenEdge struct {
	name string
	root plan.Node
	mat  []plan.Node
}

// goldenEdges are spines over the TPC-H catalog, one per edge of the narrow
// spine: each names which columns are read where.
func goldenEdges(t *testing.T, cat *storage.Catalog) []goldenEdge {
	tbl := func(name string) *storage.Table {
		tb, err := cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	scan := func(name string) plan.Node { return &plan.Scan{Table: tbl(name)} }
	count := plan.AggSpec{Kind: stats.Count}
	sum := func(c string) plan.AggSpec { return plan.AggSpec{Kind: stats.Sum, Col: c} }
	join := func(l, r plan.Node, lk, rk string) *plan.Join {
		return &plan.Join{Left: l, Right: r, LeftKeys: []string{lk}, RightKeys: []string{rk}}
	}
	uniform := func(child plan.Node, p float64) *plan.SynopsisOp {
		return &plan.SynopsisOp{Child: child, Kind: plan.UniformSample, P: p, Accuracy: stats.DefaultAccuracy}
	}
	shipdate := expr.Pred{expr.Compare("l_shipdate", expr.LE, storage.IntValue(2000))}
	return []goldenEdge{
		{"count-star, no filter, no group: zero columns read",
			&plan.Aggregate{Child: scan("lineitem"), Aggs: []plan.AggSpec{count}}, nil},
		{"count-star over a join: zero columns above the probe",
			&plan.Aggregate{Child: join(scan("lineitem"), scan("orders"), "l_orderkey", "o_orderkey"), Aggs: []plan.AggSpec{count}}, nil},
		{"filter column nobody above reads",
			&plan.Aggregate{Child: join(&plan.Filter{Child: scan("lineitem"), Pred: shipdate}, scan("orders"), "l_orderkey", "o_orderkey"),
				GroupBy: []string{"o_orderpriority"}, Aggs: []plan.AggSpec{sum("l_extendedprice")}}, nil},
		{"join key read only by its own join, twice",
			&plan.Aggregate{Child: join(join(scan("lineitem"), scan("orders"), "l_orderkey", "o_orderkey"), scan("customer"), "o_custkey", "c_custkey"),
				GroupBy: []string{"c_mktsegment"}, Aggs: []plan.AggSpec{count}}, nil},
		{"string key on the second hop",
			&plan.Aggregate{Child: join(join(scan("lineitem"), scan("orders"), "l_orderkey", "o_orderkey"), scan("customer"), "o_orderpriority", "c_mktsegment"),
				Aggs: []plan.AggSpec{count, sum("c_acctbal")}}, nil},
		{"residual filter above a join reads a build column",
			&plan.Aggregate{Child: &plan.Filter{Child: join(scan("lineitem"), scan("orders"), "l_orderkey", "o_orderkey"),
				Pred: expr.Pred{expr.Compare("o_orderpriority", expr.EQ, storage.StringValue("1-URGENT"))}},
				GroupBy: []string{"l_returnflag"}, Aggs: []plan.AggSpec{sum("l_quantity")}}, nil},
		{"sampler, filter above it, join above that",
			&plan.Aggregate{Child: join(&plan.Filter{Child: uniform(scan("lineitem"), 0.2), Pred: shipdate}, scan("part"), "l_partkey", "p_partkey"),
				GroupBy: []string{"p_brand"}, Aggs: []plan.AggSpec{sum("l_extendedprice")}}, nil},
		{"empty build stops the spine",
			&plan.Aggregate{Child: join(scan("lineitem"), &plan.Filter{Child: scan("orders"),
				Pred: expr.Pred{expr.Compare("o_orderkey", expr.LT, storage.IntValue(-1))}}, "l_orderkey", "o_orderkey"),
				Aggs: []plan.AggSpec{count}}, nil},
	}
}

func TestSpineGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every candidate plan of every workload template")
	}
	var lines []string
	tpch := workload.TPCH(0.01, 3)
	for _, e := range goldenEdges(t, tpch.Catalog) {
		for _, workers := range []int{1, 4} {
			line, _ := goldenRun(t, "edge/"+e.name, e.root, e.mat, workers)
			if workers == 1 {
				lines = append(lines, line)
			} else if line != lines[len(lines)-1] {
				t.Fatalf("workers=4 differs from workers=1\n%s\n%s", line, lines[len(lines)-1])
			}
		}
	}
	goldenWorkload(t, tpch, &lines)
	goldenWorkload(t, workload.TPCDS(0.03, 3), &lines)
	goldenWorkload(t, workload.Instacart(0.1, 3), &lines)

	path := filepath.Join("testdata", "spine_golden.txt")
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for i, l := range lines {
		if i >= len(wantLines) || l != wantLines[i] {
			w := "(no such line)"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Fatalf("line %d moved\n got: %s\nwant: %s", i+1, l, w)
		}
	}
	if len(wantLines) != len(lines) {
		t.Fatalf("recorded %d plans, the recording holds %d", len(lines), len(wantLines))
	}
}

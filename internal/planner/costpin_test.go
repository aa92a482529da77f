package planner_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/meta"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/planner"
	"github.com/tasterdb/taster/internal/sqlparser"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/warehouse"
	"github.com/tasterdb/taster/internal/workload"
)

var updateCosts = flag.Bool("update", false, "rewrite testdata/plan_costs.txt from this run")

// pinPartitionRows splits every table into partitions small enough that
// range filters on clustered columns prune some of them, so the recording
// holds pruned charges beside whole-table ones.
const pinPartitionRows = 1024

// TestPlanSetCostsPinned records, bit for bit, what the planner estimates for
// every candidate of every template of the three workloads: each candidate's
// description, the synopses it uses and creates, a hash of its plan text and
// its cost's float64 bits, and the plan set's reuse costs. Each template is
// planned cold, then every build candidate runs and stores its byproduct, and
// the template is planned again warm. Both passes run at Parallelism 1 and 4.
// A refactor of the planner must leave the recording alone; only a deliberate
// change of the cost model or of plan shapes regenerates it:
// `go test ./internal/planner -run TestPlanSetCostsPinned -update`.
func TestPlanSetCostsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every build candidate of every workload template")
	}
	var lines []string
	pruned := 0
	for _, w := range []*workload.Workload{workload.TPCH(0.01, 3), workload.TPCDS(0.03, 3), workload.Instacart(0.1, 3)} {
		w.Catalog.Repartition(pinPartitionRows)
		for _, par := range []float64{1, 4} {
			lines = append(lines, pinWorkload(t, w, par, &pruned)...)
		}
	}
	if pruned == 0 {
		t.Fatal("vacuous recording: no filter of any template prunes a partition")
	}

	path := filepath.Join("testdata", "plan_costs.txt")
	got := strings.Join(lines, "\n") + "\n"
	if *updateCosts {
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
		t.Fatalf("recorded %d lines, the recording holds %d", len(lines), len(wantLines))
	}
}

// pinWorkload plans every template of w cold and warm on a fresh store and
// warehouse and returns the recording's lines. pruned counts the templates
// with a filter that zone-prunes one of its tables.
func pinWorkload(t *testing.T, w *workload.Workload, par float64, pruned *int) []string {
	store := meta.NewStore(nil)
	wh := warehouse.NewManager(1<<30, 1<<30, nil)
	pl := planner.New(store, wh, storage.DefaultCostModel())
	pl.Parallelism = par
	var lines []string
	r := rand.New(rand.NewSource(23))
	for _, tpl := range w.Templates {
		sql := tpl.Instantiate(r) + " ERROR WITHIN 10% AT CONFIDENCE 95%"
		q, err := sqlparser.Parse(sql, w.Catalog)
		if err != nil {
			t.Fatalf("%v\nSQL: %s", err, sql)
		}
		if par == 1 {
			for _, ref := range q.Tables {
				if _, bytes, _ := expr.Prune(q.FilterForTable(ref.Name), ref.Table); bytes < ref.Table.Bytes() {
					*pruned++
					break
				}
			}
		}
		label := fmt.Sprintf("%s/%s/p%g", w.Name, tpl.Name, par)
		cold, err := pl.PlanWith(q, wh.View())
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		lines = append(lines, pinLines(label+"/cold", cold)...)
		for _, c := range cold.Candidates {
			storeBuilt(t, label+" "+c.Desc, c, store, wh)
		}
		warm, err := pl.PlanWith(q, wh.View())
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		lines = append(lines, pinLines(label+"/warm", warm)...)
	}
	return lines
}

// pinLines renders a plan set: one line per candidate, then its reuse costs.
func pinLines(label string, ps *planner.PlanSet) []string {
	var out []string
	for i, c := range ps.Candidates {
		var creates []uint64
		for _, cs := range c.Creates {
			creates = append(creates, cs.Entry.Desc.ID)
		}
		h := fnv.New64a()
		h.Write([]byte(plan.Format(c.Root)))
		out = append(out, fmt.Sprintf("%s/%d %s\tuses=%v creates=%v plan=%016x cost=%016x",
			label, i, c.Desc, c.Uses, creates, h.Sum64(), math.Float64bits(c.Cost)))
	}
	var rc []string
	for _, r := range ps.ReuseCost {
		rc = append(rc, fmt.Sprintf("%d:%016x", r.ID, math.Float64bits(r.Cost)))
	}
	return append(out, fmt.Sprintf("%s reuse=[%s]", label, strings.Join(rc, " ")))
}

package core

import (
	"math/rand"
	"testing"

	"github.com/tasterdb/taster/internal/exec"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/sqlparser"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/workload"
)

// TestPlannerRootsRunOnTheMorselSpine pins the executor the planner's output
// reaches: every candidate root emitted for the three workload generators —
// cold (exact, inline samplers, sketch builds) and against a warmed
// warehouse (sample and sketch reuse) — is an aggregate or a sketch-join,
// under an optional Sort, and exec compiles either to the one PipelineOp.
// There is no other executor for a plan to reach.
func TestPlannerRootsRunOnTheMorselSpine(t *testing.T) {
	for _, w := range []*workload.Workload{
		workload.TPCH(0.004, 3), workload.TPCDS(0.01, 3), workload.Instacart(0.05, 3),
	} {
		bytes, rows := w.CostScale()
		e := New(w.Catalog, Config{
			Mode:          ModeTaster,
			StorageBudget: bytes,
			BufferSize:    bytes,
			CostModel:     storage.ScaledCostModel(bytes, rows),
			Seed:          7,
			Synchronous:   true,
		})
		r := rand.New(rand.NewSource(5))
		var sqls []string
		for _, tpl := range w.Templates {
			for i := 0; i < 2; i++ {
				sqls = append(sqls, tpl.Instantiate(r)+" ERROR WITHIN 10% AT CONFIDENCE 95%")
			}
		}

		var aggs, sketches, reuses int
		check := func(sql string) {
			q, err := sqlparser.Parse(sql, w.Catalog)
			if err != nil {
				t.Fatalf("%s: %v\nSQL: %s", w.Name, err, sql)
			}
			ps, err := e.pl.PlanWith(q, e.snap.Load().wh)
			if err != nil {
				t.Fatalf("%s: %v\nSQL: %s", w.Name, err, sql)
			}
			for _, c := range ps.Candidates {
				if len(c.Uses) > 0 {
					reuses++
				}
				root := c.Root
				if s, ok := root.(*plan.Sort); ok {
					root = s.Child
				}
				switch root.(type) {
				case *plan.SketchJoin:
					sketches++
				case *plan.Aggregate:
					aggs++
				default:
					t.Fatalf("%s: candidate %q has root %T\nSQL: %s", w.Name, c.Desc, root, sql)
				}
				if _, err := exec.Compile(c.Root, 1, exec.NewContext(q.Accuracy.Confidence)); err != nil {
					t.Fatalf("%s: compile %q: %v\n%s", w.Name, c.Desc, err, plan.Format(c.Root))
				}
			}
		}
		for _, sql := range sqls {
			check(sql) // cold, then progressively warmer, warehouse
			q, err := sqlparser.Parse(sql, w.Catalog)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Execute(q); err != nil {
				t.Fatalf("%s: %v\nSQL: %s", w.Name, err, sql)
			}
		}
		for _, sql := range sqls {
			check(sql) // fully warmed: reuse candidates for everything kept
		}
		if aggs == 0 || sketches == 0 || reuses == 0 {
			t.Fatalf("%s: vacuous run: %d aggregate roots, %d sketch-join roots, %d reuse candidates",
				w.Name, aggs, sketches, reuses)
		}
	}
}

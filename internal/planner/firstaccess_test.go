package planner_test

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/tasterdb/taster/internal/meta"
	"github.com/tasterdb/taster/internal/planner"
	"github.com/tasterdb/taster/internal/sqlparser"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/warehouse"
	"github.com/tasterdb/taster/internal/workload"
)

// BenchmarkPlanFirstAccess times the first plan of each TPC-H template over
// a fresh lineitem version (sf 0.1, 600 000 rows): what a query pays after
// an append for the statistics its plan reads. Each iteration, outside the
// timer, appends no rows to lineitem — a new version that shares every
// partition, and so every zone map, and has counted nothing — and parses
// one instance of the template against it and collects garbage; the timer
// covers Plan alone. Each template plans on a planner of its own, so what
// one template's plans left in a planner, and the garbage they left, does
// not weigh on the next: a template reads the same alone as after others.
func BenchmarkPlanFirstAccess(b *testing.B) {
	w := workload.TPCH(0.1, 1)
	li, err := w.Catalog.Table("lineitem")
	if err != nil {
		b.Fatal(err)
	}
	none := storage.NewBuilder("lineitem", li.Schema()).Build(1)
	for _, tpl := range w.Templates {
		b.Run(tpl.Name, func(b *testing.B) {
			pl := planner.New(meta.NewStore(nil), warehouse.NewManager(1<<30, 1<<30, nil), storage.DefaultCostModel())
			r := rand.New(rand.NewSource(1))
			for range b.N {
				b.StopTimer()
				if _, err := w.Catalog.Append("lineitem", none); err != nil {
					b.Fatal(err)
				}
				q, err := sqlparser.Parse(tpl.Instantiate(r)+" ERROR WITHIN 10% AT CONFIDENCE 95%", w.Catalog)
				if err != nil {
					b.Fatal(err)
				}
				runtime.GC()
				b.StartTimer()
				if _, err := pl.Plan(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

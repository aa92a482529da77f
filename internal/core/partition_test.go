package core

import (
	"fmt"
	"sync"
	"testing"

	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/planner"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
)

// partQuery is catQuery with two fact-side aggregates: sketch-ineligible, so
// sample reuse is the only sub-exact plan shape (the PinSample test's trick).
func partQuery(e *Engine) *planner.Query {
	q := catQuery(e)
	q.Aggs = []plan.AggSpec{
		{Kind: stats.Sum, Col: "sales.qty"},
		{Kind: stats.Sum, Col: "sales.price"},
	}
	return q
}

// pinSalesHint pins a whole-table sample of sales, drawn by smp, that can
// serve partQuery, and returns its synopsis id.
func pinSalesHint(t *testing.T, e *Engine, smp synopses.Sampler) uint64 {
	t.Helper()
	sales, _ := e.Catalog().Table("sales")
	id, err := e.PinSample("sales",
		synopses.BuildSampleFromTable("hint", sales, smp, []string{"sales.product"}),
		[]string{"sales.qty", "sales.price"},
		stats.AccuracySpec{RelError: 0.05, Confidence: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// runsOn executes partQuery and reports whether the chosen plan read
// synopsis id.
func runsOn(t *testing.T, e *Engine, id uint64) (*Result, bool) {
	t.Helper()
	res, err := e.Execute(partQuery(e))
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range res.Report.UsedSynopses {
		if u == id {
			return res, true
		}
	}
	return res, false
}

// TestPartitionedIngestQuerySpillStorm races the partitioned engine end to
// end: concurrent queries (zone-pruned scans, reuse of a pinned sample,
// spill fault-ins off the tiny buffer) against appends that grow the
// tail partition and open new ones, plus elastic budget churn. Run under
// -race by the concurrency suite (`make test-race`); the asserts check the
// engine lands coherent — answers over evolved data, a warehouse that
// reopens cleanly.
func TestPartitionedIngestQuerySpillStorm(t *testing.T) {
	dir := t.TempDir()
	cat := testCatalog()
	e, err := Open(cat, Config{
		Mode:          ModeTaster,
		StorageBudget: cat.TotalBytes(),
		BufferSize:    1 << 10, // admissions overflow straight to disk
		CostModel:     storage.ScaledCostModel(cat.TotalBytes(), 30040),
		Seed:          7,
		PartitionRows: 9000,
		MaxStaleness:  -1, // serve through the append churn
		WarehouseDir:  dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	pinSalesHint(t, e, synopses.NewUniformSampler(0.05, 3))

	const clients, perClient = 4, 10
	var wg sync.WaitGroup
	errCh := make(chan error, clients+2)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				q := persistQuery(e, i+c)
				if i%3 == 0 {
					q = partQuery(e)
				}
				res, err := e.Execute(q)
				if err != nil {
					errCh <- err
					return
				}
				if len(res.Rows) == 0 {
					errCh <- fmt.Errorf("client %d query %d: empty result", c, i)
					return
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() { // appends grow the tail partition and open new ones
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if _, err := e.Ingest("sales", salesDelta(1500, 4)); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // elastic budget churn forces spills and evictions
		defer wg.Done()
		for i := 0; i < 6; i++ {
			e.SetStorageBudget(cat.TotalBytes() / int64(1+i%3))
			e.Drain()
		}
		e.SetStorageBudget(cat.TotalBytes())
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	e.Quiesce()

	// The evolved table must have absorbed every append into the layout.
	sales, _ := e.Catalog().Table("sales")
	if got, want := sales.NumRows(), 30000+8*1500; got != want {
		t.Fatalf("sales rows after storm = %d, want %d", got, want)
	}
	if sales.Partitions() < 5 {
		t.Fatalf("appends opened no new partition: %d partitions", sales.Partitions())
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := persistEngine(cat, dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	storedEntries(t, e2)
}

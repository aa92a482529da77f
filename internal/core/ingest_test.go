package core

import (
	"math"
	"sync"
	"testing"

	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
)

// salesDelta builds an append batch for the test catalog's sales table with
// a value distribution deliberately unlike the seed data, so answers over
// the evolved table shift measurably.
func salesDelta(n int, qty float64) *storage.Table {
	b := storage.NewBuilder("sales", storage.Schema{
		{Name: "sales.product", Typ: storage.Int64},
		{Name: "sales.qty", Typ: storage.Float64},
		{Name: "sales.price", Typ: storage.Float64},
	})
	for i := 0; i < n; i++ {
		b.Int(0, int64(i%40))
		b.Float(1, qty)
		b.Float(2, 10)
	}
	return b.Build(1)
}

// exactOn answers the test query exactly over the engine's current catalog
// state (shares the catalog, so it sees ingested rows).
func exactOn(t *testing.T, e *Engine) map[int64]float64 {
	t.Helper()
	ex := New(e.Catalog(), Config{Mode: ModeExact, CostModel: storage.ScaledCostModel(e.Catalog().TotalBytes(), 1)})
	res, err := ex.Execute(catQuery(ex))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[int64]float64)
	for _, r := range res.Rows {
		out[r[0].I] = r[1].F
	}
	return out
}

// TestIngestBoundsStaleness is the PR's acceptance scenario: materialize a
// sample, append rows that shift the answer, query again. Under the default
// fresh-only policy the engine must NOT silently serve the frozen sample —
// the pre-ingestion behavior — but refresh it (or answer another way) so the
// result tracks the evolved data within the accuracy bound.
func TestIngestBoundsStaleness(t *testing.T) {
	e := testEngine(ModeTaster) // MaxStaleness 0: fresh-only
	for i := 0; i < 6; i++ {
		if _, err := e.Execute(catQuery(e)); err != nil {
			t.Fatal(err)
		}
	}
	warm, err := e.Execute(catQuery(e))
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Report.UsedSynopses) == 0 {
		t.Fatal("test setup: engine must be reusing a synopsis before the append")
	}
	reused := warm.Report.UsedSynopses[0]

	// Double the table with rows whose qty distribution is ~10x the seed's.
	epoch, err := e.Ingest("sales", salesDelta(30000, 40))
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("epoch after first ingest = %d", epoch)
	}
	if s := e.Store().Staleness(reused); s < 0.4 {
		t.Fatalf("synopsis staleness after doubling append = %v, want ~0.5", s)
	}

	truth := exactOn(t, e)
	res, err := e.Execute(catQuery(e))
	if err != nil {
		t.Fatal(err)
	}
	// The frozen sample would miss all 30000 new rows (~85% of the total
	// qty mass), so any answer within 15% of the evolved truth proves the
	// stale snapshot was not silently served.
	for _, r := range res.Rows {
		want := truth[r[0].I]
		if rel := math.Abs(r[1].F-want) / want; rel > 0.15 {
			t.Fatalf("cat %d: rel error vs evolved data %.3f > 15%% (stale answer served?)", r[0].I, rel)
		}
	}
	// Whatever synopsis answered must itself be fresh under the bound.
	for _, id := range res.Report.UsedSynopses {
		if s := e.Store().Staleness(id); s > 1e-9 {
			t.Fatalf("fresh-only policy served synopsis #%d with staleness %v", id, s)
		}
	}

	// Subsequent queries converge back to reuse over the evolved table, and
	// the reused synopsis reflects the new epoch.
	var last *Result
	for i := 0; i < 5; i++ {
		if last, err = e.Execute(catQuery(e)); err != nil {
			t.Fatal(err)
		}
	}
	if len(last.Report.UsedSynopses) == 0 {
		t.Fatalf("no reuse after refresh cycle: %+v", last.Report)
	}
}

// TestIngestRefreshReplacesStaleCopy drives the refresh path explicitly:
// after an append, a rebuild of the same descriptor must replace the stored
// stale copy (Report.Refreshed) rather than no-op against it.
func TestIngestRefreshReplacesStaleCopy(t *testing.T) {
	e := testEngine(ModeTaster)
	for i := 0; i < 6; i++ {
		if _, err := e.Execute(catQuery(e)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Ingest("sales", salesDelta(30000, 40)); err != nil {
		t.Fatal(err)
	}
	refreshed := 0
	for i := 0; i < 6; i++ {
		res, err := e.Execute(catQuery(e))
		if err != nil {
			t.Fatal(err)
		}
		refreshed += len(res.Report.Refreshed)
	}
	if refreshed == 0 {
		t.Fatal("no synopsis was refreshed after the append")
	}
}

// TestIngestRefreshesPinnedSample: a pinned hint must not become dead
// weight after ingestion — the refresh path replaces its payload in place,
// carrying the pin, so it serves queries again under the fresh-only policy.
func TestIngestRefreshesPinnedSample(t *testing.T) {
	e := testEngine(ModeTaster)
	sales, _ := e.Catalog().Table("sales")
	smp := synopses.BuildSampleFromTable("hint", sales,
		synopses.NewDistinctSampler(0.01, 10, []int{0}, 3),
		[]string{"sales.product"})
	id, err := e.PinSample("sales", smp,
		[]string{"sales.product"}, []string{"sales.qty", "sales.price"},
		stats.AccuracySpec{RelError: 0.05, Confidence: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest("sales", salesDelta(30000, 40)); err != nil {
		t.Fatal(err)
	}
	if s := e.Store().Staleness(id); s < 0.4 {
		t.Fatalf("pinned sample staleness after append = %v", s)
	}
	// Rebuild the hint over the evolved table and re-pin: the stored copy
	// must be refreshed in place (not rejected as a duplicate), stay
	// pinned, and read fresh again.
	cur, _ := e.Catalog().Table("sales")
	smp2 := synopses.BuildSampleFromTable("hint", cur,
		synopses.NewDistinctSampler(0.01, 10, []int{0}, 3),
		[]string{"sales.product"})
	id2, err := e.PinSample("sales", smp2,
		[]string{"sales.product"}, []string{"sales.qty", "sales.price"},
		stats.AccuracySpec{RelError: 0.05, Confidence: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id {
		t.Fatalf("re-pin interned a new descriptor: %d vs %d", id2, id)
	}
	if s := e.Store().Staleness(id); s > 1e-9 {
		t.Fatalf("refreshed pinned sample still stale: %v", s)
	}
	it, _, ok := e.Warehouse().Get(id)
	if !ok || !it.Pinned {
		t.Fatal("refresh did not keep the pinned copy")
	}
	if got, err := it.Sample(); err != nil || got != smp2 {
		t.Fatalf("refresh did not replace the pinned copy in place: %v %v", got, err)
	}
	e.SetStorageBudget(1)
	if !e.Warehouse().Has(id) {
		t.Fatal("refreshed pinned sample lost its pin")
	}
}

// TestPinnedSampleStaleOnPartitionedTable: synopses are whole-table scoped
// whatever the storage layout, so on a partitioned table one row appended to
// the tail partition stales a pinned sample of the relation, and the
// fresh-only policy then refuses it.
func TestPinnedSampleStaleOnPartitionedTable(t *testing.T) {
	cat := testCatalog()
	e := New(cat, Config{
		Mode:          ModeTaster,
		StorageBudget: cat.TotalBytes(),
		BufferSize:    cat.TotalBytes(),
		CostModel:     storage.ScaledCostModel(cat.TotalBytes(), 30040),
		Seed:          7,
		PartitionRows: 9000, // sales tiles as [9000, 9000, 9000, 3000]
		Synchronous:   true,
	})
	sales, _ := e.Catalog().Table("sales")
	if sales.Partitions() != 4 {
		t.Fatalf("test setup: sales has %d partitions, want 4", sales.Partitions())
	}
	id := pinSalesHint(t, e, synopses.NewDistinctSampler(0.01, 10, []int{0}, 3))
	if s := e.Store().Staleness(id); s != 0 {
		t.Fatalf("pinned sample stale before any append: %v", s)
	}
	if _, ok := runsOn(t, e, id); !ok {
		t.Fatal("test setup: the fresh pinned sample must serve the query")
	}
	// qty stays inside the base distribution, so the refusal below is the
	// staleness policy's and not a raised sample-size bar.
	if _, err := e.Ingest("sales", salesDelta(1, 4)); err != nil {
		t.Fatal(err)
	}
	if got, want := e.Store().Staleness(id), 1.0/30001.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("staleness after a one-row append = %v, want %v", got, want)
	}
	if _, ok := runsOn(t, e, id); ok {
		t.Fatal("fresh-only policy served a pinned sample that has missed a row")
	}
}

// TestIngestDeterministicAcrossWorkers: the acceptance criterion's
// byte-identical guarantee extends to the ingest path — the same
// query/append/query sequence yields identical rows at any worker count.
func TestIngestDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) [][]storage.Value {
		cat := testCatalog()
		e := New(cat, Config{
			Mode:          ModeTaster,
			StorageBudget: cat.TotalBytes(),
			BufferSize:    cat.TotalBytes(),
			CostModel:     storage.ScaledCostModel(cat.TotalBytes(), 30040),
			Seed:          7,
			Workers:       workers,
			Synchronous:   true, // worker-count identity is a sequential-pipeline property
		})
		var rows [][]storage.Value
		for i := 0; i < 3; i++ {
			res, err := e.Execute(catQuery(e))
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, res.Rows...)
		}
		if _, err := e.Ingest("sales", salesDelta(5000, 40)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			res, err := e.Execute(catQuery(e))
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, res.Rows...)
		}
		return rows
	}
	a, b := run(1), run(4)
	if len(a) != len(b) {
		t.Fatalf("row count differs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		for c := range a[i] {
			if !a[i][c].Equal(b[i][c]) {
				t.Fatalf("row %d col %d differs: %v vs %v", i, c, a[i][c], b[i][c])
			}
		}
	}
}

// TestIngestConcurrentWithExecute exercises the lock discipline under the
// race detector: queries, ingests and elastic budget changes in flight at
// once must neither race nor error.
func TestIngestConcurrentWithExecute(t *testing.T) {
	e := testEngine(ModeTaster)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := e.Execute(catQuery(e)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if _, err := e.Ingest("sales", salesDelta(500, 40)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		budgets := []int64{1 << 20, 1 << 26, 1 << 18, 1 << 27}
		for _, b := range budgets {
			e.SetStorageBudget(b)
		}
	}()
	wg.Wait()
}

// TestShrinkOverflowReachesZero: after any elastic shrink, the fallback
// eviction must bring the warehouse within quota whenever unpinned synopses
// exist — a failed tuner round or delete must not strand overflow.
func TestShrinkOverflowReachesZero(t *testing.T) {
	e := testEngine(ModeTaster)
	for i := 0; i < 6; i++ {
		if _, err := e.Execute(catQuery(e)); err != nil {
			t.Fatal(err)
		}
	}
	for _, budget := range []int64{1 << 16, 1 << 12, 64, 1} {
		e.SetStorageBudget(budget)
		if e.Warehouse().Overflow() > 0 {
			for _, it := range e.Warehouse().WarehouseItems() {
				if !it.Pinned {
					t.Fatalf("budget %d: overflow %d with unpinned item #%d still stored",
						budget, e.Warehouse().Overflow(), it.ID)
				}
			}
		}
	}
}

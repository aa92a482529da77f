package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/tasterdb/taster/internal/meta"
	"github.com/tasterdb/taster/internal/obs"
	"github.com/tasterdb/taster/internal/planner"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/synopses"
)

// asyncTestEngine builds an engine on the default asynchronous tuning
// pipeline (background service + snapshot publishes) with a fresh metrics
// registry, the record of what the service counted.
func asyncTestEngine() *Engine {
	cat := testCatalog()
	cfg := testConfig(cat, ModeTaster)
	cfg.Synchronous = false
	cfg.Metrics = obs.NewMetrics()
	return New(cat, cfg)
}

// reportFingerprint canonicalizes the deterministic part of a report.
// Warehouse/buffer occupancy is excluded: Execute samples it right after
// enqueueing its observation, so under asynchronous tuning it legitimately
// depends on whether the background admission already landed.
func reportFingerprint(r Report) string {
	return fmt.Sprintf("%d|%s|%v|%v|%v|%.9f|%.9f|%d",
		r.QueryID, r.PlanDesc, r.UsedSynopses, r.CreatedSynopses, r.Evicted,
		r.EstimatedCost, r.SimSeconds, r.Window)
}

// TestAsyncConvergesToReuse: the asynchronous pipeline must reach the same
// steady state as the inline round — materialize a synopsis as a byproduct,
// then serve subsequent queries from it — with at most one extra round of
// warmup (the first query plans against a snapshot that predates its own
// observation). Execute→Drain makes the loop deterministic.
func TestAsyncConvergesToReuse(t *testing.T) {
	e := asyncTestEngine()
	defer e.Close()
	truth := exactAnswer(t)

	var first, last *Result
	for i := 0; i < 8; i++ {
		res, err := e.Execute(catQuery(e))
		if err != nil {
			t.Fatal(err)
		}
		e.Drain()
		if i == 0 {
			first = res
		}
		last = res
		if len(res.Rows) != 4 {
			t.Fatalf("run %d: %d groups (missing groups!)", i, len(res.Rows))
		}
		for _, r := range res.Rows {
			want := truth[r[0].I]
			if rel := math.Abs(r[1].F-want) / want; rel > 0.15 {
				t.Fatalf("run %d cat %d: rel error %.3f > 15%%", i, r[0].I, rel)
			}
		}
	}
	if len(last.Report.UsedSynopses) == 0 {
		t.Fatalf("no synopsis reuse by run 8: %+v", last.Report)
	}
	if last.Report.SimSeconds >= first.Report.SimSeconds {
		t.Fatalf("reuse did not speed up: cold %.3f warm %.3f",
			first.Report.SimSeconds, last.Report.SimSeconds)
	}
	s := e.MetricsSnapshot()
	if s.TuningRounds == 0 || s.TuningBatchSize.Sum != 8 || s.WarehouseAdmissions == 0 {
		t.Fatalf("rounds %d, observations %v, admissions %d: want rounds, 8 observations and an admission",
			s.TuningRounds, s.TuningBatchSize.Sum, s.WarehouseAdmissions)
	}
	if s.TuningShed != 0 {
		t.Fatalf("unexpected shed observations: %d", s.TuningShed)
	}
}

// TestAsyncExecuteDrainDeterministic: with the Drain barrier between
// queries, two identical asynchronous runs must be byte-identical — same
// plans, same synopsis activity, same rows. This is the async pipeline's
// determinism contract (the synchronous flag gives the same guarantee
// without barriers; see TestSyncModeDeterministic).
func TestAsyncExecuteDrainDeterministic(t *testing.T) {
	run := func() (reps []string, rows []string) {
		e := asyncTestEngine()
		defer e.Close()
		mix := mixedQueries(e)
		for round := 0; round < 3; round++ {
			for _, mk := range mix {
				res, err := e.Execute(mk())
				if err != nil {
					t.Fatal(err)
				}
				e.Drain()
				rows = append(rows, resultFingerprint(res))
				reps = append(reps, reportFingerprint(res.Report))
			}
		}
		return reps, rows
	}
	repsA, rowsA := run()
	repsB, rowsB := run()
	for i := range repsA {
		if repsA[i] != repsB[i] {
			t.Fatalf("report %d diverges across async runs:\nA %s\nB %s", i, repsA[i], repsB[i])
		}
	}
	for i := range rowsA {
		if rowsA[i] != rowsB[i] {
			t.Fatalf("result %d diverges across async runs:\nA %.160s\nB %.160s", i, rowsA[i], rowsB[i])
		}
	}
}

// assertSnapshotLive fails unless the published snapshot describes the live
// warehouse and the tuner's current window — what every mutating entry point
// must leave behind, since every query plans and reports from the snapshot.
func assertSnapshotLive(t *testing.T, e *Engine, after string) {
	t.Helper()
	e.tuneMu.Lock()
	defer e.tuneMu.Unlock()
	snap := e.snap.Load()
	if !snap.wh.SameContents(e.wh.View()) {
		t.Fatalf("after %s: published snapshot does not describe the live warehouse", after)
	}
	if snap.window != e.tn.Window() {
		t.Fatalf("after %s: published window %d, tuner window %d", after, snap.window, e.tn.Window())
	}
}

// TestSyncModeDeterministic: Config.Synchronous is the tuning round scheduled
// inline — round → execute → admit on the calling goroutine. Two sequential
// runs must produce identical report streams including tuning activity
// (evictions, windows), which is what the figure experiments rely on. Along
// the way the inline schedule must keep the published snapshot current after
// every mutating entry point, and count its rounds and rearrangements into
// the metrics registry exactly as its per-query reports list them, plus
// what the elastic shrink evicted.
func TestSyncModeDeterministic(t *testing.T) {
	run := func() []string {
		cat := testCatalog()
		cfg := testConfig(cat, ModeTaster) // Synchronous: true
		cfg.Metrics = obs.NewMetrics()
		e := New(cat, cfg)
		mix := mixedQueries(e)
		var out []string
		var served, created, evicted, promoted, refreshed, shrunk int64
		for round := 0; round < 3; round++ {
			for _, mk := range mix {
				res, err := e.Execute(mk())
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, reportFingerprint(res.Report), resultFingerprint(res))
				assertSnapshotLive(t, e, "Execute: "+res.Report.PlanDesc)
				served++
				created += int64(len(res.Report.CreatedSynopses))
				evicted += int64(len(res.Report.Evicted))
				promoted += int64(len(res.Report.Promoted))
				refreshed += int64(len(res.Report.Refreshed))
			}
			if round == 0 {
				// Shrink mid-run so later rounds evict, then restore. The
				// shrink's evictions are the items that left.
				stored := func() int64 {
					v := e.wh.View()
					return int64(len(v.BufferItems()) + len(v.WarehouseItems()))
				}
				before := stored()
				e.SetStorageBudget(e.Catalog().TotalBytes() / 64)
				assertSnapshotLive(t, e, "SetStorageBudget")
				e.SetStorageBudget(e.Catalog().TotalBytes())
				shrunk = before - stored()
			}
		}
		if created == 0 || promoted == 0 || evicted == 0 || shrunk == 0 {
			t.Fatalf("run exercised no admission/promotion/eviction/shrink: created %d promoted %d evicted %d shrunk %d",
				created, promoted, evicted, shrunk)
		}
		s := e.MetricsSnapshot()
		if s.TuningRounds != served || s.TuningBatchSize.Sum != float64(served) {
			t.Fatalf("rounds %d observations %v, want %d (one inline round per query)", s.TuningRounds, s.TuningBatchSize.Sum, served)
		}
		if s.WarehouseEvictions != evicted+shrunk || s.WarehousePromotions != promoted || s.WarehouseRefreshes != refreshed {
			t.Fatalf("registry evictions %d promotions %d refreshes %d disagree with the reports: evicted %d (+%d by the shrink) promoted %d refreshed %d",
				s.WarehouseEvictions, s.WarehousePromotions, s.WarehouseRefreshes, evicted, shrunk, promoted, refreshed)
		}
		if s.WarehouseAdmissions == 0 || s.WarehouseAdmissions > created {
			t.Fatalf("admitted %d of %d created byproducts", s.WarehouseAdmissions, created)
		}

		if _, err := e.Ingest("sales", salesDelta(1000, 40)); err != nil {
			t.Fatal(err)
		}
		assertSnapshotLive(t, e, "Ingest")
		sales, _ := e.Catalog().Table("sales")
		smp := synopses.BuildSampleFromTable("hint", sales,
			synopses.NewDistinctSampler(0.01, 10, []int{0}, 3), []string{"sales.product"})
		if _, err := e.PinSample("sales", smp, []string{"sales.qty"}, stats.DefaultAccuracy); err != nil {
			t.Fatal(err)
		}
		assertSnapshotLive(t, e, "PinSample")
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sync run diverges at %d:\nA %.200s\nB %.200s", i, a[i], b[i])
		}
	}
}

// TestAsyncConcurrentStorm hammers the asynchronous engine from many
// goroutines — queries, online ingests and elastic budget changes all in
// flight while the background service tunes. Run under -race this is the
// tentpole's interleaving proof; the asserts check the system lands in a
// coherent state: accurate answers over the evolved data, accounting that
// adds up, and a warehouse within quota.
func TestAsyncConcurrentStorm(t *testing.T) {
	e := asyncTestEngine()
	defer e.Close()
	mix := mixedQueries(e)

	const goroutines = 8
	const perG = 6
	var executed atomic.Int64
	var repMu sync.Mutex
	var queryIDs []int
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines*perG+16)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				mk := mix[(g*perG+i)%len(mix)]
				res, err := e.Execute(mk())
				if err != nil {
					errCh <- err
					return
				}
				executed.Add(1)
				repMu.Lock()
				queryIDs = append(queryIDs, res.Report.QueryID)
				repMu.Unlock()
				if len(res.Rows) == 0 {
					errCh <- fmt.Errorf("goroutine %d query %d: empty result", g, i)
					return
				}
			}
		}(g)
	}
	// One ingester appending rows that mirror the seed distribution, and
	// one budget shaker, interleaved with the serving goroutines.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if _, err := e.Ingest("sales", salesDelta(1000, 40)); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		total := e.Catalog().TotalBytes()
		for _, div := range []int64{2, 8, 1, 4, 1} {
			e.SetStorageBudget(total / div)
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	e.Quiesce()

	// Accounting: every served query either reached the tuner or was
	// counted as shed — none may vanish.
	s := e.MetricsSnapshot()
	if observed := int64(s.TuningBatchSize.Sum); observed+s.TuningShed != executed.Load() {
		t.Fatalf("observations %d + shed %d != executed %d", observed, s.TuningShed, executed.Load())
	}
	if s.SnapshotVersion == 0 || s.TuningRounds == 0 {
		t.Fatalf("tuning service never ran: snapshot version %d, rounds %d", s.SnapshotVersion, s.TuningRounds)
	}

	// The engine must still answer accurately over the evolved data.
	truth := exactOn(t, e)
	res, err := e.Execute(catQuery(e))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		want := truth[r[0].I]
		if rel := math.Abs(r[1].F-want) / want; rel > 0.15 {
			t.Fatalf("category %d: rel error %.3f after concurrent storm", r[0].I, rel)
		}
	}
	// Telemetry: unique IDs, one report per query.
	mustBeDistinctQueryIDs(t, append(queryIDs, res.Report.QueryID), int(executed.Load())+1)
}

// TestObservationQueueShedsNotBlocks: when the observation queue is full
// and nothing can drain it — the service stopped, the tuning mutex held, the
// worst case — Execute must keep serving at full speed and account the shed
// observations: backpressure degrades tuning fidelity, never latency.
func TestObservationQueueShedsNotBlocks(t *testing.T) {
	e := asyncTestEngine()
	for i := 0; i < 2; i++ { // two queries the service does get to tune
		if _, err := e.Execute(catQuery(e)); err != nil {
			t.Fatal(err)
		}
		e.Drain()
	}
	e.Close() // service stopped: the queue can only fill
	e.tuneMu.Lock()
	for i := 0; i < observationQueue; i++ {
		if !e.svc.enqueue(&observation{}) {
			t.Fatalf("enqueue %d of %d shed below the queue depth", i, observationQueue)
		}
	}
	for i := 0; i < 3; i++ { // served with the tuning mutex held
		if _, err := e.Execute(catQuery(e)); err != nil {
			t.Fatal(err)
		}
	}
	e.tuneMu.Unlock()
	s := e.MetricsSnapshot()
	if s.TuningShed != 3 {
		t.Fatalf("shed = %d, want the 3 served past a full queue", s.TuningShed)
	}
	e.Drain() // must not hang against a stopped service

	// A shed observation leaves nothing behind: the engine's per-query tuning
	// state is the window, and it holds exactly the folded queries.
	_, _, window := e.tn.Checkpoint()
	if float64(len(window)) != s.TuningBatchSize.Sum || len(window) != 2 {
		t.Fatalf("window holds %d records, %v observations were tuned, want 2 each", len(window), s.TuningBatchSize.Sum)
	}
	for i, o := range window {
		if o.QueryID != i {
			t.Fatalf("window record %d is query %d, want the tuned queries 0 and 1 only", i, o.QueryID)
		}
	}
}

// TestIngestRepublishesStaleness: right after Ingest returns — no Drain, no
// observation batch tuned since — the serving path's plan choice sees the
// append: it credits a rebuild of a stale stored synopsis, whose staleness
// it reads from the catalog's row count.
func TestIngestRepublishesStaleness(t *testing.T) {
	e := asyncTestEngine()
	defer e.Close()
	for i := 0; i < 4; i++ {
		if _, err := e.Execute(catQuery(e)); err != nil {
			t.Fatal(err)
		}
		e.Drain()
	}
	snap := e.snap.Load()
	var ent *meta.Entry
	for _, it := range append(snap.wh.BufferItems(), snap.wh.WarehouseItems()...) {
		if snap.keep[it.ID] && snap.gains[it.ID] > 0 {
			ent, _ = e.Store().Get(it.ID)
			break
		}
	}
	if ent == nil {
		t.Fatal("test setup: no stored synopsis is in the published S* with a gain")
	}
	// The rebuild costs a quarter of a fully stale synopsis' credit more
	// than the exact plan: it wins once more than a quarter is unseen.
	credit := snap.gains[ent.Desc.ID] / float64(max(snap.window, 1)) * 2
	exact := planner.Candidate{Desc: "exact", Cost: 10}
	ps := &planner.PlanSet{Exact: exact, Candidates: []planner.Candidate{exact, {
		Desc: "rebuild", Cost: 10 + credit/4, Creates: []planner.CreateSpec{{Entry: ent}},
	}}}
	if got := e.choose(ps, e.snap.Load()).Chosen.Desc; got != "exact" {
		t.Fatalf("before the append chose %q, want exact: the stored copy is fresh", got)
	}

	v0 := e.MetricsSnapshot().SnapshotVersion
	if _, err := e.Ingest("sales", salesDelta(30000, 40)); err != nil {
		t.Fatal(err)
	}
	if v := e.MetricsSnapshot().SnapshotVersion; v <= v0 {
		t.Fatalf("ingest did not republish the tuning snapshot: %d <= %d", v, v0)
	}
	if s := e.Store().Staleness(ent.Desc.ID); s < 0.4 {
		t.Fatalf("synopsis #%d staleness after a doubling append = %v, want ~0.5", ent.Desc.ID, s)
	}
	if got := e.choose(ps, e.snap.Load()).Chosen.Desc; got != "rebuild" {
		t.Fatalf("after the append chose %q, want the rebuild of stale #%d", got, ent.Desc.ID)
	}
}

// TestByproductFreshnessIsTheBoundVersion: a byproduct's freshness is the
// row count of the table version its run bound (exec.Built.SourceRows), not
// the catalog's at admission. The tuning mutex is held across the Execute
// that builds a synopsis (serving never takes it) and across an append
// straight to the catalog (Ingest would take it), so the service admits the
// byproduct only after the catalog has moved on: the rows it never saw count
// as staleness.
func TestByproductFreshnessIsTheBoundVersion(t *testing.T) {
	e := asyncTestEngine()
	defer e.Close()
	sales, err := e.Catalog().Table("sales")
	if err != nil {
		t.Fatal(err)
	}
	bound := int64(sales.NumRows())
	var id uint64
	for i := 0; i < 8 && id == 0; i++ {
		e.tuneMu.Lock()
		res, err := e.Execute(catQuery(e))
		if err != nil {
			e.tuneMu.Unlock()
			t.Fatal(err)
		}
		if len(res.Report.CreatedSynopses) > 0 {
			id = res.Report.CreatedSynopses[0]
			if _, err := e.cat.Append("sales", salesDelta(1000, 40)); err != nil {
				e.tuneMu.Unlock()
				t.Fatal(err)
			}
		}
		e.tuneMu.Unlock()
		e.Drain()
	}
	if id == 0 {
		t.Fatal("test setup: no query built a synopsis")
	}
	ent, ok := e.Store().Get(id)
	if !ok || !e.wh.Has(id) {
		t.Fatalf("synopsis #%d was not admitted", id)
	}
	if ent.Desc.BuildRows != bound {
		t.Fatalf("synopsis #%d records %d build rows, want the bound version's %d", id, ent.Desc.BuildRows, bound)
	}
	if s := e.Store().Staleness(id); s <= 0 {
		t.Fatalf("synopsis #%d staleness = %v after an append its build never saw, want > 0", id, s)
	}
}

// TestDrainClearsDeepBacklog: Drain's contract is "every observation
// enqueued before the call is tuned", even when the backlog is deeper than
// one tuning round's maxBatch. The tuning mutex is held to stall the
// service while the backlog builds (Execute never needs it, so serving
// proceeds), then released for the Drain (regression: the flush path used
// to ack after a single capped batch).
func TestDrainClearsDeepBacklog(t *testing.T) {
	e := asyncTestEngine()
	defer e.Close()

	e.tuneMu.Lock()
	const n = maxBatch + 44
	for i := 0; i < n; i++ {
		if _, err := e.Execute(catQuery(e)); err != nil {
			e.tuneMu.Unlock()
			t.Fatal(err)
		}
	}
	e.tuneMu.Unlock()

	e.Drain()
	s := e.MetricsSnapshot()
	if observed := int64(s.TuningBatchSize.Sum); observed+s.TuningShed != n {
		t.Fatalf("after Drain: observations %d + shed %d != executed %d", observed, s.TuningShed, n)
	}
	if s.TuningShed != 0 { // queue default 1024 ≫ n: nothing may shed
		t.Fatalf("unexpected shedding: %d", s.TuningShed)
	}
}

// TestQueueDepthGaugeFollowsDrain: the queue-depth gauge tracks the queue
// down as well as up — once Drain has tuned the backlog the queue is empty,
// and so is the gauge.
func TestQueueDepthGaugeFollowsDrain(t *testing.T) {
	e := asyncTestEngine()
	defer e.Close()
	for i := 0; i < 6; i++ {
		if _, err := e.Execute(catQuery(e)); err != nil {
			t.Fatal(err)
		}
	}
	e.Drain()
	if n, gauge := len(e.svc.obsCh), e.MetricsSnapshot().TuningQueueDepth; n != 0 || gauge != 0 {
		t.Fatalf("after Drain the queue holds %d and the gauge reads %d, want 0 each", n, gauge)
	}
}

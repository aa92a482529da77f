package tuner

import (
	"fmt"
	"testing"

	"github.com/tasterdb/taster/internal/meta"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/planner"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/warehouse"
)

// harness: synthetic metadata over a catalog that holds no table until a
// test registers one, and plan sets with controllable reuse costs.
type harness struct {
	cat   *storage.Catalog
	store *meta.Store
	wh    *warehouse.Manager
	t     *Tuner
	// reuse is what each query would cost with each synopsis, by query id;
	// planSet hands it to the tuner the way the planner does.
	reuse map[int][]planner.ReuseCost
}

func newHarness(quota int64, cfg Config) *harness {
	cat := storage.NewCatalog()
	store := meta.NewStore(cat)
	wh := warehouse.NewManager(1<<20, quota, nil)
	return &harness{cat: cat, store: store, wh: wh, t: New(cfg, store, wh), reuse: make(map[int][]planner.ReuseCost)}
}

// rows builds n rows of a one-column table.
func rows(table string, n int) *storage.Table {
	b := storage.NewBuilder(table, storage.Schema{{Name: table + ".v", Typ: storage.Int64}})
	for i := 0; i < n; i++ {
		b.Int(0, int64(i))
	}
	return b.Build(1)
}

// synopsis interns a descriptor of the given size; costWith maps the queries
// that could use it to their cost with it. Synopses are interned in
// ascending id order, so every query's list stays sorted as the planner's is.
func (h *harness) synopsis(name string, size int64, costWith map[int]float64) *meta.Entry {
	d := meta.Descriptor{
		Kind:         plan.DistinctSample,
		Table:        name,
		EstSizeBytes: size,
		Accuracy:     stats.DefaultAccuracy,
	}
	e := h.store.Intern(d)
	for q, c := range costWith {
		h.reuse[q] = append(h.reuse[q], planner.ReuseCost{ID: e.Desc.ID, Cost: c})
	}
	return e
}

// planSet is the plan set of query qid: the exact plan, the given
// candidates, and the reuse costs registered through synopsis.
func (h *harness) planSet(qid int, exactCost float64, cands ...planner.Candidate) *planner.PlanSet {
	exact := planner.Candidate{Cost: exactCost, Desc: "exact"}
	return &planner.PlanSet{
		Query:      &planner.Query{ID: qid},
		Exact:      exact,
		Candidates: append([]planner.Candidate{exact}, cands...),
		ReuseCost:  h.reuse[qid],
	}
}

// selected runs set selection over the tuner's current window.
func (h *harness) selected(budget int64) (map[uint64]bool, map[uint64]float64) {
	return selectSet(h.store.Entries(), h.wh.View(), h.t.windowRecords(h.t.w), budget)
}

// place stores an item for e — sized as e's estimate — in the warehouse
// tier, or in the buffer when inBuffer: the warehouse is the only record of
// where a synopsis lives and whether it is pinned.
func (h *harness) place(t *testing.T, e *meta.Entry, inBuffer, pinned bool) {
	t.Helper()
	it := &warehouse.Item{ID: e.Desc.ID, Size: e.Desc.SizeBytes(), Pinned: pinned}
	put := h.wh.PutWarehouse
	if inBuffer {
		put = h.wh.PutBuffer
	}
	if err := put(it); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyRespectsQuota(t *testing.T) {
	h := newHarness(100, DefaultConfig())
	// Three synopses: a (size 60, gain 10), b (size 60, gain 9), c (size 40, gain 8).
	a := h.synopsis("a", 60, map[int]float64{0: 0})
	b := h.synopsis("b", 60, map[int]float64{1: 1})
	c := h.synopsis("c", 40, map[int]float64{2: 2})
	for q := 0; q < 3; q++ {
		h.t.Tune(h.planSet(q, 10))
	}
	keep, _ := h.selected(100)
	size := int64(0)
	for id := range keep {
		e, _ := h.store.Get(id)
		size += e.Desc.SizeBytes()
	}
	if size > 100 {
		t.Fatalf("selected set size %d exceeds quota", size)
	}
	// Optimal under quota: a+c (gain 18) > a+b infeasible, b+c (17).
	if !keep[a.Desc.ID] || !keep[c.Desc.ID] || keep[b.Desc.ID] {
		t.Fatalf("greedy picked %v, want {a,c}", keep)
	}
}

func TestGreedySubmodularSharing(t *testing.T) {
	// Two synopses serving the SAME query: marginal gain of the second
	// must shrink to its incremental value only.
	h := newHarness(1000, DefaultConfig())
	a := h.synopsis("a", 10, map[int]float64{0: 2}) // saves 8
	b := h.synopsis("b", 10, map[int]float64{0: 1}) // saves 9
	h.t.Tune(h.planSet(0, 10))
	keep, marginal := h.selected(1000)
	if !keep[b.Desc.ID] {
		t.Fatal("b (bigger saving) must be selected")
	}
	// Unmaterialized synopses carry the 0.5 speculation discount: 9 × 0.5.
	if marginal[b.Desc.ID] != 4.5 {
		t.Fatalf("marginal(b) = %v", marginal[b.Desc.ID])
	}
	// Submodularity: a's marginal gain with b present must be strictly
	// below its standalone (discounted) gain of (10−2)·0.5 = 4.
	if marginal[a.Desc.ID] >= 4 {
		t.Fatalf("marginal(a) = %v, want < 4 (submodularity)", marginal[a.Desc.ID])
	}
}

func TestTuneChoosesReusePlan(t *testing.T) {
	h := newHarness(1<<20, DefaultConfig())
	e := h.synopsis("s", 100, map[int]float64{5: 1})
	reuse := planner.Candidate{Cost: 1, Uses: []uint64{e.Desc.ID}, Desc: "reuse"}
	dec := h.t.Tune(h.planSet(5, 10, reuse))
	if dec.Chosen.Desc != "reuse" {
		t.Fatalf("chose %q, want reuse", dec.Chosen.Desc)
	}
}

func TestTunePrefersBuildingKeptSynopses(t *testing.T) {
	h := newHarness(1<<20, DefaultConfig())
	// The synopsis pays off over several recent queries.
	e := h.synopsis("s", 100, map[int]float64{
		0: 1, 1: 1, 2: 1,
	})
	for q := 0; q < 2; q++ {
		h.t.Tune(h.planSet(q, 10))
	}
	build := planner.Candidate{
		Cost:    11, // slightly above exact: building costs extra now
		Creates: []planner.CreateSpec{{Entry: e}},
		Desc:    "build",
	}
	dec := h.t.Tune(h.planSet(2, 10, build))
	if dec.Chosen.Desc != "build" {
		t.Fatalf("chose %q; future gain must justify building", dec.Chosen.Desc)
	}
	if len(dec.Materialize) != 1 {
		t.Fatal("chosen build's synopsis must be materialized")
	}
	if !dec.Keep[e.Desc.ID] {
		t.Fatal("built synopsis must be in S*")
	}
}

func TestEvictionOfUselessSynopses(t *testing.T) {
	h := newHarness(1<<20, DefaultConfig())
	// Materialized synopsis with benefits only for long-gone queries.
	old := h.synopsis("old", 100, map[int]float64{-50: 1})
	h.place(t, old, false, false)
	fresh := h.synopsis("fresh", 100, map[int]float64{0: 1})
	h.place(t, fresh, true, false)

	dec := h.t.Tune(h.planSet(0, 10))
	if len(dec.Evict) != 1 || dec.Evict[0] != old.Desc.ID {
		t.Fatalf("evict = %v, want [old]", dec.Evict)
	}
	if len(dec.Promote) != 1 || dec.Promote[0] != fresh.Desc.ID {
		t.Fatalf("promote = %v, want [fresh]", dec.Promote)
	}
}

func TestPinnedNeverEvicted(t *testing.T) {
	h := newHarness(1000, DefaultConfig())
	p := h.synopsis("pinned", 1000, nil)
	h.place(t, p, false, true)
	h.wh.SetWarehouseQuota(10) // now way over quota
	dec := h.t.Tune(h.planSet(0, 10))
	for _, id := range dec.Evict {
		if id == p.Desc.ID {
			t.Fatal("pinned synopsis evicted")
		}
	}
	if !dec.Keep[p.Desc.ID] {
		t.Fatal("pinned synopsis must be in S*")
	}
}

func TestRetuneAfterQuotaShrink(t *testing.T) {
	h := newHarness(200, DefaultConfig())
	a := h.synopsis("a", 100, map[int]float64{0: 1})
	b := h.synopsis("b", 100, map[int]float64{1: 5})
	h.place(t, a, false, false)
	h.place(t, b, false, false)
	h.t.Tune(h.planSet(0, 10))
	h.t.Tune(h.planSet(1, 10))
	// Both fit at quota 200; shrink to 100 → keep only a (gain 9 > 5).
	h.wh.SetWarehouseQuota(100)
	dec := h.t.Retune()
	if !dec.Keep[a.Desc.ID] || dec.Keep[b.Desc.ID] {
		t.Fatalf("keep = %v, want only a", dec.Keep)
	}
	if len(dec.Evict) != 1 || dec.Evict[0] != b.Desc.ID {
		t.Fatalf("evict = %v", dec.Evict)
	}
}

func TestAdaptiveWindowMoves(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Window = 8
	h := newHarness(1000, cfg)
	// A synopsis that helps every query: larger windows see more of its
	// benefits, so w should not collapse.
	all := make(map[int]float64)
	for q := 0; q < 40; q++ {
		all[q] = 1
	}
	h.synopsis("s", 10, all)
	for q := 0; q < 40; q++ {
		h.t.Tune(h.planSet(q, 10))
	}
	if h.t.Window() < 2 || h.t.Window() > cfg.MaxWindow {
		t.Fatalf("window %d out of bounds", h.t.Window())
	}
}

// The window holds each query's reuse costs itself, so a synopsis is credited
// for every query of the window however long the window is. (A per-synopsis
// list capped at 64 used to drop the oldest of them once Window > 16 raised
// MaxWindow past the cap.)
func TestGainCountsEveryWindowQuery(t *testing.T) {
	const w = 72
	h := newHarness(1000, Config{Window: w})
	if h.t.cfg.MaxWindow != 4*w || h.t.cfg.Adaptive {
		t.Fatalf("config = %+v, want fixed window, MaxWindow %d", h.t.cfg, 4*w)
	}
	all := make(map[int]float64)
	for q := 0; q < w; q++ {
		all[q] = 1
	}
	e := h.synopsis("s", 10, all)
	var dec Decision
	for q := 0; q < w; q++ {
		dec = h.t.Tune(h.planSet(q, 10))
	}
	// Every query saves 10−1, discounted by 0.5 while unmaterialized.
	if got, want := dec.Gains[e.Desc.ID], float64(w)*4.5; got != want {
		t.Fatalf("marginal gain = %v, want %v (all %d window queries)", got, want, w)
	}
}

// Window records are told apart by position, not query id: a caller that
// tunes several plan sets under one id (the benchmark's probes do) gets one
// record, and one credit, per call.
func TestDuplicateQueryIDsAreSeparateRecords(t *testing.T) {
	h := newHarness(1000, DefaultConfig())
	e := h.synopsis("s", 10, map[int]float64{3: 1})
	var dec Decision
	for i := 0; i < 3; i++ {
		dec = h.t.Tune(h.planSet(3, 10))
	}
	if got := dec.Gains[e.Desc.ID]; got != 3*4.5 {
		t.Fatalf("marginal gain = %v, want %v", got, 3*4.5)
	}
}

func TestWindowedHistoryBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxWindow = 16
	h := newHarness(1000, cfg)
	for q := 0; q < 100; q++ {
		h.t.Tune(h.planSet(q, 1))
	}
	if len(h.t.history) > 16 {
		t.Fatalf("history length %d exceeds MaxWindow", len(h.t.history))
	}
}

func TestConfigDefaults(t *testing.T) {
	tn := New(Config{}, meta.NewStore(nil), warehouse.NewManager(1, 1, nil))
	if tn.w != 10 || tn.cfg.Alpha != 0.25 || tn.cfg.MaxWindow != 40 {
		t.Fatalf("defaults: %+v w=%d", tn.cfg, tn.w)
	}
}

func TestChoosePlanIgnoresAlreadyMaterialized(t *testing.T) {
	h := newHarness(1<<20, DefaultConfig())
	e := h.synopsis("s", 100, map[int]float64{0: 1})
	h.place(t, e, false, false)
	// A "build" plan for an already-materialized synopsis gets no bonus.
	build := planner.Candidate{Cost: 9.5, Creates: []planner.CreateSpec{{Entry: e}}, Desc: "build"}
	dec := h.t.Tune(h.planSet(0, 10, build))
	// build still wins on raw cost (9.5 < 10) but not via bonus; verify the
	// decision is deterministic and sane.
	if dec.Chosen.Desc != "build" {
		t.Fatalf("chose %q", dec.Chosen.Desc)
	}
}

func TestTuneNeverEvictsChosenPlanInputs(t *testing.T) {
	// Regression: a synopsis can fall out of S* (here: it no longer fits the
	// quota) in the same round its reuse plan is chosen. Evicting it would
	// delete the chosen plan's input before execution.
	h := newHarness(100, DefaultConfig())
	e := h.synopsis("s", 100, map[int]float64{7: 1})
	h.place(t, e, false, false)
	h.wh.SetWarehouseQuota(50) // elastic shrink: the synopsis no longer fits S*
	reuse := planner.Candidate{Cost: 1, Uses: []uint64{e.Desc.ID}, Desc: "reuse"}
	dec := h.t.Tune(h.planSet(7, 10, reuse))
	if dec.Chosen.Desc != "reuse" {
		t.Fatalf("chose %q, want reuse", dec.Chosen.Desc)
	}
	if dec.Keep[e.Desc.ID] {
		t.Fatal("test setup: synopsis must not fit S*")
	}
	for _, id := range dec.Evict {
		if id == e.Desc.ID {
			t.Fatal("tuner evicted a synopsis the chosen plan uses")
		}
	}
	// The exemption is one round only: a later round without the reuse plan
	// evicts it normally.
	dec = h.t.Tune(h.planSet(8, 10))
	found := false
	for _, id := range dec.Evict {
		found = found || id == e.Desc.ID
	}
	if !found {
		t.Fatal("synopsis must be evictable once no chosen plan uses it")
	}
}

func TestChoosePlanCreditsRefreshOfStaleSynopsis(t *testing.T) {
	h := newHarness(1<<20, DefaultConfig())
	e := h.synopsis("s", 100, map[int]float64{
		0: 1, 1: 1, 2: 1,
	})
	h.place(t, e, false, false)
	for q := 0; q < 2; q++ {
		h.t.Tune(h.planSet(q, 10))
	}
	build := planner.Candidate{Cost: 10.4, Creates: []planner.CreateSpec{{Entry: e}}, Desc: "build"}
	// Fully fresh: the already-materialized synopsis earns no build credit,
	// so the slightly-above-exact build loses.
	if dec := h.t.Tune(h.planSet(2, 10, build)); dec.Chosen.Desc != "exact" {
		t.Fatalf("fresh: chose %q, want exact", dec.Chosen.Desc)
	}
	// Mostly stale: the refresh recovers the stale fraction of the future
	// gain, which outweighs the small extra build cost.
	h.cat.Register(rows("s", 100))
	h.store.SetFreshness(e.Desc.ID, 100)
	if _, err := h.cat.Append("s", rows("s", 300)); err != nil { // staleness 0.75
		t.Fatal(err)
	}
	if dec := h.t.Tune(h.planSet(3, 10, build)); dec.Chosen.Desc != "build" {
		t.Fatalf("stale: chose %q, want refresh build", dec.Chosen.Desc)
	}
}

func TestGainNonNegative(t *testing.T) {
	h := newHarness(1000, DefaultConfig())
	// Benefit worse than exact: gain must clamp to 0, synopsis not selected.
	h.synopsis("bad", 10, map[int]float64{0: 20})
	h.t.Tune(h.planSet(0, 10))
	keep, _ := h.selected(1000)
	if len(keep) != 0 {
		t.Fatalf("harmful synopsis selected: %v", keep)
	}
}

func ExampleTuner_Tune() {
	store := meta.NewStore(nil)
	wh := warehouse.NewManager(1<<20, 1<<20, nil)
	tn := New(DefaultConfig(), store, wh)
	dec := tn.Tune(&planner.PlanSet{
		Query:      &planner.Query{ID: 0},
		Exact:      planner.Candidate{Cost: 5, Desc: "exact"},
		Candidates: []planner.Candidate{{Cost: 5, Desc: "exact"}},
	})
	fmt.Println(dec.Chosen.Desc)
	// Output: exact
}

package tuner

import (
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"slices"
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
	var ix index
	ix.reset(h.store.Entries(), h.wh.View(), h.t.history, nil)
	n := len(h.t.history)
	return ix.sets(ix.selectSet(n-min(h.t.w, n), n, budget))
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

// eagerHit is one window query a synopsis would speed up: the query's
// position in the window and its cost with the synopsis.
type eagerHit struct {
	pos  int
	cost float64
}

// eagerSelectSet is the oracle for index.selectSet: the set selection as it
// was before the round's dense index and lazy evaluation, over the window's
// records themselves, with maps keyed by synopsis id and a full rescan of
// every candidate per pick.
//
// It runs the Leskovec et al. cost-effective greedy: both the
// benefit-greedy and benefit-per-byte-greedy variants, returning whichever
// final set has the higher total gain. Synopses the view holds pinned are
// always included (their bytes count against the quota first); the rest of
// the universe is the synopses some window query could use. Per synopsis,
// hits are in window order — float sums over them are reproducible.
func eagerSelectSet(entries []*meta.Entry, view *warehouse.View, window []Observation, budget int64) (map[uint64]bool, map[uint64]float64) {
	universe, pinned, hits := eagerUniverse(entries, view, window)
	bestA, gainA, margA := eagerGreedy(universe, pinned, view, hits, window, budget, false)
	bestB, gainB, margB := eagerGreedy(universe, pinned, view, hits, window, budget, true)
	if gainB > gainA {
		return bestB, margB
	}
	return bestA, margA
}

// eagerUniverse is eagerSelectSet's input to both greedy variants: the
// candidates, the pinned entries, and each synopsis' hits in window order.
func eagerUniverse(entries []*meta.Entry, view *warehouse.View, window []Observation) (universe, pinned []*meta.Entry, hits map[uint64][]eagerHit) {
	hits = make(map[uint64][]eagerHit)
	for pos, r := range window {
		for _, rc := range r.Reuse {
			hits[rc.ID] = append(hits[rc.ID], eagerHit{pos, rc.Cost})
		}
	}
	for _, e := range entries {
		if it, _, ok := view.Get(e.Desc.ID); ok && it.Pinned {
			pinned = append(pinned, e)
		} else if len(hits[e.Desc.ID]) > 0 {
			universe = append(universe, e)
		}
	}
	return universe, pinned, hits
}

// eagerGreedy builds S by repeatedly adding the synopsis with the highest
// marginal gain (optionally per byte) until the quota is exhausted.
func eagerGreedy(universe, pinned []*meta.Entry, view *warehouse.View, hits map[uint64][]eagerHit, window []Observation, budget int64, perByte bool) (map[uint64]bool, float64, map[uint64]float64) {
	keep := make(map[uint64]bool)
	marginal := make(map[uint64]float64)

	// best[pos] = cheapest known cost for the window's pos-th query given the
	// current S.
	best := make([]float64, len(window))
	for pos, r := range window {
		best[pos] = r.ExactCost
	}
	// A synopsis the view does not hold only delivers its gain after some
	// future query pays to build it; discounting its benefits keeps
	// speculative giants from evicting working, materialized synopses.
	// Materialized-but-stale synopses decay toward the same discount: the
	// unseen fraction of their source no longer contributes to answers.
	factor := func(e *meta.Entry) float64 {
		if !view.Has(e.Desc.ID) {
			return 0.5
		}
		f := 1 - e.Staleness()
		if f < 0.5 {
			f = 0.5
		}
		return f
	}
	used := int64(0)
	addEntry := func(e *meta.Entry, f float64) float64 {
		gain := 0.0
		for _, h := range hits[e.Desc.ID] {
			cur := best[h.pos]
			if c := cur - (cur-h.cost)*f; h.cost < cur {
				gain += cur - c
				best[h.pos] = c
			}
		}
		keep[e.Desc.ID] = true
		used += e.Desc.SizeBytes()
		return gain
	}

	total := 0.0
	for _, e := range pinned {
		total += addEntry(e, factor(e)) // pinned are unconditional; quota may overflow by admin choice
	}

	remaining := append([]*meta.Entry(nil), universe...)
	factors := make([]float64, len(remaining)) // constant per entry: computed once, not per pass
	for i, e := range remaining {
		factors[i] = factor(e)
	}
	for {
		bestIdx := -1
		bestScore := 0.0
		for i, e := range remaining {
			if e == nil || keep[e.Desc.ID] {
				continue
			}
			size := e.Desc.SizeBytes()
			if size <= 0 {
				size = 1
			}
			if used+size > budget {
				continue
			}
			g := 0.0
			f := factors[i]
			for _, h := range hits[e.Desc.ID] {
				if cur := best[h.pos]; h.cost < cur {
					g += (cur - h.cost) * f
				}
			}
			if g <= 0 {
				continue
			}
			score := g
			if perByte {
				score = g / float64(size)
			}
			if score > bestScore {
				bestScore, bestIdx = score, i
			}
		}
		if bestIdx < 0 {
			break
		}
		e := remaining[bestIdx]
		remaining[bestIdx] = nil
		got := addEntry(e, factors[bestIdx])
		marginal[e.Desc.ID] = got
		total += got
	}
	return keep, total, marginal
}

// eagerAdapt is the oracle for adaptWindow: the window-length hill climb as
// it was before the round's index, selecting over history slices with
// eagerSelectSet. It returns the window length after one observation given
// the history before that observation is appended.
func eagerAdapt(cfg Config, w int, history []Observation, entries []*meta.Entry, view *warehouse.View) int {
	if len(history) < 2 {
		return w
	}
	newQuery := history[len(history)-1]
	prior := history[:len(history)-1]
	wMinus := max(int(math.Floor((1-cfg.Alpha)*float64(w))), 2)
	wPlus := min(int(math.Ceil((1+cfg.Alpha)*float64(w))), cfg.MaxWindow)
	_, quota := view.Quotas()
	bestW, bestCost := w, math.Inf(1)
	for _, wc := range []int{w, wMinus, wPlus} {
		n := min(wc, len(prior))
		keep, _ := eagerSelectSet(entries, view, prior[len(prior)-n:], quota)
		cost := newQuery.ExactCost
		for _, rc := range newQuery.Reuse {
			if keep[rc.ID] && rc.Cost < cost {
				cost = rc.Cost
			}
		}
		if cost < bestCost-1e-12 {
			bestCost, bestW = cost, wc
		}
	}
	return bestW
}

// Window adaptation over the round's index moves w exactly as the eager
// hill climb does, batch after batch: every candidate length is a range of
// the round's records, lengths that clamp alike are tried once, and S* is
// selected over the adapted window.
func TestAdaptWindowMatchesEager(t *testing.T) {
	r := rand.New(rand.NewPCG(41, 8))
	for trial := range 20 {
		cfg := DefaultConfig()
		cfg.Window, cfg.MaxWindow = 2+r.IntN(10), 12+r.IntN(20)
		h := newHarness(1<<20, cfg)
		var es []*meta.Entry
		for s := range 12 {
			es = append(es, h.synopsis(fmt.Sprintf("s%d", s), int64(10+r.IntN(90)), nil))
		}
		for _, e := range es[:3] {
			h.place(t, e, false, e == es[0])
		}
		h.wh.SetWarehouseQuota(int64(100 + r.IntN(400)))
		q := 0
		observation := func() Observation {
			o := Observation{QueryID: q, ExactCost: float64(4 + r.IntN(8))}
			for _, e := range es {
				if r.IntN(4) == 0 {
					o.Reuse = append(o.Reuse, planner.ReuseCost{ID: e.Desc.ID, Cost: float64(r.IntN(10)) / 2})
				}
			}
			q++
			return o
		}
		for range 30 {
			batch := make([]Observation, 1+r.IntN(4))
			for i := range batch {
				batch[i] = observation()
			}
			entries, view := h.store.Entries(), h.wh.View()
			w, history := h.t.w, slices.Clone(h.t.history)
			for _, o := range batch {
				w = eagerAdapt(h.t.cfg, w, history, entries, view)
				history = append(history, o)
				history = history[max(len(history)-h.t.cfg.MaxWindow, 0):]
			}
			_, quota := view.Quotas()
			keep, gains := eagerSelectSet(entries, view, history[len(history)-min(w, len(history)):], quota)
			dec := h.t.TuneBatch(batch, nil, nil)
			if h.t.w != w || !maps.Equal(dec.Keep, keep) || !maps.Equal(dec.Gains, gains) {
				t.Fatalf("trial %d query %d: window %d keep %v gains %v, eager %d %v %v",
					trial, q, h.t.w, dec.Keep, dec.Gains, w, keep, gains)
			}
		}
	}
}

// instance is one random set-selection problem: working entries (sorted
// by id), the view holding some of them (some pinned), and a record
// sequence split into history and batch the way a round sees it.
type instance struct {
	entries []*meta.Entry
	view    *warehouse.View
	seq     []Observation
	split   int // seq[:split] is the history, seq[split:] the batch
}

// randomInstance draws an instance whose sizes and costs come from small
// grids, so exact score ties are common; records may name ids that are not
// working entries or come out of order, budgets run from nothing to
// everything and pinned bytes may exceed them, and held entries are stale by
// factors 0.5–1.
func randomInstance(r *rand.Rand) instance {
	wh := warehouse.NewManager(1<<40, 1<<40, nil)
	var in instance
	id := uint64(0)
	for range 1 + r.IntN(24) {
		id += 1 + uint64(r.IntN(3)) // gaps leave ids that are not entries
		e := &meta.Entry{Desc: meta.Descriptor{ID: id, EstSizeBytes: int64(r.IntN(6)) * 20, BuildRows: 100}}
		if r.IntN(3) == 0 {
			e.UnseenRows = int64(r.IntN(150)) // factor 1 − u/(100+u), clamped at 0.5
		}
		if r.IntN(2) == 0 {
			if err := wh.PutWarehouse(&warehouse.Item{ID: id, Size: e.Desc.SizeBytes(), Pinned: r.IntN(5) == 0}); err != nil {
				panic(err)
			}
		}
		in.entries = append(in.entries, e)
	}
	in.view = wh.View()
	for q := range r.IntN(48) {
		o := Observation{QueryID: q, ExactCost: float64(4 + r.IntN(8))}
		for sid := uint64(1); sid <= id+2; sid++ {
			if r.IntN(3) == 0 {
				o.Reuse = append(o.Reuse, planner.ReuseCost{ID: sid, Cost: float64(r.IntN(12)) / 2})
			}
		}
		if r.IntN(8) == 0 { // not ascending, as a hand-edited manifest's window could be
			r.Shuffle(len(o.Reuse), func(i, j int) { o.Reuse[i], o.Reuse[j] = o.Reuse[j], o.Reuse[i] })
		}
		in.seq = append(in.seq, o)
	}
	in.split = r.IntN(len(in.seq) + 1)
	return in
}

// checkAgainstEager selects over records [lo, hi) through the index and
// through the eager oracle and requires bit-equal results: both variants'
// keep sets, marginal gains and totals, and the chosen set.
func checkAgainstEager(t *testing.T, ix *index, in instance, lo, hi int, budget int64) {
	t.Helper()
	keep, marginal := ix.sets(ix.selectSet(lo, hi, budget))
	window := in.seq[lo:hi]
	wantKeep, wantMarginal := eagerSelectSet(in.entries, in.view, window, budget)
	if !maps.Equal(keep, wantKeep) || !maps.Equal(marginal, wantMarginal) {
		t.Fatalf("window [%d,%d) budget %d: lazy keep %v marginal %v, eager keep %v marginal %v",
			lo, hi, budget, keep, marginal, wantKeep, wantMarginal)
	}
	universe, pinned, hits := eagerUniverse(in.entries, in.view, window)
	for v, perByte := range []bool{false, true} {
		keep, total, marginal := eagerGreedy(universe, pinned, in.view, hits, window, budget, perByte)
		sel := &ix.sel[v]
		k, m := ix.sets(sel)
		if !maps.Equal(k, keep) || !maps.Equal(m, marginal) || sel.total != total {
			t.Fatalf("window [%d,%d) budget %d perByte %v: lazy %v %v total %v, eager %v %v total %v",
				lo, hi, budget, perByte, k, m, sel.total, keep, marginal, total)
		}
	}
}

// The lazy greedy over the round's index picks what the eager scan picks,
// float for float, on random instances: both variants, exact score ties,
// pinned entries past the quota, over-budget entries, stale factors, and
// windows that are suffixes and sub-ranges of one history. One index serves
// every instance, so a reset that leaks state from the last one shows too.
func TestLazyGreedyMatchesEager(t *testing.T) {
	r := rand.New(rand.NewPCG(41, 7))
	var ix index
	for range 500 {
		in := randomInstance(r)
		ix.reset(in.entries, in.view, in.seq[:in.split], in.seq[in.split:])
		var total int64
		for _, e := range in.entries {
			total += e.Desc.SizeBytes()
		}
		for _, budget := range []int64{0, 20, 60, total / 3, total} {
			n := len(in.seq)
			for _, lo := range []int{0, n / 4, n / 2, max(n-1, 0), n} {
				checkAgainstEager(t, &ix, in, lo, n, budget)
			}
			lo := r.IntN(n + 1)
			checkAgainstEager(t, &ix, in, lo, lo+r.IntN(n-lo+1), budget)
		}
	}
}

// FuzzSelectSet: fuzz-drawn sizes, costs, budget and window start; the lazy
// greedy must pick what the eager scan picks. Each size byte is one entry:
// its low five bits the size, its high three whether the view holds it
// (fresh, stale or pinned). costs is read as records of one exact cost and
// one reuse cost per entry (0: the record cannot use it).
func FuzzSelectSet(f *testing.F) {
	f.Add([]byte{3, 5, 0xe2, 0x81}, []byte{10, 1, 0, 3, 2, 9, 4, 4, 0, 0, 12, 0, 1, 1, 1}, uint16(6), uint8(0))
	f.Add([]byte{8, 8, 8}, []byte{6, 3, 3, 3, 6, 3, 3, 3}, uint16(64), uint8(1))
	f.Fuzz(func(t *testing.T, sizes, costs []byte, budget uint16, start uint8) {
		if len(sizes) == 0 || len(sizes) > 32 {
			return
		}
		wh := warehouse.NewManager(1<<40, 1<<40, nil)
		var in instance
		for i, b := range sizes {
			e := &meta.Entry{Desc: meta.Descriptor{ID: uint64(2*i + 1), EstSizeBytes: int64(b&0x1f) * 8, BuildRows: 100}}
			switch state := b >> 5; {
			case state >= 4:
				e.UnseenRows = int64(state-4) * 40
				if err := wh.PutWarehouse(&warehouse.Item{ID: e.Desc.ID, Size: e.Desc.SizeBytes(), Pinned: state == 7}); err != nil {
					t.Fatal(err)
				}
			}
			in.entries = append(in.entries, e)
		}
		in.view = wh.View()
		stride := len(sizes) + 1
		for q := 0; (q+1)*stride <= len(costs) && q < 64; q++ {
			rec := costs[q*stride : (q+1)*stride]
			o := Observation{QueryID: q, ExactCost: float64(rec[0]) / 2}
			for j, c := range rec[1:] {
				if c != 0 {
					o.Reuse = append(o.Reuse, planner.ReuseCost{ID: uint64(2*j + 1), Cost: float64(c-1) / 2})
				}
			}
			in.seq = append(in.seq, o)
		}
		in.split = len(in.seq) / 2
		var ix index
		ix.reset(in.entries, in.view, in.seq[:in.split], in.seq[in.split:])
		n := len(in.seq)
		checkAgainstEager(t, &ix, in, int(start)%(n+1), n, int64(budget))
	})
}

// BenchmarkTuneRound times one inline tuning round shaped like the
// explore_cold workload's measured ones: adaptive window at 52 of a full
// 64-record history (MaxWindow 64), 37 synopses of which each record can use
// a few, and a quota that holds about a third of their bytes. Every
// iteration restores the same window, so each round does the same work.
func BenchmarkTuneRound(b *testing.B) {
	const synopses, records, window = 37, 64, 52
	r := rand.New(rand.NewPCG(1, 2))
	h := newHarness(1<<40, DefaultConfig())
	var quota int64
	for s := range synopses {
		size := int64(1+r.IntN(100)) << 10
		quota += size / 3
		costWith := make(map[int]float64)
		for q := range records + 1 {
			if r.IntN(8) == 0 {
				costWith[q] = float64(r.IntN(90)) / 10
			}
		}
		name := fmt.Sprintf("s%d", s)
		h.cat.Register(rows(name, 1))
		e := h.synopsis(name, size, costWith)
		h.store.SetFreshness(e.Desc.ID, 1)
		if s%4 == 0 {
			if err := h.wh.PutWarehouse(&warehouse.Item{ID: e.Desc.ID, Size: size}); err != nil {
				b.Fatal(err)
			}
		}
	}
	h.wh.SetWarehouseQuota(quota)
	hist := make([]Observation, records)
	for q := range hist {
		hist[q] = Observation{QueryID: q, ExactCost: 10, Reuse: h.reuse[q]}
	}
	ps := h.planSet(records, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		h.t.Restore(window, 0, hist)
		h.t.Tune(ps)
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

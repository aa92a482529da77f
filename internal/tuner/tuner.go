// Package tuner implements Taster's continuous synopsis tuning (paper §V):
// after every query it chooses the execution plan that maximizes long-term
// throughput, and decides which synopses to keep in the quota-bounded
// warehouse by maximizing the submodular gain(Q⁺, S) with the greedy
// algorithm of Leskovec et al. (the (1−1/e)/2 guarantee comes from running
// both the plain-benefit and benefit-per-byte greedy variants and keeping
// the better set). The future workload Q⁺ is approximated by a sliding
// window Q⁻ of the last w queries whose length adapts online. The window is
// one structure owned here: each record carries the query's cost under every
// candidate synopsis — the paper's §III metadata item (d), held query-major
// instead of per synopsis in the metadata store.
package tuner

import (
	"math"

	"github.com/tasterdb/taster/internal/meta"
	"github.com/tasterdb/taster/internal/planner"
	"github.com/tasterdb/taster/internal/warehouse"
)

// Config controls the tuner.
type Config struct {
	// Window is the initial sliding window length w (paper default 10).
	Window int
	// Alpha is the adaptation step: candidates are ⌈(1+α)w⌉ and ⌊(1−α)w⌋.
	Alpha float64
	// Adaptive enables online window-length adaptation (§V).
	Adaptive bool
	// MaxWindow caps w (and the window records the tuner keeps).
	MaxWindow int
}

// DefaultConfig mirrors the paper's defaults (w=10, α=0.25, adaptive).
func DefaultConfig() Config {
	return Config{Window: 10, Alpha: 0.25, Adaptive: true, MaxWindow: 64}
}

// Tuner owns the window state and the synopsis retention decisions.
type Tuner struct {
	cfg   Config
	store *meta.Store
	wh    *warehouse.Manager

	w          int
	history    []Observation // most recent last, capped at MaxWindow
	sinceAdapt int           // queries since the last window adaptation
}

// New returns a tuner over the metadata store and warehouse manager.
func New(cfg Config, store *meta.Store, wh *warehouse.Manager) *Tuner {
	if cfg.Window < 1 {
		cfg.Window = 10
	}
	if cfg.MaxWindow < cfg.Window {
		cfg.MaxWindow = cfg.Window * 4
	}
	if cfg.Alpha <= 0 || cfg.Alpha >= 1 {
		cfg.Alpha = 0.25
	}
	return &Tuner{cfg: cfg, store: store, wh: wh, w: cfg.Window}
}

// Window returns the current window length (observable for experiments).
func (t *Tuner) Window() int { return t.w }

// Checkpoint snapshots the sliding-window state for persistence: the
// adapted window length, the adaptation counter, and the window records
// (oldest first).
func (t *Tuner) Checkpoint() (window, sinceAdapt int, history []Observation) {
	return t.w, t.sinceAdapt, append([]Observation(nil), t.history...)
}

// Restore reinstates a checkpointed sliding window (warm restart): without
// it, the first post-restart tuning round would see an empty window, find
// no benefiting queries, and evict the entire recovered warehouse. The
// window length is clamped to [1, MaxWindow] and the history to its newest
// MaxWindow records, so a checkpoint taken under a different configuration
// degrades gracefully instead of corrupting the tuner.
func (t *Tuner) Restore(window, sinceAdapt int, history []Observation) {
	if window < 1 {
		window = 1
	}
	if window > t.cfg.MaxWindow {
		window = t.cfg.MaxWindow
	}
	t.w = window
	t.sinceAdapt = sinceAdapt
	if len(history) > t.cfg.MaxWindow {
		history = history[len(history)-t.cfg.MaxWindow:]
	}
	t.history = append(t.history[:0], history...)
}

// Decision is the tuner's verdict for one query.
type Decision struct {
	// Chosen is the plan to execute.
	Chosen planner.Candidate
	// Materialize is the subset of the chosen plan's creates worth keeping
	// (members of the selected synopsis set S*).
	Materialize []planner.CreateSpec
	// Evict lists materialized synopses no longer in S* (delete from both
	// tiers).
	Evict []uint64
	// Promote lists buffer-resident synopses in S* to move to the warehouse.
	Promote []uint64
	// Keep is S* itself.
	Keep map[uint64]bool
	// Gains maps each member of S* to the marginal window gain the greedy
	// attributed to it — the engine's elastic fallback eviction uses it to
	// pick lowest-gain victims when a shrink leaves overflow.
	Gains map[uint64]float64
}

// Observation is one served query's record in the sliding window: its exact
// cost and what it would cost with each candidate synopsis materialized.
// Plain values, deliberately not a *planner.PlanSet — the asynchronous
// engine queues observations past the end of Execute, and retaining the
// caller's Query (which a later Execute may legally mutate in place) would
// turn the documented one-Execute-at-a-time contract into a data race.
type Observation struct {
	QueryID   int
	ExactCost float64
	// Reuse is the plan set's ReuseCost: ascending synopsis id, shared
	// read-only with the plan set (and, through the plan cache, with every
	// repetition of the query).
	Reuse []planner.ReuseCost
}

// observe folds one completed planning round into the sliding window:
// window-length adaptation (if enabled) followed by the history append.
// entries and view are the round's metadata and warehouse snapshots, shared
// by every observation of the batch.
func (t *Tuner) observe(o Observation, entries []*meta.Entry, view *warehouse.View) {
	if t.cfg.Adaptive {
		t.adaptWindow(entries, view)
	}
	t.history = append(t.history, o)
	if len(t.history) > t.cfg.MaxWindow {
		t.history = t.history[len(t.history)-t.cfg.MaxWindow:]
	}
}

// deriveActions fills dec.Evict/dec.Promote from the selected set: evict
// every stored, unpinned synopsis outside S* (unless exempted), promote
// buffer residents inside S*; tier and pin are the view's. exempt lists
// synopses that must survive this round even when outside S* — plans costed
// on reusing them may not have executed yet, and deleting their input
// mid-flight would forfeit the reuse the candidate was priced on (the next
// round re-evaluates them unexempted).
func deriveActions(entries []*meta.Entry, view *warehouse.View, keep map[uint64]bool, exempt map[uint64]bool, dec *Decision) {
	for _, e := range entries {
		id := e.Desc.ID
		it, inBuffer, ok := view.Get(id)
		if !ok || it.Pinned {
			continue
		}
		if !keep[id] {
			if !exempt[id] {
				dec.Evict = append(dec.Evict, id)
			}
		} else if inBuffer {
			dec.Promote = append(dec.Promote, id)
		}
	}
}

// round is the one §V tuning round every entry point runs: fold the batch
// into the sliding window in arrival order (adapting w), select S* once,
// choose the plan for ps when one is given, and derive the eviction and
// promotion actions. The warehouse view is read once, and so is the
// metadata store — a single consistent snapshot of the synopses the window
// and the batch mention plus everything the view holds — and both are shared
// by window adaptation, set selection and the derived actions. exempt lists
// synopses that plans already chosen read (see deriveActions); the plan
// chosen for ps adds its own inputs to it.
func (t *Tuner) round(batch []Observation, exempt map[uint64]bool, ps *planner.PlanSet) Decision {
	view := t.wh.View()
	var ids []uint64
	for _, obs := range [][]Observation{t.history, batch} {
		for _, o := range obs {
			for _, rc := range o.Reuse {
				ids = append(ids, rc.ID)
			}
		}
	}
	for _, items := range [][]*warehouse.Item{view.BufferItems(), view.WarehouseItems()} {
		for _, it := range items {
			ids = append(ids, it.ID)
		}
	}
	entries := t.store.Working(ids)
	for _, o := range batch {
		t.observe(o, entries, view)
	}
	_, quota := view.Quotas()
	keep, marginal := selectSet(entries, view, t.windowRecords(t.w), quota)
	dec := Decision{Keep: keep, Gains: marginal}
	if ps != nil {
		dec = Choose(ps, keep, marginal, t.w, view.Has, t.store.Staleness)
		if exempt == nil {
			exempt = make(map[uint64]bool, len(dec.Chosen.Uses))
		}
		for _, id := range dec.Chosen.Uses {
			exempt[id] = true
		}
	}
	deriveActions(entries, view, keep, exempt, &dec)
	return dec
}

// Tune runs one round for a single planned query: its observation is folded
// before S* is selected, so plan choice and the derived actions see the
// query's own contribution to the window.
func (t *Tuner) Tune(ps *planner.PlanSet) Decision {
	return t.round([]Observation{{QueryID: ps.Query.ID, ExactCost: ps.Exact.Cost, Reuse: ps.ReuseCost}}, nil, ps)
}

// TuneBatch runs one round over a batch of observations — the engine's
// entry point for both tuning schedules. The asynchronous service passes a
// drained batch of already-served queries, the synopses their plans read as
// protect, and no plan set (the serving path chose against the published
// snapshot); the inline schedule passes the one query about to run and its
// plan set, and executes the Chosen plan the decision carries.
func (t *Tuner) TuneBatch(batch []Observation, protect map[uint64]bool, ps *planner.PlanSet) Decision {
	return t.round(batch, protect, ps)
}

// Retune re-evaluates the warehouse against the (possibly changed) quota —
// the storage-elasticity entry point (paper §V): a round with nothing to
// fold. It returns the synopses to evict.
func (t *Tuner) Retune() Decision {
	return t.round(nil, nil, nil)
}

// windowRecords returns the last n history records.
func (t *Tuner) windowRecords(n int) []Observation {
	if n > len(t.history) {
		n = len(t.history)
	}
	return t.history[len(t.history)-n:]
}

// ChoosePlan is the §V plan-selection rule as a pure function of tuning
// state, so the engine's lock-free serving path can run it against an
// immutable snapshot (keep set, marginal gains, window length, synopsis
// presence and staleness as of the last publish) and the round can run it
// against live state, scoring candidates identically. A candidate scores its
// immediate cost minus the amortized future gain of the reusable synopses it
// creates (the "promote plans that generate reusable synopses" half of §V).
// The amortization divides the window gain by w: deferring a build to a
// later query forfeits roughly one query's worth of the synopsis' benefit,
// not the whole window's — counting the full gain would let speculative
// builds starve already-materialized synopses.
func ChoosePlan(ps *planner.PlanSet, keep map[uint64]bool, marginal map[uint64]float64,
	w int, has func(uint64) bool, staleness func(uint64) float64) planner.Candidate {
	if w < 1 {
		w = 1
	}
	best := ps.Candidates[0]
	bestScore := math.Inf(1)
	for _, c := range ps.Candidates {
		score := c.Cost
		for _, cs := range c.Creates {
			id := cs.Entry.Desc.ID
			if !keep[id] {
				continue
			}
			credit := 0.0
			if !has(id) {
				credit = 1
			} else if s := staleness(id); s > 0 {
				// Refresh candidate: the synopsis exists but has drifted;
				// rebuilding recovers the stale fraction of its future gain.
				credit = s
			}
			score -= credit * marginal[id] / float64(w) * 2 // build now vs. ~2 queries' delay
		}
		if score < bestScore {
			bestScore = score
			best = c
		}
	}
	return best
}

// Choose wraps ChoosePlan into the decision a query executes on: the chosen
// plan plus the subset of its creates worth materializing (members of S*).
func Choose(ps *planner.PlanSet, keep map[uint64]bool, marginal map[uint64]float64,
	w int, has func(uint64) bool, staleness func(uint64) float64) Decision {
	dec := Decision{Chosen: ChoosePlan(ps, keep, marginal, w, has, staleness), Keep: keep, Gains: marginal}
	for _, cs := range dec.Chosen.Creates {
		if keep[cs.Entry.Desc.ID] {
			dec.Materialize = append(dec.Materialize, cs)
		}
	}
	return dec
}

// hit is one window query a synopsis would speed up: the query's position
// in the window and its cost with the synopsis.
type hit struct {
	pos  int
	cost float64
}

// selectSet runs the Leskovec et al. cost-effective greedy: both the
// benefit-greedy and benefit-per-byte-greedy variants, returning whichever
// final set has the higher total gain. Synopses the view holds pinned are
// always included (their bytes count against the quota first); the rest of
// the universe is the synopses some window query could use. Per synopsis,
// hits are in window order — float sums over them are reproducible.
func selectSet(entries []*meta.Entry, view *warehouse.View, window []Observation, budget int64) (map[uint64]bool, map[uint64]float64) {
	hits := make(map[uint64][]hit)
	for pos, r := range window {
		for _, rc := range r.Reuse {
			hits[rc.ID] = append(hits[rc.ID], hit{pos, rc.Cost})
		}
	}
	var universe, pinned []*meta.Entry
	for _, e := range entries {
		if it, _, ok := view.Get(e.Desc.ID); ok && it.Pinned {
			pinned = append(pinned, e)
		} else if len(hits[e.Desc.ID]) > 0 {
			universe = append(universe, e)
		}
	}

	bestA, gainA, margA := greedy(universe, pinned, view, hits, window, budget, false)
	bestB, gainB, margB := greedy(universe, pinned, view, hits, window, budget, true)
	if gainB > gainA {
		return bestB, margB
	}
	return bestA, margA
}

// greedy builds S by repeatedly adding the synopsis with the highest
// marginal gain (optionally per byte) until the quota is exhausted.
func greedy(universe, pinned []*meta.Entry, view *warehouse.View, hits map[uint64][]hit, window []Observation, budget int64, perByte bool) (map[uint64]bool, float64, map[uint64]float64) {
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

// adaptWindow implements the paper's w ∈ {⌊(1−α)w⌋, w, ⌈(1+α)w⌉} hill climb:
// it asks which window length would have produced the synopsis set that
// minimizes the estimated execution time of the queries that arrived since
// the previous invocation, and adopts it. entries and view are the tuning
// round's store and warehouse snapshots.
func (t *Tuner) adaptWindow(entries []*meta.Entry, view *warehouse.View) {
	t.sinceAdapt++
	if t.sinceAdapt < 1 || len(t.history) < 2 {
		return
	}
	t.sinceAdapt = 0

	newQuery := t.history[len(t.history)-1] // the most recent completed query
	prior := t.history[:len(t.history)-1]

	wMinus := int(math.Floor((1 - t.cfg.Alpha) * float64(t.w)))
	wPlus := int(math.Ceil((1 + t.cfg.Alpha) * float64(t.w)))
	if wMinus < 2 {
		wMinus = 2
	}
	if wPlus > t.cfg.MaxWindow {
		wPlus = t.cfg.MaxWindow
	}
	_, quota := view.Quotas()

	// Evaluate the current w first: a change requires a strict improvement,
	// otherwise ties would drag w toward one end until the window lost all
	// predictive power (the failure mode the paper's Fig. 8 shows for tiny
	// fixed windows).
	bestW, bestCost := t.w, math.Inf(1)
	for _, wc := range []int{t.w, wMinus, wPlus} {
		n := wc
		if n > len(prior) {
			n = len(prior)
		}
		keep, _ := selectSet(entries, view, prior[len(prior)-n:], quota)
		// The new query's estimated cost under that set: its exact cost
		// unless a member helps.
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
	t.w = bestW
}

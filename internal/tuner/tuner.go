// Package tuner implements Taster's continuous synopsis tuning (paper §V):
// after every query it chooses the execution plan that maximizes long-term
// throughput, and decides which synopses to keep in the quota-bounded
// warehouse by maximizing the submodular gain(Q⁺, S) with the greedy
// algorithm of Leskovec et al. (the (1−1/e)/2 guarantee comes from running
// both the plain-benefit and benefit-per-byte greedy variants and keeping
// the better set; each variant is evaluated lazily, CELF, from the same
// paper). The future workload Q⁺ is approximated by a sliding window Q⁻ of
// the last w queries whose length adapts online. The window is one structure
// owned here: each record carries the query's cost under every candidate
// synopsis — the paper's §III metadata item (d), held query-major instead of
// per synopsis in the metadata store. A tuning round numbers its synopses
// and records once, in one dense index that every set selection of the
// round — the window adaptations and S* — reads.
package tuner

import (
	"cmp"
	"math"
	"slices"

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
	ix         index         // the round's index; its slices are reused
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
// (oldest first). The counter steers nothing — the window adapts on every
// observation once the history holds two records — and is carried only so
// the manifest keeps its format.
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
// ix is the round's index, shared by every observation of the batch, and o
// is its record end; the history holds the records before it.
func (t *Tuner) observe(o Observation, ix *index, end int, quota int64) {
	if t.cfg.Adaptive {
		t.adaptWindow(ix, end, quota)
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
// by window adaptation, set selection and the derived actions; the first two
// read them through one index of the round's entries and records. exempt lists
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
	_, quota := view.Quotas()
	ix := &t.ix
	ix.reset(entries, view, t.history, batch)
	end := len(t.history) // records before end are in the history
	for _, o := range batch {
		t.observe(o, ix, end, quota)
		end++
	}
	n := min(t.w, len(t.history))
	keep, marginal := ix.sets(ix.selectSet(end-n, end, quota))
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

// hit is one window record a synopsis would speed up: the record's position
// in the round's record sequence and its cost with the synopsis.
type hit struct {
	pos  int32
	cost float64
}

// ref is one usable reuse cost as the records list it: the working entry's
// position, the record's and the record's cost with the entry.
type ref struct {
	at, pos int32
	cost    float64
}

// index is one tuning round's dense numbering of its working entries and
// records, built once and shared by every set selection of the round: the
// window adaptations of each folded observation and the final S*. Records
// are the history as the round found it followed by the batch, so every
// window the round selects over is a range [lo, hi) of them, and each
// entry's hits in a window are a sub-slice of its hit list. The slices are
// the tuner's and keep their capacity from round to round.
type index struct {
	ids    []uint64  // entry ids, ascending: an entry's position is its index
	size   []int64   // Desc.SizeBytes()
	factor []float64 // benefit discount, constant for the round
	pinned []bool    // held pinned by the view: in S* unconditionally

	off  []int32 // entry i's hits are hits[off[i]:off[i+1]], in record order
	hits []hit

	exact []float64 // record r's exact cost
	refs  []ref     // the records' usable reuse costs, in record order

	// Per-selection scratch: each entry's hits inside the window
	// (hits[from[i]:to[i]]) and the universe; the state both greedy variants
	// start from — each record's cheapest cost with the pinned synopses in S,
	// their bytes and gain, and each candidate's gain there; a variant's
	// cheapest costs so far, its heap with each entry's bound and the pick it
	// was evaluated at; and one result per variant. Costs are indexed by
	// record, so only a window's own records are ever set.
	from, to   []int32
	universe   []int32
	start      []float64
	startUsed  int64
	startTotal float64
	first      []float64
	best       []float64
	heap       []int32
	bound      []float64
	seen       []int32
	sel        [2]selection
}

// selection is one greedy pass's result over the index's entry positions.
type selection struct {
	keep     []bool
	marginal []float64
	total    float64
}

// reset numbers entries (sorted by id, as meta.Store.Working returns them)
// and places the reuse costs of the records history ++ batch, each found by
// binary search; ids that are not working entries are dropped.
func (ix *index) reset(entries []*meta.Entry, view *warehouse.View, history, batch []Observation) {
	n := len(entries)
	ix.ids, ix.size, ix.factor, ix.pinned = ix.ids[:0], ix.size[:0], ix.factor[:0], ix.pinned[:0]
	for _, e := range entries {
		it, _, ok := view.Get(e.Desc.ID)
		// A synopsis the view does not hold only delivers its gain after some
		// future query pays to build it; discounting its benefits keeps
		// speculative giants from evicting working, materialized synopses.
		// Materialized-but-stale synopses decay toward the same discount: the
		// unseen fraction of their source no longer contributes to answers.
		f := 0.5
		if ok {
			if f = 1 - e.Staleness(); f < 0.5 {
				f = 0.5
			}
		}
		ix.ids = append(ix.ids, e.Desc.ID)
		ix.size = append(ix.size, e.Desc.SizeBytes())
		ix.factor = append(ix.factor, f)
		ix.pinned = append(ix.pinned, ok && it.Pinned)
	}

	ix.off = resize(ix.off, n+1)
	ix.exact, ix.refs = ix.exact[:0], ix.refs[:0]
	for _, recs := range [2][]Observation{history, batch} {
		for _, o := range recs {
			pos := int32(len(ix.exact))
			ix.exact = append(ix.exact, o.ExactCost)
			for _, rc := range o.Reuse {
				if k, found := slices.BinarySearch(ix.ids, rc.ID); found {
					ix.refs = append(ix.refs, ref{int32(k), pos, rc.Cost})
					ix.off[k+1]++
				}
			}
		}
	}
	for i := 1; i <= n; i++ {
		ix.off[i] += ix.off[i-1]
	}
	ix.hits = resize(ix.hits, len(ix.refs))
	ix.from, ix.to = resize(ix.from, n), resize(ix.to, n)
	copy(ix.from, ix.off) // the fill cursor until a selection sets the window
	for _, rf := range ix.refs {
		ix.hits[ix.from[rf.at]] = hit{rf.pos, rf.cost}
		ix.from[rf.at]++
	}
	ix.first, ix.bound, ix.seen = resize(ix.first, n), resize(ix.bound, n), resize(ix.seen, n)
	for k := range ix.sel {
		ix.sel[k].keep, ix.sel[k].marginal = resize(ix.sel[k].keep, n), resize(ix.sel[k].marginal, n)
	}
}

// resize returns s with length n and every element zero, reusing its
// capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// selectSet runs the Leskovec et al. cost-effective greedy over the window
// of records [lo, hi): both the benefit-greedy and benefit-per-byte-greedy
// variants, returning whichever final set has the higher total gain (the
// result is the index's and valid until the next call). Synopses the view
// holds pinned are always included (their bytes count against the quota
// first); the rest of the universe is the synopses some window record could
// use. Per synopsis, hits are in record order — float sums over them are
// reproducible. Each variant is evaluated lazily (CELF, from the same paper):
// the marginal gain only falls as S grows, so a stale gain bounds the
// current one and only the candidate on top of the bounds is re-evaluated.
// That picks the sequence the eager scan of every candidate per pick would,
// float for float.
func (ix *index) selectSet(lo, hi int, budget int64) *selection {
	ix.universe = ix.universe[:0]
	for i := range ix.ids {
		hs := ix.hits[ix.off[i]:ix.off[i+1]]
		a, _ := slices.BinarySearchFunc(hs, int32(lo), byPos)
		b, _ := slices.BinarySearchFunc(hs, int32(hi), byPos)
		ix.from[i], ix.to[i] = ix.off[i]+int32(a), ix.off[i]+int32(b)
		if !ix.pinned[i] && a < b {
			ix.universe = append(ix.universe, int32(i))
		}
	}
	// Both variants start from S = the pinned synopses, and a candidate's
	// first gain is the same in both.
	ix.start, ix.best = resize(ix.start, hi), resize(ix.best, hi)
	copy(ix.start[lo:], ix.exact[lo:hi])
	ix.startUsed, ix.startTotal = 0, 0
	for i, p := range ix.pinned {
		if p {
			ix.startTotal += ix.add(ix.start, int32(i)) // pinned are unconditional; quota may overflow by admin choice
			ix.startUsed += ix.size[i]
		}
	}
	for _, i := range ix.universe {
		ix.first[i] = ix.gain(ix.start, i)
	}
	a := ix.greedy(lo, budget, false, &ix.sel[0])
	b := ix.greedy(lo, budget, true, &ix.sel[1])
	if b.total > a.total {
		return b
	}
	return a
}

func byPos(h hit, pos int32) int { return cmp.Compare(h.pos, pos) }

// gain is entry i's marginal gain given best, each window record's cheapest
// cost with the current S: its discounted saving on every record it beats.
func (ix *index) gain(best []float64, i int32) float64 {
	g := 0.0
	f := ix.factor[i]
	for _, h := range ix.hits[ix.from[i]:ix.to[i]] {
		if cur := best[h.pos]; h.cost < cur {
			g += (cur - h.cost) * f
		}
	}
	return g
}

// add lowers best to what entry i delivers and returns the gain credited to
// it, taken from the lowered costs.
func (ix *index) add(best []float64, i int32) float64 {
	g := 0.0
	f := ix.factor[i]
	for _, h := range ix.hits[ix.from[i]:ix.to[i]] {
		cur := best[h.pos]
		if c := cur - (cur-h.cost)*f; h.cost < cur {
			g += cur - c
			best[h.pos] = c
		}
	}
	return g
}

// greedy builds S from the pinned start by repeatedly adding the synopsis
// with the highest marginal gain (optionally per byte) until the quota is
// exhausted. The candidates wait in a max-heap ordered by their last
// evaluated score, then by position — the eager scan's
// first-strictly-greater tie-break. The top is taken when it was evaluated
// at this pick, and re-evaluated and sifted otherwise. A candidate leaves
// for good once it no longer fits the quota (the bytes used only grow) or
// its score is not positive (the gain only falls, in float arithmetic too:
// each term's cheapest cost only falls and the terms are summed in a fixed
// order).
func (ix *index) greedy(lo int, budget int64, perByte bool, sel *selection) *selection {
	copy(sel.keep, ix.pinned)
	clear(sel.marginal)
	sel.total = ix.startTotal
	used := ix.startUsed
	best := ix.best
	copy(best[lo:], ix.start[lo:])
	fits := func(i int32) bool {
		return used+max(ix.size[i], 1) <= budget
	}
	score := func(g float64, i int32) float64 {
		if perByte {
			return g / float64(max(ix.size[i], 1))
		}
		return g
	}

	h := ix.heap[:0]
	for _, i := range ix.universe {
		if s := score(ix.first[i], i); s > 0 && fits(i) {
			ix.bound[i], ix.seen[i] = s, 0
			h = append(h, i)
		}
	}
	for k := len(h)/2 - 1; k >= 0; k-- {
		ix.down(h, k)
	}
	for pick := int32(0); len(h) > 0; {
		i := h[0]
		switch {
		case !fits(i):
			h = ix.pop(h)
		case ix.seen[i] != pick:
			ix.bound[i], ix.seen[i] = score(ix.gain(best, i), i), pick
			if ix.bound[i] > 0 {
				ix.down(h, 0)
			} else {
				h = ix.pop(h)
			}
		default:
			h = ix.pop(h)
			got := ix.add(best, i)
			sel.keep[i] = true
			sel.marginal[i] = got
			sel.total += got
			used += ix.size[i]
			pick++
		}
	}
	ix.heap = h
	return sel
}

// above orders the greedy's heap: the higher bound first, the lower
// position on equal bounds.
func (ix *index) above(a, b int32) bool {
	return ix.bound[a] > ix.bound[b] || ix.bound[a] == ix.bound[b] && a < b
}

// down restores the heap order below h[k].
func (ix *index) down(h []int32, k int) {
	for {
		c := 2*k + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && ix.above(h[c+1], h[c]) {
			c++
		}
		if !ix.above(h[c], h[k]) {
			return
		}
		h[k], h[c] = h[c], h[k]
		k = c
	}
}

// pop removes the heap's top.
func (ix *index) pop(h []int32) []int32 {
	h[0] = h[len(h)-1]
	h = h[:len(h)-1]
	ix.down(h, 0)
	return h
}

// sets is the selection as the maps a Decision publishes: S* (pinned
// members included) and the marginal gain the greedy credited to each
// member it picked.
func (ix *index) sets(sel *selection) (map[uint64]bool, map[uint64]float64) {
	keep := make(map[uint64]bool)
	marginal := make(map[uint64]float64)
	for i, k := range sel.keep {
		if !k {
			continue
		}
		keep[ix.ids[i]] = true
		if !ix.pinned[i] {
			marginal[ix.ids[i]] = sel.marginal[i]
		}
	}
	return keep, marginal
}

// adaptWindow implements the paper's w ∈ {⌊(1−α)w⌋, w, ⌈(1+α)w⌉} hill climb:
// it asks which window length would have produced the synopsis set that
// minimizes the estimated execution time of the queries that arrived since
// the previous invocation, and adopts it. The history is the round index's
// records before end.
func (t *Tuner) adaptWindow(ix *index, end int, quota int64) {
	t.sinceAdapt++
	if len(t.history) < 2 {
		return
	}
	t.sinceAdapt = 0

	newQuery := t.history[len(t.history)-1] // the most recent completed query: record end-1
	prior := len(t.history) - 1             // records before it

	wMinus := int(math.Floor((1 - t.cfg.Alpha) * float64(t.w)))
	wPlus := int(math.Ceil((1 + t.cfg.Alpha) * float64(t.w)))
	if wMinus < 2 {
		wMinus = 2
	}
	if wPlus > t.cfg.MaxWindow {
		wPlus = t.cfg.MaxWindow
	}

	// Evaluate the current w first: a change requires a strict improvement,
	// otherwise ties would drag w toward one end until the window lost all
	// predictive power (the failure mode the paper's Fig. 8 shows for tiny
	// fixed windows). A length that clamps to a record count already tried
	// selects the same set, so it cannot improve strictly and is skipped.
	bestW, bestCost := t.w, math.Inf(1)
	cands := [...]int{t.w, wMinus, wPlus}
	var tried [len(cands)]int
	for k, wc := range cands {
		n := min(wc, prior)
		if tried[k] = n; slices.Contains(tried[:k], n) {
			continue
		}
		keep := ix.selectSet(end-1-n, end-1, quota).keep
		// The new query's estimated cost under that set: its exact cost
		// unless a member helps.
		cost := newQuery.ExactCost
		for _, rc := range newQuery.Reuse {
			if i, ok := slices.BinarySearch(ix.ids, rc.ID); ok && keep[i] && rc.Cost < cost {
				cost = rc.Cost
			}
		}
		if cost < bestCost-1e-12 {
			bestCost, bestW = cost, wc
		}
	}
	t.w = bestW
}

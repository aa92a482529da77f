package planner

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/meta"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/warehouse"
)

// CreateSpec describes a synopsis a candidate plan would materialize as a
// byproduct of its execution.
type CreateSpec struct {
	Entry *meta.Entry
	// Node builds the synopsis: the sampler whose drawn rows are kept, or
	// the sketch-join whose inline-built payload is (exec.Context.Materialize).
	Node plan.Node
}

// Candidate is one executable plan with its estimated cost and the synopses
// it consumes/produces.
type Candidate struct {
	Root    plan.Node
	Cost    float64 // estimated simulated seconds
	Uses    []uint64
	Creates []CreateSpec
	Desc    string
}

// ReuseCost is what a query would cost if synopsis ID existed — the quantity
// the tuner's gain function consumes (paper §III metadata item (d)). The
// JSON names are its form in a checkpointed window (persist.WindowRecord).
type ReuseCost struct {
	ID   uint64  `json:"id"`
	Cost float64 `json:"cost"`
}

// PlanSet is the planner's output for one query: the exact plan plus every
// approximate candidate, and the query's hypothetical reuse cost per
// candidate synopsis in ascending synopsis-id order. A plan set is read-only
// once PlanWith returns: plan-cache hits and the tuner's window share it.
type PlanSet struct {
	Query      *Query
	Exact      Candidate
	Candidates []Candidate
	ReuseCost  []ReuseCost

	// wh is the immutable warehouse view this plan set was generated
	// against: every reuse candidate binds items from it, so the set is
	// internally consistent even while a background tuning round rearranges
	// the live warehouse.
	wh *warehouse.View
}

// Planner generates and costs candidate plans.
type Planner struct {
	Store *meta.Store
	WH    *warehouse.Manager
	Model storage.CostModel
	// Seed drives sampler seeds derived per synopsis.
	Seed uint64
	// Parallelism is the intra-query worker count the morsel-driven executor
	// will run a plan's spine (scan→sample→filter→join→sink) with; plan
	// costing divides the spine's CPU work by it while serially drained work
	// (join build sides, inline sketch builds) stays undivided. Sketch-join
	// candidates still charge their whole cost as serial (planCost explains;
	// ROADMAP's cost-model item owns refitting it). The default 1 reproduces
	// serial estimates and keeps plan choice machine-independent; engines
	// configured with an explicit worker count set it so plan choice
	// reflects the parallel runtime.
	Parallelism float64
	// MaxStaleness is the bounded-staleness policy for synopsis reuse: a
	// materialized synopsis whose staleness (fraction of source rows it has
	// never seen) exceeds the bound is disqualified from reuse; within the
	// bound its reuse cost is inflated proportionally to its staleness so
	// fresher alternatives and refresh builds win as data evolves. 0 (the
	// default) admits only fully fresh synopses; negative disables the
	// bound entirely (reuse regardless of staleness).
	MaxStaleness float64
}

// New returns a planner over the given metadata store and warehouse.
func New(store *meta.Store, wh *warehouse.Manager, model storage.CostModel) *Planner {
	return &Planner{
		Store:       store,
		WH:          wh,
		Model:       model,
		Parallelism: 1,
	}
}

// Plan generates the candidate set for a query (paper §IV-A) against the
// warehouse's current published view.
func (p *Planner) Plan(q *Query) (*PlanSet, error) {
	return p.PlanWith(q, p.WH.View())
}

// PlanWith plans against a caller-supplied immutable warehouse view. The
// engine's lock-free serving path passes the view its published tuning
// snapshot was built from, so reuse candidates, synopsis presence and the
// tuner's keep/gain state all describe the same instant — planning never
// blocks on (or races with) a background tuning round.
func (p *Planner) PlanWith(q *Query, view *warehouse.View) (*PlanSet, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	q = q.factFirst()
	jo, err := newJoinOrder(q)
	if err != nil {
		return nil, err
	}
	exact := p.exactPlan(q, jo)
	ps := &PlanSet{Query: q, Exact: exact, wh: view}
	ps.Candidates = append(ps.Candidates, exact)

	if q.Exact || !q.approximableAggs() || !q.Accuracy.Valid() {
		return ps, nil
	}

	p.addBaseSampleCandidates(q, ps, jo)
	if len(q.Tables) > 1 {
		p.addSketchJoinCandidates(q, ps, jo)
	}
	return ps, nil
}

// noteReuse records that the query would cost `cost` with synopsis id
// materialized, keeping the cheapest cost per synopsis and the list sorted.
func (ps *PlanSet) noteReuse(id uint64, cost float64) {
	i, found := slices.BinarySearchFunc(ps.ReuseCost, id, func(rc ReuseCost, id uint64) int {
		return cmp.Compare(rc.ID, id)
	})
	if !found {
		ps.ReuseCost = slices.Insert(ps.ReuseCost, i, ReuseCost{ID: id, Cost: cost})
	} else if cost < ps.ReuseCost[i].Cost {
		ps.ReuseCost[i].Cost = cost
	}
}

// samplerConfig decides between uniform and distinct sampling and sets the
// parameters for the given stratification set (paper §IV-A "Choosing and
// configuring the synopses").
type samplerConfig struct {
	kind  plan.SynopsisKind
	p     float64
	delta int
	rows  float64 // the rows the sampler is expected to pass (sampleOutRows)
	ok    bool    // false when sampling cannot pay for itself
}

// minCoverageRows is the expected post-filter sample rows per result group
// below which sampling is rejected: groups thinner than this have a real
// chance of vanishing from the result, violating the no-missing-groups
// guarantee.
const minCoverageRows = 16

// configureSampler sizes a sampler so that the query's *result groups* each
// receive ~k rows, while the (possibly wider) stratification set guarantees
// coverage. stratGroups counts distinct combinations of the stratification
// set; coverGroups/coverMinGroup describe the query's own grouping columns.
// Only a distinct sampler reads the strat count, so it is asked for only
// once the uniform check and the feasibility bar have passed: counting a
// wide set (join keys) costs a pass over every row of the version.
// When stratification includes join keys, stratGroups ≫ coverGroups and δ
// shrinks proportionally: δ rows per join key still covers every result
// group while thinning aggressively.
//
// sel is the combined selectivity of the filters that execute *above* the
// sampler (push-down puts the sampler below them): group coverage must hold
// on the filtered stream, so p is sized against inRows·sel and sampling is
// rejected when even the capped probability cannot keep groups populated —
// the paper's "requirements too restrictive" case falls out here.
func (p *Planner) configureSampler(q *Query, strat []string, inRows float64, sel float64, stratGroups func() int, coverMinGroup, coverGroups int) samplerConfig {
	k := p.requiredK(q)
	if sel <= 0 {
		sel = 1
	}
	if sel > 1 {
		sel = 1
	}

	if len(strat) == 0 {
		pr, ok := stats.UniformProbability(k, int(inRows*sel))
		if !ok {
			return samplerConfig{}
		}
		return samplerConfig{kind: plan.UniformSample, p: pr, rows: sampleOutRows(inRows, true, pr, 0, 0), ok: true}
	}
	if coverMinGroup < 1 {
		coverMinGroup = 1
	}
	if coverGroups < 1 {
		coverGroups = 1
	}
	if pr, ok := stats.UniformProbability(k, int(float64(coverMinGroup)*sel)); ok {
		return samplerConfig{kind: plan.UniformSample, p: pr, rows: sampleOutRows(inRows, true, pr, 0, 0), ok: true}
	}
	// p targets k probabilistic rows in the *smallest* result group on the
	// filtered stream — sizing against the average group would starve the
	// thin groups of skewed distributions.
	pr := float64(k) / (float64(coverMinGroup) * sel)
	if pr > 0.1 {
		pr = 0.1
	}
	if pr < 0.001 {
		pr = 0.001
	}
	// Feasibility: expected post-filter rows of the smallest result group
	// must support both coverage (absolute floor) and the error target
	// (a k-proportional bar).
	expected := pr * float64(coverMinGroup) * sel
	if expected < float64(p.feasibilityRows(k)) {
		// Paper: "Taster generates a plan without samplers if stratification
		// and accuracy requirements are so restrictive that they cannot be
		// satisfied with a reasonable sampling probability."
		return samplerConfig{}
	}
	// Distinct sampler: δ per stratification combo such that each result
	// group (≈ stratGroups/coverGroups combos) accumulates ~k rows. A
	// multi-column set over an empty version counts 0 groups; it sizes δ as
	// one group would.
	groups := max(stratGroups(), 1)
	delta := int(math.Ceil(float64(k) * float64(coverGroups) / float64(groups)))
	if delta < 1 {
		delta = 1
	}
	out := sampleOutRows(inRows, false, pr, delta, groups)
	if out > 0.5*inRows {
		return samplerConfig{}
	}
	return samplerConfig{kind: plan.DistinctSample, p: pr, delta: delta, rows: out, ok: true}
}

// bound is a stored synopsis that passed bind: the item a reuse candidate
// reads, and what costing needs to know about how it was found.
type bound struct {
	item     *warehouse.Item
	inBuffer bool    // tier: the in-memory buffer, else the warehouse
	loaded   bool    // payload resident when bound; if not, reuse pays a fault-in
	stale    float64 // fraction of source rows the synopsis has never seen
}

// bind is the one gate between a metadata match and a reuse candidate: the
// entry's synopsis must be in the plan set's warehouse view, still be the
// live stored copy, and be within the staleness bound. The item holds the
// entry's kind of payload: the match functions return one kind of entry
// each, and an id never changes kind.
//
// The liveness check exists because the staleness gate reads *live*
// metadata, which describes the latest build; if a background refresh
// swapped in a newer payload after the snapshot was published (or the copy
// was evicted), live metadata and the bound payload describe different
// builds and the gate would be meaningless — a stale pre-refresh sample
// could slip past Config.MaxStaleness on fresh metadata. Skipping restores
// the pre-snapshot gating exactly; the next query, planning against the
// republished view, reuses the fresh copy.
//
// bind never faults a spilled payload in: callers resolve it (item.Sample /
// item.Sketch) only once their own feasibility checks have passed.
func (p *Planner) bind(ps *PlanSet, e *meta.Entry) (bound, bool) {
	id := e.Desc.ID
	item, inBuffer, ok := ps.wh.Get(id)
	if !ok {
		return bound{}, false
	}
	if cur, _, ok := p.WH.Get(id); !ok || cur != item {
		return bound{}, false
	}
	stale := e.Staleness()
	if !p.stalenessAllowed(stale) {
		return bound{}, false
	}
	return bound{item: item, inBuffer: inBuffer, loaded: item.Loaded(), stale: stale}, true
}

// stalenessAllowed applies the bounded-staleness policy: may a synopsis
// with the given staleness fraction still serve queries?
func (p *Planner) stalenessAllowed(s float64) bool {
	if p.MaxStaleness < 0 {
		return true
	}
	return s <= p.MaxStaleness+1e-12
}

// stalenessPenalty inflates a reuse plan's effective cost for a stale (but
// still admissible) synopsis: linear in staleness, doubling the cost as the
// synopsis reaches the configured bound. The inflation is what lets the
// tuner weigh a refresh build (full cost now, fresh afterwards) against
// continued use of a drifting synopsis.
func (p *Planner) stalenessPenalty(s float64) float64 {
	if s <= 0 || p.MaxStaleness < 0 {
		return 1 // fresh, or the bound is disabled (pre-ingestion behavior)
	}
	bound := p.MaxStaleness
	if bound <= 0 {
		bound = 1
	}
	return 1 + s/bound
}

// requiredK derives the per-group sample size from the query's accuracy
// spec and the worst coefficient of variation among its aggregate columns.
func (p *Planner) requiredK(q *Query) int {
	cv := 0.0
	for _, c := range q.aggCols() {
		t := q.TableOf(c)
		if ref, ok := q.ref(t); ok {
			if i := ref.Table.Schema().Index(c); i >= 0 {
				if v := ref.Table.ColumnMoments(i).CV(); v > cv {
					cv = v
				}
			}
		}
	}
	if cv == 0 {
		cv = 1 // COUNT-only queries: conservative default
	}
	return stats.RequiredRowsPerGroup(cv, q.Accuracy)
}

// feasibilityRows is the expected-rows-per-group bar a sampler (or a
// matched sample) must clear: the absolute coverage floor, or half the
// CLT requirement — whichever is higher.
func (p *Planner) feasibilityRows(k int) int {
	return max(minCoverageRows, k/2)
}

// addBaseSampleCandidates generates position-A plans: the sampler pushed all
// the way below the fact table's filter (paper §IV-A push-down), plus reuse
// plans for every matching materialized sample of that base relation.
func (p *Planner) addBaseSampleCandidates(q *Query, ps *PlanSet, jo joinOrder) {
	fact := q.FactTable()
	factFilter := q.FilterForTable(fact.Name)

	strat := expr.DedupCols(append(append(
		q.groupColsOn(fact.Name),
		q.joinKeysOf(fact.Name)...),
		q.skewedEqFilterCols(fact)...))

	inRows := float64(fact.Table.NumRows())
	// Result-group structure: every query group must end up with ~k fact
	// rows. Group columns on the fact table give exact counts; probe-side
	// group columns fan out over fact rows through the join, estimated by
	// their distinct counts.
	factCover := q.groupColsOn(fact.Name)
	coverGroups, coverMinGroup := 1, int(inRows)
	if len(factCover) > 0 {
		coverGroups = fact.Table.GroupCount(factCover)
		coverMinGroup = fact.Table.MinGroupOf(factCover)
	}
	for _, g := range q.GroupBy {
		owner := q.TableOf(g)
		if owner == fact.Name || owner == "" {
			continue
		}
		if ref, ok := q.ref(owner); ok {
			if d := ref.Table.DistinctOf(g); d > 0 {
				coverGroups *= d
			}
		}
	}
	if len(factCover) == 0 && coverGroups > 1 {
		coverMinGroup = max(1, int(inRows)/coverGroups/2)
	}
	// Coverage must survive every filter in the query: probe-side filters
	// thin the fact rows through the join just like fact-side ones
	// (independence-assumption estimate).
	selAll := 1.0
	for _, b := range jo.branches {
		selAll *= b.sel
	}
	sel := jo.branches[0].sel
	cfg := p.configureSampler(q, strat, inRows, selAll, func() int { return fact.Table.GroupCount(strat) }, coverMinGroup, coverGroups)
	if !cfg.ok {
		return
	}

	desc := meta.Descriptor{
		Kind:      cfg.kind,
		Table:     fact.Table.Name,
		StratCols: strat,
		P:         cfg.p,
		Delta:     cfg.delta,
		AggCols:   q.aggCols(),
		Accuracy:  q.Accuracy,
	}
	desc.EstSizeBytes = sampleBytes(cfg.rows, fact.Table.AvgRowBytes())
	entry := p.Store.Intern(desc)

	// Build-inline candidate.
	synNode := &plan.SynopsisOp{
		Child: &plan.Scan{Table: fact.Table},
		Kind:  cfg.kind, P: cfg.p, Delta: cfg.delta,
		StratCols: strat, Accuracy: q.Accuracy,
	}
	var leaf plan.Node = synNode
	if factFilter != nil {
		leaf = &plan.Filter{Child: leaf, Pred: factFilter}
	}
	// The fact table leads the join tree, so the sampler rides the
	// morsel-parallel probe spine.
	var cost planCost
	cost.scanTable(fact)
	cost.samplerWork(inRows)
	root, out := joinOn(leaf, scanEst{rows: cfg.rows * sel, width: fact.Table.AvgRowBytes() + 8}, jo.dims, &cost)
	cost.aggWork(out)
	ps.Candidates = append(ps.Candidates, Candidate{
		Root:    p.finishPlan(q, root),
		Cost:    cost.seconds(p.Model, p.Parallelism),
		Creates: []CreateSpec{{Entry: entry, Node: synNode}},
		Desc:    fmt.Sprintf("build %s sample on %s", cfg.kind, fact.Name),
	})

	// Hypothetical reuse cost (drives the tuner's gain for this synopsis).
	reuseCost := p.costBaseSampleReuse(jo, fact, desc.EstSizeBytes, cfg.rows*sel)
	ps.noteReuse(entry.Desc.ID, reuseCost)

	// Reuse candidates for every matching materialized sample. The match
	// requires only the stratification needed for group coverage (grouping
	// columns on the fact side plus skewed filter columns): join-key
	// stratification improves variance — Taster builds with it — but a
	// sample without it still yields unbiased HT estimates through the
	// join, so demanding it would reject BlinkDB-style QCS samples.
	requireStrat := expr.DedupCols(append(
		q.groupColsOn(fact.Name), q.skewedEqFilterCols(fact)...))
	req := meta.Requirements{
		Table:     fact.Table.Name,
		Filter:    factFilter,
		StratCols: requireStrat,
		AggCols:   p.aggColsOn(q, fact.Name),
		Accuracy:  q.Accuracy,
	}
	for _, m := range p.Store.MatchSamples(req, ps.wh.Has) {
		b, ok := p.bind(ps, m.Entry)
		if !ok {
			continue
		}
		p.addSampleReuse(q, ps, jo, b, m.CompensateFilter, selAll, coverGroups)
	}
}

// addSampleReuse adds the candidate that answers the fact relation from
// the stored sample b.
func (p *Planner) addSampleReuse(q *Query, ps *PlanSet, jo joinOrder, b bound, compensate expr.Pred, selAll float64, coverGroups int) {
	fact := q.Tables[0]
	var rcost planCost
	if !b.inBuffer {
		rcost.warehouseBytes += b.item.Size
		if !b.loaded {
			rcost.loadSynopsis(b.item.Size)
		}
	}
	// Coverage feasibility for THIS query's filters: the stored rows must
	// leave enough expected rows in the thinnest result group. Item
	// metadata carries the row count, so infeasible candidates are rejected
	// without faulting a spilled payload off disk.
	sampleRows := float64(b.item.Rows)
	if sampleRows*selAll/float64(coverGroups) < float64(p.feasibilityRows(p.requiredK(q))) {
		return
	}
	// Resolve the payload last: a disk-resident sample faults in here —
	// outside every engine lock — and the fault was charged above based on
	// whether the payload was cached when this plan set bound it.
	smp, err := b.item.Sample()
	if err != nil {
		return // backing file lost or corrupt; next round re-tastes
	}
	var leaf plan.Node = &plan.SynopsisScan{
		SynopsisID: b.item.ID,
		Sample:     smp,
		Label:      fact.Name,
		InBuffer:   b.inBuffer,
	}
	if compensate != nil {
		leaf = &plan.Filter{Child: leaf, Pred: compensate}
	}
	rcost.cpuTuples += int64(sampleRows) // the spine leaf
	rroot, rout := joinOn(leaf, scanEst{rows: sampleRows * jo.branches[0].sel, width: fact.Table.AvgRowBytes() + 8}, jo.dims, &rcost)
	rcost.aggWork(rout)
	cost := rcost.seconds(p.Model, p.Parallelism) * p.stalenessPenalty(b.stale)
	ps.Candidates = append(ps.Candidates, Candidate{
		Root: p.finishPlan(q, rroot),
		Cost: cost,
		Uses: []uint64{b.item.ID},
		Desc: fmt.Sprintf("reuse sample #%d on %s", b.item.ID, fact.Name),
	})
	// Credit the stored sample with this query's savings. Without the reuse
	// cost the tuner's greedy cannot see the query as already covered, and a
	// hypothetical build descriptor — a different intern whenever the stored
	// sampler configuration differs from the query-sized one (a pinned hint)
	// — collects the full window gain as build credit and outbids the
	// cheaper reuse.
	ps.noteReuse(b.item.ID, cost)
}

// costBaseSampleReuse estimates what the query costs if the base sample
// existed in the warehouse. No such sample exists to read, so the join tree
// is priced over no leaf and dropped.
func (p *Planner) costBaseSampleReuse(jo joinOrder, fact TableRef, sizeBytes int64, outRows float64) float64 {
	var cost planCost
	cost.warehouseBytes += sizeBytes
	cost.cpuTuples += int64(outRows)
	_, out := joinOn(nil, scanEst{rows: math.Max(outRows, 1), width: fact.Table.AvgRowBytes() + 8}, jo.dims, &cost)
	cost.aggWork(out)
	return cost.seconds(p.Model, p.Parallelism)
}

// aggColsOn returns the aggregate columns owned by the table.
func (p *Planner) aggColsOn(q *Query, table string) []string {
	var out []string
	for _, c := range q.aggCols() {
		if q.TableOf(c) == table {
			out = append(out, c)
		}
	}
	return out
}

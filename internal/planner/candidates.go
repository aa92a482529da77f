package planner

import (
	"fmt"
	"math"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/meta"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
	"github.com/tasterdb/taster/internal/warehouse"
)

// addJoinSampleCandidates generates position-B plans: a sampler over the
// *unfiltered* join result (the paper's intermediate-result synopses, §III:
// "synopses for summarizing both base tables and intermediary results of
// subplans (e.g., join results)"). Building one costs more than the exact
// plan for the query at hand — the unfiltered join is wider — but once
// materialized it serves every query over the same join pattern regardless
// of predicate values, which is where TPC-DS's recurring
// store_sales⋈date_dim pattern wins (paper §VI-A).
func (p *Planner) addJoinSampleCandidates(q *Query, ps *PlanSet) {
	// Stratify on grouping columns plus skewed equality-filter columns of
	// every table (the push-down rule applied at the join output).
	strat := append([]string(nil), q.GroupBy...)
	for _, t := range q.Tables {
		strat = append(strat, q.skewedEqFilterCols(t)...)
	}
	strat = expr.DedupCols(strat)

	// Estimate join cardinality and group structure.
	var probeCost planCost // throwaway accumulator for estimation
	joinOut := p.costUnfilteredJoinTree(q, &probeCost)
	groups := 1
	for _, c := range strat {
		if ref, ok := q.ref(q.tableOf(c)); ok {
			if d := ref.Table.DistinctOf(c); d > 0 {
				groups *= d
			}
		}
		if groups > 1<<20 {
			return // stratification space too large to sample usefully
		}
	}
	coverGroups := 1
	for _, c := range q.GroupBy {
		if ref, ok := q.ref(q.tableOf(c)); ok {
			if d := ref.Table.DistinctOf(c); d > 0 {
				coverGroups *= d
			}
		}
	}
	coverMinGroup := maxInt(1, int(joinOut.rows/float64(coverGroups)/2))
	sel := p.totalFilterSelectivity(q)
	cfg := p.configureSampler(q, strat, joinOut.rows, sel, groups, coverMinGroup, coverGroups)
	if !cfg.ok {
		return
	}

	unfiltered, err := p.joinTree(q, nil, false)
	if err != nil {
		return
	}
	sig := plan.SignatureOf(unfiltered)
	desc := meta.Descriptor{
		Kind:      cfg.kind,
		Sig:       sig,
		StratCols: strat,
		P:         cfg.p,
		Delta:     cfg.delta,
		AggCols:   q.aggCols(),
		Accuracy:  q.Accuracy,
	}
	outRows := sampleOutRows(joinOut.rows, cfg.kind == plan.UniformSample, cfg.p, cfg.delta, groups)
	desc.EstSizeBytes = sampleBytes(outRows, joinOut.width)
	entry := p.Store.Intern(desc)

	// Build-inline candidate: sampler over the unfiltered join, all filters
	// applied above the sampler.
	synNode := &plan.SynopsisOp{
		Child: unfiltered,
		Kind:  cfg.kind, P: cfg.p, Delta: cfg.delta,
		StratCols: strat, Accuracy: q.Accuracy,
	}
	var singleFilters []expr.Expr
	for _, t := range q.Tables {
		if f := q.filterForTable(t.Name); f != nil {
			singleFilters = append(singleFilters, f)
		}
	}
	full := p.finishPlan(q, synNode, expr.AndAll(singleFilters))

	var cost planCost
	joinEstOut := p.costUnfilteredJoinTree(q, &cost)
	cost.samplerWork(joinEstOut.rows) // sampler above the join root
	// Filters lifted above the sampler evaluate over the sample stream.
	for range singleFilters {
		cost.filterWork(outRows, false)
	}
	// sel computed above for the sampler configuration.
	cost.aggWork(scanEst{rows: math.Max(outRows*sel, 1), width: joinOut.width + 8})
	ps.Candidates = append(ps.Candidates, Candidate{
		Root:    full,
		Cost:    cost.seconds(p.Model, p.Parallelism),
		Creates: []CreateSpec{{Entry: entry, SampleNode: synNode}},
		Desc:    fmt.Sprintf("build %s sample on join %v", cfg.kind, sig.Tables),
	})

	// Hypothetical reuse cost.
	var rc planCost
	rc.scanSynopsis(desc.EstSizeBytes, outRows)
	rc.aggWork(scanEst{rows: math.Max(outRows*sel, 1), width: joinOut.width + 8})
	reuseCost := rc.seconds(p.Model, p.Parallelism)
	ps.noteReuse(entry.Desc.ID, reuseCost)

	// Reuse candidates from materialized join-result samples.
	need := append(append([]string(nil), q.GroupBy...), q.aggCols()...)
	if q.Filter != nil {
		need = append(need, q.Filter.Columns(nil)...)
	}
	req := meta.Requirements{
		Sig:       sig,
		Filter:    q.Filter,
		NeedCols:  expr.DedupCols(need),
		StratCols: strat,
		AggCols:   q.aggCols(),
		Accuracy:  q.Accuracy,
	}
	for _, m := range p.Store.MatchSamples(req) {
		b, ok := p.bind(ps, m.Entry, warehouse.SampleItem)
		if !ok {
			continue
		}
		// Coverage feasibility under this query's filters (from item
		// metadata — no payload fault for infeasible candidates).
		sampleRows := float64(b.item.Rows)
		if sampleRows*sel/float64(coverGroups) < float64(p.feasibilityRows(p.requiredK(q))) {
			continue
		}
		smp, err := b.item.Sample()
		if err != nil {
			continue // backing file lost or corrupt; next round re-tastes
		}
		ss := &plan.SynopsisScan{
			SynopsisID: m.Entry.Desc.ID,
			Sample:     smp,
			Label:      fmt.Sprintf("join %v", sig.Tables),
			InBuffer:   b.inBuffer,
		}
		rfull := p.finishPlan(q, ss, m.CompensateFilter)
		var rcost planCost
		if !b.inBuffer {
			rcost.scanSynopsis(b.item.Size, sampleRows)
			if !b.loaded {
				rcost.loadSynopsis(b.item.Size)
			}
		} else {
			rcost.cpuTuples += int64(sampleRows)
		}
		if m.CompensateFilter != nil {
			rcost.filterWork(sampleRows, false)
		}
		rcost.aggWork(scanEst{rows: math.Max(sampleRows*sel, 1), width: joinOut.width + 8})
		ps.Candidates = append(ps.Candidates, Candidate{
			Root: rfull,
			Cost: rcost.seconds(p.Model, p.Parallelism) * p.stalenessPenalty(b.stale),
			Uses: []uint64{m.Entry.Desc.ID},
			Desc: fmt.Sprintf("reuse join sample #%d", m.Entry.Desc.ID),
		})
	}
}

// costUnfilteredJoinTree charges the join tree with no filters pushed down.
func (p *Planner) costUnfilteredJoinTree(q *Query, cost *planCost) scanEst {
	// The first table is the probe spine; every other is a serially drained
	// build side.
	branchEst := func(t TableRef) scanEst {
		cost.scanBase(t.Table.Bytes(), int64(t.Table.NumRows()), t.Name != q.Tables[0].Name)
		return scanEst{rows: float64(t.Table.NumRows()), width: t.Table.AvgRowBytes()}
	}
	cur := branchEst(q.Tables[0])
	joined := []string{q.Tables[0].Name}
	for _, t := range q.Tables[1:] {
		right := branchEst(t)
		out := p.est.joinEst(q, cur, joined, t, right)
		cost.joinWork(right, cur, out)
		cur = out
		joined = append(joined, t.Name)
	}
	return cur
}

// sketchShape captures a validated sketch-join opportunity.
type sketchShape struct {
	fact       TableRef
	probe      []TableRef // remaining tables, connected among themselves
	buildKeys  []string   // fact-side join columns
	probeKeys  []string   // probe-side join columns (same order)
	aggCol     string     // fact-side aggregate column ("" = COUNT only)
	groupBy    []string   // grouping columns rewritten onto the probe side
	factFilter expr.Expr
}

// sketchEligible checks the paper's §IV-A conditions:
//
//	attrs(T) − jp = agg           (fact contributes only join keys + the
//	                               aggregate column)
//	attrs(T) ∩ grp = ∅  OR  attrs(T) ∩ grp = attrs(T) ∩ jp
//	                              (grouping never needs fact columns beyond
//	                               join keys, which the probe side mirrors)
func (p *Planner) sketchEligible(q *Query) (sketchShape, bool) {
	if len(q.Tables) < 2 || len(q.OrderBy) > 0 {
		return sketchShape{}, false
	}
	for _, a := range q.Aggs {
		if a.Kind != stats.Count && a.Kind != stats.Sum && a.Kind != stats.Avg {
			return sketchShape{}, false
		}
	}
	sh := sketchShape{fact: q.factTable()}

	// Exactly zero or one distinct fact-side aggregate column.
	factAggs := p.aggColsOn(q, sh.fact.Name)
	if len(factAggs) > 1 {
		return sketchShape{}, false
	}
	if len(factAggs) == 1 {
		sh.aggCol = factAggs[0]
	}
	// Any other aggregate columns must live on the probe side.
	for _, c := range q.aggCols() {
		if q.tableOf(c) == "" {
			return sketchShape{}, false
		}
	}

	// Probe side: every other table; they must interconnect without the
	// fact table (star flakes like products⋈departments qualify; two
	// dimensions only joinable through the fact do not).
	for _, t := range q.Tables {
		if t.Name != sh.fact.Name {
			sh.probe = append(sh.probe, t)
		}
	}
	if len(sh.probe) == 0 {
		return sketchShape{}, false
	}
	if len(sh.probe) > 1 && !connected(sh.probe, q.Joins, sh.fact.Name) {
		return sketchShape{}, false
	}

	// Fact↔probe join predicates become the sketch key.
	for _, j := range q.Joins {
		switch {
		case j.LeftTable == sh.fact.Name && j.RightTable != sh.fact.Name:
			sh.buildKeys = append(sh.buildKeys, j.LeftCol)
			sh.probeKeys = append(sh.probeKeys, j.RightCol)
		case j.RightTable == sh.fact.Name && j.LeftTable != sh.fact.Name:
			sh.buildKeys = append(sh.buildKeys, j.RightCol)
			sh.probeKeys = append(sh.probeKeys, j.LeftCol)
		}
	}
	if len(sh.buildKeys) == 0 {
		return sketchShape{}, false
	}

	// Grouping columns: rewrite fact-side group keys to their probe-side
	// join equivalents; anything else on the fact side disqualifies.
	for _, g := range q.GroupBy {
		if q.tableOf(g) != sh.fact.Name {
			sh.groupBy = append(sh.groupBy, g)
			continue
		}
		rewritten := ""
		for i, bk := range sh.buildKeys {
			if bk == g {
				rewritten = sh.probeKeys[i]
				break
			}
		}
		if rewritten == "" {
			return sketchShape{}, false
		}
		sh.groupBy = append(sh.groupBy, rewritten)
	}
	sh.factFilter = q.filterForTable(sh.fact.Name)
	if q.residualFilter() != nil {
		return sketchShape{}, false // cannot evaluate cross-table filters post-sketch
	}
	return sh, true
}

// connected reports whether the tables form a connected join graph using
// only predicates that avoid the excluded table.
func connected(tables []TableRef, joins []JoinPred, exclude string) bool {
	if len(tables) <= 1 {
		return true
	}
	adj := make(map[string][]string)
	for _, j := range joins {
		if j.LeftTable == exclude || j.RightTable == exclude {
			continue
		}
		adj[j.LeftTable] = append(adj[j.LeftTable], j.RightTable)
		adj[j.RightTable] = append(adj[j.RightTable], j.LeftTable)
	}
	seen := map[string]bool{tables[0].Name: true}
	stack := []string{tables[0].Name}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range adj[cur] {
			if !seen[nb] {
				seen[nb] = true
				stack = append(stack, nb)
			}
		}
	}
	for _, t := range tables {
		if !seen[t.Name] {
			return false
		}
	}
	return true
}

// addSketchJoinCandidates generates sketch-join plans when eligible. The
// paper prioritizes sketch-joins "due to the immense ratio of performance
// gain to storage requirement" — the tuner sees that ratio through the
// sketch's tiny size.
func (p *Planner) addSketchJoinCandidates(q *Query, ps *PlanSet) {
	sh, ok := p.sketchEligible(q)
	if !ok {
		return
	}
	// Build-side subplan: σ(fact).
	var buildNode plan.Node = &plan.Scan{Table: sh.fact.Table}
	if sh.factFilter != nil {
		buildNode = &plan.Filter{Child: buildNode, Pred: sh.factFilter}
	}
	buildSig := plan.SignatureOf(buildNode)

	desc := meta.Descriptor{
		Kind:       plan.SketchJoinSynopsis,
		Sig:        buildSig,
		FilterPred: sh.factFilter,
		BuildKeys:  sh.buildKeys,
		AggCol:     sh.aggCol,
		Accuracy:   q.Accuracy,
	}
	// The payload is one row per distinct build key: the key, a count and a
	// sum. The fact table's distinct key count bounds the filtered build's,
	// and the table stays below the fact table whenever the key fanout
	// exceeds a row or two (the paper's "few MB vs GB" regime holds at
	// instacart's ~10 items/order and ~600 purchases/product).
	distinctKeys := p.groupCountOf(sh.fact.Table, sh.buildKeys)
	desc.EstSizeBytes = int64(distinctKeys)*(keyWidth(sh.fact.Table.Schema(), sh.buildKeys)+16) + 128
	entry := p.Store.Intern(desc)

	// Probe-side subplan: join of the remaining (filtered) tables.
	probeQ := &Query{Tables: sh.probe, Joins: probeJoins(q, sh), Filter: probeFilter(q, sh)}
	probeNode, err := p.joinTree(probeQ, nil, true)
	if err != nil {
		return
	}

	mkNode := func(sketch *synopsesSketch) *plan.SketchJoin {
		n := &plan.SketchJoin{
			Probe:     probeNode,
			BuildDesc: sh.fact.Name,
			ProbeKeys: sh.probeKeys,
			BuildKeys: sh.buildKeys,
			AggCol:    sh.aggCol,
			GroupBy:   sh.groupBy,
			Aggs:      q.Aggs,
		}
		if sketch != nil {
			n.SynopsisID = sketch.id
			n.Sketch = sketch.sk
		} else {
			n.Build = buildNode
		}
		return n
	}

	// Build-inline candidate.
	buildPlan := mkNode(nil)
	var cost planCost
	cost.scanTable(sh.fact)
	cost.cpuTuples += int64(float64(sh.fact.Table.NumRows()) * 4) // the per-key fold of every build row
	// The probe side is costed like every other scan, zone pruning
	// included, so the estimate charges the partitions exec will read.
	probeOut := p.costFilteredJoinTree(probeQ, nil, &cost)
	cost.sketchProbeWork(probeOut.rows)
	cost.aggWork(scanEst{rows: probeOut.rows, width: probeOut.width})
	cost.serializeCPU() // sketch-join plans are costed as serial work (see planCost)
	ps.Candidates = append(ps.Candidates, Candidate{
		Root:    buildPlan,
		Cost:    cost.seconds(p.Model, p.Parallelism),
		Creates: []CreateSpec{{Entry: entry, SketchNode: buildPlan}},
		Desc:    fmt.Sprintf("build sketch-join on %s", sh.fact.Name),
	})

	// Hypothetical reuse cost.
	var rc planCost
	rc.warehouseBytes += desc.EstSizeBytes
	rOut := p.costFilteredJoinTree(probeQ, nil, &rc)
	rc.sketchProbeWork(rOut.rows)
	rc.aggWork(scanEst{rows: rOut.rows, width: rOut.width})
	rc.serializeCPU()
	reuseCost := rc.seconds(p.Model, p.Parallelism)
	ps.noteReuse(entry.Desc.ID, reuseCost)

	// Reuse candidate when a matching sketch is materialized.
	req := meta.Requirements{Sig: buildSig, Filter: sh.factFilter, Accuracy: q.Accuracy}
	for _, m := range p.Store.MatchSketchJoins(req, sh.buildKeys, sh.aggCol) {
		// Sketches cannot be compensated, so the staleness bound applies to
		// them just like to samples (a stale sketch undercounts new rows).
		b, ok := p.bind(ps, m.Entry, warehouse.SketchItem)
		if !ok {
			continue
		}
		sk, err := b.item.Sketch()
		if err != nil {
			continue // backing file lost or corrupt; next round re-tastes
		}
		node := mkNode(&synopsesSketch{id: m.Entry.Desc.ID, sk: sk})
		var rcost planCost
		rcost.warehouseBytes += b.item.Size
		if !b.loaded {
			rcost.loadSynopsis(b.item.Size)
		}
		ro := p.costFilteredJoinTree(probeQ, nil, &rcost)
		rcost.sketchProbeWork(ro.rows)
		rcost.aggWork(scanEst{rows: ro.rows, width: ro.width})
		rcost.serializeCPU()
		ps.Candidates = append(ps.Candidates, Candidate{
			Root: node,
			Cost: rcost.seconds(p.Model, p.Parallelism) * p.stalenessPenalty(b.stale),
			Uses: []uint64{m.Entry.Desc.ID},
			Desc: fmt.Sprintf("reuse sketch-join #%d on %s", m.Entry.Desc.ID, sh.fact.Name),
		})
	}
}

// keyWidth is the encoded bytes of one key over cols: 8 per int64 or float64
// column, 1 per bool, and per string its length prefix and a guess of 16
// bytes of text.
func keyWidth(s storage.Schema, cols []string) int64 {
	var n int64
	for _, c := range cols {
		typ := storage.Int64
		if i := s.Index(c); i >= 0 {
			typ = s[i].Typ
		}
		switch typ {
		case storage.Bool:
			n++
		case storage.String:
			n += 4 + 16
		default:
			n += 8
		}
	}
	return n
}

// synopsesSketch pairs a materialized sketch with its metadata id.
type synopsesSketch struct {
	id uint64
	sk *synopses.SketchJoin
}

// probeJoins returns the join predicates among probe tables only.
func probeJoins(q *Query, sh sketchShape) []JoinPred {
	var out []JoinPred
	for _, j := range q.Joins {
		if j.LeftTable != sh.fact.Name && j.RightTable != sh.fact.Name {
			out = append(out, j)
		}
	}
	return out
}

// probeFilter returns the filter conjuncts over probe tables.
func probeFilter(q *Query, sh sketchShape) expr.Expr {
	var keep []expr.Expr
	for _, c := range expr.Conjuncts(q.Filter) {
		if t := conjunctTable(c, q); t != "" && t != sh.fact.Name {
			keep = append(keep, c)
		}
	}
	return expr.AndAll(keep)
}

package planner

import (
	"fmt"
	"slices"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/meta"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
)

// sketchShape captures a validated sketch-join opportunity.
type sketchShape struct {
	fact       TableRef
	buildKeys  []string // fact-side join columns
	probeKeys  []string // probe-side join columns (same order)
	aggCol     string   // fact-side aggregate column ("" = COUNT only)
	groupBy    []string // grouping columns rewritten onto the probe side
	factFilter expr.Pred
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
	sh := sketchShape{fact: q.FactTable()}

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
		if q.TableOf(c) == "" {
			return sketchShape{}, false
		}
	}

	// The probe side is every other table. Fact↔probe join predicates
	// become the sketch key; the probe tables must also join among
	// themselves without the fact table (star flakes like
	// products⋈departments qualify; two dimensions only joinable through the
	// fact do not), which addSketchJoinCandidates learns from joinSteps.
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
		if q.TableOf(g) != sh.fact.Name {
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
	sh.factFilter = q.FilterForTable(sh.fact.Name)
	return sh, true
}

// addSketchJoinCandidates generates sketch-join plans when eligible. The
// paper prioritizes sketch-joins "due to the immense ratio of performance
// gain to storage requirement" — the tuner sees that ratio through the
// sketch's tiny size.
func (p *Planner) addSketchJoinCandidates(q *Query, ps *PlanSet, jo joinOrder) {
	sh, ok := p.sketchEligible(q)
	if !ok {
		return
	}
	// The probe side joins in the query's order as far as it joins
	// (joinSteps). One that does not join is no sketch-join: nothing is
	// counted or interned for it.
	steps, err := joinSteps(q.Tables[1:], jo.branches[1:], probeJoins(q, sh))
	if err != nil {
		return
	}
	// Build-side subplan: σ(fact).
	var buildNode plan.Node = &plan.Scan{Table: sh.fact.Table}
	if sh.factFilter != nil {
		buildNode = &plan.Filter{Child: buildNode, Pred: sh.factFilter}
	}
	desc := meta.Descriptor{
		Kind:       plan.SketchJoinSynopsis,
		Table:      sh.fact.Table.Name,
		FilterPred: sh.factFilter,
		BuildKeys:  sh.buildKeys,
		AggCol:     sh.aggCol,
	}
	// The payload is one row per distinct build key: the key, a count and a
	// sum. The fact table's distinct key count bounds the filtered build's,
	// and the table stays below the fact table whenever the key fanout
	// exceeds a row or two (the paper's "few MB vs GB" regime holds at
	// instacart's ~10 items/order and ~600 purchases/product).
	distinctKeys := sh.fact.Table.GroupCount(sh.buildKeys)
	desc.EstSizeBytes = int64(distinctKeys)*(keyWidth(sh.fact.Table.Schema(), sh.buildKeys)+16) + 128

	entry := p.Store.Intern(desc)

	// Probe-side subplan: join of the remaining (filtered) tables over the
	// predicates among them alone (steps). It is the same in every candidate
	// below, so it is built and costed once — like every other scan, zone
	// pruning included, so the estimate charges the partitions exec will
	// read — and each candidate starts from it. Sketch-join plans are costed
	// as serial work (see planCost).
	var probe planCost
	leaf := jo.branches[1]
	leaf.charge(&probe, false)
	probeNode, probeOut := joinOn(leaf.node, leaf.est, steps, &probe)
	probe.sketchProbeWork(probeOut.rows)
	probe.aggWork(probeOut)
	probe.serializeCPU()

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
	cost := probe
	cost.scanTable(sh.fact)
	cost.cpuTuples += int64(float64(sh.fact.Table.NumRows()) * 4) // the per-key fold of every build row
	cost.serializeCPU()
	ps.Candidates = append(ps.Candidates, Candidate{
		Root:    buildPlan,
		Cost:    cost.seconds(p.Model, p.Parallelism),
		Creates: []CreateSpec{{Entry: entry, Node: buildPlan}},
		Desc:    fmt.Sprintf("build sketch-join on %s", sh.fact.Name),
	})

	// Hypothetical reuse cost.
	rc := probe
	rc.warehouseBytes += desc.EstSizeBytes
	reuseCost := rc.seconds(p.Model, p.Parallelism)
	ps.noteReuse(entry.Desc.ID, reuseCost)

	// Reuse candidate when a matching sketch is materialized.
	req := meta.Requirements{Table: sh.fact.Table.Name, Filter: sh.factFilter}
	for _, m := range p.Store.MatchSketchJoins(req, sh.buildKeys, sh.aggCol, ps.wh.Has) {
		// Sketches cannot be compensated, so the staleness bound applies to
		// them just like to samples (a stale sketch undercounts new rows).
		b, ok := p.bind(ps, m.Entry)
		if !ok {
			continue
		}
		sk, err := b.item.Sketch()
		if err != nil {
			continue // backing file lost or corrupt; next round re-tastes
		}
		// The payload's key columns must be the plan's build keys, in the
		// plan's order: the sink looks each probe key up column by column.
		// A manifest written before build keys named a sketch-join can hold
		// a payload keyed on other columns under this entry.
		if !slices.Equal(sk.KeySchema().Names(), sh.buildKeys) {
			continue
		}
		node := mkNode(&synopsesSketch{id: m.Entry.Desc.ID, sk: sk})
		rcost := probe
		rcost.warehouseBytes += b.item.Size
		if !b.loaded {
			rcost.loadSynopsis(b.item.Size)
		}
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

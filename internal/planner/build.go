package planner

import (
	"fmt"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/plan"
)

// joinTree builds the left-deep join tree over q.Tables in order — for a
// bound query the fact table first (factFirst), so it is the spine. branch
// overrides replace a table's leaf subplan (used to inject samplers or
// synopsis scans); when a table has no override and applyFilters is true,
// its single-table filter is pushed onto its scan.
func (p *Planner) joinTree(q *Query, overrides map[string]plan.Node, applyFilters bool) (plan.Node, error) {
	branch := func(t TableRef) plan.Node {
		if n, ok := overrides[t.Name]; ok {
			return n
		}
		var n plan.Node = &plan.Scan{Table: t.Table}
		if applyFilters {
			if f := q.filterForTable(t.Name); f != nil {
				n = &plan.Filter{Child: n, Pred: f}
			}
		}
		return n
	}

	root := branch(q.Tables[0])
	joined := []string{q.Tables[0].Name}
	for _, t := range q.Tables[1:] {
		var leftKeys, rightKeys []string
		for _, j := range q.Joins {
			switch {
			case j.RightTable == t.Name && contains(joined, j.LeftTable):
				leftKeys = append(leftKeys, j.LeftCol)
				rightKeys = append(rightKeys, j.RightCol)
			case j.LeftTable == t.Name && contains(joined, j.RightTable):
				leftKeys = append(leftKeys, j.RightCol)
				rightKeys = append(rightKeys, j.LeftCol)
			}
		}
		if len(leftKeys) == 0 {
			return nil, fmt.Errorf("planner: table %q does not join the preceding tables (cross joins unsupported)", t.Name)
		}
		root = &plan.Join{Left: root, Right: branch(t), LeftKeys: leftKeys, RightKeys: rightKeys}
		joined = append(joined, t.Name)
	}
	return root, nil
}

// finishPlan adds the residual filter, aggregation and ordering above the
// join tree.
func (p *Planner) finishPlan(q *Query, joinRoot plan.Node, extraFilter expr.Expr) plan.Node {
	root := joinRoot
	var filters []expr.Expr
	if extraFilter != nil {
		filters = append(filters, extraFilter)
	}
	if rf := q.residualFilter(); rf != nil {
		filters = append(filters, rf)
	}
	if f := expr.AndAll(filters); f != nil {
		root = &plan.Filter{Child: root, Pred: f}
	}
	root = &plan.Aggregate{Child: root, GroupBy: q.GroupBy, Aggs: q.Aggs}
	if len(q.OrderBy) > 0 || q.Limit > 0 {
		root = &plan.Sort{Child: root, By: q.OrderBy, Desc: q.Desc, Limit: q.Limit}
	}
	return root
}

// exactPlan builds the no-synopsis plan and its cost estimate.
func (p *Planner) exactPlan(q *Query) (Candidate, error) {
	root, err := p.joinTree(q, nil, true)
	if err != nil {
		return Candidate{}, err
	}
	full := p.finishPlan(q, root, nil)

	var cost planCost
	out := p.costFilteredJoinTree(q, nil, &cost)
	cost.aggWork(out)
	return Candidate{
		Root: full,
		Cost: cost.seconds(p.Model, p.Parallelism),
		Desc: "exact",
	}, nil
}

// costFilteredJoinTree charges the standard execution of the join tree with
// filters pushed down, allowing per-table branch estimate overrides (the
// override replaces both the branch's cardinality and its scan charge —
// overridden branches charge nothing here; callers charge them separately).
func (p *Planner) costFilteredJoinTree(q *Query, overrides map[string]scanEst, cost *planCost) scanEst {
	branchEst := func(t TableRef) scanEst {
		if e, ok := overrides[t.Name]; ok {
			return e
		}
		// The first table — for a bound query the fact table (factFirst) — is
		// the probe spine of the morsel-parallel executor; every other branch
		// is a serially drained build side.
		// Either way the executor zone-prunes partitions the table's filter
		// provably rejects, so charge only the surviving partitions' share.
		bytes, rows := p.prunedScanCharge(t, q.filterForTable(t.Name))
		serial := t.Name != q.Tables[0].Name
		cost.scanBase(bytes, rows, serial)
		if f := q.filterForTable(t.Name); f != nil {
			cost.filterWork(float64(rows), serial)
		}
		return p.est.tableEst(t, q.filterForTable(t.Name))
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

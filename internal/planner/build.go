package planner

import (
	"fmt"
	"slices"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/plan"
)

// branch is one table's filtered base-table read, resolved once per plan
// set: its σ(Scan) node — shared by every candidate that reads the table
// unsampled — what expr.Prune leaves of it, which is what the executor's
// scan charges, and its filtered cardinality and row width.
type branch struct {
	node        plan.Node
	filtered    bool
	bytes, rows int64   // the partitions expr.Prune leaves
	sel         float64 // expr.Selectivity of the table's filter
	est         scanEst
}

func newBranch(q *Query, t TableRef) branch {
	f := q.FilterForTable(t.Name)
	b := branch{node: &plan.Scan{Table: t.Table}, filtered: f != nil, sel: expr.Selectivity(f, t.Table)}
	if b.filtered {
		b.node = &plan.Filter{Child: b.node, Pred: f}
	}
	_, b.bytes, b.rows = expr.Prune(f, t.Table)
	b.est = scanEst{rows: float64(t.Table.NumRows()) * b.sel, width: t.Table.AvgRowBytes()}
	return b
}

// charge prices reading the branch: its unpruned partitions and, when
// filtered, the selection kernels over their rows. serial says the branch is
// a build side drained before the morsel pool starts, not the probe spine.
func (b branch) charge(c *planCost, serial bool) {
	c.scanBase(b.bytes, b.rows, serial)
	if b.filtered {
		c.filterWork(float64(b.rows), serial)
	}
}

// joinStep is one table of a join order after the first: its branch, its
// equi-join keys oriented against the tables before it, and the join-size
// denominator those keys give.
type joinStep struct {
	branch
	leftKeys, rightKeys []string
	denom               float64
}

// joinOrder is a query's one join order (factFirst) resolved once per plan
// set: every table's branch, the fact table's first, and each dimension as a
// step onto the tables before it. Every candidate's join tree is built and
// priced from it by joinOn.
type joinOrder struct {
	branches []branch // parallel to Query.Tables
	dims     []joinStep
}

func newJoinOrder(q *Query) (joinOrder, error) {
	jo := joinOrder{branches: make([]branch, len(q.Tables))}
	for i, t := range q.Tables {
		jo.branches[i] = newBranch(q, t)
	}
	var err error
	jo.dims, err = joinSteps(q.Tables, jo.branches, q.Joins)
	return jo, err
}

// onto returns the predicates joining table to a table of placed, each
// oriented with the placed side left, in joins' order.
func onto(joins []JoinPred, table string, placed []string) []JoinPred {
	var out []JoinPred
	for _, j := range joins {
		switch {
		case j.RightTable == table && slices.Contains(placed, j.LeftTable):
			out = append(out, j)
		case j.LeftTable == table && slices.Contains(placed, j.RightTable):
			out = append(out, JoinPred{LeftTable: j.RightTable, LeftCol: j.RightCol, RightTable: j.LeftTable, RightCol: j.LeftCol})
		}
	}
	return out
}

// joinSteps joins tables left-deep over joins, the first table first: it
// places, in turn, the first remaining table in the given order that joins a
// placed one, as a step keyed by the predicates joining it to the tables
// placed before it — the given order itself whenever that order joins.
// When no remaining table joins a placed one, the rest would be a cross
// join, which is unsupported.
//
// A step's denominator is the textbook max(d(Lkey), d(Rkey)), composed over
// its key pairs, so |L ⋈ R| = |L|·|R| / denom. The left key's distinct count
// — a pass over the fact table's key column on a new version — is counted
// only when it can decide the max: an Int64 key whose zone-map span
// (max − min + 1) is at most d(Rkey) has at most that many values, so the max
// is d(Rkey) without it. A foreign key into a dense dimension key spans
// exactly the dimension's rows.
func joinSteps(tables []TableRef, branches []branch, joins []JoinPred) ([]joinStep, error) {
	names := make([]string, len(tables))
	for i, t := range tables {
		names[i] = t.Name
	}
	placed := names[:1:1]
	rest := make([]int, 0, len(tables)-1) // positions not yet placed, in order
	for i := 1; i < len(tables); i++ {
		rest = append(rest, i)
	}
	steps := make([]joinStep, 0, len(rest))
	for len(rest) > 0 {
		var on []JoinPred
		next := slices.IndexFunc(rest, func(i int) bool {
			on = onto(joins, names[i], placed)
			return len(on) > 0
		})
		if next < 0 {
			return nil, fmt.Errorf("planner: table %q does not join the preceding tables (cross joins unsupported)", names[rest[0]])
		}
		i := rest[next]
		rest = slices.Delete(rest, next, next+1)
		t := tables[i]
		s := joinStep{branch: branches[i], denom: 1}
		for _, j := range on {
			s.leftKeys = append(s.leftKeys, j.LeftCol)
			s.rightKeys = append(s.rightKeys, j.RightCol)
			left := tables[slices.Index(names, j.LeftTable)].Table
			d := t.Table.DistinctOf(j.RightCol)
			if !spanWithin(left, j.LeftCol, d) {
				d = max(d, left.DistinctOf(j.LeftCol))
			}
			if d > 1 {
				s.denom *= float64(d)
			}
		}
		placed = append(placed, t.Name)
		steps = append(steps, s)
	}
	return steps, nil
}

// joinOn builds the left-deep join chain of steps over the spine's leaf,
// whose estimate is in, and prices it into c in the same pass: each step's
// branch is a serially drained build side, and each join shuffles both
// inputs. It returns the chain's root and its output estimate; the caller
// charges the leaf. It is the one place the planner builds a plan.Join.
func joinOn(leaf plan.Node, in scanEst, steps []joinStep, c *planCost) (plan.Node, scanEst) {
	for _, s := range steps {
		s.charge(c, true)
		out := scanEst{rows: max(in.rows*s.est.rows/s.denom, 1), width: in.width + s.est.width}
		c.joinWork(s.est, in, out)
		leaf = &plan.Join{Left: leaf, Right: s.node, LeftKeys: s.leftKeys, RightKeys: s.rightKeys}
		in = out
	}
	return leaf, in
}

// finishPlan adds aggregation and ordering above the join tree.
func (p *Planner) finishPlan(q *Query, joinRoot plan.Node) plan.Node {
	var root plan.Node = &plan.Aggregate{Child: joinRoot, GroupBy: q.GroupBy, Aggs: q.Aggs}
	if len(q.OrderBy) > 0 || q.Limit > 0 {
		root = &plan.Sort{Child: root, By: q.OrderBy, Desc: q.Desc, Limit: q.Limit}
	}
	return root
}

// exactPlan builds the no-synopsis plan and its cost estimate.
func (p *Planner) exactPlan(q *Query, jo joinOrder) Candidate {
	var cost planCost
	fact := jo.branches[0]
	fact.charge(&cost, false)
	root, out := joinOn(fact.node, fact.est, jo.dims, &cost)
	cost.aggWork(out)
	return Candidate{
		Root: p.finishPlan(q, root),
		Cost: cost.seconds(p.Model, p.Parallelism),
		Desc: "exact",
	}
}

// Package planner implements Taster's cost-based planner (paper §IV): it
// generates candidate logical plans that inject synopsis operators below
// aggregators, pushes them down under filters and joins (stratifying on
// skewed predicate columns and join keys), recognizes sketch-join
// eligibility, configures samplers from the query's accuracy requirements,
// matches subplans against materialized synopses through the metadata
// store, and costs every candidate with the simulated-cluster model.
package planner

import (
	"fmt"
	"slices"
	"strings"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
)

// TableRef names a base table participating in a query.
type TableRef struct {
	Name  string
	Table *storage.Table
}

// JoinPred is one equi-join predicate between two tables, with fully
// qualified column names.
type JoinPred struct {
	LeftTable, LeftCol   string
	RightTable, RightCol string
}

// Canonical renders the predicate order-independently.
func (j JoinPred) Canonical() string {
	l, r := j.LeftCol, j.RightCol
	if r < l {
		l, r = r, l
	}
	return l + "=" + r
}

// Query is the bound intermediate representation the planner consumes —
// produced by the SQL binder or constructed directly by programmatic
// callers. Tables are joined left-deep, the fact table first (factFirst):
// the FROM order only breaks ties among the others.
type Query struct {
	ID      int
	Tables  []TableRef
	Joins   []JoinPred
	Filter  expr.Pred // full WHERE conjunction over qualified columns
	GroupBy []string
	Aggs    []plan.AggSpec
	OrderBy []string
	Desc    []bool
	Limit   int

	Accuracy stats.AccuracySpec
	// Exact disables approximation for this query.
	Exact bool
}

// Validate is the typed front door: it admits a query only if every binding
// exec will rely on holds, so nothing past it can fail on the query's types.
// Tables are bound; each join predicate's two columns exist and share a type
// (keys of different types can never be equal); SUM / AVG / MIN / MAX read a
// numeric column, COUNT any column; and every filter term names a column of
// one of the query's tables and compiles against that table's schema with
// expr.CompileFilter, the engine's only filter evaluator, whose error names
// the offending term.
func (q *Query) Validate() error {
	if len(q.Tables) == 0 {
		return fmt.Errorf("planner: query has no tables")
	}
	if len(q.Aggs) == 0 {
		return fmt.Errorf("planner: query has no aggregates (only aggregate queries are supported)")
	}
	for _, t := range q.Tables {
		if t.Table == nil {
			return fmt.Errorf("planner: table %q not bound", t.Name)
		}
	}
	for _, j := range q.Joins {
		lt, err := q.colType(j.LeftTable, j.LeftCol)
		if err != nil {
			return fmt.Errorf("planner: join %s: %w", j.Canonical(), err)
		}
		rt, err := q.colType(j.RightTable, j.RightCol)
		if err != nil {
			return fmt.Errorf("planner: join %s: %w", j.Canonical(), err)
		}
		if lt != rt {
			return fmt.Errorf("planner: join %s: %s is %s but %s is %s; join keys must share a type",
				j.Canonical(), j.LeftCol, lt, j.RightCol, rt)
		}
	}
	for _, a := range q.Aggs {
		if a.Col == "" {
			continue // COUNT(*); exec refuses any other column-less aggregate
		}
		typ, err := q.colType(q.tableOf(a.Col), a.Col)
		if err != nil {
			return fmt.Errorf("planner: %s(%s): %w", a.Kind, a.Col, err)
		}
		if a.Kind != stats.Count && !typ.Numeric() {
			return fmt.Errorf("planner: %s over %s column %q; only COUNT reads a non-numeric column", a.Kind, typ, a.Col)
		}
	}
	// A conjunction compiles exactly when each term does, and exec runs a
	// term against its table's schema. CompileFilter's error already names
	// the term and the reason.
	for _, t := range q.Filter {
		ref, ok := q.ref(q.tableOf(t.Col))
		if !ok {
			return fmt.Errorf("planner: filter %s: column %q belongs to no table of the query", t, t.Col)
		}
		if _, err := expr.CompileFilter(expr.Pred{t}, ref.Table.Schema()); err != nil {
			return err
		}
	}
	return nil
}

// colType returns the type of a column of one of the query's tables.
func (q *Query) colType(table, col string) (storage.Type, error) {
	ref, ok := q.ref(table)
	if !ok {
		return 0, fmt.Errorf("column %q belongs to no table of the query", col)
	}
	sch := ref.Table.Schema()
	i := sch.Index(col)
	if i < 0 {
		return 0, fmt.Errorf("unknown column %q in table %q", col, table)
	}
	return sch[i].Typ, nil
}

// FactTable exposes the fact-table choice to other packages (baselines).
func (q *Query) FactTable() TableRef { return q.factTable() }

// TableOf exposes column ownership resolution.
func (q *Query) TableOf(col string) string { return q.tableOf(col) }

// FilterForTable exposes a table's filter conjunction.
func (q *Query) FilterForTable(name string) expr.Pred { return q.filterForTable(name) }

// tableOf returns the table owning a qualified column name, or "".
func (q *Query) tableOf(col string) string {
	i := strings.IndexByte(col, '.')
	if i <= 0 {
		return ""
	}
	prefix := col[:i]
	for _, t := range q.Tables {
		if t.Name == prefix {
			return t.Name
		}
	}
	return ""
}

// ref returns the TableRef by name.
func (q *Query) ref(name string) (TableRef, bool) {
	for _, t := range q.Tables {
		if t.Name == name {
			return t, true
		}
	}
	return TableRef{}, false
}

// filterForTable returns the terms on the given table's columns, in query
// order; nil when none applies.
func (q *Query) filterForTable(name string) expr.Pred {
	var keep expr.Pred
	for _, t := range q.Filter {
		if q.tableOf(t.Col) == name {
			keep = append(keep, t)
		}
	}
	return keep
}

// joinKeysOf returns the qualified join-key columns of the given table
// across all join predicates.
func (q *Query) joinKeysOf(name string) []string {
	var out []string
	for _, j := range q.Joins {
		if j.LeftTable == name {
			out = append(out, j.LeftCol)
		}
		if j.RightTable == name {
			out = append(out, j.RightCol)
		}
	}
	return expr.DedupCols(out)
}

// factTable picks the relation "on which the aggregation takes place"
// (paper §IV-A): the table owning the first aggregate column; for pure
// COUNT(*) queries, the largest table (the side worth summarizing).
func (q *Query) factTable() TableRef {
	for _, a := range q.Aggs {
		if a.Col != "" {
			if t := q.tableOf(a.Col); t != "" {
				ref, _ := q.ref(t)
				return ref
			}
		}
	}
	best := q.Tables[0]
	for _, t := range q.Tables[1:] {
		if t.Table.NumRows() > best.Table.NumRows() {
			best = t
		}
	}
	return best
}

// factFirst returns q with its tables in the one order every join tree of
// the query uses, set once when PlanWith binds it: the fact table first, so
// its sampler or stored sample rides the probe spine and every build side is
// σ(base table); then, repeatedly, the first remaining FROM table that joins
// a table already placed. A FROM order that starts with the fact table and
// joins each table to those before it keeps exactly its order, and q itself
// is returned. A table that joins none of the placed ones is placed next
// anyway, and joinTree refuses it (cross joins are unsupported).
func (q *Query) factFirst() *Query {
	fact := q.factTable()
	order := []TableRef{fact}
	placed := []string{fact.Name}
	var rest []TableRef
	for _, t := range q.Tables {
		if t.Name != fact.Name {
			rest = append(rest, t)
		}
	}
	for len(rest) > 0 {
		next := 0
		for i, t := range rest {
			if joinsAny(q.Joins, t.Name, placed) {
				next = i
				break
			}
		}
		order = append(order, rest[next])
		placed = append(placed, rest[next].Name)
		rest = slices.Delete(rest, next, next+1)
	}
	if slices.Equal(order, q.Tables) {
		return q
	}
	bound := *q
	bound.Tables = order
	return &bound
}

// joinsAny reports whether some predicate joins table to one of placed.
func joinsAny(joins []JoinPred, table string, placed []string) bool {
	for _, j := range joins {
		if (j.LeftTable == table && contains(placed, j.RightTable)) ||
			(j.RightTable == table && contains(placed, j.LeftTable)) {
			return true
		}
	}
	return false
}

// aggCols returns the non-empty aggregate columns, deduped.
func (q *Query) aggCols() []string {
	var out []string
	for _, a := range q.Aggs {
		if a.Col != "" {
			out = append(out, a.Col)
		}
	}
	return expr.DedupCols(out)
}

// approximableAggs reports whether every aggregate supports HT estimation
// (MIN/MAX force exact execution, mirroring the paper's non-approximable
// query handling).
func (q *Query) approximableAggs() bool {
	for _, a := range q.Aggs {
		if !a.Kind.Approximable() {
			return false
		}
	}
	return true
}

// groupColsOn returns the grouping columns owned by the given table.
func (q *Query) groupColsOn(name string) []string {
	var out []string
	for _, g := range q.GroupBy {
		if q.tableOf(g) == name {
			out = append(out, g)
		}
	}
	return out
}

// skewedEqFilterCols returns equality-filtered columns of the table whose
// value distribution is skewed — the columns the push-down rule adds to the
// stratification set (paper §IV-A).
func (q *Query) skewedEqFilterCols(t TableRef) []string {
	f := q.filterForTable(t.Name)
	if f == nil {
		return nil
	}
	var out []string
	for _, col := range expr.EqualityColumns(f) {
		i := t.Table.Schema().Index(col)
		if i >= 0 && t.Table.ColumnGroups(i).Skewed {
			out = append(out, col)
		}
	}
	return out
}

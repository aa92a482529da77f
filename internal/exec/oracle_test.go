package exec_test

// The oracle: a naive row-at-a-time evaluator of Scan / Filter / Join /
// Aggregate / Sort trees, the reference the executor's exact answers are held
// to. It is deliberately a different program from the one it checks — no
// batches, no selection vectors, no hash tables of accumulators, no morsels —
// and it lives in package exec_test so the compiler enforces that it names
// nothing internal/exec declares: a kernel bug, a probe bug or a merge bug in
// the executor cannot also be a bug here.
//
// It charges, too. The simulated cluster's cost rule is a property of the
// logical plan and the full-width rows that flow through it, not of what an
// executor chooses to copy, so the oracle states it over its own boxed rows
// (oracleCost) and the engine's counters must equal it exactly: a scan reads
// every partition its parent filter's zone maps cannot refute; a join
// exchanges its build rows and its probe input; an aggregate exchanges its
// input; a row costs 8 bytes per int64 or float64, 1 per bool, len+16 per
// string, over all of its columns.
//
// Semantics it shares with the engine because they are the query language's,
// not the executor's: storage has no NULLs, so COUNT(col) is COUNT(*); join
// keys match only within one type, floats by their bits; groups come out
// ordered by their key values; a global aggregate over no rows is one row of
// zeros; every aggregate cell is a float64.

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
)

// relation is the oracle's only data structure: named columns over boxed
// rows. Below an Aggregate every cell is exact; from an Aggregate up, inexact
// marks the SUM / AVG / MIN / MAX columns — the cells float association may
// move in their last bits, as opposed to group keys and COUNTs.
type relation struct {
	schema  storage.Schema
	rows    [][]storage.Value
	inexact []bool
	cost    oracleCost // what producing the relation charged, inputs included
}

// oracleCost is the cost rule's four counters: base-table bytes scanned,
// tuples pushed through operators, bytes exchanged, rows a sink put out.
type oracleCost struct {
	base, cpu, shuffle, out int64
}

func (c oracleCost) plus(o oracleCost) oracleCost {
	return oracleCost{c.base + o.base, c.cpu + o.cpu, c.shuffle + o.shuffle, c.out + o.out}
}

// width is the bytes an exchange of the rows moves.
func width(rows [][]storage.Value) int64 {
	var n int64
	for _, row := range rows {
		for _, v := range row {
			switch v.Typ {
			case storage.Int64, storage.Float64:
				n += 8
			case storage.Bool:
				n++
			case storage.String:
				n += int64(len(v.S)) + 16
			}
		}
	}
	return n
}

// scanRows reads the table's partitions, skipping those whose zone map proves
// prune (nil: none) rejects every row; what it reads it pays for, per byte
// and per tuple.
func scanRows(tbl *storage.Table, prune expr.Pred) relation {
	rel := relation{schema: tbl.Schema()}
	for p := 0; p < tbl.Partitions(); p++ {
		if prune != nil && expr.ZonePrunes(prune, tbl.Schema(), tbl.Zone(p)) {
			continue
		}
		for _, b := range tbl.Scan(p, 1024) {
			for i := 0; i < b.Len(); i++ {
				rel.rows = append(rel.rows, b.Row(i))
			}
		}
	}
	rel.cost = oracleCost{base: width(rel.rows), cpu: int64(len(rel.rows))}
	return rel
}

// oracleEval answers a plan tree. Unknown node types fail the test: the
// oracle covers exact plans, and of what samples only a uniform sampler at
// probability 1 over a scan, which keeps every row at weight 1 — the one
// draw it can state without the executor's RNG streams. Nothing that
// sketches.
func oracleEval(t testing.TB, n plan.Node) relation {
	t.Helper()
	switch n := n.(type) {
	case *plan.Scan:
		return scanRows(n.Table, nil)

	case *plan.Filter:
		// A filter directly over a scan lends it its predicate to prune by;
		// either way the filter looks at every row that reaches it.
		var in relation
		if sc, ok := n.Child.(*plan.Scan); ok {
			in = scanRows(sc.Table, n.Pred)
		} else {
			in = oracleEval(t, n.Child)
		}
		out := relation{schema: in.schema, cost: in.cost}
		out.cost.cpu += int64(len(in.rows))
		for _, row := range in.rows {
			one := storage.NewBatch(in.schema, 1)
			for c, v := range row {
				one.Vecs[c].Append(v)
			}
			idx, err := expr.EvalBool(n.Pred, one)
			if err != nil {
				t.Fatalf("oracle: %s: %v", n, err)
			}
			if len(idx) == 1 {
				out.rows = append(out.rows, row)
			}
		}
		return out

	case *plan.SynopsisOp:
		// The sampler looks at every row and widens each by its weight.
		sc, ok := n.Child.(*plan.Scan)
		if !ok || n.Kind != plan.UniformSample || n.P != 1 {
			t.Fatalf("oracle: no rule for %s", n)
		}
		in := scanRows(sc.Table, nil)
		out := relation{schema: synopses.SampleSchema(in.schema), cost: in.cost}
		out.cost.cpu += int64(len(in.rows))
		for _, row := range in.rows {
			out.rows = append(out.rows, append(row, storage.FloatValue(1)))
		}
		return out

	case *plan.Join:
		// The build side comes first and is exchanged whole. An empty one
		// proves the join empty, and nothing below it on the probe side is
		// charged: builds run top-down and the first empty one stops the
		// plan, so the engine never reads it.
		right := oracleEval(t, n.Right)
		right.cost.shuffle += width(right.rows)
		left := oracleEval(t, n.Left)
		out := relation{schema: slices.Concat(left.schema, right.schema), cost: right.cost}
		if len(right.rows) == 0 {
			return out
		}
		out.cost = left.cost.plus(right.cost)
		lk, rk := columnsOf(t, left.schema, n.LeftKeys), columnsOf(t, right.schema, n.RightKeys)
		byKey := make(map[string][]int)
		for i, row := range right.rows {
			k := keyText(row, rk)
			byKey[k] = append(byKey[k], i)
		}
		for _, lrow := range left.rows {
			for _, i := range byKey[keyText(lrow, lk)] {
				row := append(append([]storage.Value(nil), lrow...), right.rows[i]...)
				out.rows = append(out.rows, row)
			}
		}
		// The probe input is exchanged too; every joined row is a tuple.
		out.cost.shuffle += width(left.rows)
		out.cost.cpu += int64(len(out.rows))
		return out

	case *plan.Aggregate:
		in := oracleEval(t, n.Child)
		out := oracleAggregate(t, n, in)
		out.cost = in.cost.plus(oracleCost{cpu: int64(len(in.rows)), shuffle: width(in.rows), out: int64(len(out.rows))})
		return out

	case *plan.Sort:
		in := oracleEval(t, n.Child)
		in.cost.cpu += int64(len(in.rows))
		by := columnsOf(t, in.schema, n.By)
		sort.SliceStable(in.rows, func(a, b int) bool {
			for k, c := range by {
				va, vb := in.rows[a][c], in.rows[b][c]
				if va.Equal(vb) {
					continue
				}
				if k < len(n.Desc) && n.Desc[k] {
					return vb.Less(va)
				}
				return va.Less(vb)
			}
			return false
		})
		if n.Limit > 0 && n.Limit < len(in.rows) {
			in.rows = in.rows[:n.Limit]
		}
		return in
	}
	t.Fatalf("oracle: no rule for %T", n)
	return relation{}
}

// oracleGroup is one group's running state: plain sums in row order.
type oracleGroup struct {
	key      []storage.Value
	rows     float64
	sum      []float64
	min, max []float64
}

func oracleAggregate(t testing.TB, n *plan.Aggregate, in relation) relation {
	t.Helper()
	by := columnsOf(t, in.schema, n.GroupBy)
	cols := make([]int, len(n.Aggs))
	for k, ag := range n.Aggs {
		cols[k] = -1
		if ag.Kind != stats.Count {
			cols[k] = columnsOf(t, in.schema, []string{ag.Col})[0]
		}
	}
	groups := make(map[string]*oracleGroup)
	var order []*oracleGroup
	for _, row := range in.rows {
		k := keyText(row, by)
		g := groups[k]
		if g == nil {
			g = &oracleGroup{sum: make([]float64, len(cols)), min: make([]float64, len(cols)), max: make([]float64, len(cols))}
			for _, c := range by {
				g.key = append(g.key, row[c])
			}
			for k := range cols {
				g.min[k], g.max[k] = math.Inf(1), math.Inf(-1)
			}
			groups[k] = g
			order = append(order, g)
		}
		g.rows++
		for k, c := range cols {
			if c < 0 {
				continue
			}
			y := row[c].AsFloat()
			g.sum[k] += y
			g.min[k] = math.Min(g.min[k], y)
			g.max[k] = math.Max(g.max[k], y)
		}
	}
	if len(order) == 0 && len(by) == 0 {
		order = append(order, &oracleGroup{sum: make([]float64, len(cols)), min: make([]float64, len(cols)), max: make([]float64, len(cols))})
	}
	slices.SortStableFunc(order, func(a, b *oracleGroup) int {
		for c := range a.key {
			if d := storage.CompareKey(a.key[c], b.key[c]); d != 0 {
				return d
			}
		}
		return 0
	})

	// Group columns keep their input types; every aggregate cell is a float64.
	out := relation{inexact: make([]bool, len(by)+len(cols))}
	for j, c := range by {
		out.schema = append(out.schema, storage.Col{Name: n.GroupBy[j], Typ: in.schema[c].Typ})
	}
	for k, ag := range n.Aggs {
		out.schema = append(out.schema, storage.Col{Name: ag.DefaultAlias(), Typ: storage.Float64})
		out.inexact[len(by)+k] = ag.Kind != stats.Count
	}
	for _, g := range order {
		row := append([]storage.Value(nil), g.key...)
		for k, ag := range n.Aggs {
			var v float64
			switch {
			case ag.Kind == stats.Count:
				v = g.rows
			case g.rows == 0:
				// the zero row of a global aggregate over nothing
			case ag.Kind == stats.Sum:
				v = g.sum[k]
			case ag.Kind == stats.Avg:
				v = g.sum[k] / g.rows
			case ag.Kind == stats.Min:
				v = g.min[k]
			case ag.Kind == stats.Max:
				v = g.max[k]
			}
			row = append(row, storage.FloatValue(v))
		}
		out.rows = append(out.rows, row)
	}
	return out
}

func columnsOf(t testing.TB, s storage.Schema, names []string) []int {
	t.Helper()
	idx := make([]int, len(names))
	for k, name := range names {
		if idx[k] = s.Index(name); idx[k] < 0 {
			t.Fatalf("oracle: column %q not in %v", name, s.Names())
		}
	}
	return idx
}

// keyText renders the chosen columns of a row as type-tagged text: values of
// different types never produce the same key, and a float is its bits, so
// -0 and every NaN payload are keys of their own.
func keyText(row []storage.Value, cols []int) string {
	var sb strings.Builder
	for _, c := range cols {
		v := row[c]
		s := v.String()
		if v.Typ == storage.Float64 {
			s = fmt.Sprintf("%x", math.Float64bits(v.F))
		}
		fmt.Fprintf(&sb, "%d:%d:%s|", v.Typ, len(s), s)
	}
	return sb.String()
}

// mustMatchOracle holds an engine answer to the oracle's: the same rows in
// the same order, group keys and COUNT cells exactly equal, every other cell
// within tol relative (0: exactly equal — the integer-valued fixtures, whose
// sums no association can change).
func mustMatchOracle(t testing.TB, label string, want relation, got *storage.Batch, tol float64) {
	t.Helper()
	var rows [][]storage.Value
	for i := 0; i < got.Len(); i++ {
		rows = append(rows, got.Row(i))
	}
	if len(rows) != len(want.rows) {
		t.Fatalf("%s: engine answered %d rows, oracle %d", label, len(rows), len(want.rows))
	}
	for i, w := range want.rows {
		if len(rows[i]) != len(w) {
			t.Fatalf("%s: row %d is %d wide, oracle %d", label, i, len(rows[i]), len(w))
		}
		for c := range w {
			g := rows[i][c]
			if g.Equal(w[c]) {
				continue
			}
			if want.inexact == nil || !want.inexact[c] || math.Abs(g.F-w[c].F) > tol*math.Abs(w[c].F) {
				t.Fatalf("%s: row %d column %s: engine %v, oracle %v", label, i, want.schema[c].Name, g, w[c])
			}
		}
	}
}

package main

import (
	"fmt"
	"math"
	"strings"

	"github.com/tasterdb/taster"
	"github.com/tasterdb/taster/internal/storage"
)

// accuracy accumulates, over the checked queries of a run, how close the
// approximate answers were to the truth engine's and what they saved.
type accuracy struct {
	checked   int
	shareSum  float64 // Σ per query: share of exact cells within errorBound
	simExact  float64 // Σ simulated seconds of the exact runs
	simApprox float64 // Σ simulated seconds of the approximate runs
}

func (a *accuracy) add(approx, exact *taster.Result) {
	a.checked++
	a.shareSum += cellsWithinBound(approx, exact)
	a.simExact += exact.Stats.SimulatedSeconds
	a.simApprox += approx.Stats.SimulatedSeconds
}

// boundMetShare is the mean, over checked queries, of the share of the exact
// answer's aggregate cells that the approximate answer has within the
// requested relative error; a missing group misses all its cells. At 95 %
// confidence a sound engine keeps it near 0.95.
func (a *accuracy) boundMetShare() float64 {
	if a.checked == 0 {
		return 0
	}
	return a.shareSum / float64(a.checked)
}

// simSpeedup is the paper's Fig. 3 quantity over the checked queries.
func (a *accuracy) simSpeedup() float64 {
	if a.simApprox == 0 {
		return 0
	}
	return a.simExact / a.simApprox
}

// groupCols is the number of leading group-by columns of a result.
func groupCols(r *taster.Result) int {
	if len(r.Intervals) == 0 {
		return len(r.Columns)
	}
	return len(r.Columns) - len(r.Intervals[0])
}

func groupKey(row []taster.Value, n int) string {
	var b strings.Builder
	for _, v := range row[:n] {
		b.WriteString(v.String())
		b.WriteByte(0)
	}
	return b.String()
}

func cellsWithinBound(approx, exact *taster.Result) float64 {
	g := groupCols(exact)
	byKey := make(map[string][]taster.Value, len(approx.Rows))
	for _, row := range approx.Rows {
		byKey[groupKey(row, g)] = row
	}
	cells, within := 0, 0
	for _, er := range exact.Rows {
		ar, ok := byKey[groupKey(er, g)]
		for c := g; c < len(er); c++ {
			cells++
			if !ok {
				continue
			}
			e, a := er[c].AsFloat(), ar[c].AsFloat()
			if math.Abs(a-e) <= errorBound*math.Abs(e) {
				within++
			}
		}
	}
	if cells == 0 {
		return 1
	}
	return float64(within) / float64(cells)
}

// rowsEqual reports whether two exact answers are the same rows in the same
// order, value for value.
func rowsEqual(a, b *taster.Result) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i, ra := range a.Rows {
		rb := b.Rows[i]
		if len(ra) != len(rb) {
			return false
		}
		for j := range ra {
			if !ra[j].Equal(rb[j]) {
				return false
			}
		}
	}
	return true
}

// oracle answers the single-table templates q1, q6 and q15 with a naive
// row-at-a-time loop over lineitem's columns. It shares no code with the
// engine (not its parser, expressions, kernels or aggregation), so that an
// error common to the live and the truth engine still shows. ok is false for
// any other text.
func oracle(sql string, li *storage.Table) (groups map[string][]float64, ok bool) {
	col := func(name string) *storage.Vector {
		return li.Column(li.Schema().Index("lineitem." + name))
	}
	var lo, hi, qty int64
	var disc float64
	switch {
	case scan(sql, "SELECT l_returnflag, l_linestatus, SUM(l_quantity), SUM(l_extendedprice), AVG(l_discount), COUNT(*) FROM lineitem WHERE l_shipdate <= %d GROUP BY", &hi):
		ship, flag, status := col("l_shipdate").I64, col("l_returnflag").Str, col("l_linestatus").Str
		quantity, price, discount := col("l_quantity").F64, col("l_extendedprice").F64, col("l_discount").F64
		groups = map[string][]float64{}
		var all [][]float64
		for i, d := range ship {
			if d > hi {
				continue
			}
			k := flag[i] + "\x00" + status[i] + "\x00"
			g := groups[k]
			if g == nil {
				g = make([]float64, 4)
				groups[k] = g
				all = append(all, g)
			}
			g[0] += quantity[i]
			g[1] += price[i]
			g[2] += discount[i]
			g[3]++
		}
		for _, g := range all {
			g[2] /= g[3] // AVG(l_discount)
		}
		return groups, true
	case scan(sql, "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_shipdate BETWEEN %d AND %d AND l_discount >= %f AND l_quantity < %d", &lo, &hi, &disc, &qty):
		ship, quantity, price, discount := col("l_shipdate").I64, col("l_quantity").F64, col("l_extendedprice").F64, col("l_discount").F64
		sum := 0.0
		for i, d := range ship {
			if d >= lo && d <= hi && discount[i] >= disc && quantity[i] < float64(qty) {
				sum += price[i]
			}
		}
		return map[string][]float64{"": {sum}}, true
	case scan(sql, "SELECT l_suppkey, SUM(l_extendedprice) FROM lineitem WHERE l_shipdate BETWEEN %d AND %d GROUP BY", &lo, &hi):
		ship, supp, price := col("l_shipdate").I64, col("l_suppkey").I64, col("l_extendedprice").F64
		groups = map[string][]float64{}
		for i, d := range ship {
			if d >= lo && d <= hi {
				k := fmt.Sprintf("%d\x00", supp[i])
				g := groups[k]
				if g == nil {
					g = make([]float64, 1)
					groups[k] = g
				}
				g[0] += price[i]
			}
		}
		return groups, true
	}
	return nil, false
}

// scan reports whether sql starts with the format, filling its verbs.
func scan(sql, format string, args ...any) bool {
	n, err := fmt.Sscanf(sql, format, args...)
	return err == nil && n == len(args)
}

// matchesOracle compares an exact answer cell for cell with the oracle's.
// Sums are accumulated in another order than the engine's, so cells compare
// to a relative 1e-9, eight decimal orders tighter than any real fault.
func matchesOracle(res *taster.Result, groups map[string][]float64) bool {
	g := groupCols(res)
	if len(res.Rows) != len(groups) {
		// An ungrouped aggregate over no rows is one row of zeros on both
		// sides; a grouped one is no rows on both sides.
		return false
	}
	for _, row := range res.Rows {
		want, ok := groups[groupKey(row, g)]
		if !ok || len(want) != len(row)-g {
			return false
		}
		for c, w := range want {
			got := row[g+c].AsFloat()
			if math.Abs(got-w) > 1e-9*math.Max(math.Abs(w), 1) {
				return false
			}
		}
	}
	return true
}

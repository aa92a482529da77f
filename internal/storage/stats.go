package storage

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// GroupStats is the part of a column set's statistics its value groups
// give, counted by one pass over the set's columns (Table.ColumnGroups for
// one column, GroupCount and MinGroupOf for a set). The planner decides
// between uniform and distinct sampling by it and detects skew when pushing
// synopses under filters (paper §IV-A: skewed predicate columns join the
// stratification set).
type GroupStats struct {
	Distinct int  // exact number of distinct values
	MinGroup int  // size of the smallest value group
	MaxGroup int  // size of the largest value group
	Skewed   bool // true when the value distribution is heavy-tailed
}

// Moments is the part of a numeric column's statistics one float loop over
// its rows folds (Table.ColumnMoments); zero for other columns. The planner
// sizes samplers by its CV (choose p and δ from the accuracy spec).
type Moments struct {
	Min      float64
	Max      float64
	Mean     float64
	Variance float64 // population variance
}

// ColumnStats is both parts of one column's statistics.
type ColumnStats struct {
	GroupStats
	Moments
}

// CV returns the coefficient of variation (σ/|μ|), the quantity that drives
// required sample sizes for relative-error targets. Returns 1 for degenerate
// columns so sizing stays sane.
func (s Moments) CV() float64 {
	if s.Mean == 0 || s.Variance <= 0 {
		return 1
	}
	cv := math.Sqrt(s.Variance) / math.Abs(s.Mean)
	if cv == 0 || math.IsNaN(cv) || math.IsInf(cv, 0) {
		return 1
	}
	return cv
}

// TableStats holds per-column statistics plus the row count.
type TableStats struct {
	Rows    int
	Columns []ColumnStats
}

// lazyColumnStats holds one column's moment part on a table version,
// computed on its first ask; nil until then. Group parts are kept per
// column set beside the set's indexes (Table.groupsOf); set is the column's
// own set's entry once published (colIndexes), so the planner's per-term
// asks of one column find it with one atomic load.
type lazyColumnStats struct {
	momentsOnce sync.Once
	moments     *Moments
	set         atomic.Pointer[lazyColIndexes]
}

// ColumnGroups returns column i's group part, counting it on first call.
// This is the "statistics of the dataset ... calculated on-the-fly during
// the first access to any table" behaviour from paper §III, per column and
// per part: a version counts only the groups a plan reads.
func (t *Table) ColumnGroups(i int) GroupStats { return t.groupsOf([]int{i}) }

// ColumnMoments returns column i's moment part, folding it on first call.
func (t *Table) ColumnMoments(i int) Moments {
	c := &t.stats[i]
	c.momentsOnce.Do(func() {
		m := t.moments(i)
		c.moments = &m
	})
	return *c.moments
}

// Stats returns both parts of every column, computing what no plan has
// asked for yet. The planner never calls it: it asks per column and part
// (ColumnGroups, ColumnMoments, and Bounds for range terms). It is the
// whole-version view the benchmark's storage.stats_ms probe times and the
// statistics tests hold to their oracle.
func (t *Table) Stats() *TableStats {
	ts := &TableStats{Rows: t.rows, Columns: make([]ColumnStats, len(t.schema))}
	for i := range ts.Columns {
		ts.Columns[i] = ColumnStats{t.ColumnGroups(i), t.ColumnMoments(i)}
	}
	return ts
}

// skewRatio is the MaxGroup/avgGroup threshold above which a column counts
// as skewed. 3 is a conventional heavy-hitter cutoff; the paper does not
// give a number.
const skewRatio = 3.0

// groupsOf returns the group part of the columns at positions cols, counted
// on first ask and cached on the version in the set's entry beside its
// indexes (colIndexes), under the sorted positions: a set's groups do not
// depend on its columns' order, so a GROUP BY's columns and a
// stratification set naming the same columns count once.
func (t *Table) groupsOf(cols []int) GroupStats {
	if len(cols) > 1 {
		cols = slices.Sorted(slices.Values(cols))
	}
	e := t.colIndexes(cols)
	e.statsOnce.Do(func() {
		g := t.groupStats(cols)
		e.stats = &g
	})
	return *e.stats
}

// groupStats counts the group part of the columns at positions cols. Its
// value groups are GROUP BY's, so -0.0, +0.0 and each NaN payload are one
// group apiece, exactly as a query over the columns would answer. One Int64
// column whose keys span densely (Table.DenseSpan, the rule a KeyIndex lays
// a key out by) is counted at its address key − min (countDense); every
// other set through a GroupIndex (groupCounts).
func (t *Table) groupStats(cols []int) GroupStats {
	if t.rows == 0 {
		return GroupStats{}
	}
	if len(cols) == 1 {
		if lo, n, ok := t.DenseSpan(cols[0]); ok {
			counts := make([]int32, n)
			t.countDense(cols[0], uint64(lo), counts)
			return groupSizes(counts, t.rows)
		}
	}
	return groupSizes(t.groupCounts(cols), t.rows)
}

// countDense adds every row of column col, an Int64 column whose keys lie in
// the len(counts) positions from lo, to its key's count at position key −
// lo, one loop per partition: a cell ends as the key's row count, zero for a
// key no row holds.
func (t *Table) countDense(col int, lo uint64, counts []int32) {
	for _, part := range t.parts {
		for _, k := range part.cols[col].I64 {
			counts[uint64(k)-lo]++
		}
	}
}

// groupSizes reads the group part of a column set over rows rows off its
// groups' row counts; a zero count is no group.
func groupSizes[T int | int32](counts []T, rows int) GroupStats {
	st := GroupStats{MinGroup: rows}
	for _, c := range counts {
		if c == 0 {
			continue
		}
		st.Distinct++
		st.MinGroup = min(st.MinGroup, int(c))
		st.MaxGroup = max(st.MaxGroup, int(c))
	}
	avgGroup := float64(rows) / float64(st.Distinct)
	st.Skewed = float64(st.MaxGroup) > skewRatio*avgGroup && st.Distinct > 1
	return st
}

// moments folds column i's moment part partition by partition, so
// multi-partition tables never materialize a whole-column copy just for
// statistics. NaN rows take no part in Min and Max.
func (t *Table) moments(i int) Moments {
	var st Moments
	n := t.rows
	if n == 0 || !t.schema[i].Typ.Numeric() {
		return st
	}
	var sum, sumSq float64
	st.Min = math.Inf(1)
	st.Max = math.Inf(-1)
	for _, part := range t.parts {
		c := part.cols[i]
		for r := 0; r < c.Len(); r++ {
			v := c.Float(r)
			sum += v
			sumSq += v * v
			if v < st.Min {
				st.Min = v
			}
			if v > st.Max {
				st.Max = v
			}
		}
	}
	st.Mean = sum / float64(n)
	st.Variance = sumSq/float64(n) - st.Mean*st.Mean
	if st.Variance < 0 {
		st.Variance = 0
	}
	return st
}

// groupCounts counts the rows of every group of the columns at positions
// cols (resolveGroups): counts[id], ids in first-seen row order.
func (t *Table) groupCounts(cols []int) []int {
	var counts []int
	t.resolveGroups(cols, 0, func(ids []int32, groups int) {
		counts = append(counts, make([]int, groups-len(counts))...)
		c := counts
		for _, id := range ids {
			c[id]++
		}
	})
	return counts
}

// resolveGroups numbers every row from table row from on by the columns at
// positions cols through one GroupIndex, a batch of each partition at a
// time, handing each batch's ids to f in row order with the number of
// groups opened so far; it returns the index, which holds the groups' key
// values.
func (t *Table) resolveGroups(cols []int, from int, f func(ids []int32, groups int)) *GroupIndex {
	at := make([]int, len(cols))
	out := make(Schema, len(cols))
	for k, c := range cols {
		at[k], out[k] = k, t.schema[c]
	}
	idx := NewGroupIndex(at, out)
	b := &Batch{Vecs: make([]*Vector, len(cols))}
	var sc ResolveScratch
	for p, part := range t.parts {
		for lo := max(from-t.offs[p], 0); lo < part.rows; lo += BatchSize {
			hi := min(lo+BatchSize, part.rows)
			for k, c := range cols {
				b.Vecs[k] = part.cols[c].Slice(lo, hi)
			}
			f(idx.Resolve(b, &sc), idx.Len())
		}
	}
	return &idx
}

// DistinctOf returns the distinct count of the named column, or 0 when the
// column is unknown. Convenience wrapper used by the planner.
func (t *Table) DistinctOf(col string) int {
	i := t.schema.Index(col)
	if i < 0 {
		return 0
	}
	return t.ColumnGroups(i).Distinct
}

// GroupCount returns the exact number of distinct combinations of the given
// columns — the planner's estimate for "number of groups" of a GROUP BY over
// the base table: 1 for no columns or an unknown one, and at least 1 for one
// column.
func (t *Table) GroupCount(cols []string) int {
	if len(cols) == 0 {
		return 1
	}
	g, ok := t.groupsByName(cols)
	if !ok || len(cols) == 1 && g.Distinct == 0 {
		return 1
	}
	return g.Distinct
}

// MinGroupOf returns the size of the smallest group for the given column
// set: the quantity that determines whether uniform sampling can guarantee
// k rows per group (paper §IV-A). No columns, no rows or an unknown column
// give the row count.
func (t *Table) MinGroupOf(cols []string) int {
	if len(cols) == 0 || t.rows == 0 {
		return t.rows
	}
	g, ok := t.groupsByName(cols)
	if !ok {
		return t.rows
	}
	return g.MinGroup
}

// groupsByName is groupsOf over the named columns; ok is false when one is
// unknown. Up to four positions stay on the stack.
func (t *Table) groupsByName(cols []string) (GroupStats, bool) {
	var buf [4]int
	at := buf[:0]
	for _, c := range cols {
		i := t.schema.Index(c)
		if i < 0 {
			return GroupStats{}, false
		}
		at = append(at, i)
	}
	return t.groupsOf(at), true
}

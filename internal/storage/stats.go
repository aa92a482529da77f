package storage

import (
	"math"
	"slices"
	"strings"
	"sync"
)

// GroupStats is the part of a column's statistics its value groups give,
// counted by one GroupIndex pass over the column (Table.ColumnGroups). The
// planner decides between uniform and distinct sampling by it and detects
// skew when pushing synopses under filters (paper §IV-A: skewed predicate
// columns join the stratification set).
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

// lazyColumnStats holds one column's two parts on a table version, each
// computed on its first ask; nil until then.
type lazyColumnStats struct {
	groupsOnce  sync.Once
	groups      *GroupStats
	momentsOnce sync.Once
	moments     *Moments
}

// ColumnGroups returns column i's group part, counting it on first call.
// This is the "statistics of the dataset ... calculated on-the-fly during
// the first access to any table" behaviour from paper §III, per column and
// per part: a version counts only the groups a plan reads.
func (t *Table) ColumnGroups(i int) GroupStats {
	c := &t.stats[i]
	c.groupsOnce.Do(func() {
		g := t.groupStats(i)
		c.groups = &g
	})
	return *c.groups
}

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

// groupStats counts column i's group part. Its value groups are GROUP BY's:
// the group index counts them (groupCounts), so -0.0, +0.0 and each NaN
// payload are one group apiece, exactly as a query over the column would
// answer.
func (t *Table) groupStats(i int) GroupStats {
	var st GroupStats
	n := t.rows
	if n == 0 {
		return st
	}
	counts := t.groupCounts([]int{i})
	st.Distinct, st.MinGroup = len(counts), n
	for _, f := range counts {
		st.MinGroup = min(st.MinGroup, f)
		st.MaxGroup = max(st.MaxGroup, f)
	}
	avgGroup := float64(n) / float64(st.Distinct)
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
	for p, part := range t.parts {
		for lo := max(from-t.offs[p], 0); lo < part.rows; lo += BatchSize {
			hi := min(lo+BatchSize, part.rows)
			for k, c := range cols {
				b.Vecs[k] = part.cols[c].Slice(lo, hi)
			}
			sc := BorrowScratch(hi-lo, len(cols))
			f(idx.Resolve(b, sc), idx.Len())
			ReturnScratch(sc)
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
// the base table. For a single column it reuses per-column stats.
func (t *Table) GroupCount(cols []string) int {
	if len(cols) == 0 {
		return 1
	}
	if len(cols) == 1 {
		if d := t.DistinctOf(cols[0]); d > 0 {
			return d
		}
		return 1
	}
	sh, ok := t.shapeOf(cols)
	if !ok {
		return 1
	}
	return sh.groups
}

// MinGroupOf returns the size of the smallest group for the given column
// set: the quantity that determines whether uniform sampling can guarantee
// k rows per group (paper §IV-A).
func (t *Table) MinGroupOf(cols []string) int {
	if len(cols) == 0 || t.rows == 0 {
		return t.rows
	}
	if len(cols) == 1 {
		i := t.schema.Index(cols[0])
		if i < 0 {
			return t.rows
		}
		return t.ColumnGroups(i).MinGroup
	}
	sh, ok := t.shapeOf(cols)
	if !ok {
		return t.rows
	}
	return sh.minGroup
}

// groupShape is a column set's number of groups and smallest group size.
type groupShape struct{ groups, minGroup int }

// shapeOf counts the groups of a column set once per table version: a
// version's rows never change, so the shape is cached on it beside the
// column statistics and dies with it. The shape does not depend on the
// columns' order, so the cache key is the sorted set: a GROUP BY's columns
// and a stratification set naming the same columns count once. ok is false
// when a column is unknown.
//
//taster:mutator lazy cache under groupsMu: a shape is computed outside the lock from the version's frozen rows and published once per column set; readers see absent-then-final
func (t *Table) shapeOf(cols []string) (sh groupShape, ok bool) {
	cols = slices.Sorted(slices.Values(cols))
	key := strings.Join(cols, "\x00")
	t.groupsMu.Lock()
	sh, ok = t.groups[key]
	t.groupsMu.Unlock()
	if ok {
		return sh, true
	}
	idx := make([]int, len(cols))
	for k, c := range cols {
		if idx[k] = t.schema.Index(c); idx[k] < 0 {
			return groupShape{}, false
		}
	}
	counts := t.groupCounts(idx)
	sh = groupShape{groups: len(counts), minGroup: t.rows}
	for _, f := range counts {
		sh.minGroup = min(sh.minGroup, f)
	}
	t.groupsMu.Lock()
	if t.groups == nil {
		t.groups = make(map[string]groupShape)
	}
	t.groups[key] = sh
	t.groupsMu.Unlock()
	return sh, true
}

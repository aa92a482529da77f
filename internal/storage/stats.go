package storage

import (
	"math"
)

// ColumnStats summarizes one column. The planner uses these to size samplers
// (choose p and δ from the accuracy spec), to decide between uniform and
// distinct sampling, and to detect skew when pushing synopses under filters
// (paper §IV-A: skewed predicate columns join the stratification set).
type ColumnStats struct {
	Distinct int     // exact number of distinct values
	MinGroup int     // size of the smallest value group
	MaxGroup int     // size of the largest value group
	Min      float64 // numeric columns only
	Max      float64
	Mean     float64
	Variance float64 // population variance
	Skewed   bool    // true when the value distribution is heavy-tailed
}

// CV returns the coefficient of variation (σ/|μ|), the quantity that drives
// required sample sizes for relative-error targets. Returns 1 for degenerate
// columns so sizing stays sane.
func (s ColumnStats) CV() float64 {
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

// Stats returns the table statistics, computing them on first call. This is
// the "statistics of the dataset ... calculated on-the-fly during the first
// access to any table" behaviour from paper §III.
//
//taster:mutator sync.Once-guarded lazy cache: the single winning writer publishes via Once's happens-before edge, readers only ever see nil-then-frozen
func (t *Table) Stats() *TableStats {
	t.statsOnce.Do(func() {
		ts := &TableStats{Rows: t.rows, Columns: make([]ColumnStats, len(t.schema))}
		chunks := make([]*Vector, len(t.parts))
		for i := range t.schema {
			for p, part := range t.parts {
				chunks[p] = part.cols[i]
			}
			ts.Columns[i] = computeColumnStats(chunks)
		}
		t.stats = ts
	})
	return t.stats
}

// skewRatio is the MaxGroup/avgGroup threshold above which a column counts
// as skewed. 3 is a conventional heavy-hitter cutoff; the paper does not
// give a number.
const skewRatio = 3.0

// computeColumnStats folds one column's per-partition chunks into a single
// ColumnStats, iterating chunk by chunk so multi-partition tables never
// materialize a whole-column copy just for statistics.
func computeColumnStats(chunks []*Vector) ColumnStats {
	var st ColumnStats
	n := 0
	for _, c := range chunks {
		n += c.Len()
	}
	if n == 0 {
		return st
	}
	st.MinGroup = n
	group := func(size int) {
		st.Distinct++
		st.MinGroup = min(st.MinGroup, size)
		st.MaxGroup = max(st.MaxGroup, size)
	}
	if d := sharedDict(chunks); d != nil {
		// A coded column counts per code: one array increment per row, and
		// its value groups are the codes that occur (a sample's dictionary
		// can hold values its rows do not).
		counts := make([]int, d.Len())
		for _, c := range chunks {
			for _, code := range c.Code {
				counts[code]++
			}
		}
		for _, f := range counts {
			if f > 0 {
				group(f)
			}
		}
	} else {
		// Any other column: a frequency map keyed by the value's canonical
		// representation. Exact counting is fine at our scales; the paper
		// computes the same statistics on a cluster.
		freq := make(map[Value]int, 1024)
		for _, c := range chunks {
			switch c.Typ {
			case Int64:
				for _, v := range c.I64 {
					freq[Value{Typ: Int64, I: v}]++
				}
			case Float64:
				for _, v := range c.F64 {
					freq[Value{Typ: Float64, F: v}]++
				}
			case String:
				for _, v := range c.Str {
					freq[Value{Typ: String, S: v}]++
				}
			case Bool:
				for _, v := range c.B {
					freq[Value{Typ: Bool, B: v}]++
				}
			}
		}
		for _, f := range freq {
			group(f)
		}
	}
	avgGroup := float64(n) / float64(st.Distinct)
	st.Skewed = float64(st.MaxGroup) > skewRatio*avgGroup && st.Distinct > 1

	if chunks[0].Typ.Numeric() {
		var sum, sumSq float64
		st.Min = math.Inf(1)
		st.Max = math.Inf(-1)
		for _, c := range chunks {
			for i := 0; i < c.Len(); i++ {
				v := c.Float(i)
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
	}
	return st
}

// sharedDict returns the dictionary every chunk is coded under, nil when any
// chunk is uncoded or two disagree (partitions on either side of an append
// that extended the dictionary).
func sharedDict(chunks []*Vector) *Dict {
	d := chunks[0].Dict
	for _, c := range chunks[1:] {
		if c.Dict != d {
			return nil
		}
	}
	return d
}

// DistinctOf returns the distinct count of the named column, or 0 when the
// column is unknown. Convenience wrapper used by the planner.
func (t *Table) DistinctOf(col string) int {
	i := t.schema.Index(col)
	if i < 0 {
		return 0
	}
	return t.Stats().Columns[i].Distinct
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
	sizes, ok := t.groupSizes(cols)
	if !ok {
		return 1
	}
	return len(sizes)
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
		return t.Stats().Columns[i].MinGroup
	}
	sizes, ok := t.groupSizes(cols)
	if !ok {
		return t.rows
	}
	minG := t.rows
	for _, f := range sizes {
		minG = min(minG, f)
	}
	return minG
}

// groupSizes counts the rows of every distinct combination of the given
// columns, keyed by GroupKey. ok is false when a column is unknown.
func (t *Table) groupSizes(cols []string) (sizes map[string]int, ok bool) {
	idx := make([]int, 0, len(cols))
	for _, c := range cols {
		i := t.schema.Index(c)
		if i < 0 {
			return nil, false
		}
		idx = append(idx, i)
	}
	sizes = make(map[string]int, 1024)
	var key []byte
	for _, part := range t.parts {
		for r := 0; r < part.rows; r++ {
			key = GroupKey(key, part.cols, idx, r)
			sizes[string(key)]++
		}
	}
	return sizes, true
}

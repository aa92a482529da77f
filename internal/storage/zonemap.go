package storage

import "math"

// ZoneMap summarizes one partition for predicate pruning: the per-column
// minimum and maximum value plus the row count. A scan consults the zone
// map before reading the partition — if the predicate provably rejects
// every value in [Min, Max], the partition is skipped without touching its
// payload. Zone maps are computed lazily on first use and cached on the
// (immutable) partition, so shared partitions compute them once across
// table versions.
//
//taster:immutable
type ZoneMap struct {
	Rows int
	// Min and Max hold the column bounds indexed by schema position. For an
	// empty partition both are zero Values and Rows is 0 (always prunable).
	// NaN rows are excluded from float bounds (NaN is unordered, so no
	// [Min, Max] interval can witness it) and recorded in HasNaN instead.
	Min, Max []Value
	// HasNaN marks float columns holding at least one NaN row. Such a row
	// lies outside the bounds yet satisfies any NE predicate (Go's != is
	// true for NaN against every constant), so pruning logic that reasons
	// "all rows equal Min==Max" must consult this flag.
	HasNaN []bool
}

// Zone returns the zone map of partition p, computing it on first call.
//
//taster:mutator sync.Once-guarded lazy cache: the zone map is built privately and cached once; the ZoneMap writes fill the fresh object before it is stored
func (t *Table) Zone(p int) *ZoneMap {
	part := t.parts[p]
	part.zoneOnce.Do(func() {
		z := &ZoneMap{
			Rows:   part.rows,
			Min:    make([]Value, len(part.cols)),
			Max:    make([]Value, len(part.cols)),
			HasNaN: make([]bool, len(part.cols)),
		}
		for i, c := range part.cols {
			z.Min[i], z.Max[i], z.HasNaN[i] = vectorBounds(c)
		}
		part.zone = z
	})
	return part.zone
}

// Bounds returns the smallest and largest value of column i over the
// version's partitions, from their zone maps under Value.Less. Empty
// partitions and all-NaN ones (NaN bounds) give none, so a float column's
// bounds skip its NaN rows as its moments' Min and Max do, and of equal
// bounds the first partition's is kept (-0 or +0, as the rows show it
// first). ok is false when no partition gives bounds. The planner reads a
// range term's selectivity from these; the zone maps are the ones pruning
// builds on the version's first filtered read.
func (t *Table) Bounds(i int) (mn, mx Value, ok bool) {
	for p := range t.parts {
		z := t.Zone(p)
		lo, hi := z.Min[i], z.Max[i]
		if z.Rows == 0 || lo.Typ == Float64 && math.IsNaN(lo.F) {
			continue
		}
		if !ok {
			mn, mx, ok = lo, hi, true
			continue
		}
		if lo.Less(mn) {
			mn = lo
		}
		if mx.Less(hi) {
			mx = hi
		}
	}
	return mn, mx, ok
}

// vectorBounds returns the min and max value of a vector under Value.Less
// ordering (numeric order for Int64/Float64, lexicographic for String,
// false<true for Bool), plus whether any float value is NaN. NaN values are
// skipped when forming the bounds — Value.Less cannot order them, so they
// would otherwise poison or silently escape the interval depending on
// position. Of equal values the first is kept (a float -0 or +0). Zero
// Values for an empty vector; NaN bounds (refused by every comparison
// downstream) for an all-NaN vector. Each type is one loop over its own
// slice, a coded string vector over its codes: no row is boxed into a
// Value.
func vectorBounds(c *Vector) (mn, mx Value, hasNaN bool) {
	if c.Len() == 0 {
		return mn, mx, false
	}
	switch c.Typ {
	case Int64:
		lo, hi := orderedBounds(c.I64)
		return Value{Typ: Int64, I: lo}, Value{Typ: Int64, I: hi}, false
	case Float64:
		lo, hi, hasNaN := floatBounds(c.F64)
		return Value{Typ: Float64, F: lo}, Value{Typ: Float64, F: hi}, hasNaN
	case String:
		var lo, hi string
		if c.Dict != nil {
			lo, hi = codedBounds(c.Code, c.Dict)
		} else {
			lo, hi = orderedBounds(c.Str)
		}
		return Value{Typ: String, S: lo}, Value{Typ: String, S: hi}, false
	case Bool:
		lo, hi := c.B[0], c.B[0]
		for _, b := range c.B {
			lo, hi = lo && b, hi || b
		}
		return Value{Typ: Bool, B: lo}, Value{Typ: Bool, B: hi}, false
	}
	return mn, mx, false
}

// orderedBounds returns the smallest and largest of xs, which is not empty.
func orderedBounds[T int64 | string](xs []T) (lo, hi T) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// codedBounds returns the smallest and largest of the values codes name in
// d (codes is not empty): the rows mark which values occur, and each value
// that does is compared once. BenchmarkTableZone reads it about 4× faster
// than orderedBounds over the same vectors' Str.
func codedBounds(codes []uint32, d *Dict) (lo, hi string) {
	seen := make([]bool, d.Len())
	for _, k := range codes {
		seen[k] = true
	}
	first := true
	for k, ok := range seen {
		switch v := d.vals[k]; {
		case !ok:
		case first:
			lo, hi, first = v, v, false
		default:
			lo, hi = min(lo, v), max(hi, v)
		}
	}
	return lo, hi
}

// floatBounds returns the smallest and largest non-NaN value of xs, which
// is not empty, keeping the first of equal ones, and whether any is NaN.
// When every value is NaN both bounds are the first one.
func floatBounds(xs []float64) (lo, hi float64, hasNaN bool) {
	seeded := false
	for _, x := range xs {
		switch {
		case x != x:
			hasNaN = true
		case !seeded:
			lo, hi, seeded = x, x, true
		case x < lo:
			lo = x
		case x > hi:
			hi = x
		}
	}
	if !seeded {
		lo, hi = xs[0], xs[0]
	}
	return lo, hi, hasNaN
}

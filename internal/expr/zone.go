package expr

import (
	"cmp"
	"math"
	"slices"

	"github.com/tasterdb/taster/internal/storage"
)

// Zone-map pruning. ZonePrunes decides whether a scan may skip a partition
// entirely given the partition's per-column [min, max] bounds. One term that
// excludes every value the zone admits refutes the whole conjunction. The
// check is conservative by construction: a column or value pair the analysis
// cannot compare soundly contributes nothing — it can only fail to prune,
// never prune wrongly. Soundness is held by a property test over random
// predicates and partitions.

// ZonePrunes reports whether pred provably rejects every row whose column
// values lie within the zone's bounds — i.e. whether a scan can skip the
// partition the zone summarizes without changing any query result. An empty
// partition is always prunable; a nil predicate or nil zone never is.
func ZonePrunes(pred Pred, sch storage.Schema, zone *storage.ZoneMap) bool {
	if zone == nil {
		return false
	}
	if zone.Rows == 0 {
		return true
	}
	for _, t := range pred {
		i := sch.Index(t.Col)
		if i < 0 || i >= len(zone.Min) {
			continue
		}
		hasNaN := i < len(zone.HasNaN) && zone.HasNaN[i]
		if termExcludes(t, zone.Min[i], zone.Max[i], hasNaN) {
			return true
		}
	}
	return false
}

// Prune is the one decision of which partitions a read of t filtered by
// pred touches, and of what those partitions hold: the executor's scans
// skip and charge by it, and the planner prices every filtered branch by it.
// keep marks the partitions ZonePrunes leaves; it is nil when none was
// pruned (read everything), so an ineffective prune and a nil pred both
// charge bytes = t.Bytes() and rows = t.NumRows() exactly.
func Prune(pred Pred, t *storage.Table) (keep []bool, bytes, rows int64) {
	if len(pred) == 0 {
		return nil, t.Bytes(), int64(t.NumRows())
	}
	sch := t.Schema()
	keep = make([]bool, t.Partitions())
	pruned := false
	for p := range keep {
		zone := t.Zone(p)
		if ZonePrunes(pred, sch, zone) {
			pruned = true
			continue
		}
		keep[p] = true
		bytes += t.PartitionBytes(p)
		rows += int64(zone.Rows)
	}
	if !pruned {
		keep = nil
	}
	return keep, bytes, rows
}

// termExcludes reports whether the term is false for every row the zone
// admits — a single excluding term of a conjunction prunes the whole
// partition. An Int64 column's zone is excluded when the integers the term
// admits (termInts; an IN term's, each literal's) miss [mn, mx]. A Float64
// column's bounds compare with float64(literal), as its kernel does, and a
// String column's byte-wise. hasNaN widens the admitted set beyond [mn, mx]
// for float columns: a NaN row compares false under every ordered operator
// and under == (so EQ/IN/range exclusion stays sound), but true under !=,
// which makes NE exclusion unsound the moment one NaN row exists.
func termExcludes(t Term, mn, mx storage.Value, hasNaN bool) bool {
	if mn.Typ == storage.Int64 {
		if t.Op != IN {
			return !termInts(t.Op, t.Val).meets(mn.I, mx.I)
		}
		return !slices.ContainsFunc(t.List, func(v storage.Value) bool { return termInts(EQ, v).meets(mn.I, mx.I) })
	}
	switch t.Op {
	case IN:
		for _, v := range t.List {
			if !valueOutside(v, mn, mx) {
				return false
			}
		}
		return true
	case EQ:
		return valueOutside(t.Val, mn, mx)
	case NE:
		// Excludes only when every row holds exactly val: mn == val == mx,
		// and no NaN row hides outside the bounds (NaN != val selects it).
		if hasNaN {
			return false
		}
		cl, ok1 := zoneCmp(mn, t.Val)
		ch, ok2 := zoneCmp(mx, t.Val)
		return ok1 && ok2 && cl == 0 && ch == 0
	case LT: // col < val fails everywhere iff mn >= val
		c, ok := zoneCmp(mn, t.Val)
		return ok && c >= 0
	case LE: // col <= val fails everywhere iff mn > val
		c, ok := zoneCmp(mn, t.Val)
		return ok && c > 0
	case GT: // col > val fails everywhere iff mx <= val
		c, ok := zoneCmp(mx, t.Val)
		return ok && c <= 0
	case GE: // col >= val fails everywhere iff mx < val
		c, ok := zoneCmp(mx, t.Val)
		return ok && c < 0
	}
	return false
}

// valueOutside reports that v provably lies outside [mn, mx].
func valueOutside(v, mn, mx storage.Value) bool {
	if c, ok := zoneCmp(mn, v); ok && c > 0 {
		return true
	}
	if c, ok := zoneCmp(mx, v); ok && c < 0 {
		return true
	}
	return false
}

// zoneCmp is a three-way comparison of a Float64 or String column's zone
// bound b with a literal v, as the column's kernel compares them: a float
// bound with float64(v). ok is false when the pair cannot be compared
// soundly: NaN, or a literal of another class.
func zoneCmp(b, v storage.Value) (c int, ok bool) {
	switch {
	case b.Typ == storage.Float64 && v.Typ.Numeric():
		x, y := b.F, v.AsFloat()
		if math.IsNaN(x) || math.IsNaN(y) {
			return 0, false
		}
		return cmp.Compare(x, y), true
	case b.Typ == storage.String && v.Typ == storage.String:
		return cmp.Compare(b.S, v.S), true
	}
	return 0, false
}

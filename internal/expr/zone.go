package expr

import (
	"cmp"
	"math"

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
// partition. hasNaN widens the admitted set beyond [mn, mx] for float
// columns: a NaN row compares false under every ordered operator and under
// == (so EQ/IN/range exclusion stays sound), but true under !=, which makes
// NE exclusion unsound the moment one NaN row exists.
func termExcludes(t Term, mn, mx storage.Value, hasNaN bool) bool {
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
	if c, ok := zoneCmp(v, mn); ok && c < 0 {
		return true
	}
	if c, ok := zoneCmp(v, mx); ok && c > 0 {
		return true
	}
	return false
}

// maxExactInt bounds the int64 range float64 represents exactly (2^53);
// mixed int/float comparisons beyond it are declared incomparable rather
// than risking an off-by-one-ulp unsound prune.
const maxExactInt = int64(1) << 53

// zoneCmp is a three-way comparison of two values for pruning purposes.
// ok is false when the pair cannot be compared soundly: a boolean, types of
// different classes, NaN, or a mixed int/float pair outside float64's exact
// integer range.
func zoneCmp(a, b storage.Value) (c int, ok bool) {
	switch {
	case a.Typ == storage.Int64 && b.Typ == storage.Int64:
		return cmp.Compare(a.I, b.I), true
	case a.Typ == storage.Float64 && b.Typ == storage.Float64:
		if math.IsNaN(a.F) || math.IsNaN(b.F) {
			return 0, false
		}
		return cmp.Compare(a.F, b.F), true
	case a.Typ == storage.Int64 && b.Typ == storage.Float64:
		return cmpIntFloat(a.I, b.F)
	case a.Typ == storage.Float64 && b.Typ == storage.Int64:
		c, ok := cmpIntFloat(b.I, a.F)
		return -c, ok
	case a.Typ == storage.String && b.Typ == storage.String:
		return cmp.Compare(a.S, b.S), true
	}
	return 0, false
}

func cmpIntFloat(i int64, f float64) (int, bool) {
	if math.IsNaN(f) {
		return 0, false
	}
	if i > maxExactInt || i < -maxExactInt {
		return 0, false
	}
	return cmp.Compare(float64(i), f), true
}

package expr

import (
	"math"
	"math/rand"
	"testing"

	"github.com/tasterdb/taster/internal/storage"
)

// Zone-map pruning soundness, held as a property over random tables and
// random predicates: whenever ZonePrunes says a partition can be skipped,
// scanning that partition and evaluating the predicate row by row must
// select nothing. The generator mixes every shape of term — int columns
// against float literals, mixed IN lists, empty IN lists, and int columns
// near float64's rounding edges (intEdges) against float literals there
// (floatEdges), where an Int64 zone is refuted by the integers a float
// literal admits — and a false "prune" on any of them is exactly the bug
// this test exists to catch.

// zoneTestSchema mirrors a fact table corner: one int, one float, one string
// column.
var zoneTestSchema = storage.Schema{
	{Name: "z.i", Typ: storage.Int64},
	{Name: "z.f", Typ: storage.Float64},
	{Name: "z.s", Typ: storage.String},
}

var zoneStrings = []string{"alpha", "beta", "gamma", "delta", "epsilon"}

// randZoneTable builds a random table over zoneTestSchema, split into a
// random number of partitions. Values are drawn from tight domains so random
// predicates exclude whole partitions often enough for the property to bite;
// occasional NaN floats exercise the incomparable paths. One table in four
// holds its ints around a rounding edge instead of around 0.
func randZoneTable(r *rand.Rand) *storage.Table {
	b := storage.NewBuilder("z", zoneTestSchema)
	rows := r.Intn(200)
	edge := int64(0)
	if r.Intn(4) == 0 {
		edge = intEdges[r.Intn(len(intEdges))]
	}
	for i := 0; i < rows; i++ {
		b.Int(0, edge+int64(r.Intn(41)-20))
		if r.Intn(40) == 0 {
			b.Float(1, math.NaN())
		} else {
			b.Float(1, float64(r.Intn(21)-10)/2)
		}
		b.Str(2, zoneStrings[r.Intn(len(zoneStrings))])
	}
	return b.Build(1 + r.Intn(6))
}

// randZonePred generates a random type-correct predicate of one to three
// terms.
func randZonePred(r *rand.Rand) Pred {
	p := make(Pred, 1+r.Intn(3))
	for k := range p {
		p[k] = randZoneTerm(r)
	}
	return p
}

func randZoneTerm(r *rand.Rand) Term {
	ops := []CmpOp{EQ, NE, LT, LE, GT, GE}
	op := ops[r.Intn(len(ops))]
	switch r.Intn(7) {
	case 0: // int col vs int literal
		return Compare("z.i", op, storage.IntValue(int64(r.Intn(61)-30)))
	case 1: // float col vs numeric literal (mixed int/float comparisons included)
		if r.Intn(2) == 0 {
			return Compare("z.f", op, storage.FloatValue(float64(r.Intn(31)-15)/2))
		}
		return Compare("z.f", op, storage.IntValue(int64(r.Intn(21)-10)))
	case 2: // string col vs string literal
		return Compare("z.s", op, storage.StringValue(zoneStrings[r.Intn(len(zoneStrings))]))
	case 3: // int col vs float literal, integral or not
		return Compare("z.i", op, storage.FloatValue(float64(r.Intn(61)-30)/2))
	case 4: // int col vs a float literal at a rounding edge, or IN a list of them
		if r.Intn(3) == 0 {
			return In("z.i", storage.FloatValue(floatEdges[r.Intn(len(floatEdges))]), storage.FloatValue(float64(intEdges[r.Intn(len(intEdges))]+int64(r.Intn(41)-20))))
		}
		if r.Intn(2) == 0 {
			return Compare("z.i", op, storage.FloatValue(floatEdges[r.Intn(len(floatEdges))]))
		}
		return Compare("z.i", op, storage.FloatValue(float64(intEdges[r.Intn(len(intEdges))]+int64(r.Intn(41)-20))))
	default: // IN list, int or mixed (possibly empty: an empty IN excludes everything)
		vals := make([]storage.Value, r.Intn(4))
		for i := range vals {
			if r.Intn(3) == 0 {
				vals[i] = storage.FloatValue(float64(r.Intn(61)-30) / 2)
			} else {
				vals[i] = storage.IntValue(int64(r.Intn(61) - 30))
			}
		}
		return In("z.i", vals...)
	}
}

// TestZonePrunesSoundProperty: a pruned partition never contains a row the
// predicate accepts.
func TestZonePrunesSoundProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pruned, trials := 0, 3000
	for trial := 0; trial < trials; trial++ {
		tbl := randZoneTable(r)
		pred := randZonePred(r)
		for p := 0; p < tbl.Partitions(); p++ {
			if !ZonePrunes(pred, zoneTestSchema, tbl.Zone(p)) {
				continue
			}
			pruned++
			for _, b := range tbl.Scan(p, 64) {
				sel, err := EvalBool(pred, b)
				if err != nil {
					t.Fatalf("trial %d: eval %s: %v", trial, pred, err)
				}
				if len(sel) > 0 {
					t.Fatalf("trial %d: partition %d pruned by %s but row %d qualifies (zone %+v)",
						trial, p, pred, sel[0], tbl.Zone(p))
				}
			}
		}
	}
	// The property is vacuous if pruning never fires; the tight value
	// domains are chosen so it fires thousands of times.
	if pruned < 100 {
		t.Fatalf("pruning fired only %d times in %d trials; property coverage is vacuous", pruned, trials)
	}
}

// TestZonePrunesNeverOnNil: nil predicates and nil zones never prune, and an
// empty partition always does.
func TestZonePrunesNeverOnNil(t *testing.T) {
	b := storage.NewBuilder("z", zoneTestSchema)
	b.Int(0, 1)
	b.Float(1, 2)
	b.Str(2, "alpha")
	tbl := b.Build(1)
	pred := Pred{Compare("z.i", EQ, storage.IntValue(99))}
	if ZonePrunes(nil, zoneTestSchema, tbl.Zone(0)) {
		t.Fatal("nil predicate pruned")
	}
	if ZonePrunes(pred, zoneTestSchema, nil) {
		t.Fatal("nil zone pruned")
	}
	empty := storage.NewBuilder("z", zoneTestSchema).Build(1)
	if !ZonePrunes(pred, zoneTestSchema, empty.Zone(0)) {
		t.Fatal("empty partition not pruned")
	}
}

// TestZonePrunesNaNNeverPrunes: a NaN bound poisons comparability; the zone
// must refuse to prune rather than guess.
func TestZonePrunesNaNNeverPrunes(t *testing.T) {
	b := storage.NewBuilder("z", zoneTestSchema)
	b.Int(0, 1)
	b.Float(1, math.NaN())
	b.Str(2, "alpha")
	tbl := b.Build(1)
	pred := Pred{Compare("z.f", GT, storage.FloatValue(1e9))}
	if ZonePrunes(pred, zoneTestSchema, tbl.Zone(0)) {
		t.Fatal("NaN-bounded zone pruned")
	}
}

// TestZonePrunesNEWithHiddenNaN is the regression for the unsound NE prune:
// in a partition [5.0, NaN] the NaN row is skipped by the bounds scan, so
// Min == Max == 5.0 — but `f != 5.0` SELECTS the NaN row (Go's != is true
// for NaN against anything), so pruning would drop a qualifying row. The
// zone map must carry a HasNaN flag and NE must refuse to prune on it.
// Pruning the other operators stays sound: a NaN row compares false under
// ==, <, <=, >, >=, so exclusion by bounds never loses it.
func TestZonePrunesNEWithHiddenNaN(t *testing.T) {
	b := storage.NewBuilder("z", zoneTestSchema)
	for _, f := range []float64{5.0, math.NaN()} {
		b.Int(0, 1)
		b.Float(1, f)
		b.Str(2, "alpha")
	}
	tbl := b.Build(1)
	zone := tbl.Zone(0)
	fi := zoneTestSchema.Index("z.f")
	if !zone.HasNaN[fi] {
		t.Fatalf("zone did not record the NaN row: %+v", zone)
	}
	ne := Pred{Compare("z.f", NE, storage.FloatValue(5.0))}
	if ZonePrunes(ne, zoneTestSchema, zone) {
		t.Fatalf("pruned [5.0, NaN] on f != 5.0, but the NaN row qualifies (zone %+v)", zone)
	}
	// Exclusion by the NaN-free bounds stays available for the safe shapes.
	for _, safe := range []Pred{
		{Compare("z.f", EQ, storage.FloatValue(7.0))},
		{Compare("z.f", GT, storage.FloatValue(5.0))},
		{Compare("z.f", LT, storage.FloatValue(5.0))},
	} {
		if !ZonePrunes(safe, zoneTestSchema, zone) {
			t.Fatalf("safe predicate %s no longer prunes [5.0, NaN]", safe)
		}
	}
	// Control: without the NaN row the NE prune is exactly what should fire.
	c := storage.NewBuilder("z", zoneTestSchema)
	c.Int(0, 1)
	c.Float(1, 5.0)
	c.Str(2, "alpha")
	clean := c.Build(1)
	if !ZonePrunes(ne, zoneTestSchema, clean.Zone(0)) {
		t.Fatal("NE prune on a constant NaN-free partition stopped firing")
	}
}

// TestZonePrunesSoundPropertyNaNHeavy replays the soundness property over a
// degenerate domain built to collide NE predicates with hidden NaN rows:
// floats are drawn from {1.5, NaN}, so constant-valued partitions carrying
// an off-bounds NaN occur constantly rather than almost never. The general
// property test keeps its broad domain; this one pins the failure class the
// broad domain reaches too rarely.
func TestZonePrunesSoundPropertyNaNHeavy(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	pruned, trials := 0, 2000
	for trial := 0; trial < trials; trial++ {
		b := storage.NewBuilder("z", zoneTestSchema)
		rows := r.Intn(20)
		for i := 0; i < rows; i++ {
			b.Int(0, int64(r.Intn(3)))
			if r.Intn(3) == 0 {
				b.Float(1, math.NaN())
			} else {
				b.Float(1, 1.5)
			}
			b.Str(2, zoneStrings[r.Intn(2)])
		}
		tbl := b.Build(1 + r.Intn(4))
		pred := Pred{Compare("z.f", []CmpOp{EQ, NE, LT, LE, GT, GE}[r.Intn(6)],
			storage.FloatValue([]float64{1.5, 2.5}[r.Intn(2)]))}
		if r.Intn(3) == 0 {
			pred = append(pred, randZoneTerm(r))
		}
		for p := 0; p < tbl.Partitions(); p++ {
			if !ZonePrunes(pred, zoneTestSchema, tbl.Zone(p)) {
				continue
			}
			pruned++
			for _, blk := range tbl.Scan(p, 64) {
				sel, err := EvalBool(pred, blk)
				if err != nil {
					t.Fatalf("trial %d: eval %s: %v", trial, pred, err)
				}
				if len(sel) > 0 {
					t.Fatalf("trial %d: partition %d pruned by %s but row %d qualifies (zone %+v)",
						trial, p, pred, sel[0], tbl.Zone(p))
				}
			}
		}
	}
	if pruned < 100 {
		t.Fatalf("pruning fired only %d times in %d trials; property coverage is vacuous", pruned, trials)
	}
}

// TestZonePrunesPastExactFloats: an Int64 zone above 2^53 is refuted by the
// integers a float literal admits, as its kernel selects them: [2^53+2,
// 2^53+40] holds no x with float64(x) <= 2^53, while 2^53+1, which rounds
// onto 2^53, keeps [2^53+1, 2^53+40].
func TestZonePrunesPastExactFloats(t *testing.T) {
	zone := func(lo int64) *storage.ZoneMap {
		b := storage.NewBuilder("z", zoneTestSchema)
		for x := lo; x <= 1<<53+40; x++ {
			b.Int(0, x)
			b.Float(1, 0)
			b.Str(2, "alpha")
		}
		return b.Build(1).Zone(0)
	}
	le := Pred{Compare("z.i", LE, storage.FloatValue(1<<53))}
	if !ZonePrunes(le, zoneTestSchema, zone(1<<53+2)) {
		t.Fatalf("%s kept [2^53+2, 2^53+40]", le)
	}
	if ZonePrunes(le, zoneTestSchema, zone(1<<53+1)) {
		t.Fatalf("%s pruned [2^53+1, 2^53+40], whose 2^53+1 it selects", le)
	}
}

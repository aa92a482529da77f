package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
)

// slabAggs is every aggregate kind over a float column and an int column.
var slabAggs = []plan.AggSpec{
	{Kind: stats.Count},
	{Kind: stats.Sum, Col: "t.f"}, {Kind: stats.Avg, Col: "t.f"}, {Kind: stats.Min, Col: "t.f"}, {Kind: stats.Max, Col: "t.f"},
	{Kind: stats.Sum, Col: "t.i"}, {Kind: stats.Avg, Col: "t.i"}, {Kind: stats.Min, Col: "t.i"}, {Kind: stats.Max, Col: "t.i"},
}

// slabStream draws a stream of batches over t.f (finite values, NaN, ±Inf
// and −0 among them), t.i (large magnitudes of both signs), the group t.g
// and, weighted, the sampler's weight column; each row carries a width.
// Rows fall in groups [glo, ghi) of 40. In groups 36–39 t.f holds only ±0,
// NaN and one sign of 1, so their MIN (36, 37) or MAX (38, 39) is a zero
// whose sign the fold order decides — in a global aggregate too, when the
// stream holds only those groups.
// selMode 0 leaves every batch dense, 1 gives every batch a selection
// (some empty), 2 mixes the two.
func slabStream(rng *rand.Rand, weighted bool, selMode, glo, ghi int) []*storage.Batch {
	schema := storage.Schema{
		{Name: "t.f", Typ: storage.Float64}, {Name: "t.i", Typ: storage.Int64}, {Name: "t.g", Typ: storage.Int64},
	}
	if weighted {
		schema = append(schema, storage.Col{Name: synopses.WeightCol, Typ: storage.Float64})
	}
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1e300, -1e-300}
	// HT weights 1/p, divided at run time as a sampler divides them: three
	// of seven rates a stream, so that a small weight's last bit is not lost
	// in sums a large one dominates.
	weights := []float64{1}
	ps := []float64{0.5, 0.3, 0.07, 0.031, 0.013, 0.004, 0.17}
	for _, k := range rng.Perm(len(ps))[:3] {
		weights = append(weights, 1/ps[k])
	}
	batches := make([]*storage.Batch, 4+rng.Intn(12))
	for k := range batches {
		n := rng.Intn(300)
		b := storage.NewBatch(schema, n)
		for r := 0; r < n; r++ {
			g := glo + rng.Intn(ghi-glo)
			f := float64(rng.Intn(2000)-1000) / 7
			switch {
			case g >= 36:
				f = []float64{0, math.Copysign(0, -1), math.NaN(), 1}[rng.Intn(4)]
				if g >= 38 && f == 1 {
					f = -1
				}
			case rng.Intn(40) == 0:
				f = special[rng.Intn(len(special))]
			}
			b.Vecs[0].F64 = append(b.Vecs[0].F64, f)
			b.Vecs[1].I64 = append(b.Vecs[1].I64, rng.Int63n(1<<60)-1<<59)
			b.Vecs[2].I64 = append(b.Vecs[2].I64, int64(g))
			if weighted {
				b.Vecs[3].F64 = append(b.Vecs[3].F64, weights[rng.Intn(len(weights))])
			}
			b.Width = append(b.Width, int32(8+rng.Intn(100)))
		}
		if selMode == 1 || selMode == 2 && rng.Intn(2) == 0 {
			b.Sel = []int32{}
			for r := 0; r < n; r++ {
				if rng.Intn(3) > 0 {
					b.Sel = append(b.Sel, int32(r))
				}
			}
		}
		batches[k] = b
	}
	return batches
}

// sameBits compares two floats by their bits, so −0 does not equal +0 —
// except that any NaN equals any NaN: which NaN a sum ends in depends on the
// order its NaN sources meet (an operation keeps its first operand's
// payload), and the operand order of a commutative addition is the
// compiler's choice.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// TestObserveHoistingMatchesRowMajor holds the aggregate sink's cell slab to
// the row-at-a-time reference, bit for bit: every kind over a float and an
// int column, weighted and exact, grouped and global, dense, under a
// selection and mixed, over values that include NaN, ±Inf and −0. Each
// seed's batch stream is cut at random morsel boundaries; one partial,
// reset between morsels, folds each morsel and merges into the global table
// in morsel order, as a worker and the merge queue do. Every group's
// assembled accumulator must equal the reference's in each term its kind
// reads, and every emitted estimate and interval bit-equal the reference's;
// the exchange charge must equal LiveWidth's.
func TestObserveHoistingMatchesRowMajor(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		for _, groupBy := range [][]string{nil, {"t.g"}} {
			for _, weighted := range []bool{false, true} {
				for selMode := 0; selMode < 3; selMode++ {
					for _, gs := range [][2]int{{0, 40}, {36, 38}, {38, 40}} {
						name := fmt.Sprintf("seed=%d groupBy=%v weighted=%v sel=%d groups=%v", seed, groupBy, weighted, selMode, gs)
						rng := rand.New(rand.NewSource(seed))
						checkSlabAgainstRowMajor(t, name, slabStream(rng, weighted, selMode, gs[0], gs[1]), groupBy, rng)
					}
				}
			}
		}
	}
}

func checkSlabAgainstRowMajor(t *testing.T, name string, batches []*storage.Batch, groupBy []string, rng *rand.Rand) {
	t.Helper()
	spec, err := resolveAggSpec(batches[0].Schema, groupBy, slabAggs, nil)
	if err != nil {
		t.Fatal(err)
	}
	weighted := spec.weightAt >= 0
	global, part := newAggTable(spec), newAggTable(spec)
	refGlobal, refPart := newRowMajorAgg(spec), newRowMajorAgg(spec)
	ctx := NewContext(0.95)
	sc := &foldScratch{groups: new(storage.ResolveScratch)}
	var wantBytes int64
	for m := 0; len(batches) > 0; m++ {
		cut := 1 + rng.Intn(len(batches))
		if m > 0 {
			part.reset()
			refPart.reset()
		}
		for _, b := range batches[:cut] {
			wantBytes += b.LiveWidth()
			part.fold(b, ctx, sc)
			refPart.observe(b)
		}
		global.merge(part)
		refGlobal.merge(refPart)
		batches = batches[cut:]
	}
	if ctx.Stats.ShuffleBytes != wantBytes {
		t.Fatalf("%s: shuffle bytes %d, LiveWidth sums %d", name, ctx.Stats.ShuffleBytes, wantBytes)
	}
	out, ivs := global.emit(0.95)
	refOut := storage.NewBatch(spec.schema, refGlobal.groups.len())
	order := refGlobal.groups.emit(refOut.Vecs, nil)
	refGlobal.open()
	if out.Len() != len(order) || global.groups.len() != refGlobal.groups.len() {
		t.Fatalf("%s: %d groups emitted, reference %d", name, out.Len(), len(order))
	}
	na := len(slabAggs)
	for g := 0; g < global.groups.len(); g++ {
		for k := range slabAggs {
			got := spec.terms.Accumulator(&global.slab, int32(g), k)
			want := refGlobal.accs[g*na+k]
			read := [][2]float64{{got.SumN, want.SumN}}
			switch got.Kind {
			case stats.Sum, stats.Avg:
				read = append(read, [2]float64{got.SumY, want.SumY})
			case stats.Min:
				read = append(read, [2]float64{got.MinV, want.MinV})
			case stats.Max:
				read = append(read, [2]float64{got.MaxV, want.MaxV})
			}
			if weighted {
				read = append(read, [2]float64{got.VarN, want.VarN})
				if got.Kind == stats.Sum || got.Kind == stats.Avg {
					read = append(read, [2]float64{got.VarY, want.VarY})
				}
				if got.Kind == stats.Avg {
					read = append(read, [2]float64{got.CovYN, want.CovYN})
				}
			}
			for _, p := range read {
				if !sameBits(p[0], p[1]) {
					t.Fatalf("%s: group %d, %s: slab %+v, reference %+v", name, g, slabAggs[k].Kind, got, *want)
				}
			}
		}
	}
	for i, id := range order {
		if len(groupBy) > 0 && out.Vecs[0].I64[i] != refOut.Vecs[0].I64[i] {
			t.Fatalf("%s: row %d key %d, reference %d", name, i, out.Vecs[0].I64[i], refOut.Vecs[0].I64[i])
		}
		for k := range slabAggs {
			acc := refGlobal.accs[int(id)*na+k]
			want := stats.Interval{Estimate: acc.Estimate()}
			if weighted {
				want = acc.Interval(0.95)
			}
			got := ivs[i][k]
			if !sameBits(got.Estimate, want.Estimate) || !sameBits(got.HalfWidth, want.HalfWidth) {
				t.Fatalf("%s: row %d, %s: %+v, reference %+v", name, i, slabAggs[k].Kind, got, want)
			}
			if cell := out.Vecs[len(groupBy)+k].F64[i]; !sameBits(cell, want.Estimate) {
				t.Fatalf("%s: row %d, %s: cell %v, reference %v", name, i, slabAggs[k].Kind, cell, want.Estimate)
			}
		}
	}
}

// TestResetPartialFoldAllocatesNothing: a worker's partial, reset, folds a
// morsel whose groups its slab has held before into the memory it kept —
// no allocation, weighted or exact, dense or under a selection.
func TestResetPartialFoldAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items, so borrowed scratch allocates")
	}
	for _, weighted := range []bool{false, true} {
		for selMode := 0; selMode < 2; selMode++ {
			rng := rand.New(rand.NewSource(7))
			batches := slabStream(rng, weighted, selMode, 0, 40)
			spec, err := resolveAggSpec(batches[0].Schema, []string{"t.g"}, slabAggs, nil)
			if err != nil {
				t.Fatal(err)
			}
			part, ctx := newAggTable(spec), NewContext(0.95)
			sc := &foldScratch{groups: new(storage.ResolveScratch)}
			morsel := func() {
				part.reset()
				for _, b := range batches {
					part.fold(b, ctx, sc)
				}
			}
			morsel()
			if allocs := testing.AllocsPerRun(20, morsel); allocs != 0 {
				t.Fatalf("weighted=%v sel=%d: a reset partial's morsel allocates %.0f times", weighted, selMode, allocs)
			}
		}
	}
}

package exec_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/tasterdb/taster/internal/exec"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
)

// totalOrderKey maps a float64 to an int64 whose order is IEEE-754
// totalOrder: -NaN < -Inf < … < -0 < +0 < … < +Inf < +NaN, NaNs by payload.
func totalOrderKey(f float64) int64 {
	k := int64(math.Float64bits(f))
	if k < 0 {
		k ^= math.MaxInt64
	}
	return k
}

// TestFloatGroupKeysEmitInTotalOrder: a float GROUP BY over -0.0 and +0.0,
// ±Inf and NaNs of two payloads and both signs emits one row per bit
// pattern, ascending under IEEE-754 totalOrder, and the same bits whatever
// order the rows arrive in and at workers 1 / 4 / 8 — through both sinks,
// each folded by the leaf's numbering, and value-keyed when the groups span
// the leaf and a dimension.
func TestFloatGroupKeysEmitInTotalOrder(t *testing.T) {
	nan := func(sign, payload uint64) float64 {
		return math.Float64frombits(sign<<63 | 0x7ff8000000000000 | payload)
	}
	keys := []float64{2, nan(0, 1), 1, math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), nan(0, 2), nan(1, 1), -3.5}
	dim := storage.NewBuilder("d", storage.Schema{{Name: "d.k", Typ: storage.Int64}, {Name: "d.g", Typ: storage.String}})
	dim.Int(0, 0)
	dim.Str(1, "g")
	d := dim.Build(1)

	var first string
	rng := rand.New(rand.NewSource(3))
	for perm := 0; perm < 4; perm++ {
		// Each key exec.LeafRowsPerGroup times — enough rows a group for the
		// leaf to number them — with values 1, 2, 4, …: every sum is exact in
		// any order, so only the key order can tell the runs apart.
		var rows [][2]float64
		for _, k := range keys {
			for v := range exec.LeafRowsPerGroup {
				rows = append(rows, [2]float64{k, float64(int(1) << v)})
			}
		}
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		fb := storage.NewBuilder("f", storage.Schema{{Name: "f.x", Typ: storage.Float64}, {Name: "f.v", Typ: storage.Float64}, {Name: "f.k", Typ: storage.Int64}})
		for _, r := range rows {
			fb.Float(0, r[0])
			fb.Float(1, r[1])
			fb.Int(2, 0)
		}
		f := fb.Build(3)
		aggs := []plan.AggSpec{{Kind: stats.Sum, Col: "f.v"}, {Kind: stats.Count}}
		withDim := &plan.Join{Left: &plan.Scan{Table: f}, Right: &plan.Scan{Table: d}, LeftKeys: []string{"f.k"}, RightKeys: []string{"d.k"}}
		// The sketch-join's payload counts d's one row per key: every probe
		// row counts once, as the aggregate counts it.
		sketch := func(probe plan.Node, groupBy ...string) plan.Node {
			return &plan.SketchJoin{Probe: probe, ProbeKeys: []string{"f.k"}, Build: &plan.Scan{Table: d}, BuildKeys: []string{"d.k"}, GroupBy: groupBy, Aggs: aggs}
		}
		for _, c := range []struct {
			name     string
			root     plan.Node
			numbered bool
		}{
			{"the leaf's numbering", &plan.Aggregate{Child: &plan.Scan{Table: f}, GroupBy: []string{"f.x"}, Aggs: aggs}, true},
			{"value-keyed", &plan.Aggregate{Child: withDim, GroupBy: []string{"f.x", "d.g"}, Aggs: aggs}, false},
			{"sketch, the leaf's numbering", sketch(&plan.Scan{Table: f}, "f.x"), true},
			{"sketch, value-keyed", sketch(withDim, "f.x", "d.g"), false},
		} {
			if got := leafNumbered(t, c.root); got != c.numbered {
				t.Fatalf("%s: the leaf carries the group id: %t", c.name, got)
			}
			for _, workers := range []int{1, 4, 8} {
				op, err := exec.Compile(c.root, 7, workerCtx(workers, 4))
				if err != nil {
					t.Fatal(err)
				}
				out, err := exec.Run(op)
				if err != nil {
					t.Fatal(err)
				}
				var got strings.Builder
				var prev int64
				n := 0
				for i := 0; i < out.Len(); i++ {
					x := out.Vecs[0].F64[i]
					if n > 0 && totalOrderKey(x) <= prev {
						t.Fatalf("permutation %d, %s, workers=%d: key %v (bits %x) emitted after bits %x", perm, c.name, workers, x, math.Float64bits(x), uint64(prev))
					}
					prev, n = totalOrderKey(x), n+1
					fmt.Fprintf(&got, "%x:%v:%v ", math.Float64bits(x), out.Vecs[len(out.Vecs)-2].F64[i], out.Vecs[len(out.Vecs)-1].F64[i])
				}
				if n != len(keys) {
					t.Fatalf("permutation %d, %s, workers=%d: %d groups, want %d", perm, c.name, workers, n, len(keys))
				}
				if first == "" {
					first = got.String()
				} else if got.String() != first {
					t.Fatalf("permutation %d, %s, workers=%d:\n%s\nwant\n%s", perm, c.name, workers, got.String(), first)
				}
			}
		}
	}
}

package exec_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"github.com/tasterdb/taster/internal/exec"
	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
)

// payloadTable is a sketch-join build table over keys: b.k, and b.v, the
// aggregate column — float64 when floats is set, int64 otherwise — holding
// vals, in parts partitions.
func payloadTable(t testing.TB, keys []int64, vals []uint64, floats bool, parts int) *storage.Table {
	t.Helper()
	v := &storage.Vector{Typ: storage.Int64}
	if floats {
		v.Typ = storage.Float64
	}
	for _, w := range vals {
		if floats {
			v.F64 = append(v.F64, math.Float64frombits(w))
		} else {
			v.I64 = append(v.I64, int64(w))
		}
	}
	schema := storage.Schema{{Name: "b.k", Typ: storage.Int64}, {Name: "b.v", Typ: v.Typ}}
	tab, err := storage.NewTable("b", schema, []*storage.Vector{{Typ: storage.Int64, I64: keys}, v}, parts)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// payloadNode is a sketch-join over build, keyed by b.k, summing b.v — or
// counting only, when aggCol is "".
func payloadNode(build plan.Node, aggCol string) *plan.SketchJoin {
	return &plan.SketchJoin{
		Build: build, BuildKeys: []string{"b.k"}, ProbeKeys: []string{"p.k"},
		AggCol: aggCol, Aggs: []plan.AggSpec{{Kind: stats.Count}},
	}
}

var payloadProbe = storage.Schema{{Name: "p.k", Typ: storage.Int64}}

// bothPayloads builds node's payload as a query does and through a
// GroupIndex whatever its key, and holds the two to the same bytes. It
// returns both and whether the query's build numbered by key − min.
func bothPayloads(t testing.TB, node *plan.SketchJoin) (inline, hashed *synopses.SketchJoin, dense bool) {
	t.Helper()
	inline, dense, err := exec.BuildSketchPayload(node, payloadProbe, false, exec.NewContext(0.95))
	if err != nil {
		t.Fatal(err)
	}
	hashed, _, err = exec.BuildSketchPayload(node, payloadProbe, true, exec.NewContext(0.95))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inline.Encode(), hashed.Encode()) {
		t.Fatalf("the inline payload (dense %t) encodes unlike the GroupIndex-numbered one: %d rows against %d", dense, inline.Rows.NumRows(), hashed.Rows.NumRows())
	}
	return inline, hashed, dense
}

// TestSketchPayloadNumbering holds the inline sketch-join build's two
// numberings to each other: over build tables of every key shape, a build
// numbered by key − min encodes to exactly the bytes of one numbered through
// a GroupIndex — the same rows, first-seen order and sums — and each shape
// takes the numbering storage.DenseSpan gives the table's key bounds and
// rows.
func TestSketchPayloadNumbering(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	perm := func(n int, key func(i int) int64) []int64 {
		keys := make([]int64, n)
		for i, p := range rng.Perm(n) {
			keys[i] = key(p)
		}
		return keys
	}
	draws := func(n int, key func() int64) []int64 {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = key()
		}
		return keys
	}
	// spanOver returns rows keys spanning exactly span from base: both ends
	// and random keys between them.
	spanOver := func(rows int, base, span int64) []int64 {
		keys := draws(rows, func() int64 { return base + rng.Int63n(span+1) })
		keys[0], keys[rows-1] = base, base+span
		rng.Shuffle(rows, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		return keys
	}
	for _, c := range []struct {
		name  string
		keys  []int64
		dense bool
	}{
		{"dense keys shuffled", perm(5000, func(i int) int64 { return int64(i) + 1 }), true},
		{"dense keys with duplicates", draws(6000, func() int64 { return 100 + 2*rng.Int63n(900) }), true},
		{"straddling zero", perm(4001, func(i int) int64 { return int64(i) - 2000 }), true},
		{"span just under 2^16", spanOver(300, -7, 1<<16-1), true},
		{"span 2^16", spanOver(300, -7, 1<<16), false},
		{"span just under 4× rows", spanOver(20000, 5, 4*20000-1), true},
		{"span 4× rows", spanOver(20000, 5, 4*20000), false},
		{"sparse 63-bit keys", draws(3000, func() int64 { return rng.Int63() - rng.Int63() }), false},
		{"MinInt64 and MaxInt64", []int64{math.MaxInt64, math.MinInt64, 0, math.MinInt64, -1, math.MaxInt64}, false},
		{"MinInt64 alone", []int64{math.MinInt64, math.MinInt64}, true},
		{"MaxInt64 near its neighbours", []int64{math.MaxInt64, math.MaxInt64 - 3, math.MaxInt64}, true},
		{"one key", []int64{42}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			vals := make([]uint64, len(c.keys))
			for i := range vals {
				vals[i] = rng.Uint64()
			}
			for _, floats := range []bool{false, true} {
				for _, parts := range []int{1, 7} {
					tab := payloadTable(t, c.keys, vals, floats, parts)
					scan := &plan.Scan{Table: tab}
					builds := []plan.Node{
						scan,
						// A filter keeping about half the rows: the bounds are
						// still the table's.
						&plan.Filter{Child: scan, Pred: expr.Pred{expr.Compare("b.k", expr.NE, storage.IntValue(c.keys[0]))}},
						// A filter keeping no row.
						&plan.Filter{Child: scan, Pred: expr.Pred{expr.Compare("b.k", expr.EQ, storage.IntValue(c.keys[0])), expr.Compare("b.k", expr.NE, storage.IntValue(c.keys[0]))}},
					}
					for _, build := range builds {
						for _, aggCol := range []string{"b.v", ""} {
							if _, _, dense := bothPayloads(t, payloadNode(build, aggCol)); dense != c.dense {
								t.Fatalf("floats %t, %d partitions, build %s, agg %q: numbered by key − min %t, want %t", floats, parts, build, aggCol, dense, c.dense)
							}
						}
					}
				}
			}
		})
	}
}

// FuzzSketchPayload drives the two numberings from arbitrary bytes: each
// 16-byte group is one build row, a key word and an aggregate value word
// (float64 bits when floats is set, an int64 otherwise). A key is base plus
// its word shifted right by shift mod 64, so the fuzzer reaches both sides
// of the span rule, ranges straddling zero and the int64 extremes. The
// inline and GroupIndex-numbered payloads must encode to the same bytes,
// and a probe of either by every key built, and every key's neighbours,
// must find the same (count, sum).
func FuzzSketchPayload(f *testing.F) {
	row := func(kvs ...uint64) []byte {
		var b []byte
		for _, w := range kvs {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return b
	}
	f.Add(row(3, 10, 1, 20, 3, 30, 2, 40), uint8(0), int64(0), false, uint8(1))
	f.Add(row(1<<63, math.Float64bits(1.5), 1<<62, math.Float64bits(math.NaN()), 0, math.Float64bits(math.Copysign(0, -1))), uint8(48), int64(-1<<15), true, uint8(3))
	f.Add(row(0, 1, 1<<16, 2, 5, 3), uint8(0), int64(math.MaxInt64-1<<16), false, uint8(2))
	f.Add(row(math.MaxUint64, 7, 0, 8), uint8(0), int64(0), true, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, shift uint8, base int64, floats bool, parts uint8) {
		n := len(data) / 16
		if n == 0 {
			return
		}
		keys, vals := make([]int64, n), make([]uint64, n)
		for i := range keys {
			keys[i] = base + int64(binary.LittleEndian.Uint64(data[16*i:])>>(shift%64))
			vals[i] = binary.LittleEndian.Uint64(data[16*i+8:])
		}
		tab := payloadTable(t, keys, vals, floats, 1+int(parts%4))
		inline, hashed, _ := bothPayloads(t, payloadNode(&plan.Scan{Table: tab}, "b.v"))
		var probe []int64
		for _, k := range keys {
			probe = append(probe, k, k-1, k+1)
		}
		b := &storage.Batch{Vecs: []*storage.Vector{{Typ: storage.Int64, I64: probe}}}
		find := func(sk *synopses.SketchJoin) map[int][2]uint64 {
			got := make(map[int][2]uint64)
			pos, rows, _ := sk.Index().Probe(b, []int{0}, nil, storage.ProbePos{}, len(probe), nil, nil)
			for i, p := range pos {
				c, s := sk.Row(rows[i])
				got[int(p)] = [2]uint64{math.Float64bits(c), math.Float64bits(s)}
			}
			return got
		}
		want, got := find(hashed), find(inline)
		if len(got) != len(want) {
			t.Fatalf("%d probe keys found in the inline payload, %d in the hashed one", len(got), len(want))
		}
		for p, cs := range want {
			if got[p] != cs {
				t.Fatalf("key %d: (count, sum) bits %x inline, %x hashed", probe[p], got[p], cs)
			}
		}
	})
}

package exec_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/tasterdb/taster/internal/exec"
	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
)

// keyName names a payload table's key column c: b.k, then b.k1, b.k2, ...
func keyName(c int) string {
	if c == 0 {
		return "b.k"
	}
	return fmt.Sprintf("b.k%d", c)
}

// payloadTable is a sketch-join build table: the key columns keys (keyName),
// then b.v, the aggregate column — float64 when floats is set, int64
// otherwise — holding vals, then b.r, each row's number, in parts partitions.
func payloadTable(t testing.TB, keys []*storage.Vector, vals []uint64, floats bool, parts int) *storage.Table {
	t.Helper()
	v := &storage.Vector{Typ: storage.Int64}
	if floats {
		v.Typ = storage.Float64
	}
	r := &storage.Vector{Typ: storage.Int64}
	for i, w := range vals {
		if floats {
			v.F64 = append(v.F64, math.Float64frombits(w))
		} else {
			v.I64 = append(v.I64, int64(w))
		}
		r.I64 = append(r.I64, int64(i))
	}
	var schema storage.Schema
	for c, k := range keys {
		schema = append(schema, storage.Col{Name: keyName(c), Typ: k.Typ})
	}
	schema = append(schema, storage.Col{Name: "b.v", Typ: v.Typ}, storage.Col{Name: "b.r", Typ: storage.Int64})
	tab, err := storage.NewTable("b", schema, append(slices.Clone(keys), v, r), parts)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// intKeys is one Int64 key column.
func intKeys(keys []int64) []*storage.Vector {
	return []*storage.Vector{{Typ: storage.Int64, I64: keys}}
}

// payloadNode is a sketch-join over build, a Scan or Filter(Scan) of tab,
// keyed by tab's key columns and summing b.v — or counting only, when aggCol
// is "" — and the probe schema it binds against: p.k, p.k1, ..., typed as
// the keys.
func payloadNode(tab *storage.Table, build plan.Node, aggCol string) (*plan.SketchJoin, storage.Schema) {
	node := &plan.SketchJoin{Build: build, AggCol: aggCol, Aggs: []plan.AggSpec{{Kind: stats.Count}}}
	var probe storage.Schema
	for c, col := range tab.Schema() {
		if col.Name == "b.v" {
			break
		}
		node.BuildKeys = append(node.BuildKeys, col.Name)
		node.ProbeKeys = append(node.ProbeKeys, "p"+col.Name[1:])
		probe = append(probe, storage.Col{Name: node.ProbeKeys[c], Typ: col.Typ})
	}
	return node, probe
}

// payloadOracle is the payload node's build side should give, folded a row
// at a time and sharing no code with the sink: tab's rows in row order — the
// rows the build's filter keeps, by expr.EvalBool — each keyed by its key
// values, floats by their IEEE bits and strings by value, a row per key in
// first-seen order holding the key's row count and the row-order sum of b.v
// from +0. Its key columns are written plain, as values.
func payloadOracle(t testing.TB, tab *storage.Table, node *plan.SketchJoin) *synopses.SketchJoin {
	t.Helper()
	schema := tab.Schema()
	all := &storage.Batch{Schema: schema}
	for c := range schema {
		all.Vecs = append(all.Vecs, tab.Column(c))
	}
	var keep []int
	if f, ok := node.Build.(*plan.Filter); ok {
		var err error
		if keep, err = expr.EvalBool(f.Pred, all); err != nil {
			t.Fatal(err)
		}
	} else {
		for i := range tab.NumRows() {
			keep = append(keep, i)
		}
	}
	nk := len(node.BuildKeys)
	vals := all.Vecs[schema.Index("b.v")]
	type cell struct{ count, sum float64 }
	at := make(map[string]int)
	var firsts []int
	var cells []cell
	for _, i := range keep {
		var key []byte
		for c := range nk {
			switch v := all.Vecs[c]; v.Typ {
			case storage.Int64:
				key = binary.LittleEndian.AppendUint64(key, uint64(v.I64[i]))
			case storage.Float64:
				key = binary.LittleEndian.AppendUint64(key, math.Float64bits(v.F64[i]))
			case storage.String:
				key = binary.AppendUvarint(key, uint64(len(v.Str[i])))
				key = append(key, v.Str[i]...)
			}
		}
		g, ok := at[string(key)]
		if !ok {
			g = len(cells)
			at[string(key)] = g
			cells = append(cells, cell{})
			firsts = append(firsts, i)
		}
		cells[g].count++
		if vals.Typ == storage.Float64 {
			cells[g].sum += vals.F64[i]
		} else {
			cells[g].sum += float64(vals.I64[i])
		}
	}
	var cols []*storage.Vector
	out := slices.Clone(schema[:nk])
	for c := range nk {
		v := &storage.Vector{Typ: schema[c].Typ}
		for _, i := range firsts {
			switch src := all.Vecs[c]; v.Typ {
			case storage.Int64:
				v.I64 = append(v.I64, src.I64[i])
			case storage.Float64:
				v.F64 = append(v.F64, src.F64[i])
			case storage.String:
				v.Str = append(v.Str, src.Str[i])
			}
		}
		cols = append(cols, v)
	}
	counts, sums := &storage.Vector{Typ: storage.Float64}, &storage.Vector{Typ: storage.Float64}
	for _, g := range cells {
		counts.F64 = append(counts.F64, g.count)
		sums.F64 = append(sums.F64, g.sum)
	}
	cols = append(cols, counts)
	out = append(out, storage.Col{Name: synopses.CountCol, Typ: storage.Float64})
	if node.AggCol != "" {
		cols = append(cols, sums)
		out = append(out, storage.Col{Name: synopses.SumCol, Typ: storage.Float64})
	}
	rows, err := storage.NewTable("sketch-join", out, cols, 1)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := synopses.NewSketchJoin(rows, node.AggCol)
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

// checkPayload builds node's payload as a query does, and at the scanned
// table's numbering whatever the key, and holds both to payloadOracle: the
// same bytes, and every key column as the oracle's plain columns become in a
// payload table — coded or not, under a dictionary as long and the same
// codes. It returns the query's payload, the oracle's, and whether the query
// counted at key − min.
func checkPayload(t testing.TB, tab *storage.Table, node *plan.SketchJoin, probe storage.Schema) (inline, want *synopses.SketchJoin, dense bool) {
	t.Helper()
	want = payloadOracle(t, tab, node)
	for _, numbered := range []bool{false, true} {
		sk, d, err := exec.BuildSketchPayload(node, probe, numbered, exec.NewContext(0.95))
		if err != nil {
			t.Fatal(err)
		}
		if !numbered {
			inline, dense = sk, d
		}
		if !bytes.Equal(sk.Encode(), want.Encode()) {
			t.Fatalf("the payload (dense %t, numbered %t) encodes unlike the row-at-a-time one: %d rows against %d", d, numbered, sk.Rows.NumRows(), want.Rows.NumRows())
		}
		for c := range node.BuildKeys {
			got, w := sk.Rows.Column(c), want.Rows.Column(c)
			if (got.Dict == nil) != (w.Dict == nil) || got.Dict != nil && (got.Dict.Len() != w.Dict.Len() || !slices.Equal(got.Code, w.Code)) {
				t.Fatalf("key column %d (numbered %t): coded %t, want %t", c, numbered, got.Dict != nil, w.Dict != nil)
			}
		}
	}
	return inline, want, dense
}

// payloadBuilds returns the build sides TestSketchPayloadNumbering runs over
// tab: the scan; a filter on b.v keeping about half the rows, every batch
// under a selection vector, the key bounds still the table's; one keeping
// no row; a range of b.r the zone maps prune to the middle partitions, so
// the first batch's Start is past 0; and a list of b.r values in the first
// and the last partitions, so the scan's Start jumps over the rest.
func payloadBuilds(tab *storage.Table, floats bool) []plan.Node {
	scan := &plan.Scan{Table: tab}
	zero := storage.IntValue(0)
	if floats {
		zero = storage.FloatValue(0)
	}
	n := int64(tab.NumRows())
	return []plan.Node{
		scan,
		&plan.Filter{Child: scan, Pred: expr.Pred{expr.Compare("b.v", expr.LT, zero)}},
		&plan.Filter{Child: scan, Pred: expr.Pred{expr.Compare("b.r", expr.EQ, storage.IntValue(0)), expr.Compare("b.r", expr.NE, storage.IntValue(0))}},
		&plan.Filter{Child: scan, Pred: expr.Pred{expr.Compare("b.r", expr.GE, storage.IntValue(n/3)), expr.Compare("b.r", expr.LT, storage.IntValue(2*n/3))}},
		&plan.Filter{Child: scan, Pred: expr.Pred{expr.In("b.r", storage.IntValue(1), storage.IntValue(n/9), storage.IntValue(n-2))}},
	}
}

// TestSketchPayloadNumbering holds the inline sketch-join build to the
// row-at-a-time oracle (payloadOracle), byte for byte: over build tables of
// every key shape, counted as a query counts — at key − min where
// storage.DenseSpan admits the table's key bounds and rows, at the table
// numbering's ids otherwise — and at the ids whatever the key. Each shape is
// built unfiltered, filtered (batches under a selection vector), filtered to
// no row and zone-pruned (payloadBuilds), over int and float aggregate
// columns and counts only, in one partition and in seven.
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
	strs := func(n, distinct int) *storage.Vector {
		v := &storage.Vector{Typ: storage.String}
		for range n {
			v.Str = append(v.Str, fmt.Sprintf("s%03d", rng.Intn(distinct)))
		}
		return v
	}
	// Floats over a few values, the two zeros and NaNs with two payloads:
	// every one its own key.
	nan1, nan2 := math.Float64frombits(0x7FF8000000000001), math.Float64frombits(0xFFF8000000000002)
	floatVals := []float64{math.Copysign(0, -1), 0, nan1, nan2, 1.5, -2.25, math.Inf(1), 1e-300}
	floats := &storage.Vector{Typ: storage.Float64}
	for range 3000 {
		floats.F64 = append(floats.F64, floatVals[rng.Intn(len(floatVals))])
	}
	for _, c := range []struct {
		name  string
		keys  []*storage.Vector
		dense bool
	}{
		{"dense keys shuffled", intKeys(perm(5000, func(i int) int64 { return int64(i) + 1 })), true},
		{"dense keys with duplicates", intKeys(draws(6000, func() int64 { return 100 + 2*rng.Int63n(900) })), true},
		{"straddling zero", intKeys(perm(4001, func(i int) int64 { return int64(i) - 2000 })), true},
		{"span just under 2^16", intKeys(spanOver(300, -7, 1<<16-1)), true},
		{"span 2^16", intKeys(spanOver(300, -7, 1<<16)), false},
		{"span just under 4× rows", intKeys(spanOver(20000, 5, 4*20000-1)), true},
		{"span 4× rows", intKeys(spanOver(20000, 5, 4*20000)), false},
		{"sparse 63-bit keys", intKeys(draws(3000, func() int64 { return rng.Int63() - rng.Int63() })), false},
		{"MinInt64 and MaxInt64", intKeys([]int64{math.MaxInt64, math.MinInt64, 0, math.MinInt64, -1, math.MaxInt64}), false},
		{"MinInt64 alone", intKeys([]int64{math.MinInt64, math.MinInt64}), true},
		{"MaxInt64 near its neighbours", intKeys([]int64{math.MaxInt64, math.MaxInt64 - 3, math.MaxInt64}), true},
		{"one key", intKeys([]int64{42}), true},
		{"no rows", intKeys(nil), true},
		{"string keys", []*storage.Vector{strs(4000, 300)}, false},
		{"string keys past a dictionary", []*storage.Vector{strs(3*storage.MaxDictSize, 2*storage.MaxDictSize)}, false},
		{"int and string keys", []*storage.Vector{{Typ: storage.Int64, I64: draws(5000, func() int64 { return rng.Int63n(40) })}, strs(5000, 30)}, false},
		{"float keys with zeros and NaNs", []*storage.Vector{floats}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			rows := c.keys[0].Len()
			vals := make([]uint64, rows)
			for i := range vals {
				vals[i] = rng.Uint64()
			}
			for _, floats := range []bool{false, true} {
				for _, parts := range []int{1, 7} {
					tab := payloadTable(t, c.keys, vals, floats, parts)
					for _, build := range payloadBuilds(tab, floats) {
						for _, aggCol := range []string{"b.v", ""} {
							node, probe := payloadNode(tab, build, aggCol)
							if _, _, dense := checkPayload(t, tab, node, probe); dense != c.dense {
								t.Fatalf("floats %t, %d partitions, build %s, agg %q: counted at key − min %t, want %t", floats, parts, build, aggCol, dense, c.dense)
							}
						}
					}
				}
			}
		})
	}
}

// TestSketchPayloadAfterAppend builds payloads over a version appended to
// one whose numbering was built, so the new version's ids come from
// extending it over the delta — whose keys land below the old ones, and
// among them — and holds them to the oracle, as of the old version too.
func TestSketchPayloadAfterAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range []struct {
		name       string
		old, delta func(n int) []*storage.Vector
	}{
		{"sparse int keys",
			func(n int) []*storage.Vector {
				keys := make([]int64, n)
				for i := range keys {
					keys[i] = 1<<40 + rng.Int63n(1<<50)
				}
				return intKeys(keys)
			},
			func(n int) []*storage.Vector {
				keys := make([]int64, n)
				for i := range keys {
					keys[i] = 1<<40 + rng.Int63n(1<<50)
					if i%2 == 0 {
						keys[i] = -rng.Int63n(1 << 50)
					}
				}
				return intKeys(keys)
			}},
		{"string keys",
			func(n int) []*storage.Vector {
				v := &storage.Vector{Typ: storage.String}
				for range n {
					v.Str = append(v.Str, fmt.Sprintf("m%02d", rng.Intn(50)))
				}
				return []*storage.Vector{v}
			},
			func(n int) []*storage.Vector {
				v := &storage.Vector{Typ: storage.String}
				for range n {
					v.Str = append(v.Str, fmt.Sprintf("%c%02d", "am"[rng.Intn(2)], rng.Intn(60)))
				}
				return []*storage.Vector{v}
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			vals := func(n int) []uint64 {
				v := make([]uint64, n)
				for i := range v {
					v[i] = rng.Uint64()
				}
				return v
			}
			old := payloadTable(t, c.old(3000), vals(3000), true, 4)
			delta := payloadTable(t, c.delta(1000), vals(1000), true, 1)
			for _, tab := range []*storage.Table{old, nil} {
				if tab == nil {
					var err error
					if tab, err = old.Append(delta); err != nil {
						t.Fatal(err)
					}
				}
				for _, build := range payloadBuilds(tab, true) {
					node, probe := payloadNode(tab, build, "b.v")
					if _, _, dense := checkPayload(t, tab, node, probe); dense {
						t.Fatalf("build %s counted at key − min", build)
					}
				}
			}
		})
	}
}

// FuzzSketchPayload drives the inline build from arbitrary bytes: each
// 16-byte group is one build row, a key word and an aggregate value word
// (float64 bits when floats is set, an int64 otherwise). A key is base plus
// its word shifted right by shift mod 64, so the fuzzer reaches both sides
// of the span rule, ranges straddling zero and the int64 extremes. The
// payload — of every row, or, filtered, of the rows whose key is not the
// first row's, each batch under a selection vector — counted as a query
// counts and at the numbering's ids must encode to the oracle's bytes
// (payloadOracle), and a probe of the query's and the oracle's by every key
// built, and every key's neighbours, must find the same (count, sum).
func FuzzSketchPayload(f *testing.F) {
	row := func(kvs ...uint64) []byte {
		var b []byte
		for _, w := range kvs {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return b
	}
	f.Add(row(3, 10, 1, 20, 3, 30, 2, 40), uint8(0), int64(0), false, uint8(1), false)
	f.Add(row(1<<63, math.Float64bits(1.5), 1<<62, math.Float64bits(math.NaN()), 0, math.Float64bits(math.Copysign(0, -1))), uint8(48), int64(-1<<15), true, uint8(3), false)
	f.Add(row(0, 1, 1<<16, 2, 5, 3), uint8(0), int64(math.MaxInt64-1<<16), false, uint8(2), false)
	f.Add(row(math.MaxUint64, 7, 0, 8), uint8(0), int64(0), true, uint8(1), false)
	f.Add(row(3, 10, 1, 20, 3, 30, 2, 40, 1, 50), uint8(0), int64(-2), false, uint8(2), true)
	f.Fuzz(func(t *testing.T, data []byte, shift uint8, base int64, floats bool, parts uint8, filtered bool) {
		n := len(data) / 16
		if n == 0 {
			return
		}
		keys, vals := make([]int64, n), make([]uint64, n)
		for i := range keys {
			keys[i] = base + int64(binary.LittleEndian.Uint64(data[16*i:])>>(shift%64))
			vals[i] = binary.LittleEndian.Uint64(data[16*i+8:])
		}
		tab := payloadTable(t, intKeys(keys), vals, floats, 1+int(parts%4))
		var build plan.Node = &plan.Scan{Table: tab}
		if filtered {
			build = &plan.Filter{Child: build, Pred: expr.Pred{expr.Compare("b.k", expr.NE, storage.IntValue(keys[0]))}}
		}
		node, probeSchema := payloadNode(tab, build, "b.v")
		inline, oracle, _ := checkPayload(t, tab, node, probeSchema)
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
		want, got := find(oracle), find(inline)
		if len(got) != len(want) {
			t.Fatalf("%d probe keys found in the inline payload, %d in the oracle's", len(got), len(want))
		}
		for p, cs := range want {
			if got[p] != cs {
				t.Fatalf("key %d: (count, sum) bits %x inline, %x by the oracle", probe[p], got[p], cs)
			}
		}
	})
}

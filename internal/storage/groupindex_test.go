package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The group index is held to the grouping it replaced: two rows are one group
// exactly when their tupleKey bytes are equal. tupleKey tags every value with
// its type and length-prefixes strings, so it is the reference for everything
// awkward — NaN payloads, ±0.0, empty and NUL-embedded strings, columns whose
// boundaries a naive concatenation would blur.

// tupleKey encodes row of vecs over cols as bytes that are equal exactly when
// the keys are: a type tag, then a fixed-width value's FixedWord or a
// string's length and bytes. Length-prefixed, not terminated: a terminator
// would let NUL-embedded strings collide across column boundaries, as
// ("a\x00\x03b", "c") and ("a", "b\x00\x03c") would.
func tupleKey(vecs []*Vector, cols []int, row int) string {
	var key []byte
	for _, c := range cols {
		v := vecs[c]
		key = append(key, byte(v.Typ))
		if v.Typ == String {
			key = binary.LittleEndian.AppendUint32(key, uint32(len(v.Str[row])))
			key = append(key, v.Str[row]...)
		} else {
			key = binary.LittleEndian.AppendUint64(key, FixedWord(v, row))
		}
	}
	return string(key)
}

// groupFixture is a set of rows over a random schema of group columns plus
// one payload column, and several renderings of those rows as fold batches.
type groupFixture struct {
	schema Schema // group columns, then "t.y"
	cols   []int  // 0..ngroup-1
	rows   [][]Value
}

var awkwardFloats = []float64{
	0, math.Copysign(0, -1), 1.5, -1.5, math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000002),
}

func awkwardString(r *rand.Rand, vocab int) string {
	switch k := r.Intn(vocab); k {
	case 0:
		return ""
	case 1:
		return "a\x00b"
	case 2:
		return "a"
	case 3:
		return "\x00b"
	default:
		return fmt.Sprintf("s%d", k)
	}
}

// newGroupFixture draws n rows over ngroup group columns. vocab bounds each
// column's distinct values: small keeps the index in its dense array, large
// pushes it through the hashed table and several doublings.
func newGroupFixture(r *rand.Rand, ngroup, n, vocab int) *groupFixture {
	f := &groupFixture{}
	for c := 0; c < ngroup; c++ {
		typ := []Type{String, Int64, Float64, Bool, String}[r.Intn(5)]
		f.schema = append(f.schema, Col{Name: fmt.Sprintf("t.g%d", c), Typ: typ})
		f.cols = append(f.cols, c)
	}
	f.schema = append(f.schema, Col{Name: "t.y", Typ: Float64})
	for i := 0; i < n; i++ {
		row := make([]Value, 0, ngroup+1)
		for c := 0; c < ngroup; c++ {
			switch f.schema[c].Typ {
			case String:
				row = append(row, StringValue(awkwardString(r, vocab)))
			case Int64:
				row = append(row, IntValue(int64(r.Intn(vocab))-int64(vocab/2)))
			case Float64:
				if r.Intn(2) == 0 {
					row = append(row, FloatValue(awkwardFloats[r.Intn(len(awkwardFloats))]))
				} else {
					row = append(row, FloatValue(float64(r.Intn(vocab))))
				}
			case Bool:
				row = append(row, BoolValue(r.Intn(2) == 0))
			}
		}
		f.rows = append(f.rows, append(row, FloatValue(float64(r.Intn(100)))))
	}
	return f
}

// table loads rows [lo, hi) into a storage table, which codes its string
// columns under a dictionary of its own.
func (f *groupFixture) table(lo, hi int) *Table {
	b := NewBuilder("t", f.schema)
	for _, row := range f.rows[lo:hi] {
		b.AddRow(row...)
	}
	return b.Build(1)
}

// uncoded renders rows [lo, hi) as one batch no vector of which is coded.
func (f *groupFixture) uncoded(lo, hi int) *Batch {
	out := NewBatch(f.schema, hi-lo)
	for _, row := range f.rows[lo:hi] {
		for c, v := range row {
			out.Vecs[c].Append(v)
		}
	}
	return out
}

// batches renders the rows as a sequence of fold batches that between them
// mix everything a partial can be handed: scan batches of two tables (two
// dictionaries, the second arriving straight after the first: a dictionary
// switch mid-partial), then uncoded batches, and random selection vectors
// over any of them. rowOf maps each batch's physical rows back to fixture
// rows.
func (f *groupFixture) batches(r *rand.Rand) (out []*Batch, rowOf [][]int) {
	n := len(f.rows)
	cuts := []int{0, n / 3, 2 * n / 3, n}
	for part := 0; part < 3; part++ {
		lo, hi := cuts[part], cuts[part+1]
		var bs []*Batch
		if part == 2 {
			for at := lo; at < hi; at += 500 {
				bs = append(bs, f.uncoded(at, min(at+500, hi)))
			}
		} else {
			bs = f.table(lo, hi).Scan(0, 700)
		}
		at := lo
		for _, b := range bs {
			ids := make([]int, b.Len())
			for i := range ids {
				ids[i] = at + i
			}
			at += b.Len()
			if r.Intn(2) == 0 {
				for i := 0; i < b.Len(); i++ {
					if r.Intn(3) != 0 {
						b.Sel = append(b.Sel, int32(i))
					}
				}
				if b.Sel == nil {
					b.Sel = []int32{}
				}
			}
			out, rowOf = append(out, b), append(rowOf, ids)
		}
	}
	return out, rowOf
}

func (f *groupFixture) refKey(row int) string {
	b := NewBatch(f.schema, 1)
	for c, v := range f.rows[row] {
		b.Vecs[c].Append(v)
	}
	return tupleKey(b.Vecs, f.cols, 0)
}

// sameValue is bit equality: the identity tupleKey and FixedWord share.
func sameValue(a, b Value) bool {
	if a.Typ == Float64 && b.Typ == Float64 {
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	}
	return a.Equal(b)
}

// groupOracle checks an index against the reference as rows resolve: ids
// and reference keys must stay in bijection, ids must be dense in first-seen
// order, and keyRows must give back the rows' own values.
type groupOracle struct {
	t     *testing.T
	f     *groupFixture
	idOf  map[string]int32
	keyOf []string
}

func (o *groupOracle) see(where string, row int, id int32) {
	o.t.Helper()
	key := o.f.refKey(row)
	if want, ok := o.idOf[key]; ok {
		if id != want {
			o.t.Fatalf("%s: row %d resolves to group %d, its key's earlier rows to %d", where, row, id, want)
		}
		return
	}
	if int(id) != len(o.keyOf) {
		o.t.Fatalf("%s: row %d opens a group and gets id %d, want the next id %d", where, row, id, len(o.keyOf))
	}
	o.idOf[key] = id
	o.keyOf = append(o.keyOf, key)
}

func (o *groupOracle) checkKeys(where string, g *GroupIndex, sample map[string]int) {
	o.t.Helper()
	if g.n != len(o.keyOf) {
		o.t.Fatalf("%s: index holds %d groups, reference %d", where, g.n, len(o.keyOf))
	}
	for c, col := range g.KeyColumns() {
		if col.Len() != g.n {
			o.t.Fatalf("%s: key column %d holds %d values, the index %d groups", where, c, col.Len(), g.n)
		}
		for id := range g.n {
			row := o.f.rows[sample[o.keyOf[id]]]
			if v := col.Get(id); !sameValue(v, row[c]) {
				o.t.Fatalf("%s: group %d column %d reads back %v, its rows hold %v", where, id, c, v, row[c])
			}
		}
	}
}

func TestGroupIndexMatchesByteKeyGrouping(t *testing.T) {
	left := map[string]int{}
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		ngroup := []int{0, 1, 2, 4}[seed%4]
		vocab := []int{3, 12, 400, 3000}[(seed/4)%4]
		f := newGroupFixture(r, ngroup, 3000, vocab)
		batches, rowOf := f.batches(r)
		sample := map[string]int{}
		for i := range f.rows {
			sample[f.refKey(i)] = i
		}

		// One partial sees everything.
		g := NewGroupIndex(f.cols, f.schema)
		o := &groupOracle{t: t, f: f, idOf: map[string]int32{}}
		startedDense := g.dense != nil
		var sc ResolveScratch // one for every batch, as a worker's is
		for bi, b := range batches {
			ids := g.Resolve(b, &sc)
			if len(ids) != b.Rows() {
				t.Fatalf("seed %d batch %d: %d ids for %d live rows", seed, bi, len(ids), b.Rows())
			}
			for j, id := range ids {
				i := j
				if b.Sel != nil {
					i = int(b.Sel[j])
				}
				o.see(fmt.Sprintf("seed %d batch %d", seed, bi), rowOf[bi][i], id)
			}
		}
		o.checkKeys(fmt.Sprintf("seed %d", seed), &g, sample)
		switch {
		case startedDense && g.dense == nil:
			left["dense"]++
		case startedDense:
			left["stayed dense"]++
		}
		if len(g.slots) > 8*groupSlotsMin {
			left["grown"]++
		}

		// The same batches dealt to five partials, whose local codes and ids
		// all differ, merged into one in order.
		parts := make([]GroupIndex, 5)
		for p := range parts {
			parts[p] = NewGroupIndex(f.cols, f.schema)
		}
		local := make([][]string, len(parts)) // per partial: id → reference key
		for bi, b := range batches {
			p := bi % len(parts)
			for j, id := range parts[p].Resolve(b, &sc) {
				i := j
				if b.Sel != nil {
					i = int(b.Sel[j])
				}
				for int(id) >= len(local[p]) {
					local[p] = append(local[p], "")
				}
				local[p][id] = f.refKey(rowOf[bi][i])
			}
		}
		global := NewGroupIndex(f.cols, f.schema)
		mo := &groupOracle{t: t, f: f, idOf: map[string]int32{}}
		for p := range parts {
			ids := global.Absorb(&parts[p])
			if len(ids) != parts[p].n {
				t.Fatalf("seed %d: absorb returned %d ids for %d groups", seed, len(ids), parts[p].n)
			}
			for oid, id := range ids {
				mo.see(fmt.Sprintf("seed %d merge of partial %d", seed, p), sample[local[p][oid]], id)
			}
		}
		mo.checkKeys(fmt.Sprintf("seed %d merged", seed), &global, sample)
		if global.n != g.n {
			t.Fatalf("seed %d: merged partials hold %d groups, one partial %d", seed, global.n, g.n)
		}
	}
	for _, path := range []string{"dense", "stayed dense", "grown"} {
		if left[path] == 0 {
			t.Fatalf("no fixture took the %q path: %v", path, left)
		}
	}
}

// TestGroupIndexResetNumbersLikeFresh: a reset index is a fresh one. Feed
// batches A, reset, feed batches B: every B row gets the id a fresh index
// fed B alone gives it, and Len and KeyColumns agree — whatever A
// left behind (string codes and dictionary translations, a grown hashed
// table, a dense array it left). A second reset and A again must match a
// fresh index fed A.
func TestGroupIndexResetNumbersLikeFresh(t *testing.T) {
	str := func(vs ...string) []Value {
		out := make([]Value, len(vs))
		for i, v := range vs {
			out[i] = StringValue(v)
		}
		return out
	}
	nums := func(n, mul, off int) []Value {
		out := make([]Value, n)
		for i := range out {
			out[i] = IntValue(int64((i*mul + off) % 997))
		}
		return out
	}
	floats := func(fs ...float64) []Value {
		out := make([]Value, len(fs))
		for i, f := range fs {
			out[i] = FloatValue(f)
		}
		return out
	}
	distinct := func(n int, prefix string) []Value {
		out := make([]Value, n)
		for i := range out {
			out[i] = StringValue(fmt.Sprintf("%s%d", prefix, (i*7)%n))
		}
		return out
	}
	// rows zips columns into rows.
	rows := func(cols ...[]Value) [][]Value {
		out := make([][]Value, len(cols[0]))
		for i := range out {
			for _, c := range cols {
				out[i] = append(out[i], c[i])
			}
		}
		return out
	}
	// coded loads parts into one table — one dictionary per string column —
	// and scans part i as batch i.
	coded := func(schema Schema, parts ...[][]Value) []*Batch {
		b := NewBuilder("t", schema)
		for _, p := range parts {
			for _, row := range p {
				b.AddRow(row...)
			}
		}
		tbl := b.Build(1)
		var out []*Batch
		at := 0
		for _, p := range parts {
			c := tbl.NewCursor(len(p), nil, nil, nil)
			c.Seek(at, at+len(p), nil)
			for b := new(Batch); c.Next(b); b = new(Batch) {
				out = append(out, b)
			}
			at += len(p)
		}
		return out
	}
	uncoded := func(schema Schema, rs [][]Value) *Batch {
		out := NewBatch(schema, len(rs))
		for _, row := range rs {
			for c, v := range row {
				out.Vecs[c].Append(v)
			}
		}
		return out
	}
	everyOther := func(b *Batch) *Batch {
		for i := 1; i < b.Len(); i += 2 {
			b.Sel = append(b.Sel, int32(i))
		}
		return b
	}

	s1 := Schema{{Name: "t.s", Typ: String}}
	i1 := Schema{{Name: "t.i", Typ: Int64}}
	f1 := Schema{{Name: "t.f", Typ: Float64}}
	sf := Schema{{Name: "t.s", Typ: String}, {Name: "t.f", Typ: Float64}}
	nan2 := math.Float64frombits(0x7ff8000000000001)
	negZero := math.Copysign(0, -1)

	denseA, denseB := rows(str("c", "a", "b", "c", "e")), rows(str("e", "d", "a", "a", "c", "f"))
	d1 := coded(s1, denseA, denseB)
	x1, x2 := rows(str("p", "q", "r", "p")), rows(str("r", "s", "q"))
	y1, y2 := rows(str("q", "z", "p")), rows(str("z", "t", "r", "q"))
	two1 := coded(s1, x1, x2)
	two2 := coded(s1, y1, y2)
	wideA := rows(distinct(300, "w"))
	wideB := rows(str("w3", "v", "w3", "w10"))
	wide := coded(s1, wideA, wideB)
	sfA := rows(str("a", "b", "a", "b"), floats(1, negZero, 0, math.NaN()))
	sfB := rows(str("b", "a", "b", "c"), floats(math.NaN(), 0, nan2, negZero))
	sfc := coded(sf, sfA, sfB)

	for _, tc := range []struct {
		name   string
		schema Schema
		a, b   []*Batch
		// whether the index is dense after A, and after B alone
		denseA, denseB bool
	}{
		{"dense string column, one dictionary", s1, d1[:1], []*Batch{everyOther(d1[1])}, true, true},
		{"two dictionaries and an uncoded vector", s1,
			[]*Batch{two1[0], two2[0], uncoded(s1, rows(str("u", "p", "z")))},
			[]*Batch{two2[1], uncoded(s1, rows(str("s", "u", "t"))), two1[1]}, true, true},
		{"hashed int keys", i1,
			[]*Batch{uncoded(i1, rows(nums(500, 13, 5)))},
			[]*Batch{everyOther(uncoded(i1, rows(nums(200, 7, 900))))}, false, false},
		{"hashed float keys, -0.0 and NaN", f1,
			[]*Batch{uncoded(f1, rows(floats(2.5, math.NaN(), 0, negZero, 2.5, math.Inf(1))))},
			[]*Batch{uncoded(f1, rows(floats(negZero, nan2, 7, 0, math.NaN(), nan2)))}, false, false},
		{"two columns", sf, sfc[:1], sfc[1:], false, false},
		{"reset after leaving the dense array", s1, wide[:1], wide[1:], false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cols := make([]int, len(tc.schema))
			for c := range cols {
				cols[c] = c
			}
			feed := func(g *GroupIndex, bs []*Batch) [][]int32 {
				var all [][]int32
				var sc ResolveScratch
				for _, b := range bs {
					all = append(all, append([]int32(nil), g.Resolve(b, &sc)...))
				}
				return all
			}
			reused := NewGroupIndex(cols, tc.schema)
			feed(&reused, tc.a)
			if (reused.dense != nil) != tc.denseA {
				t.Fatalf("after A the index is dense=%t, the case wants %t", reused.dense != nil, tc.denseA)
			}
			for round, bs := range [][]*Batch{tc.b, tc.a} {
				reused.Reset()
				fresh := NewGroupIndex(cols, tc.schema)
				got, want := feed(&reused, bs), feed(&fresh, bs)
				where := fmt.Sprintf("round %d", round)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: reset index numbers %v, a fresh one %v", where, got, want)
				}
				if reused.Len() != fresh.Len() {
					t.Fatalf("%s: Len %d, fresh %d", where, reused.Len(), fresh.Len())
				}
				if (reused.dense != nil) != (fresh.dense != nil) {
					t.Fatalf("%s: reset index dense=%t, fresh %t", where, reused.dense != nil, fresh.dense != nil)
				}
				if round == 0 && (fresh.dense != nil) != tc.denseB {
					t.Fatalf("after B the index is dense=%t, the case wants %t", fresh.dense != nil, tc.denseB)
				}
				gc, wc := reused.KeyColumns(), fresh.KeyColumns()
				for c := range wc {
					for id := 0; id < wc[c].Len(); id++ {
						if gv, wv := gc[c].Get(id), wc[c].Get(id); gc[c].Len() != wc[c].Len() || !sameValue(gv, wv) {
							t.Fatalf("%s: KeyColumns[%d][%d] = %v, fresh %v", where, c, id, gv, wv)
						}
					}
				}
			}
		})
	}
}

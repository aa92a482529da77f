package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/workload"
)

// checkJoinIndex builds the index of the one-column key kv and probes it with every
// word kv holds, each one's neighbours and complement, the extremes and the
// caller's extras, shuffled (checkProbe): a present word must pair with
// exactly its rows in a naive word → ascending-rows map, an absent one with
// none. Then it probes the same words under the survivor mask keep draws
// (checkMasked). Which layout each shape takes is storage's
// TestKeyIndexLayout.
func checkJoinIndex(t testing.TB, kv *storage.Vector, absent []uint64, keep uint64, rng *rand.Rand) {
	t.Helper()
	ref := make(map[uint64][]int32)
	words := append([]uint64{0, 1, 1 << 63, 1<<63 - 1, math.MaxUint64}, absent...)
	for i := 0; i < kv.Len(); i++ {
		w := storage.FixedWord(kv, i)
		ref[w] = append(ref[w], int32(i))
		words = append(words, w, w-1, w+1, ^w)
	}
	rng.Shuffle(len(words), func(i, j int) { words[i], words[j] = words[j], words[i] })
	probe := &storage.Batch{Vecs: []*storage.Vector{wordVec(kv.Typ, words)}}
	checkProbe(t, keyIndex(t, []*storage.Vector{kv}, []int{0}), nil, probe, []int{0}, func(row int) []int32 {
		return ref[storage.FixedWord(probe.Vecs[0], row)]
	}, rng)
	checkMasked(t, []*storage.Vector{kv}, []int{0}, keep, probe, rng)
}

// checkMasked is the survivor mask's property: over the index of every row
// of vecs (by their key over cols), a probe under a mask must pair exactly
// as an unmasked probe over an index built from the survivors alone, its
// rows mapped back to theirs. Row i survives when bit i mod 64 of keep is
// set. The mask is marked as a build side drains it — short runs of rows,
// dense when every row of a run survives and under a selection otherwise,
// a run with no survivor never seen — and the masked probe runs under
// checkProbe's random selections and rooms.
func checkMasked(t testing.TB, vecs []*storage.Vector, cols []int, keep uint64, probe *storage.Batch, rng *rand.Rand) {
	t.Helper()
	n := vecs[cols[0]].Len()
	x := keyIndex(t, vecs, cols)
	mask := x.NewMask()
	var surv []int32
	for lo := 0; lo < n; {
		hi := min(n, lo+1+rng.Intn(8))
		var sel []int32
		for i := lo; i < hi; i++ {
			if keep>>(i%64)&1 == 1 {
				sel = append(sel, int32(i-lo))
				surv = append(surv, int32(i))
			}
		}
		switch len(sel) {
		case 0:
		case hi - lo:
			x.Mark(mask, lo, nil, hi-lo)
		default:
			x.Mark(mask, lo, sel, hi-lo)
		}
		lo = hi
	}
	sub := make([]*storage.Vector, len(vecs))
	for c, v := range vecs {
		sub[c] = storage.NewVector(v.Typ, len(surv))
		sub[c].AppendGather(v, surv)
	}
	probe.Sel = nil
	cx := keyIndex(t, sub, cols)
	want := make(map[int][]int32)
	var pos, rows []int32
	for at := (storage.ProbePos{}); ; {
		pos, rows, at = cx.Probe(probe, cols, nil, at, joinBatchRows, pos[:0], rows[:0])
		for k, p := range pos {
			want[int(p)] = append(want[int(p)], surv[rows[k]])
		}
		if len(pos) < joinBatchRows {
			break
		}
	}
	checkProbe(t, x, mask, probe, cols, func(row int) []int32 { return want[row] }, rng)
}

// keyIndex returns the index a fresh one-partition table over vecs, column
// i holding vecs[i], builds by its key over cols (Table.KeyIndex).
func keyIndex(t testing.TB, vecs []*storage.Vector, cols []int) *storage.KeyIndex {
	t.Helper()
	return keyTable(t, vecs).KeyIndex(cols)
}

// keyTable is a one-partition table over vecs: column i holds vecs[i].
func keyTable(t testing.TB, vecs []*storage.Vector) *storage.Table {
	t.Helper()
	schema := make(storage.Schema, len(vecs))
	for i, v := range vecs {
		schema[i] = storage.Col{Name: fmt.Sprintf("k.c%d", i), Typ: v.Typ}
	}
	tbl, err := storage.NewTable("k", schema, vecs, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// wordVec returns a column of typ holding words as its FixedWords, leaving
// out those a bool column cannot hold.
func wordVec(typ storage.Type, words []uint64) *storage.Vector {
	v := storage.NewVector(typ, len(words))
	for _, w := range words {
		switch typ {
		case storage.Int64:
			v.I64 = append(v.I64, int64(w))
		case storage.Float64:
			v.F64 = append(v.F64, math.Float64frombits(w))
		default:
			if w <= 1 {
				v.B = append(v.B, w == 1)
			}
		}
	}
	return v
}

// checkProbe pairs b's rows over cols through x under mask as the prober
// does — under a random selection, or none, one call of a random room at a
// time, each call resuming where the last stopped until one returns short of
// its room — and holds the pairs to want, a row's expected matches: every
// live row's, in live-row order, ascending within a row. Rooms of one to
// three resume runs mid-fanout, at a run's end and at the batch's end.
func checkProbe(t testing.TB, x *storage.KeyIndex, mask storage.KeyMask, b *storage.Batch, cols []int, want func(row int) []int32, rng *rand.Rand) {
	t.Helper()
	b.Sel = nil
	if rng.Intn(2) == 0 {
		b.Sel = make([]int32, 0, b.Len())
		for i := 0; i < b.Len(); i++ {
			if rng.Intn(3) > 0 {
				b.Sel = append(b.Sel, int32(i))
			}
		}
	}
	live := b.Rows()
	var exp, got [][2]int32
	for j := 0; j < live; j++ {
		row := j
		if b.Sel != nil {
			row = int(b.Sel[j])
		}
		for _, m := range want(row) {
			exp = append(exp, [2]int32{int32(j), m})
		}
	}
	var at storage.ProbePos
	var pos, rows []int32
	for {
		room := 1 + rng.Intn([...]int{3, joinBatchRows}[rng.Intn(2)])
		var next storage.ProbePos
		pos, rows, next = x.Probe(b, cols, mask, at, room, pos[:0], rows[:0])
		if len(pos) > room || len(rows) != len(pos) {
			t.Fatalf("probe from %+v with room %d: %d positions, %d rows", at, room, len(pos), len(rows))
		}
		for k := range pos {
			got = append(got, [2]int32{pos[k], rows[k]})
		}
		if len(got) > len(exp) {
			t.Fatalf("%d pairs, want %d", len(got), len(exp))
		}
		if len(pos) < room {
			if next.Row != live {
				t.Fatalf("probe from %+v stopped short of room %d at %+v, not at the batch's end %d", at, room, next, live)
			}
			break
		}
		at = next
	}
	if !slices.Equal(got, exp) {
		for k := range got {
			if got[k] != exp[k] {
				t.Fatalf("pair %d is (live row, match) %v, want %v", k, got[k], exp[k])
			}
		}
		t.Fatalf("%d pairs, want %d", len(got), len(exp))
	}
}

func int64Vec(keys []int64) *storage.Vector {
	v := storage.NewVector(storage.Int64, len(keys))
	v.I64 = append(v.I64, keys...)
	return v
}

// drawKeep draws a survivor pattern for checkMasked: every row, none, about
// half or about a quarter.
func drawKeep(rng *rand.Rand) uint64 {
	return [...]uint64{math.MaxUint64, 0, rng.Uint64(), rng.Uint64() & rng.Uint64()}[rng.Intn(4)]
}

// TestJoinIndexMatchesMap is the index's property test: over key vectors of
// every shape the planner can hand the build — and a few it cannot — every
// layout and probe loop of the index pairs rows exactly like a Go
// map, and under a survivor mask exactly like an index of the survivors.
func TestJoinIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	perm := func(n int, key func(i int) int64) []int64 {
		keys := make([]int64, n)
		for i, p := range rng.Perm(n) {
			keys[i] = key(p)
		}
		return keys
	}

	t.Run("dense surrogate keys", func(t *testing.T) {
		checkJoinIndex(t, int64Vec(perm(5000, func(i int) int64 { return int64(i) + 1 })), nil, drawKeep(rng), rng)
	})
	t.Run("dense with duplicates and gaps", func(t *testing.T) {
		keys := make([]int64, 6000)
		for i := range keys {
			keys[i] = 100 + 2*int64(rng.Intn(900))
		}
		checkJoinIndex(t, int64Vec(keys), nil, drawKeep(rng), rng)
	})
	t.Run("dense straddling zero", func(t *testing.T) {
		checkJoinIndex(t, int64Vec(perm(4001, func(i int) int64 { return int64(i) - 2000 })), nil, drawKeep(rng), rng)
	})
	t.Run("sparse", func(t *testing.T) {
		keys := make([]int64, 5000)
		for i := range keys {
			keys[i] = rng.Int63() - rng.Int63()
		}
		copy(keys[4000:], keys[:1000]) // duplicates far apart in row order
		checkJoinIndex(t, int64Vec(keys), nil, drawKeep(rng), rng)
	})
	t.Run("int64 extremes together", func(t *testing.T) {
		// Span 2^64-1: the span test must not overflow into a dense layout.
		keys := []int64{math.MaxInt64, math.MinInt64, 0, -1, 1, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
		checkJoinIndex(t, int64Vec(keys), nil, drawKeep(rng), rng)
	})
	t.Run("selective subset", func(t *testing.T) {
		// 133 of 20 000 surrogate keys survive a build-side filter: far more
		// span than rows, but under the floor.
		keys := perm(20000, func(i int) int64 { return int64(i) + 1 })[:133]
		checkJoinIndex(t, int64Vec(keys), nil, drawKeep(rng), rng)
		// The same survivors of a 20 M-key dimension.
		for i := range keys {
			keys[i] *= 1000
		}
		checkJoinIndex(t, int64Vec(keys), nil, drawKeep(rng), rng)
	})
	t.Run("single row", func(t *testing.T) {
		checkJoinIndex(t, int64Vec([]int64{42}), nil, drawKeep(rng), rng)
	})
	t.Run("float64 bit patterns", func(t *testing.T) {
		negZero := math.Copysign(0, -1)
		nan2 := math.Float64frombits(0x7ff8000000000002) // a second NaN payload
		v := storage.NewVector(storage.Float64, 0)
		v.F64 = append(v.F64, 0, negZero, math.NaN(), nan2, math.Inf(1), math.Inf(-1), 1.5, -1.5, 0, negZero, math.NaN())
		for i := 0; i < 500; i++ {
			v.F64 = append(v.F64, rng.NormFloat64())
		}
		// 0 and -0, and the two NaN payloads, are distinct keys, as in groupKey.
		checkJoinIndex(t, v, []uint64{math.Float64bits(2.5)}, drawKeep(rng), rng)
	})
	t.Run("bool", func(t *testing.T) {
		v := storage.NewVector(storage.Bool, 0)
		for i := 0; i < 300; i++ {
			v.B = append(v.B, rng.Intn(3) == 0)
		}
		checkJoinIndex(t, v, nil, drawKeep(rng), rng)
		allTrue := storage.NewVector(storage.Bool, 0)
		allTrue.B = append(allTrue.B, true, true, true)
		checkJoinIndex(t, allTrue, nil, drawKeep(rng), rng)
	})
	t.Run("string and tuple ids", func(t *testing.T) {
		// Two of three rows build; keys repeat, so runs have fanout.
		s, k := storage.NewVector(storage.String, 0), storage.NewVector(storage.Int64, 0)
		for i := 0; i < 1500; i++ {
			s.Str = append(s.Str, string([]byte{'a' + byte(rng.Intn(5)), byte(rng.Intn(2))}))
			k.I64 = append(k.I64, int64(rng.Intn(7)))
		}
		b := &storage.Batch{Vecs: []*storage.Vector{s, k}}
		checkJoinTuples(t, b, []int{0}, 1000, drawKeep(rng), rng)
		checkJoinTuples(t, b, []int{0, 1}, 1000, drawKeep(rng), rng)
	})
}

// tupleKey encodes row of vecs over cols as bytes that are equal exactly when
// the keys are: a type tag, then a fixed-width value's FixedWord or a
// string's length and bytes. Length-prefixed, not terminated: a terminator
// would let NUL-embedded strings collide across column boundaries, as
// ("a\x00\x03b", "c") and ("a", "b\x00\x03c") would.
func tupleKey(vecs []*storage.Vector, cols []int, row int) string {
	var key []byte
	for _, c := range cols {
		v := vecs[c]
		key = append(key, byte(v.Typ))
		if v.Typ == storage.String {
			key = binary.LittleEndian.AppendUint32(key, uint32(len(v.Str[row])))
			key = append(key, v.Str[row]...)
		} else {
			key = binary.LittleEndian.AppendUint64(key, storage.FixedWord(v, row))
		}
	}
	return string(key)
}

// checkJoinTuples builds the table of a key that is not one fixed-width
// column — the cols of the first nBuild rows of b — and probes it with every
// row of b (checkProbe): each row's matches must be exactly the build rows
// whose tupleKey bytes equal its own, ascending, and a row whose bytes no
// build row carries must match nothing. Then it probes b under the survivor
// mask keep draws over the build rows (checkMasked).
func checkJoinTuples(t testing.TB, b *storage.Batch, cols []int, nBuild int, keep uint64, rng *rand.Rand) {
	t.Helper()
	if nBuild == 0 {
		return // an empty table is never probed
	}
	build := &storage.Batch{}
	for _, v := range b.Vecs {
		build.Vecs = append(build.Vecs, v.Slice(0, nBuild))
	}
	ref := make(map[string][]int32)
	for i := 0; i < nBuild; i++ {
		k := tupleKey(build.Vecs, cols, i)
		ref[k] = append(ref[k], int32(i))
	}
	x := keyIndex(t, build.Vecs, cols)
	if n := x.Keys(); n != len(ref) {
		t.Fatalf("%d build keys indexed as %d", len(ref), n)
	}
	checkProbe(t, x, nil, b, cols, func(row int) []int32 {
		return ref[tupleKey(b.Vecs, cols, row)]
	}, rng)
	checkMasked(t, build.Vecs, cols, keep, b, rng)
}

// FuzzJoinIndex drives the same checks from arbitrary bytes. Each 8-byte
// group is one row. Without tuple it is one key word, reinterpreted per the
// type selector, so the fuzzer reaches span boundaries, probe-chain
// collisions and float bit patterns on its own. With tuple the row is a
// (string, typed) pair — a string of up to two of its bytes, NULs included,
// beside the word reinterpreted per the selector, or the string alone for
// selector 3 mod 4 — built from the first half of the rows and probed with
// all of them. Every check runs twice: over the index of every build row,
// and under a survivor mask in which build row i survives when bit i mod 64
// of keep is set, held to an index of the survivors alone (checkMasked) —
// unique and duplicate keys alike, whichever the data holds. draw seeds the
// probe's selection, its rooms and the runs the mask is marked in.
func FuzzJoinIndex(f *testing.F) {
	word := func(ws ...uint64) []byte {
		var b []byte
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return b
	}
	f.Add(word(1, 2, 3, 2, 1), uint8(0), false, int64(0), uint64(math.MaxUint64))
	f.Add(word(1<<63, 1<<63-1, 0, math.MaxUint64), uint8(0), false, int64(1), uint64(0b10110))
	f.Add(word(math.Float64bits(0), math.Float64bits(math.Copysign(0, -1)), math.Float64bits(math.NaN())), uint8(1), false, int64(2), uint64(0b011))
	f.Add(word(0, 1, 1, 0), uint8(2), false, int64(3), uint64(0b1001))
	f.Add(word(7, 7+1<<16-1, 7+1<<16), uint8(0), false, int64(4), uint64(0b101)) // either side of the dense span floor
	// Unique dense keys (rowOf): probes resume on a row boundary under rooms
	// smaller than the live rows, with every row, a mask by key and a
	// selection drawn.
	f.Add(word(5, 3, 9, 1, 7, 2, 8, 4, 6, 10, 12, 11), uint8(0), false, int64(8), uint64(math.MaxUint64))
	f.Add(word(5, 3, 9, 1, 7, 2, 8, 4, 6, 10, 12, 11), uint8(0), false, int64(9), uint64(0b101101110010))
	f.Add(word(math.MaxUint64-2, 1, math.MaxUint64, 0, 2, math.MaxUint64-1), uint8(0), false, int64(10), uint64(0b101101)) // straddling zero
	f.Add(word(0x0100, 0x0201, 0x0100, 0x0201, 0x0302, 0x0100), uint8(0), true, int64(5), uint64(0b011010))
	f.Add(word(0x0002, 0x0202, 0x000002, 0x0001), uint8(3), true, int64(6), uint64(0)) // "", NUL-embedded, same bytes
	f.Add(word(math.Float64bits(math.NaN()), 0x7ff8000000000002, math.Float64bits(math.Copysign(0, -1)), 0), uint8(1), true, int64(7), uint64(0b1101))
	f.Fuzz(func(t *testing.T, data []byte, typ uint8, tuple bool, draw int64, keep uint64) {
		n := len(data) / 8
		if n == 0 {
			return
		}
		rng := rand.New(rand.NewSource(draw))
		ts := [...]storage.Type{storage.Int64, storage.Float64, storage.Bool}
		v := storage.NewVector(ts[int(typ)%3], n)
		s := storage.NewVector(storage.String, n)
		for i := 0; i < n; i++ {
			w := binary.LittleEndian.Uint64(data[8*i:])
			switch v.Typ {
			case storage.Int64:
				v.I64 = append(v.I64, int64(w))
			case storage.Float64:
				v.F64 = append(v.F64, math.Float64frombits(w))
			default:
				v.B = append(v.B, w&1 == 1)
			}
			s.Str = append(s.Str, string(data[8*i+1:8*i+1+int(data[8*i]%3)]))
		}
		if !tuple {
			checkJoinIndex(t, v, nil, keep, rng)
			return
		}
		cols := []int{0, 1}
		if typ%4 == 3 {
			cols = cols[:1]
		}
		checkJoinTuples(t, &storage.Batch{Vecs: []*storage.Vector{s, v}}, cols, n/2, keep, rng)
	})
}

type joinIndexShape struct {
	name string
	keys []*storage.Vector // the build key columns
	// probeMax, when set, draws one-column Int64 probe keys from
	// 1..probeMax — the fact side's whole key domain — instead of from the
	// build rows.
	probeMax int
	// survivors, when set, are the keys a build side keeps of keys: the
	// probe runs under their mask over the index of every key.
	survivors []int64
}

// cols returns the positions of the shape's key columns.
func (sh joinIndexShape) cols() []int {
	cols := make([]int, len(sh.keys))
	for c := range cols {
		cols[c] = c
	}
	return cols
}

// joinIndexShapes are the build sides the benchmark workloads produce — a
// whole dimension table keyed 1..n, and a selective build-side filter's
// survivors, as a compact index of their own (subset) and as a mask over
// the dimension's index (mask), all dense — plus the shapes they do not:
// the numbered ones, as many Int64 keys with no locality (sparse), one coded
// string column (str) and an (Int64, String) pair (int_str), every key
// unique, and a dense key on four rows each (runs), laid out in dense runs.
func joinIndexShapes() []joinIndexShape {
	rng := rand.New(rand.NewSource(29))
	dense := make([]int64, 150_000)
	sparse := make([]int64, 150_000)
	for i := range dense {
		dense[i] = int64(i) + 1
		sparse[i] = rng.Int63()
	}
	subset := make([]int64, 133)
	for i, p := range rng.Perm(20_000)[:133] {
		subset[i] = int64(p) + 1
	}
	dim := make([]int64, 20_000)
	for i, p := range rng.Perm(20_000) {
		dim[i] = int64(p) + 1
	}
	str := storage.NewBuilder("s", storage.Schema{{Name: "s.k", Typ: storage.String}})
	for _, p := range rng.Perm(storage.MaxDictSize) {
		str.Str(0, fmt.Sprintf("brand#%04d", p))
	}
	pair := storage.NewBuilder("p", storage.Schema{{Name: "p.i", Typ: storage.Int64}, {Name: "p.s", Typ: storage.String}})
	for _, p := range rng.Perm(150_000) {
		pair.Int(0, int64(p/50)+1)
		pair.Str(1, fmt.Sprintf("mode#%02d", p%50))
	}
	strs, pairs := str.Build(1), pair.Build(1)
	runs := make([]int64, 150_000)
	for i, p := range rng.Perm(len(runs)) {
		runs[i] = int64(p/4) + 1
	}
	return []joinIndexShape{
		{name: "dense150k", keys: []*storage.Vector{int64Vec(dense)}},
		{name: "sparse150k", keys: []*storage.Vector{int64Vec(sparse)}},
		{name: "subset133of20k", keys: []*storage.Vector{int64Vec(subset)}, probeMax: 20_000},
		{name: "mask133of20k", keys: []*storage.Vector{int64Vec(dim)}, probeMax: 20_000, survivors: subset},
		{name: "str", keys: []*storage.Vector{strs.Column(0)}},
		{name: "int_str", keys: []*storage.Vector{pairs.Column(0), pairs.Column(1)}},
		{name: "runs150k", keys: []*storage.Vector{int64Vec(runs)}},
	}
}

// rows returns the number of build rows.
func (sh joinIndexShape) rows() int { return sh.keys[0].Len() }

// probes draws 64 probe batches of BatchSize rows for the shape — every row
// live, and the same batches with a random half selected — from the build
// rows, or from 1..probeMax.
func (sh joinIndexShape) probes(rng *rand.Rand) (all, sel []*storage.Batch) {
	all, sel = make([]*storage.Batch, 64), make([]*storage.Batch, 64)
	for n := range all {
		keys, rows := make([]int64, storage.BatchSize), make([]int32, storage.BatchSize)
		for i := range rows {
			if sh.probeMax > 0 {
				keys[i] = int64(rng.Intn(sh.probeMax) + 1)
			} else {
				rows[i] = int32(rng.Intn(sh.rows()))
			}
		}
		vecs := []*storage.Vector{int64Vec(keys)}
		if sh.probeMax == 0 {
			vecs = vecs[:0]
			for _, kv := range sh.keys {
				v := storage.NewVector(kv.Typ, len(rows))
				v.AppendGather(kv, rows)
				vecs = append(vecs, v)
			}
		}
		all[n] = &storage.Batch{Vecs: vecs}
		sel[n] = &storage.Batch{Vecs: vecs}
		for i := range rows {
			if rng.Intn(2) == 0 {
				sel[n].Sel = append(sel[n].Sel, int32(i))
			}
		}
	}
	return all, sel
}

// mask is the shape's survivor mask over x, its index (nil: no survivors
// named, every row).
func (sh joinIndexShape) mask(x *storage.KeyIndex) storage.KeyMask {
	if sh.survivors == nil {
		return nil
	}
	keep := make(map[int64]bool)
	for _, k := range sh.survivors {
		keep[k] = true
	}
	var sel []int32
	for i, k := range sh.keys[0].I64 {
		if keep[k] {
			sel = append(sel, int32(i))
		}
	}
	m := x.NewMask()
	x.Mark(m, 0, sel, sh.rows())
	return m
}

// BenchmarkJoinBuild times a join's build, reporting ns per row: the key
// index alone over each joinIndexShapes shape (the span pass, or the
// version's numbering, GroupIDs, then the CSR passes), the one a table
// version builds once per key column set (orders/index, Table.KeyIndex over
// orders' key) — each on a fresh table version made off the clock — and a
// whole build side as
// runBuild runs it on a miss — σ(orders) scanned, filtered and drained into
// its survivor mask over that index (orders/mask, per source row).
func BenchmarkJoinBuild(b *testing.B) {
	for _, sh := range joinIndexShapes() {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tbl := keyTable(b, sh.keys)
				b.StartTimer()
				tbl.KeyIndex(sh.cols())
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sh.rows()), "ns/row")
		})
	}
	orders, err := workload.TPCH(0.05, 3).Catalog.Table("orders")
	if err != nil {
		b.Fatal(err)
	}
	join := &plan.Join{
		Right: &plan.Filter{
			Child: &plan.Scan{Table: orders},
			Pred:  expr.Pred{expr.Compare("orders.o_orderdate", expr.LT, storage.IntValue(1800))},
		},
		LeftKeys: []string{"lineitem.l_orderkey"}, RightKeys: []string{"orders.o_orderkey"},
	}
	key := []int{orders.Schema().Index("orders.o_orderkey")}
	b.Run("orders/index", func(b *testing.B) {
		keys := []*storage.Vector{orders.Column(key[0])}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			tbl := keyTable(b, keys)
			b.StartTimer()
			tbl.KeyIndex([]int{0})
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*orders.NumRows()), "ns/row")
	})
	b.Run("orders/mask", func(b *testing.B) {
		ctx := NewContext(0.95)
		probe := storage.Schema{{Name: "lineitem.l_orderkey", Typ: storage.Int64}}
		orders.KeyIndex(key) // built once per version, before the clock
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op, err := compileBuild(join.Right, "a benchmark", ctx)
			if err != nil {
				b.Fatal(err)
			}
			spec, err := resolveJoinSpec(probe, op.Schema(), join.LeftKeys, join.RightKeys, []string{"orders.o_orderpriority"})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := runBuild(join, op, spec, ctx); err != nil {
				b.Fatal(err)
			}
			op.Close()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*orders.NumRows()), "ns/row")
	})
}

var benchJoinSink int

// BenchmarkJoinProbe times KeyIndex.Probe as the prober calls it — room
// for one output chunk per call — over 64 probe batches of 1 024 rows,
// every row live ("all") or a random half under a selection ("sel"),
// reporting ns per live probe row; a probe allocates nothing. Probe keys are
// all present for the whole-table shapes, drawn from their build rows (four
// pairs a row under runs150k); the subset build misses 99 % of the time, as
// its query does, whether it is its own index (subset133of20k) or a mask
// over the dimension's (mask133of20k).
func BenchmarkJoinProbe(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	for _, sh := range joinIndexShapes() {
		x, cols := keyIndex(b, sh.keys, sh.cols()), sh.cols()
		mask := sh.mask(x)
		all, sel := sh.probes(rng)
		for _, run := range []struct {
			name    string
			batches []*storage.Batch
		}{{"all", all}, {"sel", sel}} {
			live := 0
			for _, pb := range run.batches {
				live += pb.Rows()
			}
			b.Run(sh.name+"/"+run.name, func(b *testing.B) {
				pos, rows := make([]int32, 0, joinBatchRows), make([]int32, 0, joinBatchRows)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, pb := range run.batches {
						for at := (storage.ProbePos{}); ; {
							pos, rows, at = x.Probe(pb, cols, mask, at, joinBatchRows, pos[:0], rows[:0])
							benchJoinSink += len(rows)
							if len(rows) < joinBatchRows {
								break
							}
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*live), "ns/probe")
			})
		}
	}
}

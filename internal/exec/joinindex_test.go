package exec

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/tasterdb/taster/internal/storage"
)

// fixedKeyTable builds the join table of a one-column fixed-width key: the
// build rows are kv alone.
func fixedKeyTable(kv *storage.Vector) *joinTable {
	return buildJoinTable(&joinSpec{rightKeys: []int{0}}, &storage.Batch{Vecs: []*storage.Vector{kv}})
}

// checkJoinIndex builds the fixed-key table over kv and holds its index's
// LookupWord to a naive word → ascending-rows map: every present word
// returns exactly its rows, and every absent probe (the neighbours of each
// key, the extremes, and the caller's extras) returns nothing. Which layout
// each shape takes is storage's TestKeyIndexLayout.
func checkJoinIndex(t testing.TB, kv *storage.Vector, absent []uint64) {
	t.Helper()
	ref := make(map[uint64][]int32)
	for i := 0; i < kv.Len(); i++ {
		w := storage.FixedWord(kv, i)
		ref[w] = append(ref[w], int32(i))
	}
	tab := fixedKeyTable(kv)

	for w, want := range ref {
		got := tab.idx.LookupWord(w)
		if len(got) != len(want) {
			t.Fatalf("word %#x: %d rows, want %d", w, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("word %#x: rows %v, want %v", w, got, want)
			}
		}
		absent = append(absent, w-1, w+1, ^w)
	}
	absent = append(absent, 0, 1, 1<<63, 1<<63-1, math.MaxUint64)
	for _, w := range absent {
		if _, present := ref[w]; present {
			continue
		}
		if got := tab.idx.LookupWord(w); len(got) != 0 {
			t.Fatalf("absent word %#x returned rows %v", w, got)
		}
	}
}

func int64Vec(keys []int64) *storage.Vector {
	v := storage.NewVector(storage.Int64, len(keys))
	v.I64 = append(v.I64, keys...)
	return v
}

// TestJoinIndexMatchesMap is the index's property test: over key vectors of
// every shape the planner can hand the build — and a few it cannot — the
// map-free index answers exactly like a Go map.
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
		checkJoinIndex(t, int64Vec(perm(5000, func(i int) int64 { return int64(i) + 1 })), nil)
	})
	t.Run("dense with duplicates and gaps", func(t *testing.T) {
		keys := make([]int64, 6000)
		for i := range keys {
			keys[i] = 100 + 2*int64(rng.Intn(900))
		}
		checkJoinIndex(t, int64Vec(keys), nil)
	})
	t.Run("dense straddling zero", func(t *testing.T) {
		checkJoinIndex(t, int64Vec(perm(4001, func(i int) int64 { return int64(i) - 2000 })), nil)
	})
	t.Run("sparse", func(t *testing.T) {
		keys := make([]int64, 5000)
		for i := range keys {
			keys[i] = rng.Int63() - rng.Int63()
		}
		copy(keys[4000:], keys[:1000]) // duplicates far apart in row order
		checkJoinIndex(t, int64Vec(keys), nil)
	})
	t.Run("int64 extremes together", func(t *testing.T) {
		// Span 2^64-1: the span test must not overflow into a dense layout.
		keys := []int64{math.MaxInt64, math.MinInt64, 0, -1, 1, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
		checkJoinIndex(t, int64Vec(keys), nil)
	})
	t.Run("selective subset", func(t *testing.T) {
		// 133 of 20 000 surrogate keys survive a build-side filter: far more
		// span than rows, but under the floor.
		keys := perm(20000, func(i int) int64 { return int64(i) + 1 })[:133]
		checkJoinIndex(t, int64Vec(keys), nil)
		// The same survivors of a 20 M-key dimension.
		for i := range keys {
			keys[i] *= 1000
		}
		checkJoinIndex(t, int64Vec(keys), nil)
	})
	t.Run("single row", func(t *testing.T) {
		checkJoinIndex(t, int64Vec([]int64{42}), nil)
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
		checkJoinIndex(t, v, []uint64{math.Float64bits(2.5)})
	})
	t.Run("bool", func(t *testing.T) {
		v := storage.NewVector(storage.Bool, 0)
		for i := 0; i < 300; i++ {
			v.B = append(v.B, rng.Intn(3) == 0)
		}
		checkJoinIndex(t, v, nil)
		allTrue := storage.NewVector(storage.Bool, 0)
		allTrue.B = append(allTrue.B, true, true, true)
		checkJoinIndex(t, allTrue, nil)
	})
}

// checkJoinTuples builds the table of a key that is not one fixed-width
// column — the cols of the first nBuild rows of b — and probes it with every
// row of b through the prober: each row's matches must be exactly the build
// rows whose groupKey bytes equal its own, ascending, and a row whose bytes
// no build row carries must match nothing.
func checkJoinTuples(t testing.TB, b *storage.Batch, cols []int, nBuild int) {
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
		k := string(storage.GroupKey(nil, build.Vecs, cols, i))
		ref[k] = append(ref[k], int32(i))
	}
	spec := &joinSpec{leftKeys: cols, rightKeys: cols}
	p := joinProber{spec: spec, table: buildJoinTable(spec, build), cur: b}
	if n := p.table.idx.Keys(); n != len(ref) {
		t.Fatalf("%d build keys indexed as %d", len(ref), n)
	}
	for i := 0; i < b.Len(); i++ {
		want := ref[string(storage.GroupKey(nil, b.Vecs, cols, i))]
		if got := p.matchesOf(i); !slices.Equal(got, want) {
			t.Fatalf("probe row %d: rows %v, want %v", i, got, want)
		}
	}
}

// FuzzJoinIndex drives the same checks from arbitrary bytes. Each 8-byte
// group is one row. Without tuple it is one key word, reinterpreted per the
// type selector, so the fuzzer reaches span boundaries, probe-chain
// collisions and float bit patterns on its own. With tuple the row is a
// (string, typed) pair — a string of up to two of its bytes, NULs included,
// beside the word reinterpreted per the selector, or the string alone for
// selector 3 mod 4 — built from the first half of the rows and probed with
// all of them.
func FuzzJoinIndex(f *testing.F) {
	word := func(ws ...uint64) []byte {
		var b []byte
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return b
	}
	f.Add(word(1, 2, 3, 2, 1), uint8(0), false)
	f.Add(word(1<<63, 1<<63-1, 0, math.MaxUint64), uint8(0), false)
	f.Add(word(math.Float64bits(0), math.Float64bits(math.Copysign(0, -1)), math.Float64bits(math.NaN())), uint8(1), false)
	f.Add(word(0, 1, 1, 0), uint8(2), false)
	f.Add(word(7, 7+1<<16-1, 7+1<<16), uint8(0), false) // either side of the dense span floor
	f.Add(word(0x0100, 0x0201, 0x0100, 0x0201, 0x0302, 0x0100), uint8(0), true)
	f.Add(word(0x0002, 0x0202, 0x000002, 0x0001), uint8(3), true) // "", NUL-embedded, same bytes
	f.Add(word(math.Float64bits(math.NaN()), 0x7ff8000000000002, math.Float64bits(math.Copysign(0, -1)), 0), uint8(1), true)
	f.Fuzz(func(t *testing.T, data []byte, typ uint8, tuple bool) {
		n := len(data) / 8
		if n == 0 {
			return
		}
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
			checkJoinIndex(t, v, nil)
			return
		}
		cols := []int{0, 1}
		if typ%4 == 3 {
			cols = cols[:1]
		}
		checkJoinTuples(t, &storage.Batch{Vecs: []*storage.Vector{s, v}}, cols, n/2)
	})
}

type joinIndexShape struct {
	name string
	keys *storage.Vector
	// probeMax, when set, draws probe words from 1..probeMax — the fact
	// side's whole key domain — instead of from the build keys.
	probeMax int
}

// joinIndexShapes are the build sides the benchmark workloads produce — a
// whole dimension table keyed 1..n, and a selective build-side filter's
// survivors (both dense-range) — plus the shape they do not: as many keys
// with no locality (open addressing).
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
	return []joinIndexShape{
		{name: "dense150k", keys: int64Vec(dense)},
		{name: "sparse150k", keys: int64Vec(sparse)},
		{name: "subset133of20k", keys: int64Vec(subset), probeMax: 20_000},
	}
}

// BenchmarkJoinBuild times the fixed-key index build alone (the key words
// and the CSR passes, no row copy), reporting ns per build row.
func BenchmarkJoinBuild(b *testing.B) {
	for _, sh := range joinIndexShapes() {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fixedKeyTable(sh.keys)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sh.keys.Len()), "ns/row")
		})
	}
}

var benchJoinSink int

// BenchmarkJoinProbe times LookupWord over 65 536 probe words (all present
// for the whole-table shapes; the subset build misses 99 % of the time, as
// its query does), reporting ns per probe.
func BenchmarkJoinProbe(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	for _, sh := range joinIndexShapes() {
		tab := fixedKeyTable(sh.keys)
		probes := make([]uint64, 1<<16)
		for i := range probes {
			if sh.probeMax > 0 {
				probes[i] = uint64(rng.Intn(sh.probeMax) + 1)
			} else {
				probes[i] = storage.FixedWord(sh.keys, rng.Intn(sh.keys.Len()))
			}
		}
		b.Run(sh.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, w := range probes {
					benchJoinSink += len(tab.idx.LookupWord(w))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(probes)), "ns/probe")
		})
	}
}

package exec

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/workload"
)

// fixedKeyTable builds the join table of a one-column fixed-width key: the
// build rows are kv alone.
func fixedKeyTable(kv *storage.Vector) *joinTable {
	return buildJoinTable(&joinSpec{rightKeys: []int{0}}, &storage.Batch{Vecs: []*storage.Vector{kv}})
}

// checkJoinIndex builds the fixed-key table over kv and probes it with every
// word kv holds, each one's neighbours and complement, the extremes and the
// caller's extras, shuffled (checkProbe): a present word must pair with
// exactly its rows in a naive word → ascending-rows map, an absent one with
// none. Which layout each shape takes is storage's TestKeyIndexLayout.
func checkJoinIndex(t testing.TB, kv *storage.Vector, absent []uint64, rng *rand.Rand) {
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
	checkProbe(t, fixedKeyTable(kv).idx, probe, []int{0}, func(row int) []int32 {
		return ref[storage.FixedWord(probe.Vecs[0], row)]
	}, rng)
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

// checkProbe pairs b's rows over cols through x as the prober does — under a
// random selection, or none, one call of a random room at a time, each call
// resuming where the last stopped until one returns short of its room — and
// holds the pairs to want, a row's expected matches: every live row's, in
// live-row order, ascending within a row. Rooms of one to three resume runs
// mid-fanout, at a run's end and at the batch's end.
func checkProbe(t testing.TB, x *storage.KeyIndex, b *storage.Batch, cols []int, want func(row int) []int32, rng *rand.Rand) {
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
		pos, rows, next = x.Probe(b, cols, at, room, pos[:0], rows[:0])
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

// TestJoinIndexMatchesMap is the index's property test: over key vectors of
// every shape the planner can hand the build — and a few it cannot — every
// layout and probe loop of the map-free index pairs rows exactly like a Go
// map.
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
		checkJoinIndex(t, int64Vec(perm(5000, func(i int) int64 { return int64(i) + 1 })), nil, rng)
	})
	t.Run("dense with duplicates and gaps", func(t *testing.T) {
		keys := make([]int64, 6000)
		for i := range keys {
			keys[i] = 100 + 2*int64(rng.Intn(900))
		}
		checkJoinIndex(t, int64Vec(keys), nil, rng)
	})
	t.Run("dense straddling zero", func(t *testing.T) {
		checkJoinIndex(t, int64Vec(perm(4001, func(i int) int64 { return int64(i) - 2000 })), nil, rng)
	})
	t.Run("sparse", func(t *testing.T) {
		keys := make([]int64, 5000)
		for i := range keys {
			keys[i] = rng.Int63() - rng.Int63()
		}
		copy(keys[4000:], keys[:1000]) // duplicates far apart in row order
		checkJoinIndex(t, int64Vec(keys), nil, rng)
	})
	t.Run("int64 extremes together", func(t *testing.T) {
		// Span 2^64-1: the span test must not overflow into a dense layout.
		keys := []int64{math.MaxInt64, math.MinInt64, 0, -1, 1, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
		checkJoinIndex(t, int64Vec(keys), nil, rng)
	})
	t.Run("selective subset", func(t *testing.T) {
		// 133 of 20 000 surrogate keys survive a build-side filter: far more
		// span than rows, but under the floor.
		keys := perm(20000, func(i int) int64 { return int64(i) + 1 })[:133]
		checkJoinIndex(t, int64Vec(keys), nil, rng)
		// The same survivors of a 20 M-key dimension.
		for i := range keys {
			keys[i] *= 1000
		}
		checkJoinIndex(t, int64Vec(keys), nil, rng)
	})
	t.Run("single row", func(t *testing.T) {
		checkJoinIndex(t, int64Vec([]int64{42}), nil, rng)
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
		checkJoinIndex(t, v, []uint64{math.Float64bits(2.5)}, rng)
	})
	t.Run("bool", func(t *testing.T) {
		v := storage.NewVector(storage.Bool, 0)
		for i := 0; i < 300; i++ {
			v.B = append(v.B, rng.Intn(3) == 0)
		}
		checkJoinIndex(t, v, nil, rng)
		allTrue := storage.NewVector(storage.Bool, 0)
		allTrue.B = append(allTrue.B, true, true, true)
		checkJoinIndex(t, allTrue, nil, rng)
	})
	t.Run("string and tuple ids", func(t *testing.T) {
		// Two of three rows build; keys repeat, so runs have fanout.
		s, k := storage.NewVector(storage.String, 0), storage.NewVector(storage.Int64, 0)
		for i := 0; i < 1500; i++ {
			s.Str = append(s.Str, string([]byte{'a' + byte(rng.Intn(5)), byte(rng.Intn(2))}))
			k.I64 = append(k.I64, int64(rng.Intn(7)))
		}
		b := &storage.Batch{Vecs: []*storage.Vector{s, k}}
		checkJoinTuples(t, b, []int{0}, 1000, rng)
		checkJoinTuples(t, b, []int{0, 1}, 1000, rng)
	})
}

// checkJoinTuples builds the table of a key that is not one fixed-width
// column — the cols of the first nBuild rows of b — and probes it with every
// row of b (checkProbe): each row's matches must be exactly the build rows
// whose GroupKey bytes equal its own, ascending, and a row whose bytes no
// build row carries must match nothing.
func checkJoinTuples(t testing.TB, b *storage.Batch, cols []int, nBuild int, rng *rand.Rand) {
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
	tab := buildJoinTable(&joinSpec{rightKeys: cols}, build)
	if n := tab.idx.Keys(); n != len(ref) {
		t.Fatalf("%d build keys indexed as %d", len(ref), n)
	}
	checkProbe(t, tab.idx, b, cols, func(row int) []int32 {
		return ref[string(storage.GroupKey(nil, b.Vecs, cols, row))]
	}, rng)
}

// FuzzJoinIndex drives the same checks from arbitrary bytes. Each 8-byte
// group is one row. Without tuple it is one key word, reinterpreted per the
// type selector, so the fuzzer reaches span boundaries, probe-chain
// collisions and float bit patterns on its own. With tuple the row is a
// (string, typed) pair — a string of up to two of its bytes, NULs included,
// beside the word reinterpreted per the selector, or the string alone for
// selector 3 mod 4 — built from the first half of the rows and probed with
// all of them. draw seeds the probe's selection and its rooms.
func FuzzJoinIndex(f *testing.F) {
	word := func(ws ...uint64) []byte {
		var b []byte
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return b
	}
	f.Add(word(1, 2, 3, 2, 1), uint8(0), false, int64(0))
	f.Add(word(1<<63, 1<<63-1, 0, math.MaxUint64), uint8(0), false, int64(1))
	f.Add(word(math.Float64bits(0), math.Float64bits(math.Copysign(0, -1)), math.Float64bits(math.NaN())), uint8(1), false, int64(2))
	f.Add(word(0, 1, 1, 0), uint8(2), false, int64(3))
	f.Add(word(7, 7+1<<16-1, 7+1<<16), uint8(0), false, int64(4)) // either side of the dense span floor
	f.Add(word(0x0100, 0x0201, 0x0100, 0x0201, 0x0302, 0x0100), uint8(0), true, int64(5))
	f.Add(word(0x0002, 0x0202, 0x000002, 0x0001), uint8(3), true, int64(6)) // "", NUL-embedded, same bytes
	f.Add(word(math.Float64bits(math.NaN()), 0x7ff8000000000002, math.Float64bits(math.Copysign(0, -1)), 0), uint8(1), true, int64(7))
	f.Fuzz(func(t *testing.T, data []byte, typ uint8, tuple bool, draw int64) {
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
			checkJoinIndex(t, v, nil, rng)
			return
		}
		cols := []int{0, 1}
		if typ%4 == 3 {
			cols = cols[:1]
		}
		checkJoinTuples(t, &storage.Batch{Vecs: []*storage.Vector{s, v}}, cols, n/2, rng)
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

// BenchmarkJoinBuild times a join's build, reporting ns per build row: the
// fixed-key index alone over each joinIndexShapes shape (the key words and
// the CSR passes, no row copy), and a whole build side as runBuild runs it —
// σ(orders) drained and indexed for a join that reads its key and one
// payload column — on the key's first sight (query-owned: pool memory,
// released after the run) and on its second (admitted: a heap copy the
// JoinCache keeps).
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
	orders, err := workload.TPCH(0.05, 3).Catalog.Table("orders")
	if err != nil {
		b.Fatal(err)
	}
	join := &plan.Join{
		Right: &plan.Filter{
			Child: &plan.Scan{Table: orders},
			Pred:  &expr.Cmp{Op: expr.LT, L: &expr.Col{Name: "orders.o_orderdate"}, R: expr.Int(1800)},
		},
		LeftKeys: []string{"lineitem.l_orderkey"}, RightKeys: []string{"orders.o_orderkey"},
	}
	probe := storage.Schema{{Name: "lineitem.l_orderkey", Typ: storage.Int64}}
	for _, admitted := range []bool{false, true} {
		name := "orders/query-owned"
		if admitted {
			name = "orders/admitted"
		}
		b.Run(name, func(b *testing.B) {
			ctx := NewContext(0.95)
			source := buildSource(join.Right)
			key := joinCacheKey(join.Right, source, join.RightKeys)
			rows := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op, err := compileBuild(join.Right, "a benchmark", ctx)
				if err != nil {
					b.Fatal(err)
				}
				spec, err := resolveJoinSpec(probe, op.Schema(), join.LeftKeys, join.RightKeys, []string{"orders.o_orderpriority"})
				if err != nil {
					b.Fatal(err)
				}
				ctx.Joins = nil
				if admitted {
					ctx.Joins = NewJoinCache(1 << 30)
					ctx.Joins.lookup(key, source) // first sight: the run below admits
				}
				table, err := runBuild(join, op, spec, ctx)
				if err != nil {
					b.Fatal(err)
				}
				rows = len(table.rows.Width)
				op.Close()
				table.release(ctx.Pool)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}

var benchJoinSink int

// BenchmarkJoinProbe times KeyIndex.Probe as the prober calls it — room
// for one output chunk per call — over 64 probe batches of 1 024 rows,
// every row live ("all") or a random half under a selection ("sel"),
// reporting ns per live probe row. Probe keys are all present for the
// whole-table shapes; the subset build misses 99 % of the time, as its query
// does.
func BenchmarkJoinProbe(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	for _, sh := range joinIndexShapes() {
		tab := fixedKeyTable(sh.keys)
		all, sel := make([]*storage.Batch, 64), make([]*storage.Batch, 64)
		for n := range all {
			keys := make([]int64, storage.BatchSize)
			for i := range keys {
				if sh.probeMax > 0 {
					keys[i] = int64(rng.Intn(sh.probeMax) + 1)
				} else {
					keys[i] = sh.keys.I64[rng.Intn(sh.keys.Len())]
				}
			}
			all[n] = &storage.Batch{Vecs: []*storage.Vector{int64Vec(keys)}}
			sel[n] = &storage.Batch{Vecs: all[n].Vecs}
			for i := range keys {
				if rng.Intn(2) == 0 {
					sel[n].Sel = append(sel[n].Sel, int32(i))
				}
			}
		}
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
				for i := 0; i < b.N; i++ {
					for _, pb := range run.batches {
						for at := (storage.ProbePos{}); ; {
							pos, rows, at = tab.idx.Probe(pb, []int{0}, at, joinBatchRows, pos[:0], rows[:0])
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

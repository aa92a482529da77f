package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// checkCoded holds one vector to the side-car invariant: uncoded, or one
// code per string, each naming that string, in a dictionary of distinct
// values no larger than the cap.
func checkCoded(t *testing.T, where string, v *Vector) {
	t.Helper()
	if v.Typ != String || v.Dict == nil {
		return
	}
	if len(v.Code) != len(v.Str) {
		t.Fatalf("%s: %d codes for %d strings", where, len(v.Code), len(v.Str))
	}
	vals := v.Dict.vals
	if len(vals) > MaxDictSize {
		t.Fatalf("%s: dictionary of %d values exceeds the cap", where, len(vals))
	}
	for i, c := range v.Code {
		if int(c) >= len(vals) || vals[c] != v.Str[i] {
			t.Fatalf("%s: row %d: code %d does not name %q", where, i, c, v.Str[i])
		}
	}
	seen := make(map[string]bool, len(vals))
	for _, s := range vals {
		if seen[s] {
			t.Fatalf("%s: dictionary holds %q twice", where, s)
		}
		seen[s] = true
	}
}

func checkBatch(t *testing.T, where string, b *Batch) {
	t.Helper()
	for c, v := range b.Vecs {
		checkCoded(t, fmt.Sprintf("%s col %d", where, c), v)
	}
}

// randStrings draws n strings from a vocabulary of the given size; the
// alphabet has the awkward members — empty, NUL-embedded — up front.
func randStrings(r *rand.Rand, n, vocab int) []string {
	out := make([]string, n)
	for i := range out {
		switch k := r.Intn(vocab); k {
		case 0:
			out[i] = ""
		case 1:
			out[i] = "a\x00b"
		default:
			out[i] = fmt.Sprintf("v%d", k)
		}
	}
	return out
}

func strTable(t *testing.T, name string, strs []string, partitions int) *Table {
	t.Helper()
	ids := make([]int64, len(strs))
	for i := range ids {
		ids[i] = int64(i)
	}
	tbl, err := NewTable(name, Schema{{Name: name + ".id", Typ: Int64}, {Name: name + ".s", Typ: String}},
		[]*Vector{{Typ: Int64, I64: ids}, {Typ: String, Str: strs}}, partitions)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestVectorCodesSurviveRandomCopies drives random sequences of the copying
// methods over vectors drawn from two tables with different dictionaries, an
// uncoded source and pool-recycled destinations, and checks the invariant
// after every step: codes are carried where source and destination agree on
// the dictionary (or the destination is empty) and dropped — never left
// stale — anywhere else.
func TestVectorCodesSurviveRandomCopies(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		a := strTable(t, "a", randStrings(r, 400, 9), 3)
		b := strTable(t, "b", randStrings(r, 300, 30), 2)
		uncoded := &Vector{Typ: String, Str: randStrings(r, 200, 12)}
		sources := []*Vector{a.Column(1), b.Column(1), uncoded, a.parts[1].cols[1], b.parts[0].cols[1]}
		for _, s := range sources[:2] {
			if s.Dict == nil {
				t.Fatal("a low-cardinality table column came out uncoded")
			}
		}
		pool := NewVecPool()
		schema := Schema{{Name: "s", Typ: String}}
		live := []*Vector{NewVector(String, 0)}
		carried := 0
		for step := 0; step < 300; step++ {
			src := sources[r.Intn(len(sources))]
			dst := live[r.Intn(len(live))]
			where := fmt.Sprintf("seed %d step %d", seed, step)
			switch r.Intn(9) {
			case 0:
				lo := r.Intn(src.Len())
				sources = append(sources, src.Slice(lo, lo+1+r.Intn(src.Len()-lo)))
				checkCoded(t, where+" slice", sources[len(sources)-1])
			case 1:
				dst.AppendFrom(src, r.Intn(src.Len()))
			case 2:
				rows := make([]int32, r.Intn(20))
				for i := range rows {
					rows[i] = int32(r.Intn(src.Len()))
				}
				dst.AppendGather(src, rows)
			case 3:
				dst.Extend(src)
			case 4:
				idx := make([]int32, r.Intn(20))
				for i := range idx {
					idx[i] = int32(r.Intn(src.Len()))
				}
				g := NewVector(String, len(idx))
				g.AppendGather(src, idx)
				checkCoded(t, where+" gather", g)
				live = append(live, g)
			case 5:
				dst.Append(StringValue(fmt.Sprintf("fresh%d", step)))
			case 6: // a filter's survivors gathered into pooled vectors
				var sel []int32
				for i := 0; i < src.Len(); i++ {
					if r.Intn(3) == 0 {
						sel = append(sel, int32(i))
					}
				}
				if sel == nil {
					continue
				}
				out := pool.GetBatch(schema, len(sel))
				out.Vecs[0].AppendGather(src, sel)
				checkBatch(t, where+" pooled gather", out)
				if src.Dict != nil && out.Vecs[0].Dict != src.Dict {
					t.Fatalf("%s: a gather into an empty pooled vector lost the dictionary", where)
				}
				pool.Release(out)
			case 7: // pool reuse: what comes back must not remember its past
				pb := pool.GetBatch(schema, 8)
				if v := pb.Vecs[0]; v.Dict != nil || v.Len() != 0 {
					t.Fatalf("%s: recycled vector arrives with %d rows, dict %v", where, v.Len(), v.Dict != nil)
				}
				pb.Vecs[0].Extend(src)
				checkBatch(t, where+" pooled", pb)
				pool.Release(pb)
			case 8:
				live = append(live, NewVector(String, 0))
			}
			checkCoded(t, where+" dst", dst)
			if dst.Dict != nil {
				carried++
			}
		}
		if carried == 0 {
			t.Fatalf("seed %d: no destination ever carried codes; the test is vacuous", seed)
		}
	}
}

// tableVersion remembers a table version and what its dictionaries held when
// it was published.
type tableVersion struct {
	tbl   *Table
	dicts [][]string // per column: the dictionary's values then, nil if none
}

func snapshotVersion(tbl *Table) tableVersion {
	v := tableVersion{tbl: tbl, dicts: make([][]string, len(tbl.dicts))}
	for i, d := range tbl.dicts {
		if d != nil {
			v.dicts[i] = append([]string{}, d.vals...)
		}
	}
	return v
}

func checkTable(t *testing.T, where string, tbl *Table) {
	t.Helper()
	for p, part := range tbl.parts {
		for c, v := range part.cols {
			checkCoded(t, fmt.Sprintf("%s part %d col %d", where, p, c), v)
			if v.Len() != part.rows {
				t.Fatalf("%s part %d col %d: %d values for %d rows", where, p, c, v.Len(), part.rows)
			}
		}
	}
	for c := range tbl.schema {
		checkCoded(t, fmt.Sprintf("%s column view %d", where, c), tbl.Column(c))
	}
	if tail := tbl.parts[len(tbl.parts)-1]; tbl.dicts[1] != nil && tail.cols[1].Dict != tbl.dicts[1] {
		t.Fatalf("%s: tail partition is not coded under the table's current dictionary", where)
	}
}

// TestTableAppendKeepsCodes drives random append chains — deltas with and
// without new values, deltas that overflow the cap mid-table, appends onto a
// column that never was coded, two appends forked from one parent — and
// checks after every step the invariant on every partition of every version
// still held, that no published dictionary has changed, and that the
// partitions an append did not touch are the parent's own, code arrays
// included.
func TestTableAppendKeepsCodes(t *testing.T) {
	extended, overflowed := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		var first *Table
		switch seed % 3 {
		case 0: // starts past the cap: never coded
			strs := make([]string, MaxDictSize+50)
			for i := range strs {
				strs[i] = fmt.Sprintf("u%d", i)
			}
			first = strTable(t, "t", strs, 1).Repartition(600)
			if first.dicts[1] != nil {
				t.Fatal("a column past the cap was coded")
			}
		default:
			first = strTable(t, "t", randStrings(r, 900, 8), 1).Repartition(600)
		}
		versions := []tableVersion{snapshotVersion(first)}
		for step := 0; step < 14; step++ {
			parent := versions[r.Intn(len(versions))].tbl // any version: forks included
			var strs []string
			switch r.Intn(4) {
			case 0: // nothing new
				strs = randStrings(r, 1+r.Intn(500), 8)
			case 1: // a few new values
				strs = randStrings(r, 1+r.Intn(500), 8+step*3)
			case 2: // resampled from the parent, so the delta arrives coded
				col := parent.Column(1)
				nv := NewVector(String, 0)
				for i := 0; i < 1+r.Intn(400); i++ {
					nv.AppendFrom(col, r.Intn(col.Len()))
				}
				strs = nv.Str
			case 3: // enough new values to overflow the cap
				strs = make([]string, MaxDictSize+10)
				for i := range strs {
					strs[i] = fmt.Sprintf("w%d-%d", step, i)
				}
			}
			next, err := parent.Append(strTable(t, "t", strs, 1))
			if err != nil {
				t.Fatal(err)
			}
			where := fmt.Sprintf("seed %d step %d", seed, step)
			checkTable(t, where, next)
			if pd, nd := parent.dicts[1], next.dicts[1]; pd != nil {
				switch {
				case nd == nil:
					overflowed++
				case nd != pd:
					extended++
					if got := nd.vals[:pd.Len()]; !reflect.DeepEqual(got, pd.vals) {
						t.Fatalf("%s: the extended dictionary renumbered old values", where)
					}
				}
			} else if next.dicts[1] != nil {
				t.Fatalf("%s: an append coded a column its parent had given up on", where)
			}
			// Every partition but the parent's tail is shared, not copied.
			for p := 0; p < len(parent.parts)-1; p++ {
				if next.parts[p] != parent.parts[p] {
					t.Fatalf("%s: untouched partition %d was replaced", where, p)
				}
				pc, nc := parent.parts[p].cols[1].Code, next.parts[p].cols[1].Code
				if len(pc) > 0 && &pc[0] != &nc[0] {
					t.Fatalf("%s: untouched partition %d re-encoded", where, p)
				}
			}
			versions = append(versions, snapshotVersion(next))
			for vi, v := range versions {
				checkTable(t, fmt.Sprintf("%s: version %d", where, vi), v.tbl)
				for c, want := range v.dicts {
					if want != nil && !reflect.DeepEqual(v.tbl.dicts[c].vals, want) {
						t.Fatalf("%s: version %d's dictionary changed after it was published", where, vi)
					}
				}
			}
		}
	}
	if extended < 5 || overflowed < 5 {
		t.Fatalf("%d appends extended a dictionary and %d overflowed one; the chains never left the easy path", extended, overflowed)
	}
}

// TestForkedAppendsLeaveTheParentAlone appends to one parent version from
// several goroutines while others read the parent's codes and dictionary:
// under -race any write an append makes to shared state shows as a race.
func TestForkedAppendsLeaveTheParentAlone(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	parent := strTable(t, "t", randStrings(r, 2000, 6), 1).Repartition(700)
	want := snapshotVersion(parent)
	deltas := make([]*Table, 4)
	for i := range deltas {
		deltas[i] = strTable(t, "t", randStrings(r, 300, 6+5*(i+1)), 1)
	}
	var wg sync.WaitGroup
	forks := make([]*Table, len(deltas))
	for i, d := range deltas {
		wg.Add(2)
		go func() {
			defer wg.Done()
			nt, err := parent.Append(d)
			if err != nil {
				t.Error(err)
				return
			}
			forks[i] = nt
		}()
		go func() { // a reader of the parent
			defer wg.Done()
			for _, part := range parent.parts {
				v := part.cols[1]
				vals := v.Dict.vals
				for j, c := range v.Code {
					if vals[c] != v.Str[j] {
						t.Errorf("parent row %d reads %q through its code", j, vals[c])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(parent.dicts[1].vals, want.dicts[1]) {
		t.Fatal("the parent's dictionary changed under its forks")
	}
	for i, f := range forks {
		if f == nil {
			continue
		}
		checkTable(t, fmt.Sprintf("fork %d", i), f)
		if f.dicts[1] == parent.dicts[1] {
			t.Fatalf("fork %d brought new values and still shares the parent's dictionary", i)
		}
	}
}

// TestBuilderMixingCopiedAndBareStrings: a builder column that takes coded
// rows through CopyFrom and then a bare string cannot keep the copied codes;
// the table it builds codes the column afresh.
func TestBuilderMixingCopiedAndBareStrings(t *testing.T) {
	src := strTable(t, "t", []string{"a", "b", "a", "c"}, 1)
	b := NewBuilder("t", src.Schema())
	for row := 0; row < src.NumRows(); row++ {
		b.CopyFrom(0, src.Column(0), row)
		b.CopyFrom(1, src.Column(1), row)
	}
	b.Int(0, 99)
	b.Str(1, "d")
	tbl := b.Build(1)
	checkTable(t, "mixed builder", tbl)
	if d := tbl.dicts[1]; d == nil || d == src.dicts[1] || d.Len() != 4 {
		t.Fatalf("mixed column should be coded afresh over its 4 values, got %v", d)
	}
}

// TestGatherSizesOnceAndCarriesCodes: every column Gather returns is
// allocated at its final length (cap == len) and holds the rows asked for,
// across partitions; a string column carries its codes while the span from
// the first gathered row to the span's end lies under one dictionary — the
// version's first three partitions, before an append brought a new value —
// and is gathered uncoded, for NewTable to code afresh, once the span
// reaches the appended tail, even when no gathered row lies there.
// Malformed gathers are refused.
func TestGatherSizesOnceAndCarriesCodes(t *testing.T) {
	schema := Schema{{Name: "t.s", Typ: String}, {Name: "t.i", Typ: Int64}}
	b := NewBuilder("src", schema)
	for i := 0; i < 9; i++ {
		b.Str(0, []string{"a", "b", "c"}[i%3])
		b.Int(1, int64(i))
	}
	src := b.Build(3) // partitions of 3 rows, one dictionary
	tail := NewBuilder("src", schema)
	tail.Str(0, "d")
	tail.Int(1, 9)
	grown, err := src.Append(tail.Build(1))
	if err != nil {
		t.Fatal(err)
	}
	old, cur := src.Column(0).Dict, grown.dicts[0]
	if old == nil || cur == nil || old == cur || grown.Partitions() != 4 {
		t.Fatalf("setup: want 4 partitions, the tail under a new dictionary; got %d, %p then %p", grown.Partitions(), old, cur)
	}
	gather := func(where string, rows []int32, through int) []*Vector {
		t.Helper()
		cols, err := grown.Gather(rows, through)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		s, i := cols[0], cols[1]
		if cap(s.Str) != len(s.Str) || cap(i.I64) != len(i.I64) || s.Dict != nil && cap(s.Code) != len(s.Code) {
			t.Fatalf("%s: cap/len str %d/%d int %d/%d code %d/%d", where,
				cap(s.Str), len(s.Str), cap(i.I64), len(i.I64), cap(s.Code), len(s.Code))
		}
		checkCoded(t, where, s)
		want := make([]int64, len(rows))
		for k, r := range rows {
			want[k] = int64(r)
		}
		if len(rows) > 0 && !reflect.DeepEqual(i.I64, want) {
			t.Fatalf("%s: gathered %v, want %v", where, i.I64, want)
		}
		return cols
	}

	if got := gather("shared", []int32{1, 2, 4, 8}, 9)[0]; got.Dict != old ||
		!reflect.DeepEqual(got.Str, []string{"b", "c", "b", "c"}) {
		t.Fatalf("shared: %v under %p, want the first partitions' dictionary %p", got.Str, got.Dict, old)
	}
	if got := gather("offered the tail", []int32{1, 2, 4, 8}, 10)[0]; got.Dict != nil {
		t.Fatalf("offered the tail: codes kept under %p", got.Dict)
	}
	if got := gather("tail", []int32{9}, 10)[0]; got.Dict != cur {
		t.Fatalf("tail: codes under %p, want the tail's %p", got.Dict, cur)
	}
	if got := gather("empty", nil, 0)[0]; got.Dict != nil || got.Str == nil || len(got.Str) != 0 {
		t.Fatalf("empty: %v under %p", got.Str, got.Dict)
	}
	for _, bad := range []struct {
		rows    []int32
		through int
	}{{[]int32{2, 1}, 10}, {[]int32{-1}, 10}, {[]int32{10}, 10}, {[]int32{3}, 3}, {[]int32{3}, 11}} {
		if _, err := grown.Gather(bad.rows, bad.through); err == nil {
			t.Fatalf("gather %v through %d accepted", bad.rows, bad.through)
		}
	}
}

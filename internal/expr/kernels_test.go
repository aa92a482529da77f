package expr

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/tasterdb/taster/internal/storage"
)

// kernelSchema covers every kernel-compilable column type, and a boolean
// column no filter compiles over.
var kernelSchema = storage.Schema{
	{Name: "i", Typ: storage.Int64},
	{Name: "f", Typ: storage.Float64},
	{Name: "s", Typ: storage.String},
	{Name: "b", Typ: storage.Bool},
}

// kernelBatch builds a batch over kernelSchema from parallel value slices.
func kernelBatch(is []int64, fs []float64, ss []string, bs []bool) *storage.Batch {
	b := storage.NewBatch(kernelSchema, len(is))
	b.Vecs[0].I64 = append(b.Vecs[0].I64, is...)
	b.Vecs[1].F64 = append(b.Vecs[1].F64, fs...)
	b.Vecs[2].Str = append(b.Vecs[2].Str, ss...)
	b.Vecs[3].B = append(b.Vecs[3].B, bs...)
	return b
}

// edgeBatch is the standing edge-case fixture: NaN, ±Inf, ±0, empty strings,
// int64 values beyond float64's 2^53 integer range.
func edgeBatch() *storage.Batch {
	return kernelBatch(
		[]int64{0, 1, -1, math.MaxInt64, math.MinInt64, 1 << 53, (1 << 53) + 1, 42},
		[]float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1.5, -1.5, 42},
		[]string{"", "a", "ab", "b", "", "zzz", "a\x00b", "42"},
		[]bool{true, false, true, false, true, false, true, false},
	)
}

// intEdges are Int64 values at float64's rounding edges: around ±2^53,
// where float64 values start to lie 2 apart, around 2^62, where they lie
// 1 024 apart and 2^62+512 is a tie, and at the ends of int64, which
// float64 rounds to ±2^63.
var intEdges = []int64{0, 1, -1, 2, 3,
	1<<53 - 1, 1 << 53, 1<<53 + 1, 1<<53 + 2, 1<<53 + 3, -(1 << 53), -(1 << 53) - 1, -(1 << 53) - 2,
	1<<62 - 1, 1 << 62, 1<<62 + 511, 1<<62 + 512, 1<<62 + 513, 1<<62 + 1024, 1<<62 + 1536,
	math.MaxInt64 - 512, math.MaxInt64 - 511, math.MaxInt64, math.MinInt64, math.MinInt64 + 1, math.MinInt64 + 512}

// floatEdges are float literals at the same edges — 2^53+1 and 2^62+512
// round to 2^53 and 2^62 as literals too — and the IEEE specials.
var floatEdges = []float64{1<<53 - 1, 1 << 53, 1<<53 + 2, -(1 << 53), 1 << 62, 1<<62 + 1024, 0x1p63, 0x1p63 - 1024, -0x1p63,
	2.5, -2.5, 0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}

// oracleSelect is the row-at-a-time reference: EvalBool's rows restricted
// to the candidate rows.
func oracleSelect(t testing.TB, p Pred, b *storage.Batch, in []int32) []int32 {
	t.Helper()
	idx, err := EvalBool(p, b)
	if err != nil {
		t.Fatalf("oracle EvalBool(%s): %v", p, err)
	}
	var out []int32
	for _, i := range idx {
		if in == nil || slices.Contains(in, int32(i)) {
			out = append(out, int32(i))
		}
	}
	return out
}

// codedCopy is b's rows as a table scan delivers them: built into a
// one-partition table and scanned back, every string column
// dictionary-coded (up to storage.MaxDictSize distinct values).
func codedCopy(b *storage.Batch) *storage.Batch {
	tb := storage.NewBuilder("t", b.Schema)
	for i := 0; i < b.Len(); i++ {
		tb.AddRow(b.Row(i)...)
	}
	if b.Len() == 0 {
		return b
	}
	return tb.Build(1).Scan(0, b.Len())[0]
}

// checkKernel compiles p and compares Refine against the oracle, both dense
// (in = nil) and under a sparse candidate selection — into a buffer of its
// own and in place, over the candidates' own buffer — over b's uncoded
// string columns and over a coded copy of the same rows: string leaves take
// the per-code path on one and compare every row on the other. It also
// holds IntRange's split to p (checkIntRange).
func checkKernel(t testing.TB, p Pred, b *storage.Batch) {
	t.Helper()
	f, err := CompileFilter(p, b.Schema)
	if err != nil {
		t.Fatalf("CompileFilter(%s): %v", p, err)
	}
	sparse := make([]int32, 0, b.Len())
	for i := 0; i < b.Len(); i += 2 {
		sparse = append(sparse, int32(i))
	}
	for k, batch := range []*storage.Batch{b, codedCopy(b)} {
		var sc Scratch
		for _, in := range [][]int32{nil, sparse, {}} {
			got := f.Refine(batch, in, nil, &sc)
			want := oracleSelect(t, p, batch, in)
			if !slices.Equal(got, want) {
				t.Fatalf("%s (in=%v, coded=%v): kernel %v, oracle %v", p, in, k == 1, got, want)
			}
			if in == nil {
				continue
			}
			buf := slices.Clone(in)
			if got := f.Refine(batch, buf, buf[:0], &sc); !slices.Equal(got, want) {
				t.Fatalf("%s (in=%v, coded=%v, in place): kernel %v, oracle %v", p, in, k == 1, got, want)
			}
		}
	}
	checkIntRange(t, p, b)
}

// checkIntRange holds IntRange's split of p to p itself: the rows of b
// whose value in the range's column lies in its interval and that the rest
// of the terms select are exactly the rows p selects. A range's rows are
// the candidates the rest then runs on in place, as a leaf read served by a
// key index runs them.
func checkIntRange(t testing.TB, p Pred, b *storage.Batch) {
	t.Helper()
	col, iv, rest, ok := IntRange(p, b.Schema)
	if !ok {
		return
	}
	in := []int32{}
	for i, x := range b.Vecs[col].I64 {
		if !iv.Empty && iv.From <= x && x <= iv.To {
			in = append(in, int32(i))
		}
	}
	got := in
	if len(rest) > 0 {
		f, err := CompileFilter(rest, b.Schema)
		if err != nil {
			t.Fatalf("CompileFilter(%s), the rest of %s: %v", rest, p, err)
		}
		var sc Scratch
		got = f.Refine(b, in, in[:0], &sc)
	}
	if want := oracleSelect(t, p, b, nil); !slices.Equal(got, want) && len(got)+len(want) > 0 {
		t.Fatalf("%s split as %s in %+v and %s: %v, oracle %v", p, b.Schema[col].Name, iv, rest, got, want)
	}
}

// TestIntRangeSplit pins which terms IntRange folds into the interval: every
// numeric-literal bound on the first Int64 column so bounded, = included —
// a float literal as the integers it admits — and nothing else: <>, IN, a
// bound on a float column or on a second Int64 column stays in the rest, in
// its order.
func TestIntRangeSplit(t *testing.T) {
	s := storage.Schema{{Name: "i", Typ: storage.Int64}, {Name: "j", Typ: storage.Int64}, {Name: "f", Typ: storage.Float64}}
	i := func(op CmpOp, v int64) Term { return Compare("i", op, storage.IntValue(v)) }
	j5 := Compare("j", LT, storage.IntValue(5))
	f1 := Compare("f", GT, storage.IntValue(1))
	iF := Compare("i", GE, storage.FloatValue(2.5))
	fl := func(op CmpOp, v float64) Term { return Compare("i", op, storage.FloatValue(v)) }
	iNE := Compare("i", NE, storage.IntValue(4))
	iIn := In("i", storage.IntValue(3))
	for _, c := range []struct {
		name string
		p    Pred
		col  int
		iv   Interval
		rest Pred
		ok   bool
	}{
		{"between", Pred{i(GE, 3), i(LE, 9)}, 0, Interval{From: 3, To: 9}, nil, true},
		{"strict bounds", Pred{i(GT, 3), i(LT, 9)}, 0, Interval{From: 4, To: 8}, nil, true},
		{"equality", Pred{i(EQ, 7)}, 0, Interval{From: 7, To: 7}, nil, true},
		{"one side", Pred{i(LE, 9)}, 0, Interval{From: math.MinInt64, To: 9}, nil, true},
		{"three bounds", Pred{i(GE, 3), i(LE, 9), i(GT, 5)}, 0, Interval{From: 6, To: 9}, nil, true},
		{"crossed", Pred{i(GE, 9), i(LE, 3)}, 0, Interval{From: 9, To: 3, Empty: true}, nil, true},
		{"past MaxInt64", Pred{i(GT, math.MaxInt64)}, 0, Interval{From: math.MinInt64, To: math.MaxInt64, Empty: true}, nil, true},
		{"below MinInt64", Pred{i(LT, math.MinInt64)}, 0, Interval{From: math.MinInt64, To: math.MaxInt64, Empty: true}, nil, true},
		{"the first column", Pred{f1, j5, i(GE, 3), iF, iNE, iIn}, 1, Interval{From: math.MinInt64, To: 4}, Pred{f1, i(GE, 3), iF, iNE, iIn}, true},
		{"no Int64 bound", Pred{f1, iNE, iIn, Compare("zz", LT, storage.IntValue(1))}, -1, allInts, Pred{f1, iNE, iIn, Compare("zz", LT, storage.IntValue(1))}, false},
		{"float literal", Pred{f1, iF, iNE, iIn}, 0, Interval{From: 3, To: math.MaxInt64}, Pred{f1, iNE, iIn}, true},
		{"float between", Pred{fl(GT, -0.5), fl(LT, 2.5)}, 0, Interval{From: 0, To: 2}, nil, true},
		{"float equality", Pred{fl(EQ, math.Copysign(0, -1))}, 0, Interval{From: 0, To: 0}, nil, true},
		// float64(2^53+1) rounds to 2^53 (ties to even), so <= 2^53 keeps it.
		{"float past 2^53", Pred{fl(LE, 1<<53)}, 0, Interval{From: math.MinInt64, To: 1<<53 + 1}, nil, true},
		// float64(2^62+512) ties to 2^62; 2^62+1024 is the next float.
		{"float tie at 2^62+512", Pred{fl(LE, 1<<62+512)}, 0, Interval{From: math.MinInt64, To: 1<<62 + 512}, nil, true},
		{"float 2^63", Pred{fl(GE, 1<<63)}, 0, Interval{From: math.MaxInt64 - 511, To: math.MaxInt64}, nil, true},
		{"float -2^63", Pred{fl(LT, -(1 << 63))}, 0, Interval{Empty: true}, nil, true},
		{"float +Inf", Pred{fl(LT, math.Inf(1))}, 0, allInts, nil, true},
		{"float NaN", Pred{fl(LE, math.NaN())}, 0, Interval{Empty: true}, nil, true},
	} {
		col, iv, rest, ok := IntRange(c.p, s)
		if col != c.col || iv != c.iv || rest.String() != c.rest.String() || len(rest) != len(c.rest) || ok != c.ok {
			t.Errorf("%s: IntRange(%s) = %d, %+v, %s, %v; want %d, %+v, %s, %v", c.name, c.p, col, iv, rest, ok, c.col, c.iv, c.rest, c.ok)
		}
	}
}

// term is the one-term predicate col op v.
func term(col string, op CmpOp, v storage.Value) Pred { return Pred{Compare(col, op, v)} }

func TestKernelCmpAllOpsAllTypes(t *testing.T) {
	b := edgeBatch()
	ops := []CmpOp{EQ, NE, LT, LE, GT, GE}
	for _, op := range ops {
		// Every column type.
		checkKernel(t, term("i", op, storage.IntValue(1)), b)
		checkKernel(t, term("f", op, storage.FloatValue(0)), b)
		checkKernel(t, term("f", op, storage.FloatValue(math.NaN())), b)
		checkKernel(t, term("s", op, storage.StringValue("a")), b)
		checkKernel(t, term("s", op, storage.StringValue("")), b)
		// Mixed numeric: i64 column vs float constant (per-row coercion — the
		// 2^53+1 row distinguishes integer from float compare), f64 column vs
		// int constant.
		checkKernel(t, term("i", op, storage.FloatValue(9007199254740992)), b)
		checkKernel(t, term("i", op, storage.FloatValue(1.5)), b)
		checkKernel(t, term("f", op, storage.IntValue(1)), b)
	}
}

// TestKernelIntColumnFloatEdges: an Int64 column against a float literal at
// every rounding edge, under every operator and IN, selects what EvalBool's
// float64(x) op c selects, and termInts holds exactly those integers at
// the ends of its interval and beyond them.
func TestKernelIntColumnFloatEdges(t *testing.T) {
	n := len(intEdges)
	b := kernelBatch(intEdges, make([]float64, n), make([]string, n), make([]bool, n))
	for _, c := range floatEdges {
		for op := EQ; op < IN; op++ {
			checkKernel(t, term("i", op, storage.FloatValue(c)), b)
			checkTermInts(t, op, c)
		}
		checkKernel(t, Pred{In("i", storage.FloatValue(c))}, b)
		checkKernel(t, Pred{In("i", storage.FloatValue(c), storage.IntValue(1<<53+1), storage.FloatValue(0x1p63))}, b)
	}
}

// checkTermInts holds termInts(op, c) to the comparison float64(x) op c at
// the int64 ends, at intEdges and at each end of the interval and one past
// it: the interval is one run, so agreeing there is agreeing everywhere.
func checkTermInts(t testing.TB, op CmpOp, c float64) {
	t.Helper()
	iv := termInts(op, storage.FloatValue(c))
	probes := slices.Clone(intEdges)
	if !iv.Empty {
		probes = append(probes, iv.From-1, iv.From, iv.To, iv.To+1)
	}
	for _, x := range probes {
		if got, want := iv.meets(x, x), satisfies(storage.IntValue(x), op, storage.FloatValue(c)); got != want {
			t.Fatalf("termInts(%s, %v) = %+v holds %d: %v, float64(x) %s c: %v", op, c, iv, x, got, op, want)
		}
	}
}

// TestKernelConnectives: a conjunction of any length refines term by term.
func TestKernelConnectives(t *testing.T) {
	b := edgeBatch()
	lt := Compare("i", LT, storage.IntValue(50))
	gt := Compare("f", GT, storage.FloatValue(0))
	eq := Compare("s", EQ, storage.StringValue(""))
	checkKernel(t, Pred{lt, gt}, b)
	checkKernel(t, Pred{lt, gt, eq}, b)
	checkKernel(t, Pred{eq, In("s", storage.StringValue(""), storage.StringValue("zzz")), lt}, b)
	checkKernel(t, Pred{gt, Compare("f", LT, storage.FloatValue(0))}, b) // empties midway
}

// TestKernelIn: col IN (v...) selects what col = v selects for some v —
// across int and float literals alike.
func TestKernelIn(t *testing.T) {
	b := edgeBatch()
	checkKernel(t, Pred{In("i", storage.IntValue(1), storage.IntValue(42), storage.FloatValue(0))}, b)
	checkKernel(t, Pred{In("i", storage.FloatValue(42), storage.FloatValue(9007199254740992))}, b)
	checkKernel(t, Pred{In("i", storage.FloatValue(math.NaN()), storage.StringValue("x"), storage.IntValue(-1))}, b)
	checkKernel(t, Pred{In("f",
		storage.FloatValue(math.NaN()), storage.FloatValue(1.5), storage.IntValue(42),
	)}, b)
	checkKernel(t, Pred{In("f", storage.FloatValue(math.Copysign(0, -1)))}, b)
	checkKernel(t, Pred{In("s", storage.StringValue(""), storage.StringValue("zzz"))}, b)

	// The same rows as =: an int column IN (42.0) is i = 42.0 is i = 42.
	f, err := CompileFilter(Pred{In("i", storage.FloatValue(42))}, b.Schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, eq := range []Pred{term("i", EQ, storage.FloatValue(42)), term("i", EQ, storage.IntValue(42))} {
		g, err := CompileFilter(eq, b.Schema)
		if err != nil {
			t.Fatal(err)
		}
		var sc Scratch
		if in, is := f.Refine(b, nil, nil, &sc), g.Refine(b, nil, nil, &sc); !slices.Equal(in, is) || len(in) != 1 {
			t.Fatalf("i IN (42.0) selects %v, %s selects %v", in, eq, is)
		}
	}
}

// TestCompileFilterBoundary pins what the only evaluator admits and, for what
// it refuses, that the error names the term and the reason — the message a
// user reads at the front door (planner.Query.Validate).
func TestCompileFilterBoundary(t *testing.T) {
	s := kernelSchema
	compilable := []Pred{
		term("f", LT, storage.FloatValue(1)),
		{Compare("i", LT, storage.IntValue(1)), Compare("s", EQ, storage.StringValue("x"))},
		{Compare("i", LT, storage.FloatValue(1)), Compare("f", EQ, storage.IntValue(1))},
		// Same type class, no value of the exact type: admitted.
		{In("i", storage.FloatValue(1))},
		// A value of another class is dropped, not refused.
		{In("i", storage.StringValue("a"), storage.IntValue(1))},
	}
	for _, p := range compilable {
		if _, err := CompileFilter(p, s); err != nil {
			t.Errorf("want compilable: %s: %v", p, err)
		}
	}
	refused := []struct {
		p    Pred
		want []string // substrings of the error
	}{
		{nil, []string{"empty filter"}},
		{term("missing", LT, storage.IntValue(1)), []string{"missing < 1", `unknown column "missing"`}},
		{term("s", EQ, storage.IntValue(1)), []string{"s = 1", `VARCHAR column "s"`, "BIGINT constant"}},
		{term("f", EQ, storage.StringValue("abc")), []string{"f = 'abc'", `DOUBLE column "f"`, "VARCHAR constant"}},
		{term("b", EQ, storage.IntValue(1)), []string{"b = 1", `BOOLEAN column "b"`}},
		{term("b", EQ, storage.BoolValue(true)), []string{`BOOLEAN column "b"`, "BOOLEAN constant"}},
		{Pred{In("b", storage.BoolValue(true))}, []string{`no BOOLEAN value for column "b"`}},
		{Pred{In("missing", storage.IntValue(1))}, []string{`unknown column "missing"`}},
		{Pred{In("s", storage.IntValue(5), storage.IntValue(6))}, []string{"s IN (5, 6)", `no VARCHAR value for column "s"`}},
		{Pred{In("f", storage.StringValue("a"))}, []string{"f IN ('a')", `no DOUBLE value for column "f"`}},
		{Pred{In("i")}, []string{"i IN ()", "no BIGINT value"}},
		{Pred{{Col: "i", Op: IN + 1}}, []string{"unknown operator"}},
		// The first refused term is the one named, wherever it sits.
		{Pred{Compare("i", LT, storage.IntValue(1)), Compare("s", LT, storage.IntValue(2))}, []string{"filter s < 2:"}},
	}
	for _, c := range refused {
		_, err := CompileFilter(c.p, s)
		if err == nil {
			t.Errorf("want refused: %s", c.p)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("CompileFilter(%s) = %q, want it to mention %q", c.p, err, w)
			}
		}
	}
}

// TestKernelScratchReuse exercises buffer recycling across batches and a
// long conjunction (the Scratch free list must not alias live selections).
func TestKernelScratchReuse(t *testing.T) {
	b := edgeBatch()
	p := Pred{
		Compare("i", GE, storage.IntValue(-1)),
		Compare("s", NE, storage.StringValue("")),
		Compare("f", NE, storage.FloatValue(42)),
		In("i", storage.IntValue(0), storage.IntValue(1), storage.IntValue(42), storage.FloatValue(-1)),
	}
	f, err := CompileFilter(p, b.Schema)
	if err != nil {
		t.Fatal(err)
	}
	var sc Scratch
	want := oracleSelect(t, p, b, nil)
	for pass := 0; pass < 5; pass++ {
		if got := f.Refine(b, nil, nil, &sc); !slices.Equal(got, want) {
			t.Fatalf("pass %d: kernel %v, oracle %v", pass, got, want)
		}
	}
}

// TestRefineAppends holds Refine to its contract: survivors are appended to
// out. Every leaf kind and connective runs behind a non-empty prefix, once
// with no spare capacity (the kernel must grow and copy) and once with room;
// the prefix must survive and the tail must be the oracle's.
func TestRefineAppends(t *testing.T) {
	plain := edgeBatch()
	coded := codedCopy(plain)
	lt := Compare("i", LT, storage.IntValue(50))
	preds := []Pred{
		{lt},
		term("f", GE, storage.FloatValue(0)),
		term("i", GT, storage.FloatValue(0.5)),
		term("s", LE, storage.StringValue("ab")),
		{In("i", storage.IntValue(1), storage.IntValue(42))},
		{In("i", storage.IntValue(1), storage.FloatValue(42))},
		{In("f", storage.FloatValue(1.5), storage.IntValue(42))},
		{In("s", storage.StringValue(""), storage.StringValue("zzz"))},
		{lt, Compare("s", NE, storage.StringValue("a"))},
	}
	prefix := []int32{-7, 99, 3}
	for _, e := range preds {
		f, err := CompileFilter(e, plain.Schema)
		if err != nil {
			t.Fatal(err)
		}
		for k, b := range []*storage.Batch{plain, coded} {
			var sc Scratch
			for _, in := range [][]int32{nil, {1, 2, 5, 7}} {
				want := oracleSelect(t, e, b, in)
				for _, room := range []int{0, b.Len()} {
					out := append(make([]int32, 0, len(prefix)+room), prefix...)
					got := f.Refine(b, in, out, &sc)
					if !slices.Equal(got[:min(len(got), len(prefix))], prefix) || !slices.Equal(got[len(prefix):], want) {
						t.Fatalf("%s (in=%v, room=%d, coded=%v): got %v, want %v then %v", e, in, room, k == 1, got, prefix, want)
					}
				}
			}
		}
	}
}

// TestCodedLeafFollowsTheDictionary pushes batches under two dictionaries
// through one Scratch: a table's, then the extended one its append of a new
// value is coded under, then the first again. Every batch meets the oracle,
// and after each one the leaf's truth table is the batch's dictionary's — a
// table kept from the first dictionary has no verdict for the new code.
func TestCodedLeafFollowsTheDictionary(t *testing.T) {
	schema := storage.Schema{{Name: "s", Typ: storage.String}}
	build := func(vals ...string) *storage.Table {
		tb := storage.NewBuilder("t", schema)
		for _, v := range vals {
			tb.Str(0, v)
		}
		return tb.Build(1)
	}
	old := build("AIR", "RAIL", "SHIP", "RAIL", "AIR", "SHIP")
	grown, err := old.Append(build("MAIL", "RAIL", "MAIL"))
	if err != nil {
		t.Fatal(err)
	}
	before, after := old.Scan(0, old.NumRows())[0], grown.Scan(0, grown.NumRows())[0]
	d0, d1 := before.Vecs[0].Dict, after.Vecs[0].Dict
	if d0 == nil || d1 == nil || d0 == d1 {
		t.Fatalf("want two dictionaries, got %p and %p", d0, d1)
	}
	if codedCopy(edgeBatch()).Vecs[2].Dict == nil {
		t.Fatal("codedCopy left the string column uncoded")
	}
	preds := []Pred{
		term("s", EQ, storage.StringValue("MAIL")),
		term("s", GE, storage.StringValue("RAIL")),
		{In("s", storage.StringValue("MAIL"), storage.StringValue("AIR"))},
		term("s", NE, storage.StringValue("AIR")),
	}
	for _, e := range preds {
		f, err := CompileFilter(e, schema)
		if err != nil {
			t.Fatal(err)
		}
		var sc Scratch
		for _, b := range []*storage.Batch{before, after, before, after} {
			for _, in := range [][]int32{{0, 2, 4}, nil} {
				got := f.Refine(b, in, nil, &sc)
				if want := oracleSelect(t, e, b, in); !slices.Equal(got, want) {
					t.Fatalf("%s over %d rows (in=%v): kernel %v, oracle %v", e, b.Len(), in, got, want)
				}
				if tt := sc.truths[0]; tt.dict != b.Vecs[0].Dict || len(tt.of) != b.Vecs[0].Dict.Len() {
					t.Fatalf("%s: truth table of a %d-value dictionary used for a batch of a %d-value one", e, len(tt.of), b.Vecs[0].Dict.Len())
				}
			}
		}
	}
}

// TestScratchSharedAcrossFilters alternates two filters whose string leaves
// share a slot number over one Scratch and one dictionary: each must decide
// its own codes, not read the other's verdicts.
func TestScratchSharedAcrossFilters(t *testing.T) {
	b := codedCopy(edgeBatch())
	air := term("s", EQ, storage.StringValue("a"))
	zzz := Pred{In("s", storage.StringValue("zzz"))}
	fa, err := CompileFilter(air, b.Schema)
	if err != nil {
		t.Fatal(err)
	}
	fz, err := CompileFilter(zzz, b.Schema)
	if err != nil {
		t.Fatal(err)
	}
	var sc Scratch
	for pass := 0; pass < 3; pass++ {
		for _, c := range []struct {
			f *Filter
			e Pred
		}{{fa, air}, {fz, zzz}} {
			got := c.f.Refine(b, nil, nil, &sc)
			if want := oracleSelect(t, c.e, b, nil); !slices.Equal(got, want) {
				t.Fatalf("pass %d, %s: kernel %v, oracle %v", pass, c.e, got, want)
			}
		}
	}
}

// TestKernelRangeFusion: a lower and an upper Int64 bound on one column run
// as one range leaf, which selects what the two terms select, dense and
// under a selection, at every edge of the int64 domain; a bound of another
// kind, or a third bound, keeps a leaf of its own.
func TestKernelRangeFusion(t *testing.T) {
	b := edgeBatch()
	i := func(op CmpOp, c int64) Term { return Compare("i", op, storage.IntValue(c)) }
	cases := []struct {
		name   string
		p      Pred
		leaves int // the program's leaves after fusion
		none   bool
	}{
		{"between", Pred{i(GE, -1), i(LE, 42)}, 1, false},
		{"strict", Pred{i(GT, -1), i(LT, 1<<53+1)}, 1, false},
		{"upper first", Pred{i(LT, 42), i(GE, 0)}, 1, false},
		{"lo == hi", Pred{i(GE, 42), i(LE, 42)}, 1, false},
		{"lo > hi", Pred{i(GE, 43), i(LE, 42)}, 1, true},
		{"strict, meeting", Pred{i(GT, 0), i(LT, 1)}, 1, true},
		{"whole domain", Pred{i(GE, math.MinInt64), i(LE, math.MaxInt64)}, 1, false},
		{"strict domain", Pred{i(GT, math.MinInt64), i(LT, math.MaxInt64)}, 1, false},
		{"> MaxInt64", Pred{i(GT, math.MaxInt64), i(LE, math.MaxInt64)}, 1, true},
		{"< MinInt64", Pred{i(GE, math.MinInt64), i(LT, math.MinInt64)}, 1, true},
		{"two lower bounds", Pred{i(GE, 0), i(GT, -1), i(LE, 42)}, 2, false},
		{"two pairs", Pred{i(GE, 0), i(GT, -1), i(LE, 42), i(LT, 1<<53)}, 2, false},
		{"between other terms", Pred{Compare("f", GT, storage.FloatValue(0)), i(GE, 1), Compare("s", NE, storage.StringValue("")), i(LE, 1<<53)}, 3, false},
		{"float literal", Pred{Compare("i", GE, storage.FloatValue(0.5)), i(LE, 42)}, 2, false},
		{"two upper bounds", Pred{i(LE, 42), i(LT, 1)}, 2, false},
	}
	for _, c := range cases {
		checkKernel(t, c.p, b)
		f, err := CompileFilter(c.p, b.Schema)
		if err != nil {
			t.Fatal(err)
		}
		leaves := []selNode{f.root}
		if and, ok := f.root.(*andNode); ok {
			leaves = and.kids
		}
		var ranges []*rangeNode
		for _, l := range leaves {
			if r, ok := l.(*rangeNode); ok {
				ranges = append(ranges, r)
			}
		}
		// A fused pair is one range leaf, and so is an Int64 column's
		// comparison with a float literal.
		wantRanges := len(c.p) - c.leaves
		for _, term := range c.p {
			if term.Col == "i" && term.Val.Typ == storage.Float64 {
				wantRanges++
			}
		}
		if len(leaves) != c.leaves || len(ranges) != wantRanges {
			t.Fatalf("%s: %d leaves, %d of them ranges; want %d and %d", c.name, len(leaves), len(ranges), c.leaves, wantRanges)
		}
		if wantRanges > 0 && ranges[0].none != c.none {
			t.Fatalf("%s: range selects nothing = %v, want %v", c.name, ranges[0].none, c.none)
		}
	}

	// Bounds on two columns pair by column: i's with i's, j's with j's.
	two := storage.NewBatch(storage.Schema{{Name: "i", Typ: storage.Int64}, {Name: "j", Typ: storage.Int64}}, 0)
	for r := int64(0); r < 16; r++ {
		two.Vecs[0].I64 = append(two.Vecs[0].I64, r)
		two.Vecs[1].I64 = append(two.Vecs[1].I64, 15-r)
	}
	p := Pred{i(GE, 3), Compare("j", LE, storage.IntValue(4)), Compare("j", GE, storage.IntValue(2)), i(LE, 12)}
	checkKernel(t, p, two)
	if f, err := CompileFilter(p, two.Schema); err != nil || len(f.root.(*andNode).kids) != 2 {
		t.Fatalf("%s: want two range leaves (err %v)", p, err)
	}
}

// ---- fuzz targets: each typed kernel vs the row-at-a-time oracle ----

// fuzzFloats decodes a byte string into float64s, folding some bit patterns
// onto the IEEE specials so NaN/±Inf appear far more often than raw bit
// decoding would produce.
func fuzzFloats(data []byte) []float64 {
	var out []float64
	for len(data) >= 8 {
		bits := binary.LittleEndian.Uint64(data[:8])
		data = data[8:]
		switch bits % 7 {
		case 0:
			out = append(out, math.NaN())
		case 1:
			out = append(out, math.Inf(1))
		case 2:
			out = append(out, math.Inf(-1))
		case 3:
			out = append(out, math.Copysign(0, -1))
		default:
			out = append(out, math.Float64frombits(bits))
		}
	}
	if len(out) == 0 {
		out = []float64{0}
	}
	return out
}

func fuzzOp(b byte) CmpOp { return CmpOp(b % 6) }

func FuzzKernelCmpF64(f *testing.F) {
	f.Add(uint64(math.Float64bits(1.5)), byte(2), []byte("\x00\x01\x02\x03\x04\x05\x06\x07"))
	f.Add(math.Float64bits(math.NaN()), byte(1), make([]byte, 64))
	f.Add(math.Float64bits(math.Inf(-1)), byte(5), []byte("edgecasedgecase!"))
	f.Fuzz(func(t *testing.T, cbits uint64, opb byte, data []byte) {
		fs := fuzzFloats(data)
		n := len(fs)
		b := kernelBatch(make([]int64, n), fs, make([]string, n), make([]bool, n))
		c := math.Float64frombits(cbits)
		checkKernel(t, term("f", fuzzOp(opb), storage.FloatValue(c)), b)
		checkKernel(t, Pred{In("f", storage.FloatValue(c), storage.FloatValue(fs[0]))}, b)
	})
}

// FuzzKernelCmpI64: an Int64 column against an int literal c, against c
// as a float and against a float literal fc, under one operator and in IN
// lists, over fuzzed rows and intEdges. The seeds put c and fc at every
// rounding edge (intEdges, floatEdges) under every operator.
func FuzzKernelCmpI64(f *testing.F) {
	f.Add(int64(0), uint64(0), byte(0), []byte("\xff\xff\xff\xff\xff\xff\xff\x7f"))
	f.Add(int64(math.MinInt64), math.Float64bits(2.5), byte(4), make([]byte, 32))
	for k, fc := range floatEdges {
		f.Add(intEdges[k%len(intEdges)], math.Float64bits(fc), byte(k), []byte{})
		f.Add(intEdges[(k+7)%len(intEdges)], math.Float64bits(fc), byte(k+3), []byte{})
	}
	f.Fuzz(func(t *testing.T, c int64, fbits uint64, opb byte, data []byte) {
		is := slices.Clone(intEdges)
		for len(data) >= 8 {
			is = append(is, int64(binary.LittleEndian.Uint64(data[:8])))
			data = data[8:]
		}
		n := len(is)
		b := kernelBatch(is, make([]float64, n), make([]string, n), make([]bool, n))
		fc := math.Float64frombits(fbits)
		checkKernel(t, term("i", fuzzOp(opb), storage.IntValue(c)), b)
		// Float literals on the Int64 column: c as a float, above 2^53 a
		// rounded one, and fc.
		checkKernel(t, term("i", fuzzOp(opb), storage.FloatValue(float64(c))), b)
		checkKernel(t, term("i", fuzzOp(opb), storage.FloatValue(fc)), b)
		checkTermInts(t, fuzzOp(opb), fc)
		checkKernel(t, Pred{In("i", storage.IntValue(c), storage.IntValue(is[0]))}, b)
		checkKernel(t, Pred{In("i", storage.FloatValue(float64(c)), storage.IntValue(is[0]))}, b)
		checkKernel(t, Pred{In("i", storage.FloatValue(fc), storage.FloatValue(float64(c)))}, b)
	})
}

func FuzzKernelCmpStr(f *testing.F) {
	f.Add("", byte(0), "a\x00b\xffc")
	f.Add("needle", byte(3), "")
	f.Fuzz(func(t *testing.T, c string, opb byte, data string) {
		// Split data into short strings on a fixed stride, keeping empties.
		var ss []string
		for len(data) > 3 {
			ss = append(ss, data[:3])
			data = data[3:]
		}
		ss = append(ss, data, "")
		n := len(ss)
		b := kernelBatch(make([]int64, n), make([]float64, n), ss, make([]bool, n))
		checkKernel(t, term("s", fuzzOp(opb), storage.StringValue(c)), b)
		checkKernel(t, Pred{In("s", storage.StringValue(c), storage.StringValue(ss[0]))}, b)
	})
}

// FuzzKernelTerms drives whole compiled programs — random term lists over
// the int, float and string columns, fused into one conjunction — against
// the oracle on the edge batch, uncoded and coded (checkKernel). The terms
// include int-column comparisons with float literals and IN lists mixing
// int and float literals, the cases where IN must agree with =. Int-column
// comparisons with int literals alternate between two constants, so a lower
// and an upper bound with distinct ends reach the range leaf. String
// terms, a comparison and an IN list against a fuzzed constant, take the
// per-code path on the coded copy, several of them sharing one Scratch.
func FuzzKernelTerms(f *testing.F) {
	f.Add(uint64(0x1234), byte(3), int64(7), int64(7), uint64(math.Float64bits(2.5)), "a")
	f.Add(uint64(0xffffffff), byte(6), int64(-1), int64(1<<53), math.Float64bits(math.NaN()), "zz")
	f.Add(uint64(0x9c), byte(2), int64(42), int64(0), math.Float64bits(42), "")
	f.Add(uint64(0x5a5a5a5a), byte(5), int64(1<<53+1), int64(-1), math.Float64bits(1<<53), "ab")
	// i >= -1 AND i <= 42, and i > 42 AND i < -1: a range leaf, and an
	// empty one.
	f.Add(uint64(0x628), byte(1), int64(-1), int64(42), math.Float64bits(0), "")
	f.Add(uint64(0x410), byte(1), int64(42), int64(-1), math.Float64bits(0), "")
	// An Int64 column against a float literal at each rounding edge, one
	// term a seed, every operator and IN.
	for k, fc := range floatEdges {
		f.Add(uint64(1|(k%6)<<3), byte(0), intEdges[k%len(intEdges)], int64(0), math.Float64bits(fc), "")
		f.Add(uint64(5), byte(0), intEdges[(k+3)%len(intEdges)], int64(0), math.Float64bits(fc), "")
	}
	f.Fuzz(func(t *testing.T, shape uint64, n byte, ic, ic2 int64, fbits uint64, sv string) {
		b := edgeBatch()
		fc := math.Float64frombits(fbits)
		// Each term takes three shape bits for its kind and three for its
		// operator.
		p := make(Pred, 1+int(n%5))
		for k := range p {
			op := fuzzOp(byte(shape >> 3))
			switch shape & 7 {
			case 0:
				c := ic
				if k%2 == 1 {
					c = ic2
				}
				p[k] = Compare("i", op, storage.IntValue(c))
			case 1:
				p[k] = Compare("i", op, storage.FloatValue(fc))
			case 2:
				p[k] = Compare("f", op, storage.FloatValue(fc))
			case 3:
				p[k] = Compare("f", op, storage.IntValue(ic))
			case 4:
				p[k] = Compare("s", op, storage.StringValue(sv))
			case 5:
				p[k] = In("i", storage.IntValue(ic), storage.FloatValue(fc), storage.FloatValue(float64(ic)))
			case 6:
				p[k] = In("f", storage.FloatValue(fc), storage.IntValue(ic))
			default:
				p[k] = In("s", storage.StringValue(sv), storage.StringValue("a"))
			}
			shape = shape>>6 | shape<<58
		}
		checkKernel(t, p, b)
	})
}

package expr

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/tasterdb/taster/internal/storage"
)

// kernelSchema covers every kernel-compilable column type.
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

// oracleSelect is the interpreted reference: Eval's boolean vector restricted
// to the candidate rows.
func oracleSelect(t testing.TB, e Expr, b *storage.Batch, in []int32) []int32 {
	t.Helper()
	v, err := e.Eval(b)
	if err != nil {
		t.Fatalf("oracle Eval(%s): %v", e, err)
	}
	var out []int32
	if in == nil {
		for i, ok := range v.B {
			if ok {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range in {
		if v.B[i] {
			out = append(out, i)
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

// checkKernel compiles e and compares Refine against the oracle, both dense
// (in = nil) and under a sparse candidate selection, over b's uncoded string
// columns and over a coded copy of the same rows: string leaves take the
// per-code path on one and compare every row on the other.
func checkKernel(t testing.TB, e Expr, b *storage.Batch) {
	t.Helper()
	f, err := CompileFilter(e, b.Schema)
	if err != nil {
		t.Fatalf("CompileFilter(%s): %v", e, err)
	}
	sparse := make([]int32, 0, b.Len())
	for i := 0; i < b.Len(); i += 2 {
		sparse = append(sparse, int32(i))
	}
	for k, batch := range []*storage.Batch{b, codedCopy(b)} {
		var sc Scratch
		for _, in := range [][]int32{nil, sparse, {}} {
			got := f.Refine(batch, in, nil, &sc)
			want := oracleSelect(t, e, batch, in)
			if !slices.Equal(got, want) {
				t.Fatalf("%s (in=%v, coded=%v): kernel %v, oracle %v", e, in, k == 1, got, want)
			}
		}
	}
}

func TestKernelCmpAllOpsAllTypes(t *testing.T) {
	b := edgeBatch()
	ops := []CmpOp{EQ, NE, LT, LE, GT, GE}
	for _, op := range ops {
		// Every column type, constant on the right.
		checkKernel(t, &Cmp{Op: op, L: &Col{Name: "i"}, R: Int(1)}, b)
		checkKernel(t, &Cmp{Op: op, L: &Col{Name: "f"}, R: Float(0)}, b)
		checkKernel(t, &Cmp{Op: op, L: &Col{Name: "f"}, R: Float(math.NaN())}, b)
		checkKernel(t, &Cmp{Op: op, L: &Col{Name: "s"}, R: Str("a")}, b)
		checkKernel(t, &Cmp{Op: op, L: &Col{Name: "s"}, R: Str("")}, b)
		checkKernel(t, &Cmp{Op: op, L: &Col{Name: "b"}, R: &Const{Val: storage.BoolValue(true)}}, b)
		// Mixed numeric: i64 column vs float constant (per-row coercion — the
		// 2^53+1 row distinguishes integer from float compare), f64 column vs
		// int constant.
		checkKernel(t, &Cmp{Op: op, L: &Col{Name: "i"}, R: Float(9007199254740992)}, b)
		checkKernel(t, &Cmp{Op: op, L: &Col{Name: "f"}, R: Int(1)}, b)
		// Constant on the left (mirrored operator).
		checkKernel(t, &Cmp{Op: op, L: Int(1), R: &Col{Name: "i"}}, b)
		checkKernel(t, &Cmp{Op: op, L: Float(1.5), R: &Col{Name: "f"}}, b)
		checkKernel(t, &Cmp{Op: op, L: Str("ab"), R: &Col{Name: "s"}}, b)
	}
}

func TestKernelNotIsComplementNotNegation(t *testing.T) {
	b := edgeBatch()
	// NOT(f < 5) must keep the NaN row; f >= 5 would drop it. The oracle
	// agrees by construction; this test additionally pins the row set.
	e := &Not{E: &Cmp{Op: LT, L: &Col{Name: "f"}, R: Float(5)}}
	checkKernel(t, e, b)
	f, _ := CompileFilter(e, b.Schema)
	var sc Scratch
	got := f.Refine(b, nil, nil, &sc)
	hasNaN := false
	for _, i := range got {
		if math.IsNaN(b.Vecs[1].F64[i]) {
			hasNaN = true
		}
	}
	if !hasNaN {
		t.Fatalf("NOT(f < 5) dropped the NaN row: %v", got)
	}
}

func TestKernelConnectives(t *testing.T) {
	b := edgeBatch()
	lt := &Cmp{Op: LT, L: &Col{Name: "i"}, R: Int(50)}
	gt := &Cmp{Op: GT, L: &Col{Name: "f"}, R: Float(0)}
	eq := &Cmp{Op: EQ, L: &Col{Name: "s"}, R: Str("")}
	checkKernel(t, &Logic{Op: And, L: lt, R: gt}, b)
	checkKernel(t, &Logic{Op: Or, L: lt, R: gt}, b)
	checkKernel(t, &Logic{Op: And, L: &Logic{Op: And, L: lt, R: gt}, R: eq}, b)
	checkKernel(t, &Logic{Op: Or, L: &Logic{Op: Or, L: lt, R: gt}, R: eq}, b)
	checkKernel(t, &Logic{Op: Or, L: &Logic{Op: And, L: lt, R: gt}, R: &Not{E: eq}}, b)
	checkKernel(t, &Not{E: &Logic{Op: Or, L: lt, R: &Not{E: gt}}}, b)
}

func TestKernelIn(t *testing.T) {
	b := edgeBatch()
	checkKernel(t, &In{E: &Col{Name: "i"}, Vals: []storage.Value{
		storage.IntValue(1), storage.IntValue(42), storage.FloatValue(0), // float never matches int64
	}}, b)
	checkKernel(t, &In{E: &Col{Name: "f"}, Vals: []storage.Value{
		storage.FloatValue(math.NaN()), storage.FloatValue(1.5), storage.IntValue(42),
	}}, b)
	checkKernel(t, &In{E: &Col{Name: "s"}, Vals: []storage.Value{
		storage.StringValue(""), storage.StringValue("zzz"),
	}}, b)
	checkKernel(t, &In{E: &Col{Name: "b"}, Vals: []storage.Value{
		storage.BoolValue(false),
	}}, b)
}

// TestCompileFilterBoundary pins what the only evaluator admits and, for what
// it refuses, that the error names the sub-expression and the reason — the
// message a user reads at the front door (planner.Query.Validate).
func TestCompileFilterBoundary(t *testing.T) {
	s := kernelSchema
	compilable := []Expr{
		&Cmp{Op: LT, L: &Col{Name: "f"}, R: Float(1)},
		&Logic{Op: And, L: &Cmp{Op: LT, L: &Col{Name: "i"}, R: Int(1)}, R: &Cmp{Op: EQ, L: &Col{Name: "s"}, R: Str("x")}},
		&Logic{Op: Or, L: &Cmp{Op: LT, L: &Col{Name: "i"}, R: Float(1)}, R: &Cmp{Op: EQ, L: &Col{Name: "f"}, R: Int(1)}},
		&Not{E: &In{E: &Col{Name: "i"}, Vals: []storage.Value{storage.IntValue(1)}}},
		// Same type class, no value of the exact type: admitted, matches nothing.
		&In{E: &Col{Name: "i"}, Vals: []storage.Value{storage.FloatValue(1)}},
	}
	for _, e := range compilable {
		if _, err := CompileFilter(e, s); err != nil {
			t.Errorf("want compilable: %s: %v", e, err)
		}
	}
	colVsCol := &Cmp{Op: LT, L: &Col{Name: "i"}, R: &Col{Name: "i"}}
	refused := []struct {
		e    Expr
		want []string // substrings of the error
	}{
		{&Cmp{Op: LT, L: &Col{Name: "i"}, R: &Col{Name: "f"}}, []string{"i < f", "compares two columns"}},
		{&Cmp{Op: LT, L: &Bin{Op: Add, L: &Col{Name: "i"}, R: Int(1)}, R: Int(2)}, []string{"(i + 1) < 2", "arithmetic"}},
		{&Cmp{Op: LT, L: Int(1), R: Int(2)}, []string{"1 < 2", "does not compare a column with a constant"}},
		{&Cmp{Op: LT, L: &Col{Name: "missing"}, R: Int(1)}, []string{"missing < 1", `unknown column "missing"`}},
		{&Cmp{Op: EQ, L: &Col{Name: "s"}, R: Int(1)}, []string{"s = 1", `VARCHAR column "s"`, "BIGINT constant"}},
		{&Cmp{Op: EQ, L: &Col{Name: "f"}, R: Str("abc")}, []string{"f = 'abc'", `DOUBLE column "f"`, "VARCHAR constant"}},
		{&Cmp{Op: EQ, L: &Col{Name: "b"}, R: Int(1)}, []string{"b = 1", `BOOLEAN column "b"`}},
		{&In{E: &Bin{Op: Add, L: &Col{Name: "i"}, R: Int(1)}, Vals: nil}, []string{"IN over an expression"}},
		{&In{E: &Col{Name: "missing"}, Vals: []storage.Value{storage.IntValue(1)}}, []string{`unknown column "missing"`}},
		{&In{E: &Col{Name: "s"}, Vals: []storage.Value{storage.IntValue(5), storage.IntValue(6)}}, []string{"s IN (5, 6)", `no VARCHAR value for column "s"`}},
		{&In{E: &Col{Name: "f"}, Vals: []storage.Value{storage.StringValue("a")}}, []string{"f IN ('a')", `no DOUBLE value for column "f"`}},
		{&In{E: &Col{Name: "i"}, Vals: nil}, []string{"i IN ()", "no BIGINT value"}},
		{&Col{Name: "b"}, []string{"not a boolean predicate"}},
		{&Bin{Op: Add, L: &Col{Name: "i"}, R: Int(1)}, []string{"(i + 1)", "not a boolean predicate"}},
		// The first refused sub-expression is the one named, wherever it sits.
		{&Logic{Op: And, L: &Cmp{Op: LT, L: &Col{Name: "i"}, R: Int(1)}, R: colVsCol}, []string{"filter i < i:"}},
		{&Not{E: &Logic{Op: Or, L: colVsCol, R: &Cmp{Op: LT, L: &Col{Name: "i"}, R: Int(1)}}}, []string{"filter i < i:"}},
	}
	for _, c := range refused {
		_, err := CompileFilter(c.e, s)
		if err == nil {
			t.Errorf("want refused: %s", c.e)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("CompileFilter(%s) = %q, want it to mention %q", c.e, err, w)
			}
		}
	}
}

// TestKernelScratchReuse exercises buffer recycling across batches and nested
// connectives (the Scratch free list must not alias live selections).
func TestKernelScratchReuse(t *testing.T) {
	b := edgeBatch()
	e := &Logic{Op: Or,
		L: &Logic{Op: And,
			L: &Cmp{Op: GE, L: &Col{Name: "i"}, R: Int(0)},
			R: &Not{E: &Cmp{Op: EQ, L: &Col{Name: "s"}, R: Str("")}}},
		R: &Logic{Op: Or,
			L: &Cmp{Op: NE, L: &Col{Name: "f"}, R: Float(42)},
			R: &In{E: &Col{Name: "b"}, Vals: []storage.Value{storage.BoolValue(true)}}},
	}
	f, err := CompileFilter(e, b.Schema)
	if err != nil {
		t.Fatal(err)
	}
	var sc Scratch
	want := oracleSelect(t, e, b, nil)
	for pass := 0; pass < 5; pass++ {
		got := f.Refine(b, nil, nil, &sc)
		if len(got) != len(want) {
			t.Fatalf("pass %d: kernel %v, oracle %v", pass, got, want)
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("pass %d: kernel %v, oracle %v", pass, got, want)
			}
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
	lt := &Cmp{Op: LT, L: &Col{Name: "i"}, R: Int(50)}
	preds := []Expr{
		lt,
		&Cmp{Op: GE, L: &Col{Name: "f"}, R: Float(0)},
		&Cmp{Op: GT, L: &Col{Name: "i"}, R: Float(0.5)},
		&Cmp{Op: EQ, L: &Col{Name: "b"}, R: &Const{Val: storage.BoolValue(true)}},
		&Cmp{Op: LE, L: &Col{Name: "s"}, R: Str("ab")},
		&In{E: &Col{Name: "i"}, Vals: []storage.Value{storage.IntValue(1), storage.IntValue(42)}},
		&In{E: &Col{Name: "s"}, Vals: []storage.Value{storage.StringValue(""), storage.StringValue("zzz")}},
		&Logic{Op: And, L: lt, R: &Cmp{Op: NE, L: &Col{Name: "s"}, R: Str("a")}},
		&Logic{Op: Or, L: lt, R: &Not{E: lt}},
		&Not{E: lt},
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
	s := &Col{Name: "s"}
	preds := []Expr{
		&Cmp{Op: EQ, L: s, R: Str("MAIL")},
		&Cmp{Op: GE, L: s, R: Str("RAIL")},
		&In{E: s, Vals: []storage.Value{storage.StringValue("MAIL"), storage.StringValue("AIR")}},
		&Not{E: &Cmp{Op: EQ, L: s, R: Str("AIR")}},
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
	air := &Cmp{Op: EQ, L: &Col{Name: "s"}, R: Str("a")}
	zzz := &In{E: &Col{Name: "s"}, Vals: []storage.Value{storage.StringValue("zzz")}}
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
			e Expr
		}{{fa, air}, {fz, zzz}} {
			got := c.f.Refine(b, nil, nil, &sc)
			if want := oracleSelect(t, c.e, b, nil); !slices.Equal(got, want) {
				t.Fatalf("pass %d, %s: kernel %v, oracle %v", pass, c.e, got, want)
			}
		}
	}
}

// ---- fuzz targets: each typed kernel vs the scalar Eval oracle ----

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
		checkKernel(t, &Cmp{Op: fuzzOp(opb), L: &Col{Name: "f"}, R: Float(c)}, b)
		checkKernel(t, &Cmp{Op: fuzzOp(opb), L: Float(c), R: &Col{Name: "f"}}, b)
		checkKernel(t, &In{E: &Col{Name: "f"}, Vals: []storage.Value{storage.FloatValue(c), storage.FloatValue(fs[0])}}, b)
	})
}

func FuzzKernelCmpI64(f *testing.F) {
	f.Add(int64(0), byte(0), []byte("\xff\xff\xff\xff\xff\xff\xff\x7f"))
	f.Add(int64(math.MinInt64), byte(4), make([]byte, 32))
	f.Fuzz(func(t *testing.T, c int64, opb byte, data []byte) {
		var is []int64
		for len(data) >= 8 {
			is = append(is, int64(binary.LittleEndian.Uint64(data[:8])))
			data = data[8:]
		}
		if len(is) == 0 {
			is = []int64{0}
		}
		n := len(is)
		b := kernelBatch(is, make([]float64, n), make([]string, n), make([]bool, n))
		checkKernel(t, &Cmp{Op: fuzzOp(opb), L: &Col{Name: "i"}, R: Int(c)}, b)
		// Mixed numeric: the same constant as a float, exercising coercion
		// above 2^53.
		checkKernel(t, &Cmp{Op: fuzzOp(opb), L: &Col{Name: "i"}, R: Float(float64(c))}, b)
		checkKernel(t, &In{E: &Col{Name: "i"}, Vals: []storage.Value{storage.IntValue(c), storage.IntValue(is[0])}}, b)
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
		checkKernel(t, &Cmp{Op: fuzzOp(opb), L: &Col{Name: "s"}, R: Str(c)}, b)
		checkKernel(t, &Cmp{Op: fuzzOp(opb), L: Str(c), R: &Col{Name: "s"}}, b)
		checkKernel(t, &In{E: &Col{Name: "s"}, Vals: []storage.Value{storage.StringValue(c), storage.StringValue(ss[0])}}, b)
	})
}

// FuzzKernelTree drives whole compiled programs — connective nesting, NOT
// complements, conjunct fusion — against the interpreter on an edge-heavy
// batch, uncoded and coded (checkKernel): its string leaves, a comparison and
// an IN list against a fuzzed constant, take the per-code path on the coded
// copy, several of them sharing one Scratch.
func FuzzKernelTree(f *testing.F) {
	f.Add(uint64(0x1234), byte(3), int64(7), uint64(math.Float64bits(2.5)), "a")
	f.Add(uint64(0xffffffff), byte(6), int64(-1), math.Float64bits(math.NaN()), "zz")
	f.Fuzz(func(t *testing.T, shape uint64, depth byte, ic int64, fbits uint64, sv string) {
		b := edgeBatch()
		fc := math.Float64frombits(fbits)
		// Build a random tree: each shape bit pair picks a node kind; a leaf
		// is picked by that pair and the next bit.
		var build func(d int) Expr
		build = func(d int) Expr {
			k := shape & 3
			shape >>= 2
			if d <= 0 || shape == 0 {
				leaves := []Expr{
					&Cmp{Op: fuzzOp(byte(shape)), L: &Col{Name: "i"}, R: Int(ic)},
					&Cmp{Op: fuzzOp(byte(shape >> 1)), L: &Col{Name: "f"}, R: Float(fc)},
					&Cmp{Op: fuzzOp(byte(shape >> 2)), L: &Col{Name: "s"}, R: Str(sv)},
					&In{E: &Col{Name: "f"}, Vals: []storage.Value{storage.FloatValue(fc)}},
					&In{E: &Col{Name: "s"}, Vals: []storage.Value{storage.StringValue(sv), storage.StringValue("a")}},
					&Cmp{Op: fuzzOp(byte(shape >> 3)), L: Str(sv), R: &Col{Name: "s"}},
				}
				leaf := leaves[(k<<1|shape&1)%uint64(len(leaves))]
				shape >>= 1
				return leaf
			}
			switch k {
			case 0:
				return &Logic{Op: And, L: build(d - 1), R: build(d - 1)}
			case 1:
				return &Logic{Op: Or, L: build(d - 1), R: build(d - 1)}
			case 2:
				return &Not{E: build(d - 1)}
			default:
				return &Cmp{Op: fuzzOp(byte(shape)), L: &Col{Name: "f"}, R: Float(fc)}
			}
		}
		checkKernel(t, build(int(depth%4)), b)
	})
}

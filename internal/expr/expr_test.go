package expr

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"github.com/tasterdb/taster/internal/storage"
)

func testBatch() *storage.Batch {
	schema := storage.Schema{
		{Name: "t.a", Typ: storage.Int64},
		{Name: "t.b", Typ: storage.Float64},
		{Name: "t.s", Typ: storage.String},
	}
	b := storage.NewBatch(schema, 4)
	for i := 0; i < 4; i++ {
		b.Vecs[0].Append(storage.IntValue(int64(i)))
		b.Vecs[1].Append(storage.FloatValue(float64(i) * 2.5))
		b.Vecs[2].Append(storage.StringValue(string(rune('a' + i))))
	}
	return b
}

// TestColAndConstEval: a term reads its column and compares it with its
// literal; an unknown column is an error, not an empty answer.
func TestColAndConstEval(t *testing.T) {
	b := testBatch()
	idx, err := EvalBool(Pred{Compare("a", EQ, storage.IntValue(3))}, b)
	if err != nil || len(idx) != 1 || idx[0] != 3 {
		t.Fatalf("a = 3: %v %v", idx, err)
	}
	if idx, err := EvalBool(nil, b); err != nil || len(idx) != 4 {
		t.Fatalf("no filter keeps every row: %v %v", idx, err)
	}
	if _, err := EvalBool(Pred{Compare("zzz", EQ, storage.IntValue(1))}, b); err == nil {
		t.Fatal("want error for unknown column")
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	b := testBatch()
	ge := Compare("a", GE, storage.IntValue(2))
	idx, err := EvalBool(Pred{ge}, b)
	if err != nil || len(idx) != 2 || idx[0] != 2 {
		t.Fatalf("GE: %v %v", idx, err)
	}
	sEq := Compare("s", EQ, storage.StringValue("b"))
	idx, _ = EvalBool(Pred{sEq}, b)
	if len(idx) != 1 || idx[0] != 1 {
		t.Fatalf("string EQ: %v", idx)
	}
	idx, _ = EvalBool(Pred{ge, Compare("b", LT, storage.FloatValue(7))}, b)
	if len(idx) != 1 || idx[0] != 2 {
		t.Fatalf("AND: %v", idx)
	}
	in := In("s", storage.StringValue("a"), storage.StringValue("d"))
	idx, _ = EvalBool(Pred{in}, b)
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 3 {
		t.Fatalf("IN: %v", idx)
	}
	// A literal of another type class matches nothing.
	idx, _ = EvalBool(Pred{Compare("s", EQ, storage.IntValue(1))}, b)
	if len(idx) != 0 {
		t.Fatalf("string = 1: %v", idx)
	}
}

func TestMixedNumericCompare(t *testing.T) {
	b := testBatch()
	idx, err := EvalBool(Pred{Compare("b", GT, storage.IntValue(4))}, b)
	if err != nil || len(idx) != 2 || idx[0] != 2 {
		t.Fatalf("mixed compare: %v %v", idx, err)
	}
	// x IN (v...) holds iff x = v for some v: an int column IN a float list
	// selects what = selects.
	for _, p := range []Pred{
		{Compare("a", EQ, storage.FloatValue(2))},
		{In("a", storage.FloatValue(2))},
		{In("a", storage.IntValue(2))},
		{In("a", storage.FloatValue(2.5), storage.IntValue(2))},
	} {
		idx, err := EvalBool(p, b)
		if err != nil || len(idx) != 1 || idx[0] != 2 {
			t.Fatalf("%s: %v %v", p, idx, err)
		}
	}
}

func eq(n string, v int64) Term     { return Compare(n, EQ, storage.IntValue(v)) }
func lt(n string, v int64) Term     { return Compare(n, LT, storage.IntValue(v)) }
func le(n string, v int64) Term     { return Compare(n, LE, storage.IntValue(v)) }
func gt(n string, v int64) Term     { return Compare(n, GT, storage.IntValue(v)) }
func ge(n string, v int64) Term     { return Compare(n, GE, storage.IntValue(v)) }
func ne(n string, v int64) Term     { return Compare(n, NE, storage.IntValue(v)) }
func strEq(n string, v string) Term { return Compare(n, EQ, storage.StringValue(v)) }
func inList(n string, vs ...string) Term {
	vals := make([]storage.Value, len(vs))
	for i, v := range vs {
		vals[i] = storage.StringValue(v)
	}
	return In(n, vals...)
}

// TestConjuncts: a predicate renders left-deep, in the order its terms were
// written — the shape plan text and executor seeds are derived from.
func TestConjuncts(t *testing.T) {
	if got := (Pred{eq("x", 1)}).String(); got != "x = 1" {
		t.Fatalf("one term: %q", got)
	}
	if got := (Pred{eq("x", 1), lt("y", 5)}).String(); got != "(x = 1 AND y < 5)" {
		t.Fatalf("two terms: %q", got)
	}
	if got := (Pred{eq("x", 1), lt("y", 5), gt("z", 0)}).String(); got != "((x = 1 AND y < 5) AND z > 0)" {
		t.Fatalf("three terms: %q", got)
	}
	if got := Pred(nil).String(); got != "" {
		t.Fatalf("no filter: %q", got)
	}
}

// impliesSchema types the columns the implication tests name: x, y and c
// are Int64, f is Float64 and s is String. A column it does not hold is
// untyped.
var impliesSchema = storage.Schema{
	{Name: "x", Typ: storage.Int64},
	{Name: "y", Typ: storage.Int64},
	{Name: "c", Typ: storage.Int64},
	{Name: "f", Typ: storage.Float64},
	{Name: "s", Typ: storage.String},
}

func TestImpliesBasics(t *testing.T) {
	f := func(op CmpOp, v float64) Term { return Compare("f", op, storage.FloatValue(v)) }
	xf := func(op CmpOp, v float64) Term { return Compare("x", op, storage.FloatValue(v)) }
	cases := []struct {
		name string
		a, b Pred
		want bool
	}{
		{"anything implies nil", Pred{eq("x", 1)}, nil, true},
		{"nil implies nothing", nil, Pred{eq("x", 1)}, false},
		{"self", Pred{eq("x", 1)}, Pred{eq("x", 1)}, true},
		{"conjunct subset", Pred{eq("x", 1), lt("y", 5)}, Pred{eq("x", 1)}, true},
		{"superset fails", Pred{eq("x", 1)}, Pred{eq("x", 1), lt("y", 5)}, false},
		{"tighter range implies looser", Pred{lt("x", 5)}, Pred{lt("x", 10)}, true},
		{"looser range fails", Pred{lt("x", 10)}, Pred{lt("x", 5)}, false},
		{"le vs lt boundary", Pred{le("x", 5)}, Pred{lt("x", 5)}, false},
		{"lt implies le", Pred{lt("x", 5)}, Pred{le("x", 5)}, true},
		{"ge vs gt", Pred{gt("x", 5)}, Pred{ge("x", 5)}, true},
		{"eq implies range", Pred{eq("x", 5)}, Pred{lt("x", 10)}, true},
		{"eq implies ge", Pred{eq("x", 5)}, Pred{ge("x", 5)}, true},
		{"eq fails outside range", Pred{eq("x", 50)}, Pred{lt("x", 10)}, false},
		{"range sandwich implies eq never", Pred{ge("x", 5), le("x", 5)}, Pred{eq("x", 5)}, true},
		{"eq implies ne other", Pred{eq("x", 5)}, Pred{ne("x", 7)}, true},
		{"eq fails ne same", Pred{eq("x", 5)}, Pred{ne("x", 5)}, false},
		{"range implies ne outside", Pred{lt("x", 5)}, Pred{ne("x", 9)}, true},
		{"string eq self", Pred{strEq("s", "a")}, Pred{strEq("s", "a")}, true},
		{"string eq other fails", Pred{strEq("s", "a")}, Pred{strEq("s", "b")}, false},
		{"string eq implies in", Pred{strEq("s", "a")}, Pred{inList("s", "a", "b")}, true},
		{"in subset implies in", Pred{inList("s", "a")}, Pred{inList("s", "a", "b")}, true},
		{"in superset fails", Pred{inList("s", "a", "c")}, Pred{inList("s", "a", "b")}, false},
		{"different columns fail", Pred{eq("x", 1)}, Pred{eq("y", 1)}, false},
		// IN is a disjunction of =, so numeric literals compare across types.
		{"float IN implies int eq", Pred{In("x", storage.FloatValue(2))}, Pred{eq("x", 2)}, true},
		{"int eq implies float IN", Pred{eq("x", 2)}, Pred{In("x", storage.FloatValue(2), storage.IntValue(7))}, true},
		{"int eq fails ne float same", Pred{eq("x", 2)}, Pred{Compare("x", NE, storage.FloatValue(2))}, false},
		// float64(2^53) == 2^53 but not 2^53+1; a float literal past float64's
		// exact integer range pins no int.
		{"float beyond 2^53 pins no int", Pred{In("x", storage.FloatValue(1<<53))}, Pred{eq("x", 1<<53+1)}, false},
		// An Int64 column reasons in integers, exactly above 2^53 too.
		{"le 2^53+1 fails le 2^53", Pred{le("x", 1<<53+1)}, Pred{le("x", 1<<53)}, false},
		{"eq 2^53+1 fails eq 2^53", Pred{eq("x", 1<<53+1)}, Pred{eq("x", 1<<53)}, false},
		{"nanosecond lt", Pred{lt("x", 1700000000000000002)}, Pred{lt("x", 1700000000000000001)}, false},
		{"nanosecond lt, tighter", Pred{lt("x", 1700000000000000001)}, Pred{lt("x", 1700000000000000002)}, true},
		{"int lt implies le one less", Pred{lt("x", 11)}, Pred{le("x", 10)}, true},
		{"strict int bounds pin eq", Pred{gt("x", 4), lt("x", 6)}, Pred{eq("x", 5)}, true},
		{"int eq implies float IN", Pred{eq("x", 5)}, Pred{In("x", storage.FloatValue(5))}, true},
		{"float 2.5 on int column is x >= 3", Pred{xf(GT, 2.5)}, Pred{ge("x", 3)}, true},
		{"x >= 3 is float 2.5 on int column", Pred{ge("x", 3)}, Pred{xf(GT, 2.5)}, true},
		{"float 2^53 admits 2^53+1", Pred{xf(EQ, 1<<53)}, Pred{le("x", 1<<53)}, false},
		{"int 2^53 implies float 2^53", Pred{eq("x", 1<<53)}, Pred{xf(EQ, 1<<53)}, true},
		{"int 2^53+1 implies float 2^53", Pred{eq("x", 1<<53+1)}, Pred{xf(EQ, 1<<53)}, true},
		{"NaN on int column implies nothing else", Pred{xf(NE, math.NaN())}, Pred{ne("x", 1)}, false},
		{"int eq implies ne float", Pred{eq("x", 3)}, Pred{xf(NE, 3.5)}, true},
		// A Float64 column compares float64(literal), as its kernel does.
		{"float column lt", Pred{f(LT, 5)}, Pred{f(LE, 5)}, true},
		{"float column le fails lt", Pred{f(LE, 5)}, Pred{f(LT, 5)}, false},
		{"float column int literal", Pred{Compare("f", LT, storage.IntValue(1<<53+1))}, Pred{f(LE, 1<<53)}, true},
		// An untyped column implies only an identical term.
		{"untyped self", Pred{eq("u", 1)}, Pred{eq("u", 1)}, true},
		{"untyped tighter range", Pred{lt("u", 5)}, Pred{lt("u", 10)}, false},
	}
	for _, tc := range cases {
		if got := Implies(tc.a, tc.b, impliesSchema); got != tc.want {
			t.Errorf("%s: Implies=%v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestEqualityColumns(t *testing.T) {
	got := EqualityColumns(Pred{eq("x", 1), lt("y", 5), inList("s", "a")})
	if len(got) != 2 || got[0] != "s" || got[1] != "x" {
		t.Fatalf("EqualityColumns = %v", got)
	}
}

func TestDedupCols(t *testing.T) {
	got := DedupCols([]string{"b", "a", "b", "a"})
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("DedupCols = %v", got)
	}
}

func TestSelectivity(t *testing.T) {
	b := storage.NewBuilder("t", storage.Schema{
		{Name: "t.k", Typ: storage.Int64},
		{Name: "t.v", Typ: storage.Float64},
	})
	for i := 0; i < 1000; i++ {
		b.Int(0, int64(i%10))
		b.Float(1, float64(i))
	}
	tbl := b.Build(1)
	if s := Selectivity(Pred{eq("t.k", 3)}, tbl); s < 0.09 || s > 0.11 {
		t.Fatalf("eq selectivity = %v", s)
	}
	if s := Selectivity(Pred{lt("t.v", 100)}, tbl); s < 0.05 || s > 0.15 {
		t.Fatalf("range selectivity = %v", s)
	}
	if s := Selectivity(nil, tbl); s != 1 {
		t.Fatalf("nil selectivity = %v", s)
	}
}

func TestCanonicalPredicateOrderIndependent(t *testing.T) {
	a := Pred{eq("x", 1), lt("y", 5)}
	b := Pred{lt("y", 5), eq("x", 1)}
	if CanonicalPredicate(a) != CanonicalPredicate(b) {
		t.Fatal("canonical predicate must ignore conjunct order")
	}
}

// Property: for random integer thresholds, a < min(x,y) implies a < max(x,y),
// and implication is consistent with direct evaluation on sample points.
func TestImpliesConsistentWithEvalQuick(t *testing.T) {
	f := func(x, y int8, probe int8) bool {
		lo, hi := int64(x), int64(y)
		if lo > hi {
			lo, hi = hi, lo
		}
		tight, loose := Pred{lt("c", lo)}, Pred{lt("c", hi)}
		if !Implies(tight, loose, impliesSchema) {
			return false
		}
		// If Implies claims tight⇒loose, any value passing tight passes loose.
		v := int64(probe)
		passesTight := v < lo
		passesLoose := v < hi
		return !passesTight || passesLoose
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExprStringsAreCanonical(t *testing.T) {
	if eq("x", 1).String() != "x = 1" {
		t.Fatalf("render: %q", eq("x", 1).String())
	}
	in1 := inList("s", "b", "a").String()
	in2 := inList("s", "a", "b").String()
	if in1 != in2 {
		t.Fatalf("IN rendering must sort values: %q vs %q", in1, in2)
	}
}

// impliesLits are FuzzImplies' literals: integers and floats near ±2^53,
// where float64 values start to lie 2 apart, at a rounding tie (2^62+512),
// at the ends of int64 and past them (±2^63), nanosecond timestamps, and
// the IEEE specials.
var impliesLits = []storage.Value{
	storage.IntValue(0), storage.IntValue(1), storage.IntValue(-1),
	storage.IntValue(1<<53 - 1), storage.IntValue(1 << 53), storage.IntValue(1<<53 + 1), storage.IntValue(1<<53 + 2),
	storage.IntValue(-(1 << 53)), storage.IntValue(-(1 << 53) - 1), storage.IntValue(1<<62 + 512),
	storage.IntValue(math.MaxInt64), storage.IntValue(math.MaxInt64 - 1), storage.IntValue(math.MinInt64), storage.IntValue(math.MinInt64 + 1),
	storage.IntValue(1700000000000000001), storage.IntValue(1700000000000000002),
	storage.FloatValue(0), storage.FloatValue(math.Copysign(0, -1)), storage.FloatValue(2.5), storage.FloatValue(-2.5),
	storage.FloatValue(1<<53 - 1), storage.FloatValue(1 << 53), storage.FloatValue(1<<53 + 2), storage.FloatValue(-(1 << 53)),
	storage.FloatValue(1 << 62), storage.FloatValue(0x1p63), storage.FloatValue(-0x1p63), storage.FloatValue(0x1p63 - 1024),
	storage.FloatValue(math.NaN()), storage.FloatValue(math.Inf(1)), storage.FloatValue(math.Inf(-1)), storage.FloatValue(1.7e18),
}

// impliesPred decodes a predicate of at most two terms over impliesSchema's
// Int64 column x and Float64 column f, three bytes a term: the column (low
// bit) and operator (the rest, IN included) and two literal indexes, the
// second read only by IN.
func impliesPred(data []byte) Pred {
	var p Pred
	for len(data) >= 3 && len(p) < 2 {
		col := [2]string{"x", "f"}[data[0]&1]
		op := CmpOp(data[0] >> 1 % 7)
		v, w := impliesLits[int(data[1])%len(impliesLits)], impliesLits[int(data[2])%len(impliesLits)]
		if op == IN {
			p = append(p, In(col, v, w))
		} else {
			p = append(p, Compare(col, op, v))
		}
		data = data[3:]
	}
	return p
}

// impliesSeed encodes one term for impliesPred: col op impliesLits[lit].
func impliesSeed(col string, op CmpOp, lit int) []byte {
	b := byte(op) << 1
	if col == "f" {
		b |= 1
	}
	return []byte{b, byte(lit), byte(lit)}
}

// impliesProbes returns rows over impliesSchema at every edge the
// predicates' literals draw: for x, the ends of every interval a literal's
// comparisons admit (termInts) and their neighbours, and the int64 ends;
// for f, each literal as a float and its neighbours, ±0, ±Inf and NaN. A
// row one predicate admits and another does not lies on such an edge.
func impliesProbes(ps ...Pred) *storage.Batch {
	xs := []int64{0, math.MinInt64, math.MaxInt64}
	fs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	for _, p := range ps {
		for _, t := range p {
			for _, v := range append([]storage.Value{t.Val}, t.List...) {
				for op := EQ; op < IN; op++ {
					if iv := termInts(op, v); !iv.Empty {
						xs = append(xs, iv.From-1, iv.From, iv.From+1, iv.To-1, iv.To, iv.To+1)
					}
				}
				if v.Typ.Numeric() {
					c := v.AsFloat()
					fs = append(fs, c, math.Nextafter(c, math.Inf(-1)), math.Nextafter(c, math.Inf(1)))
				}
			}
		}
	}
	slices.Sort(xs)
	xs = slices.Compact(xs)
	b := storage.NewBatch(impliesSchema, len(xs)*len(fs))
	for _, x := range xs {
		for _, f := range fs {
			b.Vecs[0].I64 = append(b.Vecs[0].I64, x)
			b.Vecs[1].I64 = append(b.Vecs[1].I64, 0)
			b.Vecs[2].I64 = append(b.Vecs[2].I64, 0)
			b.Vecs[3].F64 = append(b.Vecs[3].F64, f)
			b.Vecs[4].Str = append(b.Vecs[4].Str, "")
		}
	}
	return b
}

// checkImplies holds Implies to soundness: when it says a implies b, every
// probe row a admits, b admits too.
func checkImplies(t testing.TB, a, b Pred) {
	t.Helper()
	if !Implies(a, b, impliesSchema) {
		return
	}
	rows := impliesProbes(a, b)
	ra, err := EvalBool(a, rows)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := EvalBool(b, rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range ra {
		if _, ok := slices.BinarySearch(rb, i); !ok {
			t.Fatalf("Implies(%s, %s) holds, but row x=%d f=%v passes the first and not the second",
				a, b, rows.Vecs[0].I64[i], rows.Vecs[3].F64[i])
		}
	}
}

// FuzzImplies: Implies is sound over random one- and two-term predicates
// on an Int64 and a Float64 column, every literal at a float64 rounding
// edge (impliesLits). The seeds are the implications float64 reasoning
// claimed: x <= 2^53+1 ⇒ x <= 2^53 and x = 2^53+1 ⇒ x = 2^53.
func FuzzImplies(f *testing.F) {
	lit := func(v storage.Value) int {
		return slices.IndexFunc(impliesLits, func(w storage.Value) bool { return w.Typ == v.Typ && w.String() == v.String() })
	}
	two53, two53p1 := lit(storage.IntValue(1<<53)), lit(storage.IntValue(1<<53+1))
	f.Add(impliesSeed("x", LE, two53p1), impliesSeed("x", LE, two53))
	f.Add(impliesSeed("x", EQ, two53p1), impliesSeed("x", EQ, two53))
	f.Add(impliesSeed("x", LT, lit(storage.IntValue(1700000000000000002))), impliesSeed("x", LT, lit(storage.IntValue(1700000000000000001))))
	f.Add(impliesSeed("x", EQ, lit(storage.FloatValue(1<<53))), impliesSeed("x", LE, two53))
	f.Add(append(impliesSeed("x", GE, two53), impliesSeed("f", LT, lit(storage.FloatValue(2.5)))...), impliesSeed("f", LE, lit(storage.FloatValue(2.5))))
	f.Add(impliesSeed("f", IN, lit(storage.FloatValue(math.NaN()))), impliesSeed("f", NE, lit(storage.FloatValue(0))))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		checkImplies(t, impliesPred(a), impliesPred(b))
	})
}

// TestImpliesSoundAtEdges runs FuzzImplies' property over every pair of
// one-term predicates on x, any operators and literals.
func TestImpliesSoundAtEdges(t *testing.T) {
	for opA := EQ; opA <= IN; opA++ {
		for opB := EQ; opB <= IN; opB++ {
			for i := range impliesLits {
				for j := range impliesLits {
					checkImplies(t, impliesPred([]byte{byte(opA) << 1, byte(i), byte(j)}), impliesPred([]byte{byte(opB) << 1, byte(j), byte(i)}))
				}
			}
		}
	}
}

package expr

import (
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

func TestImpliesBasics(t *testing.T) {
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
	}
	for _, tc := range cases {
		if got := Implies(tc.a, tc.b); got != tc.want {
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
		if !Implies(tight, loose) {
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

package meta

import (
	"reflect"
	"slices"
	"testing"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
)

func acc(rel, conf float64) stats.AccuracySpec {
	return stats.AccuracySpec{RelError: rel, Confidence: conf}
}

func baseDesc() Descriptor {
	return Descriptor{
		Kind:         plan.DistinctSample,
		Table:        "orders",
		StratCols:    []string{"orders.cust"},
		AggCols:      []string{"orders.amount"},
		P:            0.05,
		Delta:        100,
		Accuracy:     acc(0.1, 0.95),
		EstSizeBytes: 1000,
	}
}

func TestInternDedupes(t *testing.T) {
	s := NewStore(nil)
	e1 := s.Intern(baseDesc())
	e2 := s.Intern(baseDesc())
	if e1.Desc.ID != e2.Desc.ID {
		t.Fatalf("identical descriptors interned twice: %d vs %d", e1.Desc.ID, e2.Desc.ID)
	}
	d := baseDesc()
	d.StratCols = []string{"orders.cust", "orders.region"}
	e3 := s.Intern(d)
	if e3.Desc.ID == e1.Desc.ID {
		t.Fatal("different stratification must intern separately")
	}
	if len(s.Entries()) != 2 {
		t.Fatalf("entries = %d", len(s.Entries()))
	}
}

// A synopsis is named by its table and its filter: the filter is part of
// the identity, conjunct order is not, and another table is another name.
func TestInternFilterIdentity(t *testing.T) {
	s := NewStore(nil)
	bare := s.Intern(baseDesc())
	a := &expr.Cmp{Op: expr.GT, L: &expr.Col{Name: "orders.amount"}, R: expr.Int(1)}
	b := &expr.Cmp{Op: expr.LT, L: &expr.Col{Name: "orders.cust"}, R: expr.Int(5)}
	ab, ba := baseDesc(), baseDesc()
	ab.FilterPred = expr.AndAll([]expr.Expr{a, b})
	ba.FilterPred = expr.AndAll([]expr.Expr{b, a})
	filtered := s.Intern(ab)
	if filtered.Desc.ID == bare.Desc.ID {
		t.Fatal("a filtered and a bare synopsis of one table must intern separately")
	}
	if e := s.Intern(ba); e.Desc.ID != filtered.Desc.ID {
		t.Fatalf("commuted conjuncts interned twice: %d vs %d", e.Desc.ID, filtered.Desc.ID)
	}
	other := baseDesc()
	other.Table = "lineitem"
	if e := s.Intern(other); e.Desc.ID == bare.Desc.ID {
		t.Fatal("synopses of different tables must intern separately")
	}
	if len(s.Entries()) != 3 {
		t.Fatalf("entries = %d, want 3", len(s.Entries()))
	}
}

// A sketch-join is named by its build keys as a set: joining on another
// fact column is another synopsis, listing the same keys in another order
// is not.
func TestInternBuildKeysIdentity(t *testing.T) {
	s := NewStore(nil)
	sketch := func(keys ...string) Descriptor {
		return Descriptor{Kind: plan.SketchJoinSynopsis, Table: "orderproducts", BuildKeys: keys,
			AggCol: "orderproducts.qty", Accuracy: acc(0.1, 0.95)}
	}
	byOrder := s.Intern(sketch("orderproducts.order_id"))
	byProduct := s.Intern(sketch("orderproducts.product_id"))
	if byOrder.Desc.ID == byProduct.Desc.ID {
		t.Fatalf("sketch-joins on different build keys share #%d", byOrder.Desc.ID)
	}
	ab := s.Intern(sketch("orderproducts.order_id", "orderproducts.product_id"))
	if ba := s.Intern(sketch("orderproducts.product_id", "orderproducts.order_id")); ba.Desc.ID != ab.Desc.ID {
		t.Fatalf("reordered build keys interned twice: %d vs %d", ba.Desc.ID, ab.Desc.ID)
	}
	if len(s.Entries()) != 3 {
		t.Fatalf("entries = %d, want 3", len(s.Entries()))
	}
}

// Working reads exactly the ids it is asked for: the store does not know
// which synopses are stored, so the tuner asks for its view's ids itself.
func TestWorkingSet(t *testing.T) {
	s := NewStore(nil)
	var ids []uint64
	for _, strat := range []string{"a", "b", "c", "d"} {
		d := baseDesc()
		d.StratCols = []string{strat}
		ids = append(ids, s.Intern(d).Desc.ID)
	}
	got := func(ask ...uint64) (out []uint64) {
		for _, e := range s.Working(ask) {
			out = append(out, e.Desc.ID)
		}
		return out
	}
	// Asked ids, duplicates folded and unknown ones dropped, each once,
	// ascending; the caller's slice is left as it was.
	ask := []uint64{ids[3], ids[1], ids[3], 999}
	if w := got(ask...); !reflect.DeepEqual(w, []uint64{ids[1], ids[3]}) {
		t.Fatalf("Working = %v", w)
	}
	if !reflect.DeepEqual(ask, []uint64{ids[3], ids[1], ids[3], 999}) {
		t.Fatalf("Working reordered its argument: %v", ask)
	}
	if w := got(); len(w) != 0 {
		t.Fatalf("Working() = %v, want none", w)
	}
	if err := s.Restore(Descriptor{ID: 50, Kind: plan.UniformSample}); err != nil {
		t.Fatal(err)
	}
	if w := got(50, ids[0]); !reflect.DeepEqual(w, []uint64{ids[0], 50}) {
		t.Fatalf("Working after a restore = %v", w)
	}
}

func TestSizeBytes(t *testing.T) {
	s := NewStore(nil)
	e := s.Intern(baseDesc())
	if e.Desc.SizeBytes() != 1000 {
		t.Fatal("estimate size")
	}
	s.SetActualSize(e.Desc.ID, 2222)
	if got, _ := s.Get(e.Desc.ID); got.Desc.SizeBytes() != 2222 {
		t.Fatalf("desc = %+v, want the measured size", got.Desc)
	}
}

// stored is a has predicate over the given ids — the part of a warehouse
// view the matchers read.
func stored(ids ...uint64) func(uint64) bool {
	return func(id uint64) bool { return slices.Contains(ids, id) }
}

func matchReq() Requirements {
	return Requirements{
		Table:     "orders",
		StratCols: []string{"orders.cust"},
		AggCols:   []string{"orders.amount"},
		Accuracy:  acc(0.1, 0.95),
	}
}

func TestMatchSamplesHappyPath(t *testing.T) {
	s := NewStore(nil)
	e := s.Intern(baseDesc())
	ms := s.MatchSamples(matchReq(), stored(e.Desc.ID))
	if len(ms) != 1 || ms[0].Entry.Desc.ID != e.Desc.ID {
		t.Fatalf("matches = %+v", ms)
	}
	if ms[0].CompensateFilter != nil {
		t.Fatal("no compensation needed for identical filters")
	}
}

func TestMatchSamplesRejections(t *testing.T) {
	// match interns one modified descriptor, stores it, and matches req.
	req := matchReq()
	match := func(mod func(*Descriptor)) []Match {
		s := NewStore(nil)
		d := baseDesc()
		mod(&d)
		e := s.Intern(d)
		return s.MatchSamples(req, stored(e.Desc.ID))
	}

	// Candidates the view does not hold never match.
	s := NewStore(nil)
	s.Intern(baseDesc())
	if got := s.MatchSamples(req, stored()); len(got) != 0 {
		t.Fatal("unstored synopsis matched")
	}
	if got := match(func(d *Descriptor) { d.Table = "lineitem" }); len(got) != 0 {
		t.Fatal("different relation matched")
	}
	if got := match(func(d *Descriptor) { d.StratCols = nil }); len(got) != 0 {
		t.Fatal("weaker stratification matched")
	}
	if got := match(func(d *Descriptor) { d.Accuracy = acc(0.5, 0.5) }); len(got) != 0 {
		t.Fatal("weaker accuracy matched")
	}
	if got := match(func(d *Descriptor) { d.AggCols = []string{"orders.other"} }); len(got) != 0 {
		t.Fatal("uncovered aggregate column matched")
	}
	// Sketch kind never matches sample requirements.
	if got := match(func(d *Descriptor) { d.Kind = plan.SketchJoinSynopsis }); len(got) != 0 {
		t.Fatal("sketch matched as sample")
	}
}

func TestMatchSamplesFilterSubsumption(t *testing.T) {
	// Stored synopsis: no filter (fully general). Query: gender='m'.
	// The paper's Employees example — the general sample serves the
	// filtered query with a compensating filter.
	s := NewStore(nil)
	e := s.Intern(baseDesc())
	req := matchReq()
	req.Filter = &expr.Cmp{Op: expr.EQ, L: &expr.Col{Name: "orders.cust"}, R: expr.Int(3)}
	ms := s.MatchSamples(req, stored(e.Desc.ID))
	if len(ms) != 1 {
		t.Fatalf("general sample must serve filtered query, got %d matches", len(ms))
	}
	if ms[0].CompensateFilter == nil {
		t.Fatal("must compensate with the query filter")
	}

	// Reverse: stored synopsis filtered, query unfiltered → no match.
	s2 := NewStore(nil)
	d := baseDesc()
	d.FilterPred = &expr.Cmp{Op: expr.EQ, L: &expr.Col{Name: "orders.cust"}, R: expr.Int(3)}
	e2 := s2.Intern(d)
	if got := s2.MatchSamples(matchReq(), stored(e2.Desc.ID)); len(got) != 0 {
		t.Fatal("narrower synopsis must not serve wider query")
	}
}

func TestMatchSketchJoins(t *testing.T) {
	s := NewStore(nil)
	d := Descriptor{
		Kind:      plan.SketchJoinSynopsis,
		Table:     "orderproducts",
		BuildKeys: []string{"orderproducts.order_id"},
		AggCol:    "",
		Accuracy:  acc(0.1, 0.95),
	}
	e := s.Intern(d)
	has := stored(e.Desc.ID)
	req := Requirements{Table: d.Table, Accuracy: acc(0.1, 0.95)}
	ms := s.MatchSketchJoins(req, []string{"orderproducts.order_id"}, "", has)
	if len(ms) != 1 {
		t.Fatalf("matches = %d", len(ms))
	}
	if got := s.MatchSketchJoins(req, []string{"orderproducts.order_id"}, "", stored()); len(got) != 0 {
		t.Fatal("unstored sketch matched")
	}
	// Different build keys reject.
	if got := s.MatchSketchJoins(req, []string{"orderproducts.product_id"}, "", has); len(got) != 0 {
		t.Fatal("different key matched")
	}
	// Different agg column rejects.
	if got := s.MatchSketchJoins(req, []string{"orderproducts.order_id"}, "x", has); len(got) != 0 {
		t.Fatal("different agg matched")
	}
	// Filter mismatch rejects (sketches cannot be compensated).
	req2 := req
	req2.Filter = &expr.Cmp{Op: expr.EQ, L: &expr.Col{Name: "a"}, R: expr.Int(1)}
	if got := s.MatchSketchJoins(req2, []string{"orderproducts.order_id"}, "", has); len(got) != 0 {
		t.Fatal("filtered query matched unfiltered sketch")
	}
}

func TestDescriptorLabels(t *testing.T) {
	d := baseDesc()
	d.ID = 3
	if d.Label() != "#3 distinct-sample over orders" || d.IdentityKey() == "" {
		t.Fatalf("labels must render: %q", d.Label())
	}
}

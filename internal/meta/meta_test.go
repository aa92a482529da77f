package meta

import (
	"reflect"
	"testing"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
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
	s := NewStore()
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
	s := NewStore()
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

func TestWorkingSet(t *testing.T) {
	s := NewStore()
	var ids []uint64
	for _, strat := range []string{"a", "b", "c", "d"} {
		d := baseDesc()
		d.StratCols = []string{strat}
		ids = append(ids, s.Intern(d).Desc.ID)
	}
	s.SetLocation(ids[1], LocWarehouse)
	s.SetPinned(ids[2], true)
	got := func(ask ...uint64) (out []uint64) {
		for _, e := range s.Working(ask) {
			out = append(out, e.Desc.ID)
		}
		return out
	}
	// Asked ids (duplicates folded, unknown ones dropped) plus the
	// materialized and pinned entries, each once, ascending.
	if w := got(ids[3], ids[1], ids[3], 999); !reflect.DeepEqual(w, []uint64{ids[1], ids[2], ids[3]}) {
		t.Fatalf("Working = %v", w)
	}
	s.SetLocation(ids[1], LocNone)
	s.SetPinned(ids[2], false)
	if w := got(); len(w) != 0 {
		t.Fatalf("Working after eviction and unpin = %v, want none", w)
	}
	if err := s.Restore(Descriptor{ID: 50, Kind: plan.UniformSample, Location: LocBuffer}); err != nil {
		t.Fatal(err)
	}
	if w := got(); !reflect.DeepEqual(w, []uint64{50}) {
		t.Fatalf("Working after restoring a materialized entry = %v", w)
	}
}

func TestLocationAndSize(t *testing.T) {
	s := NewStore()
	e := s.Intern(baseDesc())
	if e.Desc.SizeBytes() != 1000 {
		t.Fatal("estimate size")
	}
	s.SetActualSize(e.Desc.ID, 2222)
	s.SetLocation(e.Desc.ID, LocBuffer)
	s.SetPinned(e.Desc.ID, true)
	got, _ := s.Get(e.Desc.ID)
	if got.Desc.SizeBytes() != 2222 || got.Desc.Location != LocBuffer || !got.Desc.Pinned {
		t.Fatalf("desc = %+v", got.Desc)
	}
	if len(s.Materialized()) != 1 {
		t.Fatal("Materialized")
	}
	s.SetLocation(e.Desc.ID, LocNone)
	if len(s.Materialized()) != 0 {
		t.Fatal("Materialized after eviction")
	}
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
	s := NewStore()
	e := s.Intern(baseDesc())
	s.SetLocation(e.Desc.ID, LocWarehouse)
	ms := s.MatchSamples(matchReq())
	if len(ms) != 1 || ms[0].Entry.Desc.ID != e.Desc.ID {
		t.Fatalf("matches = %+v", ms)
	}
	if ms[0].CompensateFilter != nil {
		t.Fatal("no compensation needed for identical filters")
	}
}

func TestMatchSamplesRejections(t *testing.T) {
	mk := func(mod func(*Descriptor)) *Store {
		s := NewStore()
		d := baseDesc()
		mod(&d)
		e := s.Intern(d)
		s.SetLocation(e.Desc.ID, LocWarehouse)
		return s
	}
	req := matchReq()

	if got := mk(func(d *Descriptor) { d.Location = LocNone }).MatchSamples(req); len(got) != 0 {
		// Location is overwritten by SetLocation above; test unmaterialized
		// separately below.
		_ = got
	}
	// Unmaterialized candidates never match.
	s := NewStore()
	s.Intern(baseDesc())
	if got := s.MatchSamples(req); len(got) != 0 {
		t.Fatal("unmaterialized synopsis matched")
	}
	// Different tables.
	s2 := mk(func(d *Descriptor) { d.Table = "lineitem" })
	if got := s2.MatchSamples(req); len(got) != 0 {
		t.Fatal("different relation matched")
	}
	// Stratification not a superset.
	s4 := mk(func(d *Descriptor) { d.StratCols = nil })
	if got := s4.MatchSamples(req); len(got) != 0 {
		t.Fatal("weaker stratification matched")
	}
	// Weaker accuracy.
	s5 := mk(func(d *Descriptor) { d.Accuracy = acc(0.5, 0.5) })
	if got := s5.MatchSamples(req); len(got) != 0 {
		t.Fatal("weaker accuracy matched")
	}
	// Aggregate column not covered.
	s6 := mk(func(d *Descriptor) { d.AggCols = []string{"orders.other"} })
	if got := s6.MatchSamples(req); len(got) != 0 {
		t.Fatal("uncovered aggregate column matched")
	}
	// Sketch kind never matches sample requirements.
	s7 := mk(func(d *Descriptor) { d.Kind = plan.SketchJoinSynopsis })
	if got := s7.MatchSamples(req); len(got) != 0 {
		t.Fatal("sketch matched as sample")
	}
}

func TestMatchSamplesFilterSubsumption(t *testing.T) {
	// Stored synopsis: no filter (fully general). Query: gender='m'.
	// The paper's Employees example — the general sample serves the
	// filtered query with a compensating filter.
	s := NewStore()
	e := s.Intern(baseDesc())
	s.SetLocation(e.Desc.ID, LocWarehouse)
	req := matchReq()
	req.Filter = &expr.Cmp{Op: expr.EQ, L: &expr.Col{Name: "orders.cust"}, R: expr.Int(3)}
	ms := s.MatchSamples(req)
	if len(ms) != 1 {
		t.Fatalf("general sample must serve filtered query, got %d matches", len(ms))
	}
	if ms[0].CompensateFilter == nil {
		t.Fatal("must compensate with the query filter")
	}

	// Reverse: stored synopsis filtered, query unfiltered → no match.
	s2 := NewStore()
	d := baseDesc()
	d.FilterPred = &expr.Cmp{Op: expr.EQ, L: &expr.Col{Name: "orders.cust"}, R: expr.Int(3)}
	e2 := s2.Intern(d)
	s2.SetLocation(e2.Desc.ID, LocWarehouse)
	if got := s2.MatchSamples(matchReq()); len(got) != 0 {
		t.Fatal("narrower synopsis must not serve wider query")
	}
}

func TestMatchSketchJoins(t *testing.T) {
	s := NewStore()
	d := Descriptor{
		Kind:      plan.SketchJoinSynopsis,
		Table:     "orderproducts",
		BuildKeys: []string{"orderproducts.order_id"},
		AggCol:    "",
		Accuracy:  acc(0.1, 0.95),
	}
	e := s.Intern(d)
	s.SetLocation(e.Desc.ID, LocWarehouse)
	req := Requirements{Table: d.Table, Accuracy: acc(0.1, 0.95)}
	ms := s.MatchSketchJoins(req, []string{"orderproducts.order_id"}, "")
	if len(ms) != 1 {
		t.Fatalf("matches = %d", len(ms))
	}
	// Different build keys reject.
	if got := s.MatchSketchJoins(req, []string{"orderproducts.product_id"}, ""); len(got) != 0 {
		t.Fatal("different key matched")
	}
	// Different agg column rejects.
	if got := s.MatchSketchJoins(req, []string{"orderproducts.order_id"}, "x"); len(got) != 0 {
		t.Fatal("different agg matched")
	}
	// Filter mismatch rejects (sketches cannot be compensated).
	req2 := req
	req2.Filter = &expr.Cmp{Op: expr.EQ, L: &expr.Col{Name: "a"}, R: expr.Int(1)}
	if got := s.MatchSketchJoins(req2, []string{"orderproducts.order_id"}, ""); len(got) != 0 {
		t.Fatal("filtered query matched unfiltered sketch")
	}
}

func TestDescriptorLabels(t *testing.T) {
	d := baseDesc()
	d.ID = 3
	if d.Label() == "" || d.IdentityKey() == "" {
		t.Fatal("labels must render")
	}
	if LocBuffer.String() != "buffer" || LocNone.String() != "none" || LocWarehouse.String() != "warehouse" {
		t.Fatal("location strings")
	}
	var val storage.Value
	_ = val // keep storage import for the helper above
}

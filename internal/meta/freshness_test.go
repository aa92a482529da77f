package meta

import (
	"math"
	"testing"

	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
)

// internOver interns a sample over table.
func internOver(s *Store, table string) *Entry {
	return s.Intern(Descriptor{
		Kind:     plan.DistinctSample,
		Table:    table,
		Accuracy: stats.DefaultAccuracy,
	})
}

// rowsOf builds n rows of a one-column table.
func rowsOf(table string, n int) *storage.Table {
	b := storage.NewBuilder(table, storage.Schema{{Name: table + ".v", Typ: storage.Int64}})
	for i := 0; i < n; i++ {
		b.Int(0, int64(i))
	}
	return b.Build(1)
}

// catalogOf registers one table per name, each holding the given rows.
func catalogOf(rows map[string]int) *storage.Catalog {
	cat := storage.NewCatalog()
	for name, n := range rows {
		cat.Register(rowsOf(name, n))
	}
	return cat
}

// grow appends n rows to a catalog table.
func grow(t *testing.T, cat *storage.Catalog, table string, n int) {
	t.Helper()
	if _, err := cat.Append(table, rowsOf(table, n)); err != nil {
		t.Fatal(err)
	}
}

func TestStalenessLifecycle(t *testing.T) {
	cat := catalogOf(map[string]int{"sales": 1000, "orders": 300})
	s := NewStore(cat)
	e := internOver(s, "sales")
	id := e.Desc.ID

	// Fresh build over all 1000 rows.
	s.SetFreshness(id, 1000)
	if got := s.Staleness(id); got != 0 {
		t.Fatalf("fresh staleness = %v", got)
	}

	// Append 250 rows: staleness = 250/1250, live and on every snapshot.
	grow(t, cat, "sales", 250)
	want := 250.0 / 1250.0
	if got := s.Staleness(id); math.Abs(got-want) > 1e-12 {
		t.Fatalf("staleness = %v, want %v", got, want)
	}
	got, _ := s.Get(id)
	if got.UnseenRows != 250 || math.Abs(got.Staleness()-want) > 1e-12 {
		t.Fatalf("snapshot: unseen %d, staleness %v; want 250, %v", got.UnseenRows, got.Staleness(), want)
	}
	if w := s.Working([]uint64{id}); len(w) != 1 || w[0].UnseenRows != 250 {
		t.Fatalf("working set %+v, want the entry with 250 unseen rows", w)
	}

	// A rebuild over the grown table resets staleness.
	s.SetFreshness(id, 1250)
	if got := s.Staleness(id); got != 0 {
		t.Fatalf("refreshed staleness = %v", got)
	}

	// Appends to unrelated tables do not mark it.
	grow(t, cat, "orders", 200)
	if got := s.Staleness(id); got != 0 {
		t.Fatalf("unrelated append marked synopsis: %v", got)
	}

	// Staleness is the last build's, stored or not — the store does not
	// know where a synopsis lives; every reader asks the warehouse first.
	grow(t, cat, "sales", 250)
	if got, want := s.Staleness(id), 250.0/1500.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("staleness = %v, want %v", got, want)
	}
}

func TestStalenessZeroDenominator(t *testing.T) {
	cat := catalogOf(map[string]int{"empty": 0})
	s := NewStore(cat)
	e := internOver(s, "empty")
	id := e.Desc.ID
	// Built over an empty relation, then rows arrive: fully stale, and the
	// staleness math must not divide by zero.
	s.SetFreshness(id, 0)
	if got := s.Staleness(id); got != 0 {
		t.Fatalf("empty-over-empty staleness = %v", got)
	}
	grow(t, cat, "empty", 10)
	if got := s.Staleness(id); got != 1 {
		t.Fatalf("staleness after rows arrived = %v, want 1", got)
	}
}

func TestSetFreshnessAbsorbsRacedAppend(t *testing.T) {
	cat := catalogOf(map[string]int{"sales": 1000})
	s := NewStore(cat)
	e := internOver(s, "sales")
	id := e.Desc.ID
	// The append lands before the (older) build is admitted: the gap
	// between the catalog's rows and the build's source rows must survive
	// as unseen rows rather than the synopsis being reported fresh.
	grow(t, cat, "sales", 200)
	s.SetFreshness(id, 1000)
	if got, want := s.Staleness(id), 200.0/1200.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("staleness = %v, want %v", got, want)
	}
}

// TestStalenessWithoutTheTable: a store without a catalog, or over a table
// its catalog does not hold, sees no table grow — every synopsis is fresh.
func TestStalenessWithoutTheTable(t *testing.T) {
	for i, s := range []*Store{NewStore(nil), NewStore(catalogOf(map[string]int{"orders": 10}))} {
		e := internOver(s, "sales")
		s.SetFreshness(e.Desc.ID, 1000)
		if got := s.Staleness(e.Desc.ID); got != 0 || e.UnseenRows != 0 {
			t.Fatalf("store %d: staleness %v, unseen %d; want 0, 0", i, got, e.UnseenRows)
		}
	}
}

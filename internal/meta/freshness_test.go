package meta

import (
	"math"
	"testing"

	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
)

// internOver interns a sample over table.
func internOver(s *Store, table string) *Entry {
	return s.Intern(Descriptor{
		Kind:     plan.DistinctSample,
		Table:    table,
		Accuracy: stats.DefaultAccuracy,
	})
}

func TestStalenessLifecycle(t *testing.T) {
	s := NewStore()
	e := internOver(s, "sales")
	id := e.Desc.ID

	// Fresh build over 1000 rows at epoch 0.
	s.SetFreshness(id, 1000)
	if got := s.Staleness(id); got != 0 {
		t.Fatalf("fresh staleness = %v", got)
	}

	// Append 250 rows: staleness = 250/1250.
	s.ObserveVersion("sales", 1, 1250)
	if got, want := s.Staleness(id), 250.0/1250.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("staleness = %v, want %v", got, want)
	}
	if v, ok := s.TableVersions()["sales"]; !ok || v.Epoch != 1 || v.Rows != 1250 {
		t.Fatalf("table version = (%d, %d, %v)", v.Epoch, v.Rows, ok)
	}

	// A rebuild over the grown table resets staleness.
	s.SetFreshness(id, 1250)
	if got := s.Staleness(id); got != 0 {
		t.Fatalf("refreshed staleness = %v", got)
	}

	// Appends to unrelated tables do not mark it.
	s.ObserveVersion("orders", 1, 500)
	if got := s.Staleness(id); got != 0 {
		t.Fatalf("unrelated append marked synopsis: %v", got)
	}

	// Staleness is the last build's, stored or not — the store does not
	// know where a synopsis lives; every reader asks the warehouse first.
	s.ObserveVersion("sales", 2, 1500)
	if got, want := s.Staleness(id), 250.0/1500.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("staleness = %v, want %v", got, want)
	}
}

func TestStalenessZeroDenominator(t *testing.T) {
	s := NewStore()
	e := internOver(s, "empty")
	id := e.Desc.ID
	// Built over an empty relation, then rows arrive: fully stale, and the
	// staleness math must not divide by zero.
	s.SetFreshness(id, 0)
	if got := s.Staleness(id); got != 0 {
		t.Fatalf("empty-over-empty staleness = %v", got)
	}
	s.ObserveVersion("empty", 1, 10)
	if got := s.Staleness(id); got != 1 {
		t.Fatalf("staleness after rows arrived = %v, want 1", got)
	}
}

func TestSetFreshnessAbsorbsRacedAppend(t *testing.T) {
	s := NewStore()
	e := internOver(s, "sales")
	id := e.Desc.ID
	// The append is observed before the (older) build is admitted: the gap
	// between observed rows and the build's source rows must survive as
	// unseen rows rather than the synopsis being reported fresh.
	s.ObserveVersion("sales", 1, 1200)
	s.SetFreshness(id, 1000)
	if got, want := s.Staleness(id), 200.0/1200.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("staleness = %v, want %v", got, want)
	}
}

func TestMarkUnseenBeforePublish(t *testing.T) {
	s := NewStore()
	e := internOver(s, "sales")
	id := e.Desc.ID
	s.SetFreshness(id, 1000)
	// The engine pre-marks before the catalog swap; a failed append rolls
	// back (clamped at zero).
	s.MarkUnseen("sales", 100)
	if got := s.Staleness(id); got <= 0 {
		t.Fatalf("pre-mark not visible: %v", got)
	}
	s.MarkUnseen("sales", -100)
	if got := s.Staleness(id); got != 0 {
		t.Fatalf("rollback left staleness %v", got)
	}
	s.MarkUnseen("sales", -50)
	if got := s.Staleness(id); got != 0 {
		t.Fatalf("over-rollback went negative: %v", got)
	}
	// A successful append publishes the version and releases its mark in
	// one step: the rows count once, before and after.
	s.MarkUnseen("sales", 250)
	want := 250.0 / 1250.0
	if got := s.Staleness(id); got != want {
		t.Fatalf("pending staleness = %v, want %v", got, want)
	}
	s.PublishAppend("sales", 1, 1250, 250)
	if got := s.Staleness(id); got != want {
		t.Fatalf("published staleness = %v, want %v (rows counted twice?)", got, want)
	}
}

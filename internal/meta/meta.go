// Package meta implements Taster's synopsis-centric metadata store
// (paper §III): descriptors for every synopsis that ever appeared in a
// candidate plan (materialized or not), their freshness, and the
// base-relation index plus subsumption matcher used to map query subplans
// onto materialized synopses (paper §IV-A). The paper's item (d) — which
// recent queries could exploit a synopsis, at what cost — is the same
// information held query-major in the tuner's sliding window (package
// tuner), so nothing here is written per query. Whether a synopsis is
// stored, in which tier, and whether it is pinned is the warehouse's
// record alone (package warehouse): the matchers take its view's Has.
package meta

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
)

// Descriptor is the logical definition of a synopsis: the subplan it
// summarizes plus its configuration and accuracy (paper §III metadata items
// (a) and (b)). Every synopsis summarizes σ(one base table) — a sample sits
// on the fact table's scan and a sketch-join's build side is σ(fact) — so
// the subplan is a table and a filter.
type Descriptor struct {
	ID   uint64
	Kind plan.SynopsisKind

	// Table is the summarized base table.
	Table string
	// FilterPred is the subplan's filter conjunction (nil = none), kept as
	// an expression for implication checks during subsumption.
	FilterPred expr.Expr

	// Sample configuration.
	StratCols []string
	P         float64
	Delta     int

	// Sketch-join configuration.
	BuildKeys []string
	AggCol    string

	// AggCols are the columns aggregated by the creating query; a sample
	// sized for these columns' variance serves queries aggregating a subset.
	AggCols []string

	// Accuracy is what the payload was sized for: a sample serves queries
	// no stricter. An exact synopsis — a sketch-join — carries none, so
	// queries that differ only in their accuracy clause name one synopsis.
	Accuracy stats.AccuracySpec

	// EstSizeBytes is the planner's size estimate before the synopsis
	// exists; ActualSize replaces it after materialization.
	EstSizeBytes int64
	ActualSize   int64

	// BuildRows is the row count of Table as bound into the build plan —
	// the rows the stored copy summarized. It is the staleness denominator,
	// and a later admit that scanned more rows is a refresh.
	BuildRows int64
}

// SizeBytes returns the best known size (actual if materialized).
func (d *Descriptor) SizeBytes() int64 {
	if d.ActualSize > 0 {
		return d.ActualSize
	}
	return d.EstSizeBytes
}

// IdentityKey distinguishes synopses of the same subplan with different
// kinds/configurations, used to dedupe candidate descriptors across queries.
// The filter enters as its sorted conjuncts and a sketch-join's build keys
// as a sorted set, so neither conjunct nor key order splits an identity —
// but two sketch-joins keyed on different columns are two synopses.
func (d *Descriptor) IdentityKey() string {
	return fmt.Sprintf("%s|%s|F[%s]|A=[%s]|K=[%s]|agg=%s|aggs=[%s]|acc=%.4f@%.4f",
		d.Kind, d.Table, expr.CanonicalPredicate(d.FilterPred), strings.Join(d.StratCols, ","),
		strings.Join(expr.DedupCols(d.BuildKeys), ","), d.AggCol,
		strings.Join(d.AggCols, ","), d.Accuracy.RelError, d.Accuracy.Confidence)
}

// Label is a short human-readable name for logs.
func (d *Descriptor) Label() string {
	return fmt.Sprintf("#%d %s over %s", d.ID, d.Kind, d.Table)
}

// Entry couples a descriptor with its freshness bookkeeping.
type Entry struct {
	Desc Descriptor
	// UnseenRows counts rows of Desc.Table appended after the synopsis was
	// built. It is *derived* — the excess of the catalog's row count over
	// BuildRows — and computed into snapshots at read time: no mutation
	// ordering between ingests and admits can erase it.
	UnseenRows int64
}

// Staleness returns the fraction of current source rows the synopsis has
// never seen: unseen / (built + unseen), in [0, 1]. A synopsis over an
// empty-at-build relation that has since received rows is fully stale (1).
// Valid on snapshots (where UnseenRows was derived at read time); for live
// entries use Store.Staleness.
func (e *Entry) Staleness() float64 {
	return stalenessFrom(e.Desc.BuildRows, e.UnseenRows)
}

func stalenessFrom(buildRows, unseen int64) float64 {
	if unseen <= 0 {
		return 0
	}
	denom := buildRows + unseen
	if denom <= 0 {
		return 0
	}
	return float64(unseen) / float64(denom)
}

// snap returns a copy of the entry that is safe to read after the store
// lock is released: descriptor scalars are copied and the unseen-row count
// is derived from rows, the catalog's row count of the entry's table.
// Descriptor slices (StratCols, AggCols, ...) are never mutated after
// Intern, so sharing them is safe. Read accessors return snapshots so
// admissions (which update sizes and freshness) never race with planners
// and the tuner reading them. Caller holds at least the read lock.
func snap(e *Entry, rows int64) *Entry {
	return &Entry{Desc: e.Desc, UnseenRows: unseen(e, rows)}
}

// unseen derives the rows of the synopsis' table it has never seen: the
// excess of rows, the table's catalog row count, over BuildRows — the last
// build's, whether or not that build is still stored. The store does not
// know where a synopsis lives; every reader of staleness asks the warehouse
// view first.
func unseen(e *Entry, rows int64) int64 {
	return max(0, rows-e.Desc.BuildRows)
}

// Store is the concurrency-safe metadata repository.
type Store struct {
	mu         sync.RWMutex
	nextID     uint64
	byID       map[uint64]*Entry
	byIdentity map[string]uint64
	byTable    map[string][]uint64
	// cat is the one record of every base table's row count, the catalog
	// queries bind their tables from; staleness reads it. Lock order is mu,
	// then the catalog's; the catalog never calls into meta.
	cat *storage.Catalog
}

// NewStore returns an empty metadata store whose staleness reads cat's row
// counts. A nil catalog means no table has grown.
func NewStore(cat *storage.Catalog) *Store {
	return &Store{
		byID:       make(map[uint64]*Entry),
		byIdentity: make(map[string]uint64),
		byTable:    make(map[string][]uint64),
		cat:        cat,
	}
}

// rows returns the catalog's current row count of table: 0 without a
// catalog or for a table it does not hold, which leaves every synopsis
// over it fresh.
func (s *Store) rows(table string) int64 {
	if s.cat == nil {
		return 0
	}
	t, err := s.cat.Table(table)
	if err != nil {
		return 0
	}
	return int64(t.NumRows())
}

// Intern registers a candidate descriptor, returning a snapshot of the
// existing entry when an identical synopsis (same subplan, kind and
// configuration) was seen before. The returned entry's descriptor carries
// the assigned ID.
func (s *Store) Intern(d Descriptor) *Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := d.IdentityKey()
	if id, ok := s.byIdentity[key]; ok {
		return snap(s.byID[id], s.rows(d.Table))
	}
	s.nextID++
	d.ID = s.nextID
	e := &Entry{Desc: d}
	s.byID[d.ID] = e
	s.byIdentity[key] = d.ID
	s.byTable[d.Table] = append(s.byTable[d.Table], d.ID)
	return snap(e, s.rows(d.Table))
}

// Restore reinstates a recovered entry under its original ID — the warm-
// restart path replaying a persisted manifest. Unlike Intern it preserves
// the descriptor verbatim (sizes, freshness); the ID
// allocator advances past the restored ID so later interns never collide.
// Restoring an ID or identity that already exists is an error: recovery
// runs against an empty store.
func (s *Store) Restore(d Descriptor) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d.ID == 0 {
		return fmt.Errorf("meta: restore: entry without an ID")
	}
	if _, dup := s.byID[d.ID]; dup {
		return fmt.Errorf("meta: restore: synopsis #%d already present", d.ID)
	}
	key := d.IdentityKey()
	if prev, dup := s.byIdentity[key]; dup {
		return fmt.Errorf("meta: restore: identity of #%d already held by #%d", d.ID, prev)
	}
	e := &Entry{Desc: d}
	s.byID[d.ID] = e
	s.byIdentity[key] = d.ID
	s.byTable[d.Table] = append(s.byTable[d.Table], d.ID)
	if d.ID > s.nextID {
		s.nextID = d.ID
	}
	return nil
}

// NextID returns the ID allocator's high-water mark (the last assigned ID);
// checkpoints persist it so a restarted store never reuses an ID.
func (s *Store) NextID() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nextID
}

// SeedNextID raises the ID allocator floor (no-op if the store has already
// advanced past it).
func (s *Store) SeedNextID(n uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > s.nextID {
		s.nextID = n
	}
}

// Get returns a snapshot of the entry for id.
func (s *Store) Get(id uint64) (*Entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.byID[id]
	if !ok {
		return nil, false
	}
	return snap(e, s.rows(e.Desc.Table)), true
}

// SetActualSize records the measured size after materialization; it
// outlives an eviction.
func (s *Store) SetActualSize(id uint64, size int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.byID[id]; ok {
		e.Desc.ActualSize = size
	}
}

// SetFreshness records the row count of its table a synopsis was (re)built
// from. Staleness is derived, not stored: when the catalog's row count
// exceeds what this build scanned — an append that raced the admit, for
// samples and sketch-joins alike — the gap surfaces automatically, whichever
// order the append and this call run in.
func (s *Store) SetFreshness(id uint64, rows int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.byID[id]; ok {
		e.Desc.BuildRows = rows
	}
}

// Staleness returns the fraction of source rows the synopsis has not seen
// (0 = fully fresh, 1 = built before any of the current rows existed).
func (s *Store) Staleness(id uint64) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.byID[id]
	if !ok {
		return 0
	}
	return stalenessFrom(e.Desc.BuildRows, unseen(e, s.rows(e.Desc.Table)))
}

// Entries returns snapshots of all entries sorted by ID (a stable,
// race-free view for checkpoints).
func (s *Store) Entries() []*Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.snapAll(slices.SortedFunc(maps.Values(s.byID), func(a, b *Entry) int {
		return cmp.Compare(a.Desc.ID, b.Desc.ID)
	}))
}

// Working returns one consistent read of the entries a tuning round works
// on: snapshots of the given ids, unknown ones omitted and duplicates
// folded, sorted by ID. The tuner asks for the ids its window mentions and
// the ids its warehouse view holds, so the cost follows those, not the
// number of descriptors interned.
func (s *Store) Working(ids []uint64) []*Entry {
	ids = slices.Compact(slices.Sorted(slices.Values(ids)))
	s.mu.RLock()
	defer s.mu.RUnlock()
	es := make([]*Entry, 0, len(ids))
	for _, id := range ids {
		if e, ok := s.byID[id]; ok {
			es = append(es, e)
		}
	}
	return s.snapAll(es)
}

// snapAll replaces each live entry of es with its snapshot, reading each
// table's catalog row count once. Caller holds at least the read lock.
func (s *Store) snapAll(es []*Entry) []*Entry {
	rows := make(map[string]int64)
	for i, e := range es {
		n, ok := rows[e.Desc.Table]
		if !ok {
			n = s.rows(e.Desc.Table)
			rows[e.Desc.Table] = n
		}
		es[i] = snap(e, n)
	}
	return es
}

// lookupTable returns the entries over a base table that has reports
// stored — the index that "effectively limits the search space" (paper
// §IV-A, which also keys join attributes; no synopsis here spans a join).
// Candidates never built are dropped before they are copied, and has runs
// outside the store's lock.
func (s *Store) lookupTable(table string, has func(uint64) bool) []*Entry {
	s.mu.RLock()
	ids := append([]uint64(nil), s.byTable[table]...)
	s.mu.RUnlock()
	ids = slices.DeleteFunc(ids, func(id uint64) bool { return !has(id) })
	s.mu.RLock()
	defer s.mu.RUnlock()
	rows := s.rows(table)
	out := make([]*Entry, 0, len(ids))
	for _, id := range ids {
		out = append(out, snap(s.byID[id], rows))
	}
	return out
}

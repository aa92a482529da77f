// Package meta implements Taster's synopsis-centric metadata store
// (paper §III): descriptors for every synopsis that ever appeared in a
// candidate plan (materialized or not), their freshness, and the
// base-relation index plus subsumption matcher used to map query subplans
// onto materialized synopses (paper §IV-A). The paper's item (d) — which
// recent queries could exploit a synopsis, at what cost — is the same
// information held query-major in the tuner's sliding window (package
// tuner), so nothing here is written per query.
package meta

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
)

// Location says where a synopsis currently lives.
type Location uint8

// Synopsis locations.
const (
	LocNone      Location = iota // candidate only, never materialized (or evicted)
	LocBuffer                    // in-memory synopsis buffer
	LocWarehouse                 // persistent synopsis warehouse
)

// String returns the location name.
func (l Location) String() string {
	return [...]string{"none", "buffer", "warehouse"}[l]
}

// Descriptor is the logical definition of a synopsis: the subplan it
// summarizes plus its configuration and accuracy (paper §III metadata items
// (a) and (b)).
type Descriptor struct {
	ID   uint64
	Kind plan.SynopsisKind

	// Sig identifies the summarized subplan (tables, join preds, filters,
	// output columns).
	Sig plan.Signature
	// FilterPred is the subplan's filter conjunction, kept as an expression
	// for implication checks during subsumption.
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

	Accuracy stats.AccuracySpec

	// EstSizeBytes is the planner's size estimate before the synopsis
	// exists; ActualSize replaces it after materialization.
	EstSizeBytes int64
	ActualSize   int64

	Location Location
	// Pinned synopses come from user hints and are never evicted (§V).
	Pinned bool

	// BuildEpoch is the summed epoch counter of the source tables at the
	// moment the synopsis was materialized; a later admit with a higher
	// source epoch is a refresh and replaces the stored copy.
	BuildEpoch uint64
	// BuildRows is the number of source rows the synopsis summarized at
	// build time — the staleness denominator, summed over the source
	// tables' row counts as bound into the build plan (recorded at admit
	// time, so staleness math never divides by zero).
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
func (d *Descriptor) IdentityKey() string {
	return fmt.Sprintf("%s|%s|A=[%s]|agg=%s|aggs=[%s]|acc=%.4f@%.4f",
		d.Kind, d.Sig.Key(), strings.Join(d.StratCols, ","), d.AggCol,
		strings.Join(d.AggCols, ","), d.Accuracy.RelError, d.Accuracy.Confidence)
}

// Label is a short human-readable name for logs.
func (d *Descriptor) Label() string {
	return fmt.Sprintf("#%d %s over %s", d.ID, d.Kind, strings.Join(d.Sig.Tables, "⋈"))
}

// Entry couples a descriptor with its freshness bookkeeping.
type Entry struct {
	Desc Descriptor
	// UnseenRows counts source rows appended after the synopsis was built.
	// It is *derived* — per source table, the excess of the observed (or
	// in-flight) row count over what the build scanned — and computed into
	// snapshots at read time: no mutation ordering between ingests and
	// admits can erase it.
	UnseenRows int64
	// builtBy records the per-table row counts the synopsis summarized
	// (set by SetFreshness; nil until first materialization). The map is
	// replaced wholesale, never mutated, so snapshots may share it.
	builtBy map[string]int64
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

// BuiltByTable returns the per-table source row counts the synopsis was
// built from (nil before first materialization). The map is replaced
// wholesale on refresh and never mutated, so callers must treat it as
// read-only.
func (e *Entry) BuiltByTable() map[string]int64 { return e.builtBy }

// snap returns a copy of the entry that is safe to read after the store
// lock is released: descriptor scalars are copied and the derived unseen-row
// count is computed in. Descriptor slices (StratCols, AggCols, ...) are never
// mutated after Intern, so sharing them is safe. Read accessors return
// snapshots so tuning rounds (which flip locations) never race with
// planners and the tuner reading them. Caller holds at least the read lock.
func (s *Store) snap(e *Entry) *Entry {
	return &Entry{
		Desc:       e.Desc,
		UnseenRows: s.unseenLocked(e),
		builtBy:    e.builtBy,
	}
}

// unseenLocked derives the source rows the synopsis has never seen: per
// source table, the excess of the observed row count (plus rows of any
// append currently in flight, see MarkUnseen) over what the build scanned.
// Caller holds at least the read lock.
func (s *Store) unseenLocked(e *Entry) int64 {
	var unseen int64
	for t, built := range e.builtBy {
		cur := built
		if v, ok := s.tables[t]; ok && v.rows > cur {
			cur = v.rows
		}
		cur += s.pending[t]
		if cur > built {
			unseen += cur - built
		}
	}
	return unseen
}

// tableVersion is the last observed state of a base relation.
type tableVersion struct {
	epoch uint64
	rows  int64
}

// Store is the concurrency-safe metadata repository.
type Store struct {
	mu         sync.RWMutex
	nextID     uint64
	byID       map[uint64]*Entry
	byIdentity map[string]uint64
	byIndexKey map[string][]uint64
	// resident holds the ids of materialized or pinned entries — the ones a
	// tuning round must see whatever its window mentions — so reading them
	// does not scan every descriptor ever interned.
	resident map[uint64]struct{}
	// tables tracks the last published epoch and row count of every
	// ingested base relation (updated by ObserveVersion); pending counts
	// rows of appends that are marked but not yet published (MarkUnseen).
	// Staleness derives from both, so a query racing the publish window
	// sees affected synopses as stale, never as fresh.
	tables  map[string]tableVersion
	pending map[string]int64
}

// NewStore returns an empty metadata store.
func NewStore() *Store {
	return &Store{
		byID:       make(map[uint64]*Entry),
		byIdentity: make(map[string]uint64),
		byIndexKey: make(map[string][]uint64),
		resident:   make(map[uint64]struct{}),
		tables:     make(map[string]tableVersion),
		pending:    make(map[string]int64),
	}
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
		return s.snap(s.byID[id])
	}
	s.nextID++
	d.ID = s.nextID
	e := &Entry{Desc: d}
	s.byID[d.ID] = e
	s.byIdentity[key] = d.ID
	ik := d.Sig.IndexKey()
	s.byIndexKey[ik] = append(s.byIndexKey[ik], d.ID)
	return s.snap(e)
}

// Restore reinstates a recovered entry under its original ID — the warm-
// restart path replaying a persisted manifest. Unlike Intern it preserves
// the descriptor verbatim (location, sizes, freshness, pin) and installs
// the per-table build rows; the ID allocator advances past the restored ID
// so later interns never collide. Restoring an ID or identity that already
// exists is an error: recovery runs against an empty store.
func (s *Store) Restore(d Descriptor, builtByTable map[string]int64) error {
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
	if len(builtByTable) > 0 {
		built := make(map[string]int64, len(builtByTable))
		for t, rows := range builtByTable {
			built[t] = rows
		}
		e.builtBy = built
	}
	s.byID[d.ID] = e
	s.byIdentity[key] = d.ID
	ik := d.Sig.IndexKey()
	s.byIndexKey[ik] = append(s.byIndexKey[ik], d.ID)
	s.trackLocked(e)
	if d.ID > s.nextID {
		s.nextID = d.ID
	}
	return nil
}

// trackLocked keeps the resident set in step with e's location and pin.
// Caller holds the write lock.
func (s *Store) trackLocked(e *Entry) {
	if e.Desc.Location != LocNone || e.Desc.Pinned {
		s.resident[e.Desc.ID] = struct{}{}
	} else {
		delete(s.resident, e.Desc.ID)
	}
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

// TableState is an observed base-relation version, exported for
// checkpointing.
type TableState struct {
	Epoch uint64
	Rows  int64
}

// TableVersions returns a copy of every observed base-relation version.
func (s *Store) TableVersions() map[string]TableState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]TableState, len(s.tables))
	for t, v := range s.tables {
		out[t] = TableState{Epoch: v.epoch, Rows: v.rows}
	}
	return out
}

// Get returns a snapshot of the entry for id.
func (s *Store) Get(id uint64) (*Entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.byID[id]
	if !ok {
		return nil, false
	}
	return s.snap(e), true
}

// SetLocation updates where the synopsis lives.
func (s *Store) SetLocation(id uint64, loc Location) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.byID[id]; ok {
		e.Desc.Location = loc
		s.trackLocked(e)
	}
}

// SetActualSize records the measured size after materialization.
func (s *Store) SetActualSize(id uint64, size int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.byID[id]; ok {
		e.Desc.ActualSize = size
	}
}

// SetFreshness records the source state a synopsis was (re)built from: the
// summed epoch of its source tables and the per-table row counts it
// summarized. Staleness is derived, not stored: for every source table
// whose observed (or in-flight) row count exceeds what this build scanned
// — an append that raced the admit, join samples and sketches included —
// the gap surfaces automatically, regardless of the order this call
// interleaves with MarkUnseen/ObserveVersion.
func (s *Store) SetFreshness(id uint64, epoch uint64, builtByTable map[string]int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byID[id]
	if !ok {
		return
	}
	e.Desc.BuildEpoch = epoch
	e.Desc.BuildRows = 0
	built := make(map[string]int64, len(builtByTable))
	for t, rows := range builtByTable {
		e.Desc.BuildRows += rows
		built[t] = rows
	}
	e.builtBy = built
}

// MarkUnseen registers addedRows of in-flight appended data on a table.
// The engine calls it BEFORE publishing the appended table version: a
// concurrent query then sees either old data with stale-marked synopses
// (harmlessly conservative) or new data with stale-marked synopses —
// never new data with synopses still reported fresh. Negative addedRows
// releases the mark (publish completed or append failed; clamped at zero).
func (s *Store) MarkUnseen(table string, addedRows int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending[table] += addedRows; s.pending[table] <= 0 {
		delete(s.pending, table)
	}
}

// ObserveVersion records a published table version; synopsis staleness
// derives from the gap between it and each synopsis' recorded build rows.
func (s *Store) ObserveVersion(table string, epoch uint64, totalRows int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observeVersionLocked(table, epoch, totalRows)
}

func (s *Store) observeVersionLocked(table string, epoch uint64, totalRows int64) {
	// Concurrent ingests can report here out of order; never let an older
	// observation regress the tracked version.
	if prev, ok := s.tables[table]; !ok || epoch > prev.epoch ||
		(epoch == prev.epoch && totalRows > prev.rows) {
		s.tables[table] = tableVersion{epoch: epoch, rows: totalRows}
	}
}

// PublishAppend atomically records a published table version AND releases
// the in-flight mark of the append that produced it. Doing both under one
// lock ensures no reader ever sees the appended rows counted twice (once in
// the observed gap, once in pending).
func (s *Store) PublishAppend(table string, epoch uint64, totalRows, addedRows int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observeVersionLocked(table, epoch, totalRows)
	if s.pending[table] -= addedRows; s.pending[table] <= 0 {
		delete(s.pending, table)
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
	return stalenessFrom(e.Desc.BuildRows, s.unseenLocked(e))
}

// StalenessOf returns the staleness fraction of every given synopsis in a
// single consistent read: one lock hold covers all ids, so the returned
// values reflect the same instant of the table-version/pending state. The
// engine's tuning-snapshot publish uses it so the lock-free serving path
// reads freshness that is mutually consistent with the published synopsis
// locations, instead of racing per-id lookups against concurrent ingests.
// Unknown ids are omitted.
func (s *Store) StalenessOf(ids []uint64) map[uint64]float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[uint64]float64, len(ids))
	for _, id := range ids {
		if e, ok := s.byID[id]; ok {
			out[id] = stalenessFrom(e.Desc.BuildRows, s.unseenLocked(e))
		}
	}
	return out
}

// SetPinned marks a synopsis as pinned (user hints) or not.
func (s *Store) SetPinned(id uint64, pinned bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.byID[id]; ok {
		e.Desc.Pinned = pinned
		s.trackLocked(e)
	}
}

// Entries returns snapshots of all entries sorted by ID (a stable,
// race-free view for checkpoints).
func (s *Store) Entries() []*Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Entry, 0, len(s.byID))
	for _, e := range s.byID {
		out = append(out, s.snap(e))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Desc.ID < out[j].Desc.ID })
	return out
}

// Working returns one consistent read of the entries a tuning round works
// on: snapshots of the given ids (unknown ones omitted, duplicates folded)
// plus every materialized or pinned entry, sorted by ID. Its cost follows
// len(ids) and the warehouse, not the number of descriptors interned.
func (s *Store) Working(ids []uint64) []*Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	pick := make(map[uint64]*Entry, len(s.resident)+len(ids))
	for id := range s.resident {
		pick[id] = s.byID[id]
	}
	for _, id := range ids {
		if e, ok := s.byID[id]; ok {
			pick[id] = e
		}
	}
	out := make([]*Entry, 0, len(pick))
	for _, e := range pick {
		out = append(out, s.snap(e))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Desc.ID < out[j].Desc.ID })
	return out
}

// Materialized returns entries currently in the buffer or warehouse.
func (s *Store) Materialized() []*Entry {
	all := s.Working(nil)
	out := all[:0:0]
	for _, e := range all {
		if e.Desc.Location != LocNone {
			out = append(out, e)
		}
	}
	return out
}

// lookupIndex returns entries sharing the coarse base-relations/join key —
// the index that "effectively limits the search space" (paper §IV-A).
func (s *Store) lookupIndex(indexKey string) []*Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := s.byIndexKey[indexKey]
	out := make([]*Entry, 0, len(ids))
	for _, id := range ids {
		out = append(out, s.snap(s.byID[id]))
	}
	return out
}

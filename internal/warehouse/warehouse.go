// Package warehouse implements the two-tier synopsis storage of paper §III:
// a fixed-size in-memory buffer holding synopses freshly built as query
// byproducts (fast, free of I/O at reuse time, decouples materialization
// from query latency), and a quota-bounded warehouse (the paper's HDFS tier)
// holding the synopses the tuner decided to keep. All sizes are
// byte-accurate; the tuner drives every promotion and eviction.
//
// With a Spiller attached the warehouse tier is disk-backed: payloads of
// synopses placed there are written durably and their in-memory pointer is
// dropped (the tier stops costing RAM — the elasticity the paper gets from
// HDFS), then faulted back lazily on first reuse and cached. Without a
// Spiller both tiers are memory-resident, exactly the pre-persistence
// behaviour.
//
// Concurrency model: reads are lock-free. Every mutation (serialized on an
// internal mutex and, above that, by the engine's tuning service) rebuilds
// an immutable View of both tiers and publishes it through an
// atomic.Pointer — RCU-style copy-on-write. The read path (Get/Has/Usage,
// taken by concurrent planners and executors) loads the current View with a
// single atomic load and never blocks behind a tuning round. Items are
// immutable once stored — a payload fault-in only fills the cache pointer,
// it never changes the bytes a plan observes — so a plan may keep executing
// against a sample that was concurrently evicted; View() hands out a whole
// coherent two-tier snapshot for callers that need several reads to be
// mutually consistent.
package warehouse

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/tasterdb/taster/internal/synopses"
)

// Spiller persists warehouse-tier payloads. The engine wires the disk store
// (persist.Store) in through this interface; a nil Spiller keeps the
// warehouse tier memory-resident.
type Spiller interface {
	// Spill durably writes the payload for id (write-temp-fsync-rename).
	Spill(id uint64, s synopses.Stored) error
	// Load reads the payload for id back.
	Load(id uint64) (synopses.Stored, error)
	// RemoveItem deletes id's payload file; a missing file is not an error.
	RemoveItem(id uint64) error
}

// Item is one materialized synopsis. The payload sits behind an atomic
// pointer: memory-resident items carry it from construction; disk-resident
// items (warehouse tier with a Spiller) drop it after the durable write and
// fault it back lazily on first reuse — outside every engine lock, with the
// cached pointer published atomically so concurrent readers either load the
// same immutable payload or fault it in themselves. The payload's Go type is
// the item's kind.
type Item struct {
	ID     uint64
	Size   int64
	Rows   int64 // sample row count (0 for sketches); plan costing reads it without faulting
	Pinned bool

	payload atomic.Pointer[synopses.Stored]
	loadMu  sync.Mutex
	spiller Spiller // set once the payload has a durable copy
}

// NewItem wraps a synopsis.
func NewItem(id uint64, s synopses.Stored) *Item {
	it := &Item{ID: id, Size: s.SizeBytes()}
	if smp, ok := s.(*synopses.Sample); ok {
		it.Rows = int64(smp.Rows.NumRows())
	}
	it.payload.Store(&s)
	return it
}

// RestoredItem rebuilds an item from persisted metadata: the payload stays
// on disk, faulted in lazily via the spiller.
func RestoredItem(id uint64, size, rows int64, pinned bool, sp Spiller) *Item {
	return &Item{ID: id, Size: size, Rows: rows, Pinned: pinned, spiller: sp}
}

// Loaded reports whether the payload is currently cached in memory. The
// planner charges the disk fault-in for unloaded items, which is what makes
// ChoosePlan discount cold warehouse hits against buffer hits.
func (it *Item) Loaded() bool { return it.payload.Load() != nil }

// Synopsis returns the item's payload, faulting it in from the spiller if
// spilled. The mutex only serializes concurrent faults of the SAME item;
// the fast path is one atomic load, and faults never run under the
// manager's or the engine's locks.
func (it *Item) Synopsis() (synopses.Stored, error) {
	if p := it.payload.Load(); p != nil {
		return *p, nil
	}
	it.loadMu.Lock()
	defer it.loadMu.Unlock()
	if p := it.payload.Load(); p != nil {
		return *p, nil
	}
	if it.spiller == nil {
		return nil, fmt.Errorf("warehouse: synopsis #%d has no payload and no backing store", it.ID)
	}
	s, err := it.spiller.Load(it.ID)
	if err != nil {
		return nil, fmt.Errorf("warehouse: loading synopsis #%d: %w", it.ID, err)
	}
	it.payload.Store(&s)
	return s, nil
}

// Sample returns the item's sample payload, faulting it in if spilled; it
// errors on a sketch-join.
func (it *Item) Sample() (*synopses.Sample, error) { return payloadAs[*synopses.Sample](it, "sample") }

// Sketch returns the item's sketch-join payload, faulting it in if spilled;
// it errors on a sample.
func (it *Item) Sketch() (*synopses.SketchJoin, error) {
	return payloadAs[*synopses.SketchJoin](it, "sketch-join")
}

func payloadAs[T synopses.Stored](it *Item, want string) (T, error) {
	var zero T
	s, err := it.Synopsis()
	if err != nil {
		return zero, err
	}
	x, ok := s.(T)
	if !ok {
		return zero, fmt.Errorf("warehouse: synopsis #%d is a %T, not a %s", it.ID, s, want)
	}
	return x, nil
}

// tier is shared bookkeeping for buffer and warehouse.
type tier struct {
	name  string
	quota int64
	used  int64
	items map[uint64]*Item
}

func (t *tier) put(it *Item) error {
	if _, dup := t.items[it.ID]; dup {
		return fmt.Errorf("warehouse: synopsis #%d already in %s", it.ID, t.name)
	}
	if t.used+it.Size > t.quota {
		return fmt.Errorf("warehouse: %s full: %d + %d > quota %d", t.name, t.used, it.Size, t.quota)
	}
	t.items[it.ID] = it
	t.used += it.Size
	return nil
}

func (t *tier) delete(id uint64) bool {
	it, ok := t.items[id]
	if !ok {
		return false
	}
	delete(t.items, id)
	t.used -= it.Size
	return true
}

// View is an immutable snapshot of both tiers, published atomically after
// every mutation. All its reads are coherent with each other: a planner
// holding one View sees the exact synopsis set some tuning round left
// behind, never a half-applied rearrangement. Views must not be mutated.
//
//taster:immutable
type View struct {
	buffer    map[uint64]*Item
	warehouse map[uint64]*Item
	bufUsed   int64
	whUsed    int64
	bufQuota  int64
	whQuota   int64
}

// Get returns the item and whether it was found in the buffer tier.
func (v *View) Get(id uint64) (it *Item, inBuffer bool, ok bool) {
	if it, ok := v.buffer[id]; ok {
		return it, true, true
	}
	if it, ok := v.warehouse[id]; ok {
		return it, false, true
	}
	return nil, false, false
}

// Has reports whether the synopsis is materialized in either tier.
func (v *View) Has(id uint64) bool {
	_, _, ok := v.Get(id)
	return ok
}

// SameContents reports whether two views hold the identical item set: the
// same ids bound to the same immutable *Item payloads in the same tiers.
// Item pointer equality is the right notion — a refresh swaps the pointer,
// so two views agreeing pointer-wise bind exactly the same synopsis bytes.
// Plan caching uses it to carry a snapshot identity across publishes that
// did not rearrange the warehouse.
func (v *View) SameContents(o *View) bool {
	if v == o {
		return true
	}
	if v == nil || o == nil {
		return false
	}
	return sameTier(v.buffer, o.buffer) && sameTier(v.warehouse, o.warehouse)
}

func sameTier(a, b map[uint64]*Item) bool {
	if len(a) != len(b) {
		return false
	}
	for id, it := range a {
		if b[id] != it {
			return false
		}
	}
	return true
}

// Usage returns (bufferUsed, warehouseUsed) bytes.
func (v *View) Usage() (buffer, warehouse int64) { return v.bufUsed, v.whUsed }

// Quotas returns (bufferQuota, warehouseQuota) bytes.
func (v *View) Quotas() (buffer, warehouse int64) { return v.bufQuota, v.whQuota }

// BufferItems lists the buffer tier sorted by synopsis id (fresh slice;
// items are shared and immutable).
func (v *View) BufferItems() []*Item { return listOf(v.buffer) }

// WarehouseItems lists the warehouse tier sorted by synopsis id.
func (v *View) WarehouseItems() []*Item { return listOf(v.warehouse) }

// Overflow returns how many bytes the warehouse exceeds its quota by
// (after an elastic shrink), zero when within quota.
func (v *View) Overflow() int64 {
	if over := v.whUsed - v.whQuota; over > 0 {
		return over
	}
	return 0
}

// listOf snapshots a tier map sorted by synopsis id. Deterministic
// enumeration matters beyond cosmetics: recovery replays the manifest and
// fallback evictions walk these lists, and both must behave identically
// across runs and restarts regardless of Go map iteration order.
func listOf(m map[uint64]*Item) []*Item {
	out := make([]*Item, 0, len(m))
	for _, it := range m {
		out = append(out, it)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Manager owns both tiers. Mutations serialize on mu and publish a fresh
// View; reads never take mu.
type Manager struct {
	mu        sync.Mutex
	buffer    tier
	warehouse tier
	view      atomic.Pointer[View]
	spiller   Spiller
}

// NewManager returns a manager with the given byte quotas. The paper sets
// the warehouse quota as a fraction of the dataset size and the buffer to a
// small fixed size. With a spiller the warehouse tier is disk-backed:
// payloads placed there are durably written and dropped from memory, then
// faulted back lazily on reuse; a nil spiller keeps it memory-resident.
func NewManager(bufferQuota, warehouseQuota int64, sp Spiller) *Manager {
	m := &Manager{
		buffer:    tier{name: "buffer", quota: bufferQuota, items: make(map[uint64]*Item)},
		warehouse: tier{name: "warehouse", quota: warehouseQuota, items: make(map[uint64]*Item)},
		spiller:   sp,
	}
	m.publishLocked()
	return m
}

// View returns the current immutable two-tier snapshot (one atomic load).
func (m *Manager) View() *View { return m.view.Load() }

// publishLocked rebuilds the read view from the mutable tiers. Caller
// holds mu. The maps are copied — O(items), and the tuner keeps the item
// count small — so readers holding an older View are never invalidated.
// Admissions deliberately publish per item rather than batching like
// ApplyMoves: a refresh must reach the live view BEFORE the metadata
// store's freshness update lands, or the liveness check in planner.bind
// could see new metadata vouching for an old payload.
//
//taster:mutator construction: the View is filled privately and escapes only through the atomic Store that publishes it
func (m *Manager) publishLocked() {
	v := &View{
		buffer:    make(map[uint64]*Item, len(m.buffer.items)),
		warehouse: make(map[uint64]*Item, len(m.warehouse.items)),
		bufUsed:   m.buffer.used,
		whUsed:    m.warehouse.used,
		bufQuota:  m.buffer.quota,
		whQuota:   m.warehouse.quota,
	}
	for id, it := range m.buffer.items {
		v.buffer[id] = it
	}
	for id, it := range m.warehouse.items {
		v.warehouse[id] = it
	}
	m.view.Store(v)
}

// spillLocked durably writes it's payload and drops the in-memory copy —
// the step that makes a warehouse-tier placement disk-resident. No-op
// without a spiller (memory-resident mode) or when the item is already
// spilled (restored items). Caller holds mu; the write happens before the
// payload pointer drops, so a concurrent reader either sees the old cached
// payload or faults in the complete durable copy — never a torn file.
func (m *Manager) spillLocked(it *Item) error {
	if m.spiller == nil {
		return nil
	}
	p := it.payload.Load()
	if p == nil {
		return nil // already disk-resident
	}
	if err := m.spiller.Spill(it.ID, *p); err != nil {
		return err
	}
	it.loadMu.Lock()
	it.spiller = m.spiller
	it.payload.Store(nil)
	it.loadMu.Unlock()
	return nil
}

// removeBacking deletes it's durable copy, if any.
func (m *Manager) removeBacking(id uint64) {
	if m.spiller != nil {
		_ = m.spiller.RemoveItem(id)
	}
}

// PutBuffer stores a freshly built synopsis in the in-memory buffer.
func (m *Manager) PutBuffer(it *Item) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	defer m.publishLocked()
	return m.buffer.put(it)
}

// AdmitResult says where Admit placed (or found) a synopsis.
type AdmitResult uint8

// Admit outcomes.
const (
	// AdmitDropped: no tier had room; the synopsis was not stored.
	AdmitDropped AdmitResult = iota
	// AdmitBuffer: stored in (or already present in) the in-memory buffer.
	AdmitBuffer
	// AdmitWarehouse: stored in (or already present in) the warehouse.
	AdmitWarehouse
)

// Admit places a freshly built synopsis in the buffer, overflowing to the
// warehouse, as a single atomic operation. When the synopsis is already
// materialized in either tier — two concurrent queries can build the same
// descriptor — Admit is a no-op that reports where the existing copy lives,
// guaranteeing an ID never occupies both tiers. A warehouse placement that
// cannot be durably written (disk-backed tier) is dropped, not stored
// volatile: the warehouse tier's contract is that its contents survive a
// restart.
func (m *Manager) Admit(it *Item) AdmitResult {
	m.mu.Lock()
	defer m.mu.Unlock()
	defer m.publishLocked()
	if _, ok := m.buffer.items[it.ID]; ok {
		return AdmitBuffer
	}
	if _, ok := m.warehouse.items[it.ID]; ok {
		return AdmitWarehouse
	}
	if m.buffer.put(it) == nil {
		return AdmitBuffer
	}
	if m.warehouse.put(it) == nil {
		if err := m.spillLocked(it); err != nil {
			m.warehouse.delete(it.ID)
			m.removeBacking(it.ID)
			return AdmitDropped
		}
		return AdmitWarehouse
	}
	return AdmitDropped
}

// Refresh atomically replaces a stored synopsis with a rebuilt copy of the
// same ID, preferring the tier the old copy occupied (pinned hints stay in
// the warehouse, byproducts in the buffer) and overflowing to the other.
// Unlike Delete it applies to pinned items — a refresh is not an eviction:
// the synopsis stays stored, only its payload is brought up to date, and
// the pin carries over to the fresh copy. If the rebuilt copy fits in
// neither tier, the old copy is reinstated and an error returned. Readers
// holding a pre-refresh View keep the old immutable item.
func (m *Manager) Refresh(it *Item) (AdmitResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	defer m.publishLocked()
	var oldTier, otherTier *tier
	var old *Item
	for i, t := range []*tier{&m.buffer, &m.warehouse} {
		if o, ok := t.items[it.ID]; ok {
			oldTier, old = t, o
			otherTier = [...]*tier{&m.warehouse, &m.buffer}[i]
			break
		}
	}
	if old == nil {
		return AdmitDropped, fmt.Errorf("warehouse: refresh: synopsis #%d not materialized", it.ID)
	}
	// Pins carry forward, never demote: a refresh of a pinned copy stays
	// pinned, and re-pinning a descriptor first materialized as an
	// unpinned byproduct must not silently lose the user's pin.
	it.Pinned = it.Pinned || old.Pinned
	oldTier.delete(it.ID)
	result := func(t *tier) AdmitResult {
		if t == &m.buffer {
			return AdmitBuffer
		}
		return AdmitWarehouse
	}
	// placed finalizes a successful put: warehouse placements must become
	// durable (failure rolls the put back), and a buffer placement leaves
	// no stale durable bytes behind — neither from a warehouse-resident old
	// copy nor from a buffer payload file a clean shutdown wrote earlier.
	placed := func(t *tier) (AdmitResult, bool) {
		if t == &m.warehouse {
			if err := m.spillLocked(it); err != nil {
				t.delete(it.ID)
				return AdmitDropped, false
			}
		} else {
			m.removeBacking(it.ID)
		}
		return result(t), true
	}
	if oldTier.put(it) == nil {
		if res, ok := placed(oldTier); ok {
			return res, nil
		}
	} else if !it.Pinned && otherTier.put(it) == nil {
		// Unpinned items may overflow to the other tier; pinned hints must
		// not strand in the buffer (the tuner never promotes pinned
		// entries), so they refresh same-tier or not at all.
		if res, ok := placed(otherTier); ok {
			return res, nil
		}
	}
	// No room for the (larger) rebuild, or its durable write failed: keep
	// the old copy (its bytes were just freed, so reinstating cannot fail).
	_ = oldTier.put(old)
	return AdmitDropped, fmt.Errorf("warehouse: refresh: no room for rebuilt synopsis #%d", it.ID)
}

// PutWarehouse stores a synopsis directly in the warehouse (offline builds,
// promotions). With a disk-backed tier the payload is durably written and
// dropped from memory before the call returns.
func (m *Manager) PutWarehouse(it *Item) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	defer m.publishLocked()
	if err := m.warehouse.put(it); err != nil {
		return err
	}
	if err := m.spillLocked(it); err != nil {
		m.warehouse.delete(it.ID)
		m.removeBacking(it.ID)
		return fmt.Errorf("warehouse: persisting synopsis #%d: %w", it.ID, err)
	}
	return nil
}

// RestoreItem reinstates a recovered item into the named tier (recovery
// replaying the manifest). Quota limits apply — a restart may come with a
// smaller budget than the checkpoint was taken under, in which case the
// overflow items simply fail to restore and the caller drops them.
func (m *Manager) RestoreItem(it *Item, intoBuffer bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	defer m.publishLocked()
	t := &m.warehouse
	if intoBuffer {
		t = &m.buffer
	}
	return t.put(it)
}

// Delete removes the synopsis from whichever tier holds it, along with any
// durable copy. Pinned synopses refuse deletion (user hints are never
// evicted, paper §V).
func (m *Manager) Delete(id uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	defer m.publishLocked()
	for _, t := range []*tier{&m.buffer, &m.warehouse} {
		if it, ok := t.items[id]; ok {
			if it.Pinned {
				return fmt.Errorf("warehouse: synopsis #%d is pinned", id)
			}
			t.delete(id)
			m.removeBacking(id)
			return nil
		}
	}
	return fmt.Errorf("warehouse: synopsis #%d not materialized", id)
}

// ApplyMoves performs a tuning round's whole warehouse rearrangement —
// evictions then promotions — under one lock hold with one view publish,
// instead of re-copying the tiers once per synopsis. An eviction is a Delete;
// a promotion moves a synopsis from the buffer to the warehouse, spilling
// the payload to a disk-backed warehouse (the caller charges the simulated
// write cost). Pinned or unmaterialized evictees and unpromotable entries
// (not in the buffer, no warehouse room, or a failed durable write — which
// leaves the synopsis in the buffer, memory-resident) are skipped. Returns
// the IDs each action actually applied to, so the caller can count exactly
// those.
func (m *Manager) ApplyMoves(evict, promote []uint64) (evicted, promoted []uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	defer m.publishLocked()
	for _, id := range evict {
		for _, t := range []*tier{&m.buffer, &m.warehouse} {
			if it, ok := t.items[id]; ok {
				if !it.Pinned {
					t.delete(id)
					m.removeBacking(id)
					evicted = append(evicted, id)
				}
				break
			}
		}
	}
	for _, id := range promote {
		it, ok := m.buffer.items[id]
		if !ok {
			continue
		}
		if m.warehouse.put(it) != nil {
			continue
		}
		if err := m.spillLocked(it); err != nil {
			m.warehouse.delete(id)
			m.removeBacking(id)
			continue
		}
		m.buffer.delete(id)
		promoted = append(promoted, id)
	}
	return evicted, promoted
}

// Get returns the item and whether it was found in the buffer tier.
func (m *Manager) Get(id uint64) (it *Item, inBuffer bool, ok bool) {
	return m.View().Get(id)
}

// Has reports whether the synopsis is materialized in either tier.
func (m *Manager) Has(id uint64) bool { return m.View().Has(id) }

// BufferItems returns a snapshot of the buffer tier sorted by id.
func (m *Manager) BufferItems() []*Item { return m.View().BufferItems() }

// WarehouseItems returns a snapshot of the warehouse tier sorted by id.
func (m *Manager) WarehouseItems() []*Item { return m.View().WarehouseItems() }

// Usage returns (bufferUsed, warehouseUsed) bytes.
func (m *Manager) Usage() (buffer, warehouse int64) { return m.View().Usage() }

// SetWarehouseQuota changes the warehouse quota at runtime — the storage
// elasticity hook (paper §V). It does not evict; the tuner re-evaluates and
// issues deletions until Overflow reports zero.
func (m *Manager) SetWarehouseQuota(quota int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.warehouse.quota = quota
	m.publishLocked()
}

// Overflow returns how many bytes the warehouse exceeds its quota by
// (after an elastic shrink), zero when within quota.
func (m *Manager) Overflow() int64 { return m.View().Overflow() }

package warehouse

import (
	"fmt"
	"testing"

	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
)

func mkSample(rows int) *synopses.Sample {
	b := storage.NewBuilder("s", storage.Schema{
		{Name: "s.v", Typ: storage.Int64},
		{Name: synopses.WeightCol, Typ: storage.Float64},
	})
	for i := 0; i < rows; i++ {
		b.Int(0, int64(i))
		b.Float(1, 1)
	}
	return &synopses.Sample{Rows: b.Build(1), Strategy: "uniform", P: 1}
}

func TestPutGetDelete(t *testing.T) {
	m := NewManager(1<<20, 1<<20)
	it := NewSampleItem(1, mkSample(100))
	if err := m.PutBuffer(it); err != nil {
		t.Fatal(err)
	}
	got, inBuf, ok := m.Get(1)
	if !ok || !inBuf || got != it {
		t.Fatalf("Get = %v %v %v", got, inBuf, ok)
	}
	if !m.Has(1) || m.Has(2) {
		t.Fatal("Has")
	}
	bu, wu := m.Usage()
	if bu != it.Size || wu != 0 {
		t.Fatalf("usage = %d %d", bu, wu)
	}
	if err := m.Delete(1); err != nil {
		t.Fatal(err)
	}
	if m.Has(1) {
		t.Fatal("deleted item still present")
	}
	if err := m.Delete(1); err == nil {
		t.Fatal("double delete must error")
	}
	bu, _ = m.Usage()
	if bu != 0 {
		t.Fatalf("usage after delete = %d", bu)
	}
}

func TestQuotaEnforced(t *testing.T) {
	s := mkSample(100)
	m := NewManager(s.SizeBytes(), s.SizeBytes()*2)
	if err := m.PutBuffer(NewSampleItem(1, s)); err != nil {
		t.Fatal(err)
	}
	if err := m.PutBuffer(NewSampleItem(2, s)); err == nil {
		t.Fatal("buffer overflow must error")
	}
	if err := m.PutWarehouse(NewSampleItem(2, s)); err != nil {
		t.Fatal(err)
	}
	if err := m.PutWarehouse(NewSampleItem(3, s)); err != nil {
		t.Fatal(err)
	}
	if err := m.PutWarehouse(NewSampleItem(4, s)); err == nil {
		t.Fatal("warehouse overflow must error")
	}
	if _, used := m.Usage(); used != s.SizeBytes()*2 {
		t.Fatalf("warehouse used = %d, want the whole quota", used)
	}
	// Duplicate ids rejected.
	if err := m.PutWarehouse(NewSampleItem(2, s)); err == nil {
		t.Fatal("duplicate id must error")
	}
}

func TestPromote(t *testing.T) {
	s := mkSample(50)
	m := NewManager(1<<20, 1<<20)
	if err := m.PutBuffer(NewSampleItem(7, s)); err != nil {
		t.Fatal(err)
	}
	if _, promoted := m.ApplyMoves(nil, []uint64{7}); len(promoted) != 1 {
		t.Fatalf("promoted = %v, want [7]", promoted)
	}
	_, inBuf, ok := m.Get(7)
	if !ok || inBuf {
		t.Fatal("promotion must move item to warehouse")
	}
	if _, promoted := m.ApplyMoves(nil, []uint64{7}); len(promoted) != 0 {
		t.Fatal("a non-buffer item must not be promoted")
	}
	bu, wu := m.Usage()
	if bu != 0 || wu != s.SizeBytes() {
		t.Fatalf("usage = %d %d", bu, wu)
	}
}

func TestPinnedResistDeletion(t *testing.T) {
	m := NewManager(1<<20, 1<<20)
	it := NewSampleItem(1, mkSample(10))
	it.Pinned = true
	if err := m.PutWarehouse(it); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(1); err == nil {
		t.Fatal("pinned item must refuse deletion")
	}
	if !m.Has(1) {
		t.Fatal("pinned item vanished")
	}
}

func TestElasticQuota(t *testing.T) {
	s := mkSample(100)
	m := NewManager(1<<20, s.SizeBytes()*3)
	for id := uint64(1); id <= 3; id++ {
		if err := m.PutWarehouse(NewSampleItem(id, s)); err != nil {
			t.Fatal(err)
		}
	}
	if m.Overflow() != 0 {
		t.Fatal("no overflow within quota")
	}
	// Shrink: overflow appears, existing data intact until tuner evicts.
	m.SetWarehouseQuota(s.SizeBytes())
	if m.Overflow() != 2*s.SizeBytes() {
		t.Fatalf("overflow = %d", m.Overflow())
	}
	if len(m.WarehouseItems()) != 3 {
		t.Fatal("shrink must not silently drop items")
	}
	if err := m.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(2); err != nil {
		t.Fatal(err)
	}
	if m.Overflow() != 0 {
		t.Fatalf("overflow after evictions = %d", m.Overflow())
	}
	_, q := m.Quotas()
	if q != s.SizeBytes() {
		t.Fatal("quota readback")
	}
}

func TestSketchItem(t *testing.T) {
	rows := storage.NewBuilder("sketch-join", storage.Schema{
		{Name: "k", Typ: storage.Int64},
		{Name: synopses.CountCol, Typ: storage.Float64},
		{Name: synopses.SumCol, Typ: storage.Float64},
	})
	rows.Int(0, 7)
	rows.Float(1, 2)
	rows.Float(2, 6)
	sk, err := synopses.NewSketchJoin(rows.Build(1), "v")
	if err != nil {
		t.Fatal(err)
	}
	it := NewSketchItem(9, sk)
	if it.Size != sk.SizeBytes() || it.Kind() != SketchItem || !it.Loaded() {
		t.Fatalf("item = %+v", it)
	}
	m := NewManager(1<<10, 1<<30)
	if err := m.PutWarehouse(it); err != nil {
		t.Fatal(err)
	}
	got, _, ok := m.Get(9)
	if !ok {
		t.Fatal("sketch item missing")
	}
	gotSk, err := got.Sketch()
	if err != nil || gotSk != sk {
		t.Fatalf("sketch round trip: %v %v", gotSk, err)
	}
	if _, err := got.Sample(); err == nil {
		t.Fatal("Sample() on a sketch item must error")
	}
	if len(m.BufferItems()) != 0 || len(m.WarehouseItems()) != 1 {
		t.Fatal("tier listings")
	}
}

func TestAdmitIsIdempotentAcrossTiers(t *testing.T) {
	s := mkSample(100)
	m := NewManager(s.SizeBytes(), s.SizeBytes()*4)

	if r := m.Admit(NewSampleItem(1, s)); r != AdmitBuffer {
		t.Fatalf("first admit = %v, want buffer", r)
	}
	// A concurrent build of the same ID must be a no-op — never a second
	// copy in the warehouse while the first sits in the buffer.
	if r := m.Admit(NewSampleItem(1, s)); r != AdmitBuffer {
		t.Fatalf("duplicate admit = %v, want buffer no-op", r)
	}
	if bu, wu := m.Usage(); bu != s.SizeBytes() || wu != 0 {
		t.Fatalf("usage after duplicate admit = %d/%d, want single buffer copy", bu, wu)
	}

	// Buffer full → overflow to warehouse; duplicate again → warehouse no-op.
	if r := m.Admit(NewSampleItem(2, s)); r != AdmitWarehouse {
		t.Fatalf("overflow admit = %v, want warehouse", r)
	}
	if r := m.Admit(NewSampleItem(2, s)); r != AdmitWarehouse {
		t.Fatalf("duplicate overflow admit = %v, want warehouse no-op", r)
	}

	// Both tiers full → dropped.
	big := mkSample(100000)
	if r := m.Admit(NewSampleItem(3, big)); r != AdmitDropped {
		t.Fatalf("oversized admit = %v, want dropped", r)
	}

	// Deleting an admitted ID frees its single copy everywhere.
	if err := m.Delete(1); err != nil {
		t.Fatal(err)
	}
	if m.Has(1) {
		t.Fatal("ID 1 still materialized after delete")
	}
}

// TestDeterministicEnumeration: BufferItems/WarehouseItems must come back
// sorted by synopsis id, not in Go map order — recovery replays and
// fallback evictions depend on deterministic listings.
func TestDeterministicEnumeration(t *testing.T) {
	s := mkSample(10)
	m := NewManager(1<<30, 1<<30)
	ids := []uint64{42, 7, 19, 3, 88, 55, 21, 64, 1, 30}
	for _, id := range ids {
		if err := m.PutWarehouse(NewSampleItem(id, s)); err != nil {
			t.Fatal(err)
		}
		if err := m.PutBuffer(NewSampleItem(id+1000, s)); err != nil {
			t.Fatal(err)
		}
	}
	for pass := 0; pass < 5; pass++ {
		for i, it := range m.WarehouseItems() {
			if i > 0 && m.WarehouseItems()[i-1].ID >= it.ID {
				t.Fatalf("warehouse listing unsorted at %d", i)
			}
		}
		buf := m.BufferItems()
		if len(buf) != len(ids) {
			t.Fatalf("buffer listing = %d items", len(buf))
		}
		for i := 1; i < len(buf); i++ {
			if buf[i-1].ID >= buf[i].ID {
				t.Fatalf("buffer listing unsorted at %d: %d >= %d", i, buf[i-1].ID, buf[i].ID)
			}
		}
	}
}

// memSpiller is an in-memory Spiller for tier-behaviour tests.
type memSpiller struct {
	files   map[uint64]*Payload
	failPut bool
	loads   int
}

func newMemSpiller() *memSpiller { return &memSpiller{files: map[uint64]*Payload{}} }

func (m *memSpiller) Spill(id uint64, p *Payload) error {
	if m.failPut {
		return fmt.Errorf("disk full")
	}
	m.files[id] = p
	return nil
}

func (m *memSpiller) Load(id uint64) (*Payload, error) {
	p, ok := m.files[id]
	if !ok {
		return nil, fmt.Errorf("no file for %d", id)
	}
	m.loads++
	return p, nil
}

func (m *memSpiller) Remove(id uint64) error { delete(m.files, id); return nil }

// TestSpillOnPromoteAndLazyLoad: promotion to a disk-backed warehouse
// drops the payload pointer; the first payload access faults it back and
// caches it.
func TestSpillOnPromoteAndLazyLoad(t *testing.T) {
	sp := newMemSpiller()
	m := NewManagerWithSpiller(1<<20, 1<<20, sp)
	s := mkSample(50)
	if err := m.PutBuffer(NewSampleItem(5, s)); err != nil {
		t.Fatal(err)
	}
	if _, promoted := m.ApplyMoves(nil, []uint64{5}); len(promoted) != 1 {
		t.Fatalf("promoted = %v, want [5]", promoted)
	}
	it, inBuf, ok := m.Get(5)
	if !ok || inBuf {
		t.Fatal("item not in warehouse")
	}
	if it.Loaded() {
		t.Fatal("promotion must drop the payload pointer")
	}
	if _, ok := sp.files[5]; !ok {
		t.Fatal("promotion must write the durable copy")
	}
	got, err := it.Sample()
	if err != nil || got == nil {
		t.Fatalf("lazy load: %v %v", got, err)
	}
	if !it.Loaded() || sp.loads != 1 {
		t.Fatalf("payload not cached after load (loads=%d)", sp.loads)
	}
	if _, err := it.Sample(); err != nil || sp.loads != 1 {
		t.Fatalf("second access must hit the cache (loads=%d)", sp.loads)
	}
	// Eviction removes the durable copy.
	if err := m.Delete(5); err != nil {
		t.Fatal(err)
	}
	if _, ok := sp.files[5]; ok {
		t.Fatal("delete must remove the durable copy")
	}
}

// TestFailedSpillAbortsPlacement: a synopsis whose durable write fails
// must not occupy the (contractually durable) warehouse tier.
func TestFailedSpillAbortsPlacement(t *testing.T) {
	sp := newMemSpiller()
	sp.failPut = true
	m := NewManagerWithSpiller(1, 1<<20, sp)
	s := mkSample(50)

	if err := m.PutWarehouse(NewSampleItem(1, s)); err == nil {
		t.Fatal("PutWarehouse must surface a failed durable write")
	}
	if m.Has(1) {
		t.Fatal("failed placement left the item stored")
	}
	// Admit overflows to the warehouse (tiny buffer) and must drop.
	if r := m.Admit(NewSampleItem(2, s)); r != AdmitDropped {
		t.Fatalf("admit with failing disk = %v, want dropped", r)
	}
	// Promotion failure keeps the item in the buffer, payload intact.
	sp.failPut = false
	big := NewManagerWithSpiller(1<<20, 1<<20, sp)
	if err := big.PutBuffer(NewSampleItem(3, s)); err != nil {
		t.Fatal(err)
	}
	sp.failPut = true
	if _, promoted := big.ApplyMoves(nil, []uint64{3}); len(promoted) != 0 {
		t.Fatal("a failed durable write must not count as a promotion")
	}
	it, inBuf, ok := big.Get(3)
	if !ok || !inBuf || !it.Loaded() {
		t.Fatal("failed promotion must leave the buffer copy untouched")
	}
}

// TestRestoredItemQuota: restore honors tier quotas (restart under a
// smaller budget drops overflow).
func TestRestoredItemQuota(t *testing.T) {
	sp := newMemSpiller()
	s := mkSample(50)
	sp.files[9] = &Payload{Sample: s}
	m := NewManagerWithSpiller(1<<20, s.SizeBytes(), sp)
	it := RestoredItem(9, SampleItem, s.SizeBytes(), int64(s.Rows.NumRows()), false, sp)
	if err := m.RestoreItem(it, false); err != nil {
		t.Fatal(err)
	}
	if it.Loaded() {
		t.Fatal("restored item must start unloaded")
	}
	if err := it.EagerLoad(); err != nil {
		t.Fatal(err)
	}
	over := RestoredItem(10, SampleItem, s.SizeBytes(), 50, false, sp)
	if err := m.RestoreItem(over, false); err == nil {
		t.Fatal("restore past quota must fail")
	}
}

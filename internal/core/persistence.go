package core

import (
	"fmt"

	"github.com/tasterdb/taster/internal/persist"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/synopses"
	"github.com/tasterdb/taster/internal/tuner"
	"github.com/tasterdb/taster/internal/warehouse"
)

// diskSpiller adapts the persist store to the warehouse's Spiller
// interface: payloads cross as versioned binary records (persist.Encode).
type diskSpiller struct{ db *persist.Store }

// Spill implements warehouse.Spiller.
func (d diskSpiller) Spill(id uint64, p *warehouse.Payload) error {
	switch {
	case p.Sample != nil:
		return d.db.WriteItem(id, persist.Encode(p.Sample))
	case p.Sketch != nil:
		return d.db.WriteItem(id, persist.Encode(p.Sketch))
	}
	return fmt.Errorf("core: spilling synopsis #%d: empty payload", id)
}

// Load implements warehouse.Spiller.
func (d diskSpiller) Load(id uint64) (*warehouse.Payload, error) {
	b, err := d.db.ReadItem(id)
	if err != nil {
		return nil, err
	}
	s, err := persist.Decode(b)
	if err != nil {
		return nil, err
	}
	switch x := s.(type) {
	case *synopses.Sample:
		return &warehouse.Payload{Sample: x}, nil
	case *synopses.SketchJoin:
		return &warehouse.Payload{Sketch: x}, nil
	}
	return nil, fmt.Errorf("core: item %d holds a %T, not a warehouse synopsis", id, s)
}

// Remove implements warehouse.Spiller.
func (d diskSpiller) Remove(id uint64) error { return d.db.RemoveItem(id) }

// recoverLocked replays the warehouse directory's manifest into an empty
// engine: metadata entries (descriptors, freshness), the tuner's sliding
// window with its reuse costs, the query-id high-water mark, and both
// warehouse tiers. Staleness needs nothing more: the restored BuildRows meet
// the catalog the engine opened over, whatever grew between runs. Crash
// windows resolve to a consistent view — an item whose payload file is
// missing, truncated or checksum-broken is dropped (its entry stays a
// candidate, which nothing in the warehouse holds, so the planner simply
// re-tastes it), and payload files no manifest references are
// garbage-collected. Where a synopsis lives, and whether it is pinned, is
// read from the item rows alone. Items whose payload was cached at
// checkpoint time are reloaded eagerly so post-restart plan costs match the
// uninterrupted engine's. Returns the number of items restored. Called from
// Open before the engine escapes.
func (e *Engine) recoverLocked() (int, error) {
	m, ok, err := e.db.LoadManifest()
	if err != nil {
		return 0, err
	}
	if !ok {
		// Fresh directory (or one whose manifest never made it to disk):
		// a cold start. Orphan payload files carry no recoverable identity
		// without a manifest, so clear them out.
		ids, err := e.db.ItemIDs()
		if err != nil {
			return 0, err
		}
		for _, id := range ids {
			_ = e.db.RemoveItem(id)
		}
		return 0, nil
	}

	// Two kinds of entry an older manifest may hold have no home any more,
	// so recovery leaves the entry out and drops its item below, as for a
	// torn spill (an item row naming no restored entry drops the same way):
	//   - a sample scoped to one partition (from before synopses were
	//     whole-table only), which would answer whole-table aggregates from
	//     one partition's rows;
	//   - a synopsis spanning more than one table — a sample of a join
	//     result, from before a sample lived only on the fact table's scan.
	//     No plan reads one, but restored it would still collect reuse gain
	//     from the recovered window and hold a place — and quota — in S*.
	// A third collapses: an older manifest names a sketch-join by the
	// accuracy of the query that built it, so two entries may hold one exact
	// synopsis. Entry drops that accuracy; the manifest lists entries by id,
	// so the lowest keeps the identity and the others are left out the same
	// way.
	sketchJoins := make(map[string]bool)
	for _, rec := range m.Entries {
		if rec.Partition != 0 || len(rec.SigTables) > 1 {
			continue
		}
		d, err := rec.Entry()
		if err != nil {
			return 0, fmt.Errorf("core: recovering warehouse: %w", err)
		}
		if d.Kind == plan.SketchJoinSynopsis {
			key := d.IdentityKey()
			if sketchJoins[key] {
				continue
			}
			sketchJoins[key] = true
		}
		if err := e.store.Restore(d); err != nil {
			return 0, fmt.Errorf("core: recovering warehouse: %w", err)
		}
	}
	e.store.SeedNextID(m.NextSynopsisID)
	e.tn.Restore(m.Window, m.SinceAdapt, windowObservations(m.History))
	e.queryCount.Store(m.QueryCount)

	sp := diskSpiller{e.db}
	restored := 0
	inManifest := make(map[uint64]bool, len(m.Items))
	for _, ir := range m.Items {
		inManifest[ir.ID] = true
		if _, ok := e.store.Get(ir.ID); !ok {
			_ = e.db.RemoveItem(ir.ID)
			continue
		}
		kind := warehouse.SampleItem
		if ir.Kind == persist.KindSketch {
			kind = warehouse.SketchItem
		}
		// Validate the payload file up front (header, id, length, CRC): a
		// spill torn by a crash must not occupy quota as an unloadable
		// item. The manifest row must also describe THESE bytes — a crash
		// between a refresh's payload overwrite and the manifest write
		// leaves an internally valid file of a different build; since
		// SizeBytes == encoded length, a size mismatch detects it and the
		// item drops to re-taste rather than serving bytes its recorded
		// metadata (size, rows, freshness) does not describe.
		//
		// A payload of a kind Decode no longer reads — a retired codec kind,
		// such as the count-min sketch-join's — drops the same way, loaded or
		// not: restored lazily it would hold quota and fail every fault-in.
		payload, err := e.db.ReadItem(ir.ID)
		if err != nil || int64(len(payload)) != ir.Size || !persist.Known(payload) {
			_ = e.db.RemoveItem(ir.ID)
			continue
		}
		// Build the item fully BEFORE placing it in a tier: an item whose
		// eager decode fails must never be restored at all — in particular
		// a pinned one, which no later path could evict. Checkpoint-cached
		// items decode straight from the just-validated bytes (one disk
		// read, not a re-load through the spiller).
		var it *warehouse.Item
		if ir.Loaded {
			s, err := persist.Decode(payload)
			if err != nil {
				_ = e.db.RemoveItem(ir.ID)
				continue
			}
			switch x := s.(type) {
			case *synopses.Sample:
				it = warehouse.NewSampleItem(ir.ID, x)
			case *synopses.SketchJoin:
				it = warehouse.NewSketchItem(ir.ID, x)
			}
			if it == nil || it.Kind() != kind {
				_ = e.db.RemoveItem(ir.ID) // manifest kind and payload disagree
				continue
			}
			it.Pinned = ir.Pinned
		} else {
			it = warehouse.RestoredItem(ir.ID, kind, ir.Size, ir.Rows, ir.Pinned, sp)
		}
		if err := e.wh.RestoreItem(it, ir.Tier == persist.TierBuffer); err != nil {
			// The restart may run under a smaller quota than the checkpoint;
			// overflow items are dropped, not squeezed in.
			_ = e.db.RemoveItem(ir.ID)
			continue
		}
		restored++
	}
	// Garbage-collect payload files the manifest does not reference — a
	// spill that completed after the last durable manifest write.
	ids, err := e.db.ItemIDs()
	if err != nil {
		return restored, err
	}
	for _, id := range ids {
		if !inManifest[id] {
			_ = e.db.RemoveItem(id)
		}
	}
	return restored, nil
}

// checkpointLocked writes the engine's durable state to the warehouse
// directory: payload files are already on disk (spilled at promotion
// time), so a checkpoint is one crash-safe manifest write indexing them
// plus the metadata the next incarnation needs. withBufferPayloads
// additionally persists the in-memory buffer tier's payloads — the clean-
// shutdown path, letting a warm restart resume with byproducts that would
// otherwise be volatile. Caller holds tuneMu.
func (e *Engine) checkpointLocked(withBufferPayloads bool) error {
	if e.db == nil {
		return nil
	}
	w, sinceAdapt, hist := e.tn.Checkpoint()
	m := &persist.Manifest{
		NextSynopsisID: e.store.NextID(),
		QueryCount:     e.queryCount.Load(),
		Window:         w,
		SinceAdapt:     sinceAdapt,
		History:        windowRecords(hist),
	}
	for _, ent := range e.store.Entries() {
		rec, err := persist.EntryRecordOf(ent)
		if err != nil {
			return err
		}
		m.Entries = append(m.Entries, rec)
	}
	view := e.wh.View()
	sp := diskSpiller{e.db}
	for _, it := range view.BufferItems() {
		if withBufferPayloads {
			p, err := itemPayload(it)
			if err != nil {
				return err
			}
			if err := sp.Spill(it.ID, p); err != nil {
				return err
			}
		}
		m.Items = append(m.Items, itemRecord(it, persist.TierBuffer))
	}
	for _, it := range view.WarehouseItems() {
		m.Items = append(m.Items, itemRecord(it, persist.TierWarehouse))
	}
	return e.db.WriteManifest(m)
}

// noteCheckpointLocked runs a background-round checkpoint, remembering the
// first failure (surfaced by Close) instead of failing the serving path —
// the next round retries, and recovery validation keeps any partial state
// consistent. Caller holds tuneMu.
func (e *Engine) noteCheckpointLocked() {
	if err := e.checkpointLocked(false); err != nil && e.persistErr == nil {
		e.persistErr = err
	}
}

// itemRecord converts a warehouse item to its manifest row.
func itemRecord(it *warehouse.Item, tier string) persist.ItemRecord {
	kind := persist.KindSample
	if it.Kind() == warehouse.SketchItem {
		kind = persist.KindSketch
	}
	return persist.ItemRecord{
		ID:     it.ID,
		Tier:   tier,
		Kind:   kind,
		Size:   it.Size,
		Rows:   it.Rows,
		Pinned: it.Pinned,
		Loaded: it.Loaded(),
	}
}

// itemPayload extracts an item's in-memory payload (buffer items are
// always loaded).
func itemPayload(it *warehouse.Item) (*warehouse.Payload, error) {
	if it.Kind() == warehouse.SketchItem {
		sk, err := it.Sketch()
		if err != nil {
			return nil, err
		}
		return &warehouse.Payload{Sketch: sk}, nil
	}
	s, err := it.Sample()
	if err != nil {
		return nil, err
	}
	return &warehouse.Payload{Sample: s}, nil
}

// windowRecords converts tuner observations to manifest rows, field for
// field; the reuse-cost lists are shared, read-only on both sides.
func windowRecords(obs []tuner.Observation) []persist.WindowRecord {
	out := make([]persist.WindowRecord, len(obs))
	for i, o := range obs {
		out[i] = persist.WindowRecord(o)
	}
	return out
}

// windowObservations is the inverse of windowRecords.
func windowObservations(recs []persist.WindowRecord) []tuner.Observation {
	out := make([]tuner.Observation, len(recs))
	for i, r := range recs {
		out[i] = tuner.Observation(r)
	}
	return out
}

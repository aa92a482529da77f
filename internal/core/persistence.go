package core

import (
	"fmt"

	"github.com/tasterdb/taster/internal/persist"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/synopses"
	"github.com/tasterdb/taster/internal/tuner"
	"github.com/tasterdb/taster/internal/warehouse"
)

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
// uninterrupted engine's. A manifest of another format version fails
// LoadManifest before anything in the directory is removed or rewritten.
// Returns the number of items restored. Called from Open before the engine
// escapes.
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

	// A manifest names each synopsis once: two entries of one identity are
	// refused by Restore, not merged.
	for _, rec := range m.Entries {
		d, err := rec.Entry()
		if err != nil {
			return 0, fmt.Errorf("core: recovering warehouse: %w", err)
		}
		if err := e.store.Restore(d); err != nil {
			return 0, fmt.Errorf("core: recovering warehouse: %w", err)
		}
	}
	e.store.SeedNextID(m.NextSynopsisID)
	e.tn.Restore(m.Window, m.SinceAdapt, windowObservations(m.History))
	e.queryCount.Store(m.QueryCount)

	restored := 0
	inManifest := make(map[uint64]bool, len(m.Items))
	for _, ir := range m.Items {
		inManifest[ir.ID] = true
		ent, ok := e.store.Get(ir.ID)
		if !ok {
			_ = e.db.RemoveItem(ir.ID)
			continue
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
		// The envelope's kind must be the entry's, loaded or not: a payload
		// of another kind — a retired codec kind such as the count-min
		// sketch-join's, or a record of the other live kind — drops the same
		// way. Restored lazily it would hold quota and fail every fault-in.
		payload, err := e.db.ReadItem(ir.ID)
		if err != nil || int64(len(payload)) != ir.Size || !payloadOf(payload, ent.Desc.Kind) {
			_ = e.db.RemoveItem(ir.ID)
			continue
		}
		// Build the item fully BEFORE placing it in a tier: an item whose
		// eager decode fails must never be restored at all — in particular
		// a pinned one, which no later path could evict. Checkpoint-cached
		// items decode straight from the just-validated bytes (one disk
		// read, not a re-load through the spiller).
		it := warehouse.RestoredItem(ir.ID, ir.Size, ir.Rows, ir.Pinned, e.db)
		if ir.Loaded {
			s, err := persist.Decode(payload)
			if err != nil {
				_ = e.db.RemoveItem(ir.ID)
				continue
			}
			it = warehouse.NewItem(ir.ID, s)
			it.Pinned = ir.Pinned
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
	for _, it := range view.BufferItems() {
		if withBufferPayloads {
			s, err := it.Synopsis()
			if err != nil {
				return err
			}
			if err := e.db.Spill(it.ID, s); err != nil {
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
	return persist.ItemRecord{
		ID:     it.ID,
		Tier:   tier,
		Size:   it.Size,
		Rows:   it.Rows,
		Pinned: it.Pinned,
		Loaded: it.Loaded(),
	}
}

// payloadOf reports whether b's envelope is the record kind a synopsis of
// kind k encodes to.
func payloadOf(b []byte, k plan.SynopsisKind) bool {
	want := synopses.KindSample
	if k == plan.SketchJoinSynopsis {
		want = synopses.KindSketchJoin
	}
	kind, err := synopses.EnvelopeKind(b)
	return err == nil && kind == want
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

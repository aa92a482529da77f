package persist

import (
	"fmt"

	"github.com/tasterdb/taster/internal/meta"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/planner"
	"github.com/tasterdb/taster/internal/stats"
)

// ManifestVersion is the manifest format version: the one this build writes
// and the only one it reads. A directory written in another layout fails
// LoadManifest, and with it core.Open, and is left as it was.
const ManifestVersion = 3

// Manifest is the engine checkpoint the warehouse directory carries: the
// warehouse item index plus everything a restarted engine needs to keep
// serving the workload as if it had never stopped — synopsis descriptors
// (each with the rows its build saw; staleness compares them with the
// catalog's), the sliding window with each query's reuse costs (the tuner's
// gain inputs), and the query-id high-water mark. Payload bytes live in the
// per-item files; the manifest only indexes them.
type Manifest struct {
	Version int `json:"version"`
	// NextSynopsisID seeds the metadata store's id allocator so descriptors
	// interned after restart never collide with recovered ones.
	NextSynopsisID uint64 `json:"next_synopsis_id"`
	// QueryCount is the engine's query-id high-water mark; window records
	// reference query ids, so restarted queries must not reuse them.
	QueryCount int64 `json:"query_count"`
	// Window/SinceAdapt/History checkpoint the tuner's sliding window.
	Window     int            `json:"window"`
	SinceAdapt int            `json:"since_adapt"`
	History    []WindowRecord `json:"history,omitempty"`
	// Items indexes the materialized synopses (payloads in item files).
	Items []ItemRecord `json:"items,omitempty"`
	// Entries carries every synopsis descriptor the metadata store knew,
	// materialized or not — window records name candidates by id, so a
	// restarted store must intern them under the same ids.
	Entries []EntryRecord `json:"entries,omitempty"`
}

// WindowRecord is one sliding-window observation: the query's exact cost and
// its cost with each candidate synopsis (ascending synopsis id). Dropping
// the reuse costs would make the first post-restart round see no benefiting
// query and evict the entire recovered warehouse.
type WindowRecord struct {
	QueryID   int                 `json:"query_id"`
	ExactCost float64             `json:"exact_cost"`
	Reuse     []planner.ReuseCost `json:"reuse,omitempty"`
}

// Item tier labels used in ItemRecord.
const (
	TierBuffer    = "buffer"
	TierWarehouse = "warehouse"
)

// ItemRecord is one materialized synopsis's warehouse metadata. Its kind is
// its entry's (EntryRecord.Kind) and its payload's envelope. Where a synopsis
// lives, and whether it is pinned, is read from these rows alone.
type ItemRecord struct {
	ID     uint64 `json:"id"`
	Tier   string `json:"tier"`
	Size   int64  `json:"size"`
	Rows   int64  `json:"rows,omitempty"`
	Pinned bool   `json:"pinned,omitempty"`
	// Loaded records whether the payload was cached in RAM at checkpoint
	// time; recovery eagerly reloads those so post-restart plan costs match
	// the uninterrupted engine's.
	Loaded bool `json:"loaded,omitempty"`
}

// EntryRecord is the wire form of one metadata-store entry: the descriptor
// field for field, its filter in the binary filter encoding. Its freshness
// is BuildRows; its tier and pin are its item row's.
type EntryRecord struct {
	ID    uint64 `json:"id"`
	Kind  uint8  `json:"kind"`
	Table string `json:"table"`
	// Filter is the binary encoding of the descriptor's filter predicate
	// (EncodeExpr); empty means no filter.
	Filter     []byte   `json:"filter,omitempty"`
	StratCols  []string `json:"strat_cols,omitempty"`
	P          float64  `json:"p,omitempty"`
	Delta      int      `json:"delta,omitempty"`
	BuildKeys  []string `json:"build_keys,omitempty"`
	AggCol     string   `json:"agg_col,omitempty"`
	AggCols    []string `json:"agg_cols,omitempty"`
	RelError   float64  `json:"rel_error,omitempty"`
	Confidence float64  `json:"confidence,omitempty"`
	EstSize    int64    `json:"est_size,omitempty"`
	ActualSize int64    `json:"actual_size,omitempty"`
	BuildRows  int64    `json:"build_rows,omitempty"`
}

// EntryRecordOf converts a metadata-store entry snapshot to its wire form.
func EntryRecordOf(e *meta.Entry) (EntryRecord, error) {
	d := e.Desc
	rec := EntryRecord{
		ID:         d.ID,
		Kind:       uint8(d.Kind),
		Table:      d.Table,
		StratCols:  d.StratCols,
		P:          d.P,
		Delta:      d.Delta,
		BuildKeys:  d.BuildKeys,
		AggCol:     d.AggCol,
		AggCols:    d.AggCols,
		RelError:   d.Accuracy.RelError,
		Confidence: d.Accuracy.Confidence,
		EstSize:    d.EstSizeBytes,
		ActualSize: d.ActualSize,
		BuildRows:  d.BuildRows,
	}
	if d.FilterPred != nil {
		b, err := EncodeExpr(nil, d.FilterPred)
		if err != nil {
			return EntryRecord{}, fmt.Errorf("persist: entry #%d: %w", d.ID, err)
		}
		rec.Filter = b
	}
	return rec, nil
}

// Entry converts the wire form back to a descriptor, ready for
// meta.Store.Restore.
func (r EntryRecord) Entry() (meta.Descriptor, error) {
	if r.Kind > uint8(plan.SketchJoinSynopsis) {
		return meta.Descriptor{}, fmt.Errorf("persist: entry #%d: unknown synopsis kind %d", r.ID, r.Kind)
	}
	d := meta.Descriptor{
		ID:           r.ID,
		Kind:         plan.SynopsisKind(r.Kind),
		Table:        r.Table,
		StratCols:    r.StratCols,
		P:            r.P,
		Delta:        r.Delta,
		BuildKeys:    r.BuildKeys,
		AggCol:       r.AggCol,
		AggCols:      r.AggCols,
		Accuracy:     stats.AccuracySpec{RelError: r.RelError, Confidence: r.Confidence},
		EstSizeBytes: r.EstSize,
		ActualSize:   r.ActualSize,
		BuildRows:    r.BuildRows,
	}
	if len(r.Filter) > 0 {
		e, err := DecodeExpr(r.Filter)
		if err != nil {
			return meta.Descriptor{}, fmt.Errorf("persist: entry #%d filter: %w", r.ID, err)
		}
		d.FilterPred = e
	}
	return d, nil
}

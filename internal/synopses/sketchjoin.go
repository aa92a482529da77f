package synopses

import (
	"fmt"

	"github.com/tasterdb/taster/internal/storage"
)

// The payload columns a SketchJoin carries after its key columns.
const (
	CountCol = "__count" // build rows carrying the key
	SumCol   = "__sum"   // their aggregate column values, summed
)

// SketchJoin is the paper's sketch-join synopsis (§II) as an exact per-key
// table: the relation the aggregation runs over, grouped by its join key into
// one row per distinct key holding the key, the number of build rows carrying
// it and — when the aggregate column is numeric — the sum of their aggregate
// values. At query time it is probed like the hash side of a hash join: a
// probe batch's keys find their rows through a storage.KeyIndex, built when
// the table is built or decoded and never per query, and yields the exact
// COUNT and SUM contribution of every matching build row. Per key it holds
// the key and 8 or 16 bytes, which keeps the paper's "ideal for
// materialization and re-use" footprint.
type SketchJoin struct {
	// Rows holds one row per distinct key, in first-seen build-row order:
	// the key columns (KeySchema), then CountCol and, when the build had a
	// numeric aggregate column, SumCol — both float64, every sum added in
	// build-row order.
	Rows   *storage.Table
	AggCol string // build-side aggregate column name ("" for COUNT-only)

	nk           int       // key columns
	counts, sums []float64 // Rows' CountCol and SumCol (nil: no sums)
	index        *storage.KeyIndex
}

// NewSketchJoin adopts rows — key columns, then CountCol and optionally
// SumCol, one row per distinct key — as the payload of a sketch-join over
// aggCol, and indexes its keys.
func NewSketchJoin(rows *storage.Table, aggCol string) (*SketchJoin, error) {
	schema := rows.Schema()
	tail := []string{CountCol}
	if len(schema) > 0 && schema[len(schema)-1].Name == SumCol {
		tail = append(tail, SumCol)
	}
	nk := len(schema) - len(tail)
	if nk < 1 {
		return nil, fmt.Errorf("synopses: sketch-join payload %v: want key columns, then %s and optionally %s", schema.Names(), CountCol, SumCol)
	}
	for k, name := range tail {
		if col := schema[nk+k]; col.Name != name || col.Typ != storage.Float64 {
			return nil, fmt.Errorf("synopses: sketch-join payload column %d is %s %s, want %s float64", nk+k, col.Name, col.Typ, name)
		}
	}
	sj := &SketchJoin{Rows: rows, AggCol: aggCol, nk: nk, counts: rows.Column(nk).F64}
	if len(tail) == 2 {
		sj.sums = rows.Column(nk + 1).F64
	}
	cols, keyIdx := make([]*storage.Vector, nk), make([]int, nk)
	for c := range cols {
		cols[c], keyIdx[c] = rows.Column(c), c
	}
	sj.index = storage.NewKeyIndex(cols, keyIdx)
	if k := sj.index.Keys(); k != rows.NumRows() {
		return nil, fmt.Errorf("synopses: sketch-join payload holds %d rows for %d distinct keys", rows.NumRows(), k)
	}
	return sj, nil
}

// KeySchema returns the key columns' names and types.
func (sj *SketchJoin) KeySchema() storage.Schema { return sj.Rows.Schema()[:sj.nk] }

// Index returns the index over the payload's key columns. Keys are distinct,
// so a probe batch's live rows find at most one payload row each: a
// KeyIndex.Probe with room for every live row pairs the whole batch.
func (sj *SketchJoin) Index() *storage.KeyIndex { return sj.index }

// Row returns payload row m's exact (count, sum) — the build side's for m's
// key; sum is 0 for a counts-only payload.
func (sj *SketchJoin) Row(m int32) (count, sum float64) {
	if sj.sums != nil {
		sum = sj.sums[m]
	}
	return sj.counts[m], sum
}

// SizeBytes returns the serialized footprint (== len(Encode())) charged to
// storage quotas: envelope, aggregate column and the table. The in-memory
// key index is rebuilt on decode and not charged.
func (sj *SketchJoin) SizeBytes() int64 {
	return int64(EnvelopeBytes) + 4 + int64(len(sj.AggCol)) + sj.Rows.EncodedBytes()
}

// Encode serializes the sketch-join: the aggregate column, then the table.
func (sj *SketchJoin) Encode() []byte {
	buf := appendEnvelope(make([]byte, 0, sj.SizeBytes()), KindSketchJoin)
	buf = storage.AppendStr(buf, sj.AggCol)
	return storage.EncodeTable(buf, sj.Rows)
}

// DecodeSketchJoin reverses Encode, rebuilding the key index.
func DecodeSketchJoin(b []byte) (*SketchJoin, error) {
	r, err := envelopePayload(b, KindSketchJoin)
	if err != nil {
		return nil, err
	}
	aggCol, err := r.Str()
	if err != nil {
		return nil, err
	}
	rows, err := storage.DecodeTable(r)
	if err != nil {
		return nil, err
	}
	return NewSketchJoin(rows, aggCol)
}

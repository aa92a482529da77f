package synopses

import (
	"fmt"

	"github.com/tasterdb/taster/internal/storage"
)

// SketchJoin is the paper's sketch-join synopsis (§II): a count-min sketch
// built on the relation over which the aggregation takes place, keyed by the
// join key, holding both the tuple count and the running aggregate per key.
// At query time it is probed like the hash side of a hash join: for each
// probe-side row, the sketch yields the estimated COUNT and SUM contribution
// of all matching build-side tuples. Its few-MB footprint is what makes it
// "ideal for materialization and re-use" per the paper.
type SketchJoin struct {
	Count   *CMSketch // per-key tuple counts
	Sum     *CMSketch // per-key sums of the aggregate column (0 if none)
	KeyCols []string  // build-side join column names
	AggCol  string    // build-side aggregate column name ("" for COUNT-only)
	seed    uint64
}

// NewSketchJoin returns an empty sketch-join whose count and sum planes are
// w×d count-min sketches.
func NewSketchJoin(w, d int, keyCols []string, aggCol string, seed uint64) *SketchJoin {
	return &SketchJoin{
		Count:   NewCMSketch(w, d, seed),
		Sum:     NewCMSketch(w, d, seed^0xabad1dea),
		KeyCols: append([]string(nil), keyCols...),
		AggCol:  aggCol,
		seed:    seed,
	}
}

// Seed returns the hash seed used for key hashing; probe-side key hashing
// must use the same seed.
func (sj *SketchJoin) Seed() uint64 { return sj.seed }

// AddRow folds row i of the build side into the sketch. keyIdxs locate the
// join columns; aggIdx locates the aggregate column (-1 for COUNT-only).
// Weighted build-side rows (sampled inputs) scale both planes by weight.
func (sj *SketchJoin) AddRow(vecs []*storage.Vector, keyIdxs []int, aggIdx, i int, weight float64) {
	key := RowKey(vecs, keyIdxs, i, sj.seed)
	sj.Count.Add(key, weight)
	if aggIdx >= 0 {
		sj.Sum.Add(key, vecs[aggIdx].Float(i)*weight)
	}
}

// EstimateKey returns the estimated (count, sum) of build-side tuples whose
// join key hashes to key.
func (sj *SketchJoin) EstimateKey(key uint64) (count, sum float64) {
	return sj.Count.Estimate(key), sj.Sum.Estimate(key)
}

// Estimate computes the key for row i of probe-side vectors and returns the
// estimated (count, sum).
func (sj *SketchJoin) Estimate(vecs []*storage.Vector, keyIdxs []int, i int) (count, sum float64) {
	key := RowKey(vecs, keyIdxs, i, sj.seed)
	return sj.EstimateKey(key)
}

// Merge combines two partition-local sketch-joins (pair-wise addition of the
// planes, paper §II).
func (sj *SketchJoin) Merge(o *SketchJoin) error {
	if sj.AggCol != o.AggCol || len(sj.KeyCols) != len(o.KeyCols) {
		return fmt.Errorf("synopses: merging sketch-joins over different definitions")
	}
	if err := sj.Count.Merge(o.Count); err != nil {
		return err
	}
	return sj.Sum.Merge(o.Sum)
}

// SizeBytes returns the serialized footprint (== len(Encode())) charged to
// storage quotas: envelope + seed + agg column + key columns + the two
// nested envelope-free CM planes.
func (sj *SketchJoin) SizeBytes() int64 {
	n := int64(EnvelopeBytes) + 8 + 4 + int64(len(sj.AggCol)) + 4
	for _, c := range sj.KeyCols {
		n += 4 + int64(len(c))
	}
	n += sj.Count.payloadBytes() + sj.Sum.payloadBytes()
	return n
}

// Encode serializes the sketch-join: seed, aggregate column, key columns,
// then the count and sum CM planes (envelope-free payloads, back to back).
func (sj *SketchJoin) Encode() []byte {
	buf := appendEnvelope(make([]byte, 0, sj.SizeBytes()), KindSketchJoin)
	buf = storage.AppendU64(buf, sj.seed)
	buf = storage.AppendStr(buf, sj.AggCol)
	buf = storage.AppendU32(buf, uint32(len(sj.KeyCols)))
	for _, c := range sj.KeyCols {
		buf = storage.AppendStr(buf, c)
	}
	buf = sj.Count.appendPayload(buf)
	return sj.Sum.appendPayload(buf)
}

// DecodeSketchJoin reverses Encode.
func DecodeSketchJoin(b []byte) (*SketchJoin, error) {
	r, err := envelopePayload(b, KindSketchJoin)
	if err != nil {
		return nil, err
	}
	seed, err := r.U64()
	if err != nil {
		return nil, err
	}
	aggCol, err := r.Str()
	if err != nil {
		return nil, err
	}
	nKeys, err := r.U32()
	if err != nil {
		return nil, err
	}
	if int(nKeys) > r.Remaining() {
		return nil, fmt.Errorf("synopses: corrupt sketch-join key count %d", nKeys)
	}
	keys := make([]string, nKeys)
	for i := range keys {
		if keys[i], err = r.Str(); err != nil {
			return nil, err
		}
	}
	count, err := decodeCMPayload(r)
	if err != nil {
		return nil, err
	}
	sum, err := decodeCMPayload(r)
	if err != nil {
		return nil, err
	}
	return &SketchJoin{Count: count, Sum: sum, KeyCols: keys, AggCol: aggCol, seed: seed}, nil
}

// BuildSketchJoin streams an entire table into a new sketch-join synopsis —
// the offline/byproduct materialization path.
func BuildSketchJoin(tbl *storage.Table, keyCols []string, aggCol string, w, d int, seed uint64) (*SketchJoin, error) {
	keyIdxs := make([]int, 0, len(keyCols))
	for _, c := range keyCols {
		i := tbl.Schema().Index(c)
		if i < 0 {
			return nil, fmt.Errorf("synopses: sketch-join: unknown key column %q", c)
		}
		keyIdxs = append(keyIdxs, i)
	}
	aggIdx := -1
	if aggCol != "" {
		aggIdx = tbl.Schema().Index(aggCol)
		if aggIdx < 0 {
			return nil, fmt.Errorf("synopses: sketch-join: unknown aggregate column %q", aggCol)
		}
	}
	sj := NewSketchJoin(w, d, keyCols, aggCol, seed)
	for p := 0; p < tbl.Partitions(); p++ {
		for _, b := range tbl.Scan(p, storage.BatchSize) {
			for i := 0; i < b.Len(); i++ {
				sj.AddRow(b.Vecs, keyIdxs, aggIdx, i, 1)
			}
		}
	}
	return sj, nil
}

package synopses

import (
	"fmt"
	"math"

	"github.com/tasterdb/taster/internal/storage"
)

// WeightCol is the name of the weight attribute every sampler appends
// (paper §II: "each sampler appends an additional attribute that represents
// the weight associated with the row").
const WeightCol = "__weight"

// Decision is a sampler's verdict for one input row.
type Decision struct {
	Pass   bool
	Weight float64
}

// Sampler decides row by row whether input passes and with what
// Horvitz-Thompson weight. Implementations are single-pass (pipelineable).
type Sampler interface {
	// Decide examines row i of the given column vectors.
	Decide(vecs []*storage.Vector, row int) Decision
}

// rng is a small deterministic counter-based PRNG (SplitMix64) so sample
// construction is reproducible for a given seed.
type rng struct {
	state uint64
}

func newRng(seed uint64) *rng { return &rng{state: mix64(seed ^ 0x5851f42d4c957f2d)} }

// next returns a uniform float64 in [0, 1).
func (r *rng) next() float64 {
	r.state += 0x9e3779b97f4a7c15
	return float64(mix64(r.state)>>11) / float64(1<<53)
}

// UniformSampler is Γ^U_p: each row passes independently with probability p
// and weight 1/p.
type UniformSampler struct {
	P   float64
	rnd *rng
}

// NewUniformSampler returns a uniform sampler with probability p.
func NewUniformSampler(p float64, seed uint64) *UniformSampler {
	if p <= 0 {
		p = 0.01
	}
	if p > 1 {
		p = 1
	}
	return &UniformSampler{P: p, rnd: newRng(seed)}
}

// Decide implements Sampler.
func (s *UniformSampler) Decide(_ []*storage.Vector, _ int) Decision {
	if s.rnd.next() < s.P {
		return Decision{Pass: true, Weight: 1 / s.P}
	}
	return Decision{}
}

// DistinctSampler is Γ^D_{p,A,δ}: it passes at least δ rows for every
// distinct combination of the stratification columns A (weight 1), and
// subsequent rows of the same combination with probability p (weight 1/p).
// Per-key counts are exact (one map entry per distinct combination).
type DistinctSampler struct {
	P         float64
	Delta     int
	StratIdxs []int             // column positions of A in the input vectors
	counts    map[uint64]uint64 // rows seen per distinct combination, exact
	rnd       *rng
	seed      uint64
}

// NewDistinctSampler returns a distinct sampler over the given stratification
// column positions.
func NewDistinctSampler(p float64, delta int, stratIdxs []int, seed uint64) *DistinctSampler {
	if p <= 0 {
		p = 0.01
	}
	if p > 1 {
		p = 1
	}
	if delta < 1 {
		delta = 1
	}
	return &DistinctSampler{P: p, Delta: delta, StratIdxs: stratIdxs, counts: make(map[uint64]uint64), rnd: newRng(seed), seed: seed}
}

// PartitionDelta returns the per-instance minimum row requirement when the
// sampler runs with distribution factor D: δ' = δ/D + ε with ε = δ/D
// (paper §II), i.e. 2δ/D rounded up.
func PartitionDelta(delta, d int) int {
	if d <= 1 {
		return delta
	}
	return int(math.Ceil(2 * float64(delta) / float64(d)))
}

// Decide implements Sampler.
func (s *DistinctSampler) Decide(vecs []*storage.Vector, row int) Decision {
	key := RowKey(vecs, s.StratIdxs, row, s.seed)
	s.counts[key]++
	if s.counts[key] <= uint64(s.Delta) {
		return Decision{Pass: true, Weight: 1}
	}
	if s.rnd.next() < s.P {
		return Decision{Pass: true, Weight: 1 / s.P}
	}
	return Decision{}
}

// Sample is a materialized weighted sample of some relation (base table or
// subplan output). Rows carries the source schema plus the weight column.
type Sample struct {
	Rows       *storage.Table
	Strategy   string // "uniform" | "distinct" | "stratified"
	P          float64
	Delta      int
	StratCols  []string // stratification column names (source schema)
	SourceRows int      // rows of the summarized input
	Seed       uint64
}

// SizeBytes returns the serialized size (== len(Encode())) charged against
// storage quotas: the sample's configuration metadata plus its row payload
// in the binary table encoding — exactly what the persistent warehouse tier
// stores on disk.
func (s *Sample) SizeBytes() int64 {
	n := int64(EnvelopeBytes) + 4 + int64(len(s.Strategy)) + 8 + 8 + 8 + 8 + 4
	for _, c := range s.StratCols {
		n += 4 + int64(len(c))
	}
	return n + s.Rows.EncodedBytes()
}

// Encode serializes the sample: configuration metadata followed by the row
// table. The whole record round-trips bit-exactly (float weights included),
// which is what makes warm restarts answer-identical to uninterrupted runs.
func (s *Sample) Encode() []byte {
	buf := appendEnvelope(make([]byte, 0, s.SizeBytes()), KindSample)
	buf = storage.AppendStr(buf, s.Strategy)
	buf = storage.AppendF64(buf, s.P)
	buf = storage.AppendU64(buf, uint64(int64(s.Delta)))
	buf = storage.AppendU64(buf, s.Seed)
	buf = storage.AppendU64(buf, uint64(int64(s.SourceRows)))
	buf = storage.AppendU32(buf, uint32(len(s.StratCols)))
	for _, c := range s.StratCols {
		buf = storage.AppendStr(buf, c)
	}
	return storage.EncodeTable(buf, s.Rows)
}

// DecodeSample reverses Encode.
func DecodeSample(b []byte) (*Sample, error) {
	r, err := envelopePayload(b, KindSample)
	if err != nil {
		return nil, err
	}
	s := &Sample{}
	if s.Strategy, err = r.Str(); err != nil {
		return nil, err
	}
	if s.P, err = r.F64(); err != nil {
		return nil, err
	}
	delta, err := r.U64()
	if err != nil {
		return nil, err
	}
	s.Delta = int(int64(delta))
	if s.Seed, err = r.U64(); err != nil {
		return nil, err
	}
	src, err := r.U64()
	if err != nil {
		return nil, err
	}
	s.SourceRows = int(int64(src))
	nStrat, err := r.U32()
	if err != nil {
		return nil, err
	}
	if int(nStrat) > r.Remaining() {
		return nil, fmt.Errorf("synopses: corrupt sample stratification count %d", nStrat)
	}
	if nStrat > 0 {
		s.StratCols = make([]string, nStrat)
		for i := range s.StratCols {
			if s.StratCols[i], err = r.Str(); err != nil {
				return nil, err
			}
		}
	}
	if s.Rows, err = storage.DecodeTable(r); err != nil {
		return nil, err
	}
	return s, nil
}

// SampleSchema returns the source schema extended with the weight column.
func SampleSchema(src storage.Schema) storage.Schema {
	out := src.Clone()
	return append(out, storage.Col{Name: WeightCol, Typ: storage.Float64})
}

// SampleBuilder accumulates sampled rows plus weights into a Sample.
type SampleBuilder struct {
	b          *storage.Builder
	widx       int
	srcCols    int
	sourceRows int
}

// NewSampleBuilder returns a builder producing a sample table with the given
// name over the source schema.
func NewSampleBuilder(name string, src storage.Schema) *SampleBuilder {
	schema := SampleSchema(src)
	return &SampleBuilder{b: storage.NewBuilder(name, schema), widx: len(schema) - 1, srcCols: len(src)}
}

// Offer routes row i of the vectors through the sampler, appending it with
// its weight when it passes. It returns the decision so callers (the exec
// sampler operator) can forward passing rows downstream too.
func (sb *SampleBuilder) Offer(smp Sampler, vecs []*storage.Vector, row int) Decision {
	sb.sourceRows++
	d := smp.Decide(vecs, row)
	if d.Pass {
		sb.Append(vecs, row, d.Weight)
	}
	return d
}

// Append adds row i with an explicit weight (used when the pass decision was
// made elsewhere).
func (sb *SampleBuilder) Append(vecs []*storage.Vector, row int, weight float64) {
	for c := 0; c < sb.srcCols; c++ {
		sb.b.CopyFrom(c, vecs[c], row)
	}
	sb.b.Float(sb.widx, weight)
}

// Build finalizes the sample.
func (sb *SampleBuilder) Build(smp Sampler, partitions int) *Sample {
	s := &Sample{Rows: sb.b.Build(partitions), SourceRows: sb.sourceRows}
	switch t := smp.(type) {
	case *UniformSampler:
		s.Strategy, s.P = "uniform", t.P
	case *DistinctSampler:
		s.Strategy, s.P, s.Delta = "distinct", t.P, t.Delta
	default:
		s.Strategy = "custom"
	}
	return s
}

// MergeSamples concatenates the per-morsel samples a parallel sampler built
// over one relation into one sample ("partitionable", paper §II); its one
// caller is exec.PipelineOp, which passes the parts in morsel index order.
// Parts must share a schema; configuration metadata is taken from the first
// part and SourceRows are summed.
//
// SourceRows underpins the sample's estimation semantics (how much input
// the weights extrapolate over), so parts are validated here: a negative
// count, a part that emitted rows from zero input, or a sum overflowing
// int are all rejected as corruption rather than propagated.
func MergeSamples(name string, parts []*Sample) (*Sample, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("synopses: MergeSamples %s: no parts", name)
	}
	tables := make([]*storage.Table, len(parts))
	sourceRows := 0
	for i, p := range parts {
		switch {
		case p.SourceRows < 0:
			return nil, fmt.Errorf("synopses: MergeSamples %s: part %d has negative SourceRows %d", name, i, p.SourceRows)
		case p.SourceRows == 0 && p.Rows.NumRows() > 0:
			return nil, fmt.Errorf("synopses: MergeSamples %s: part %d emitted %d rows from zero input", name, i, p.Rows.NumRows())
		case p.SourceRows > math.MaxInt-sourceRows:
			return nil, fmt.Errorf("synopses: MergeSamples %s: SourceRows sum overflows at part %d", name, i)
		}
		tables[i] = p.Rows
		sourceRows += p.SourceRows
	}
	rows, err := storage.ConcatTables(name, tables, 1)
	if err != nil {
		return nil, err
	}
	out := *parts[0]
	out.Rows = rows
	out.SourceRows = sourceRows
	out.StratCols = append([]string(nil), parts[0].StratCols...)
	return &out, nil
}

// BuildSampleFromTable scans an entire table through a sampler and
// materializes the result — the offline path used by baselines and hints.
// stratCols records the stratification set for matching purposes.
func BuildSampleFromTable(name string, tbl *storage.Table, smp Sampler, stratCols []string) *Sample {
	sb := NewSampleBuilder(name, tbl.Schema())
	for p := 0; p < tbl.Partitions(); p++ {
		for _, batch := range tbl.Scan(p, storage.BatchSize) {
			for i := 0; i < batch.Len(); i++ {
				sb.Offer(smp, batch.Vecs, i)
			}
		}
	}
	s := sb.Build(smp, tbl.Partitions())
	s.StratCols = append([]string(nil), stratCols...)
	return s
}

// StratifiedSample builds a classic blocking stratified sample capping each
// group of the given columns at cap rows (BlinkDB's sample family). Groups
// with at most cap rows are taken whole with weight 1; larger groups are
// subsampled with probability cap/n_g and weight n_g/cap. This requires two
// passes, which is exactly why the paper's *online* path uses the distinct
// sampler instead.
func StratifiedSample(name string, tbl *storage.Table, stratCols []string, cap int, seed uint64) (*Sample, error) {
	idxs := make([]int, 0, len(stratCols))
	for _, c := range stratCols {
		i := tbl.Schema().Index(c)
		if i < 0 {
			return nil, fmt.Errorf("synopses: stratified sample: unknown column %q", c)
		}
		idxs = append(idxs, i)
	}
	if cap < 1 {
		cap = 1
	}
	// Pass 1: group sizes.
	sizes := make(map[uint64]int)
	for p := 0; p < tbl.Partitions(); p++ {
		for _, batch := range tbl.Scan(p, storage.BatchSize) {
			for i := 0; i < batch.Len(); i++ {
				sizes[RowKey(batch.Vecs, idxs, i, seed)]++
			}
		}
	}
	// Pass 2: emit.
	sb := NewSampleBuilder(name, tbl.Schema())
	rnd := newRng(seed ^ 0xfeed)
	for p := 0; p < tbl.Partitions(); p++ {
		for _, batch := range tbl.Scan(p, storage.BatchSize) {
			for i := 0; i < batch.Len(); i++ {
				sb.sourceRows++
				n := sizes[RowKey(batch.Vecs, idxs, i, seed)]
				if n <= cap {
					sb.Append(batch.Vecs, i, 1)
					continue
				}
				pr := float64(cap) / float64(n)
				if rnd.next() < pr {
					sb.Append(batch.Vecs, i, 1/pr)
				}
			}
		}
	}
	s := &Sample{
		Rows:       sb.b.Build(tbl.Partitions()),
		Strategy:   "stratified",
		Delta:      cap,
		StratCols:  append([]string(nil), stratCols...),
		SourceRows: sb.sourceRows,
		Seed:       seed,
	}
	return s, nil
}

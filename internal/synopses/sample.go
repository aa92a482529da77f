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

// Sampler decides, a batch at a time, which input rows pass and with what
// Horvitz-Thompson weight. Implementations are single-pass (pipelineable).
type Sampler interface {
	// Decide examines the live rows of b in live-row order and appends the
	// physical index and weight of each one that passes to pass and weights.
	Decide(b *storage.Batch, pass []int32, weights []float64) ([]int32, []float64)
}

// physical returns live row j's physical index in b.
func physical(b *storage.Batch, j int) int32 {
	if b.Sel != nil {
		return b.Sel[j]
	}
	return int32(j)
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

// Decide implements Sampler: one draw per live row.
func (s *UniformSampler) Decide(b *storage.Batch, pass []int32, weights []float64) ([]int32, []float64) {
	for j := range b.Rows() {
		if s.rnd.next() < s.P {
			pass, weights = append(pass, physical(b, j)), append(weights, 1/s.P)
		}
	}
	return pass, weights
}

// DistinctSampler is Γ^D_{p,A,δ}: it passes at least δ rows for every
// distinct combination of the stratification columns A (weight 1), and
// subsequent rows of the same combination with probability p (weight 1/p).
// A stratum is a group of A as GROUP BY would form it: the rows' group ids
// in a storage.GroupIndex, so two strata never share a count.
type DistinctSampler struct {
	P         float64
	Delta     int
	StratIdxs []int               // column positions of A in the input batches
	strata    *storage.GroupIndex // A's combinations, numbered on first sight
	counts    []uint64            // rows seen per stratum, by group id
	rnd       *rng
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
	return &DistinctSampler{P: p, Delta: delta, StratIdxs: stratIdxs, rnd: newRng(seed)}
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

// Decide implements Sampler: a live row passes at weight 1 while its
// stratum has passed at most δ rows, and past that draws against p. The
// strata index takes its column types from the first batch.
func (s *DistinctSampler) Decide(b *storage.Batch, pass []int32, weights []float64) ([]int32, []float64) {
	n := b.Rows()
	if n == 0 {
		return pass, weights
	}
	if s.strata == nil {
		out := make(storage.Schema, len(s.StratIdxs))
		for c, i := range s.StratIdxs {
			out[c].Typ = b.Vecs[i].Typ
		}
		idx := storage.NewGroupIndex(s.StratIdxs, out)
		s.strata = &idx
	}
	sc := storage.BorrowScratch(n, len(s.StratIdxs))
	defer storage.ReturnScratch(sc)
	ids := s.strata.Resolve(b, sc)
	s.counts = append(s.counts, make([]uint64, s.strata.Len()-len(s.counts))...)
	for j, id := range ids {
		s.counts[id]++
		switch {
		case s.counts[id] <= uint64(s.Delta):
			pass, weights = append(pass, physical(b, j)), append(weights, 1)
		case s.rnd.next() < s.P:
			pass, weights = append(pass, physical(b, j)), append(weights, 1/s.P)
		}
	}
	return pass, weights
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
// name over the source schema. An offered batch may carry columns past src's
// (an executor's own, such as a group id column); the sample keeps only its
// leading len(src).
func NewSampleBuilder(name string, src storage.Schema) *SampleBuilder {
	schema := SampleSchema(src)
	return &SampleBuilder{b: storage.NewBuilder(name, schema), widx: len(schema) - 1, srcCols: len(src)}
}

// Offer routes the live rows of b through the sampler, appending the
// passing rows with their weights. It returns what Decide appended to pass
// and weights, so callers (the exec sampler operator) can forward the passing
// rows downstream too.
func (sb *SampleBuilder) Offer(smp Sampler, b *storage.Batch, pass []int32, weights []float64) ([]int32, []float64) {
	sb.sourceRows += b.Rows()
	op, ow := len(pass), len(weights)
	pass, weights = smp.Decide(b, pass, weights)
	sb.add(b.Vecs, pass[op:], weights[ow:])
	return pass, weights
}

// add appends the rows of vecs at the physical indices rows, row k with
// weight weights[k]: each column gathered in one call, the weights appended
// in one more.
func (sb *SampleBuilder) add(vecs []*storage.Vector, rows []int32, weights []float64) {
	for c := 0; c < sb.srcCols; c++ {
		sb.b.Gather(c, vecs[c], rows)
	}
	sb.b.Floats(sb.widx, weights)
}

// Build finalizes the sample.
func (sb *SampleBuilder) Build(smp Sampler, partitions int) *Sample {
	s := &Sample{Rows: sb.b.Build(partitions), SourceRows: sb.sourceRows}
	switch t := smp.(type) {
	case *UniformSampler:
		s.Strategy, s.P = "uniform", t.P
	case *DistinctSampler:
		s.Strategy, s.P, s.Delta = "distinct", t.P, t.Delta
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
	var pass []int32
	var weights []float64
	for p := 0; p < tbl.Partitions(); p++ {
		for _, batch := range tbl.Scan(p, storage.BatchSize) {
			pass, weights = sb.Offer(smp, batch, pass[:0], weights[:0])
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
	// Pass 1: group sizes, by the strata index's ids. Pass 2 re-resolves
	// the same rows through the same index, so each gets its group's id back.
	out := make(storage.Schema, len(idxs))
	for k, i := range idxs {
		out[k] = tbl.Schema()[i]
	}
	strata := storage.NewGroupIndex(idxs, out)
	resolve := func(batch *storage.Batch, each func(i int, id int32)) {
		sc := storage.BorrowScratch(batch.Len(), len(idxs))
		for i, id := range strata.Resolve(batch, sc) {
			each(i, id)
		}
		storage.ReturnScratch(sc)
	}
	var sizes []int
	for p := 0; p < tbl.Partitions(); p++ {
		for _, batch := range tbl.Scan(p, storage.BatchSize) {
			resolve(batch, func(_ int, id int32) {
				if int(id) == len(sizes) {
					sizes = append(sizes, 0)
				}
				sizes[id]++
			})
		}
	}
	// Pass 2: collect each batch's taken rows and weights, then copy them.
	sb := NewSampleBuilder(name, tbl.Schema())
	rnd := newRng(seed ^ 0xfeed)
	var taken []int32
	var weights []float64
	for p := 0; p < tbl.Partitions(); p++ {
		for _, batch := range tbl.Scan(p, storage.BatchSize) {
			sb.sourceRows += batch.Len()
			taken, weights = taken[:0], weights[:0]
			resolve(batch, func(i int, id int32) {
				n := sizes[id]
				if n <= cap {
					taken, weights = append(taken, int32(i)), append(weights, 1)
					return
				}
				pr := float64(cap) / float64(n)
				if rnd.next() < pr {
					taken, weights = append(taken, int32(i)), append(weights, 1/pr)
				}
			})
			sb.add(batch.Vecs, taken, weights)
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

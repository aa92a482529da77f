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
	StratIdxs []int   // column positions of A in the input batches
	strata    *Strata // A's numbering and this sampler's counts
	rnd       *rng
}

// Strata numbers a distinct sampler's strata and counts the rows each has
// shown the sampler. One Strata serves every sampler a worker runs in one
// query run (DistinctSampler.CountIn) — one per morsel, each with its own δ'
// count — so the index numbering A's combinations is built once per worker,
// not once per morsel. Each sampler opens an epoch, and a stratum's count
// restarts the first time the epoch meets it: stamps[id] is the epoch
// counts[id] belongs to. Ids index nothing but counts, so sharing the
// numbering changes no pass decision.
type Strata struct {
	index  *storage.GroupIndex     // A's combinations, numbered on first sight
	sc     *storage.ResolveScratch // the index's resolution scratch
	counts []uint64                // rows seen per stratum in its stamp's epoch
	stamps []uint32                // the epoch of each stratum's count
	epoch  uint32
}

// NewStrata returns strata that resolve their rows in sc, which they share
// with whatever else their owner resolves between batches (a morsel
// worker's sink); nil gives them scratch of their own.
func NewStrata(sc *storage.ResolveScratch) *Strata {
	if sc == nil {
		sc = new(storage.ResolveScratch)
	}
	return &Strata{sc: sc}
}

// count counts one more row of stratum id in the current epoch and returns
// the stratum's count.
func (st *Strata) count(id int32) uint64 {
	if st.stamps[id] != st.epoch {
		st.stamps[id], st.counts[id] = st.epoch, 0
	}
	st.counts[id]++
	return st.counts[id]
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

// CountIn makes st — a worker's, for a whole run — number the sampler's
// strata, in an epoch of the sampler's own: every stratum's count starts
// over. A sampler that is never given one counts in a Strata of its own.
func (s *DistinctSampler) CountIn(st *Strata) {
	st.epoch++
	s.strata = st
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
		s.strata = NewStrata(nil)
	}
	st := s.strata
	if st.index == nil {
		out := make(storage.Schema, len(s.StratIdxs))
		for c, i := range s.StratIdxs {
			out[c].Typ = b.Vecs[i].Typ
		}
		idx := storage.NewGroupIndex(s.StratIdxs, out)
		st.index = &idx
	}
	ids := st.index.Resolve(b, st.sc)
	if grown := st.index.Len() - len(st.counts); grown > 0 {
		st.counts = append(st.counts, make([]uint64, grown)...)
		st.stamps = append(st.stamps, make([]uint32, grown)...)
	}
	for j, id := range ids {
		switch {
		case st.count(id) <= uint64(s.Delta):
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

// Drawn is what a sampler drew from one table version: the table positions
// of the rows that passed, ascending, and their weights, row-aligned. A
// sample is these rows gathered once from the version (GatherSample), so
// drawing copies no column.
type Drawn struct {
	Rows    []int32   // the passing rows' table positions
	Weights []float64 // their Horvitz-Thompson weights
	Offered int       // rows offered to the sampler: the sample's SourceRows
	Through int       // the table row just past the last batch offered
}

// Draw routes the live rows of b — a scan of the table version, its row 0
// at table row b.Start — through smp and records each passing row's table
// position and weight. It returns what Decide appended to pass and weights,
// so callers (the exec sampler operator) can forward the passing rows
// downstream too.
func (d *Drawn) Draw(smp Sampler, b *storage.Batch, pass []int32, weights []float64) ([]int32, []float64) {
	d.Offered += b.Rows()
	d.Through = b.Start + b.Len()
	op, ow := len(pass), len(weights)
	pass, weights = smp.Decide(b, pass, weights)
	for _, i := range pass[op:] {
		d.Rows = append(d.Rows, int32(b.Start)+i)
	}
	d.Weights = append(d.Weights, weights[ow:]...)
	return pass, weights
}

// GatherSample is the one constructor of a sample: every column of tbl at
// the rows d drew (storage.Table.Gather, which decides which string columns
// keep their codes), each copied once into a vector of its final length,
// with d's weights, adopted, as the weight column, in a table of the given
// partition count. smp, when not nil, is the sampler that drew the rows
// and gives the sample its strategy, probability and δ; the caller sets the
// rest of the configuration. A draw that is not one — weights misaligned,
// more rows than were offered, rows out of order or out of the table — is
// rejected as corruption.
func GatherSample(name string, tbl *storage.Table, smp Sampler, d Drawn, partitions int) (*Sample, error) {
	if len(d.Weights) != len(d.Rows) || d.Offered < len(d.Rows) {
		return nil, fmt.Errorf("synopses: sample %s: %d rows with %d weights drawn from %d offered", name, len(d.Rows), len(d.Weights), d.Offered)
	}
	cols, err := tbl.Gather(d.Rows, d.Through)
	if err != nil {
		return nil, err
	}
	cols = append(cols, &storage.Vector{Typ: storage.Float64, F64: d.Weights})
	rows, err := storage.NewTable(name, SampleSchema(tbl.Schema()), cols, partitions)
	if err != nil {
		return nil, err
	}
	s := &Sample{Rows: rows, SourceRows: d.Offered}
	switch t := smp.(type) {
	case *UniformSampler:
		s.Strategy, s.P = "uniform", t.P
	case *DistinctSampler:
		s.Strategy, s.P, s.Delta = "distinct", t.P, t.Delta
	}
	return s, nil
}

// BuildSampleFromTable scans an entire table through a sampler and
// materializes the result — the offline path used by baselines and hints.
// stratCols records the stratification set for matching purposes.
func BuildSampleFromTable(name string, tbl *storage.Table, smp Sampler, stratCols []string) *Sample {
	var d Drawn
	var pass []int32
	var weights []float64
	for p := 0; p < tbl.Partitions(); p++ {
		for _, batch := range tbl.Scan(p, storage.BatchSize) {
			pass, weights = d.Draw(smp, batch, pass[:0], weights[:0])
		}
	}
	s, err := GatherSample(name, tbl, smp, d, tbl.Partitions())
	if err != nil {
		panic(err) // a whole-table scan draws ascending rows of tbl
	}
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
	// The strata are the table version's own numbering of the columns (one
	// stratum when there are none): one loop over the rows' ids counts each
	// stratum's size, one more draws the rows in table order.
	ids, sizes := make([]int64, tbl.NumRows()), []int{tbl.NumRows()}
	if len(idxs) > 0 {
		g := tbl.GroupIDs(idxs)
		ids, sizes = g.ID.I64, make([]int, g.Len())
		for _, id := range ids {
			sizes[id]++
		}
	}
	rnd := newRng(seed ^ 0xfeed)
	d := Drawn{Offered: tbl.NumRows(), Through: tbl.NumRows()}
	for i, id := range ids {
		n := sizes[id]
		if n <= cap {
			d.Rows, d.Weights = append(d.Rows, int32(i)), append(d.Weights, 1)
			continue
		}
		pr := float64(cap) / float64(n)
		if rnd.next() < pr {
			d.Rows, d.Weights = append(d.Rows, int32(i)), append(d.Weights, 1/pr)
		}
	}
	s, err := GatherSample(name, tbl, nil, d, tbl.Partitions())
	if err != nil {
		return nil, err
	}
	s.Strategy, s.Delta, s.Seed = "stratified", cap, seed
	s.StratCols = append([]string(nil), stratCols...)
	return s, nil
}

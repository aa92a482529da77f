package exec

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
)

// DefaultMorselRows is the default morsel granularity: the row-range unit
// workers claim from the shared dispenser. Small enough that skewed filters
// cannot stall the pool on one straggler morsel, large enough that the
// claim-and-merge overhead stays negligible.
const DefaultMorselRows = 4096

// pipeline is a leaf-to-sink operator spine the morsel executor runs:
// Scan|SynopsisScan → {SynopsisOp | Filter | Join}* → sink, where the sink is
// an Aggregate's hash aggregation or a SketchJoin's per-key lookup. The
// spine follows each Join's left (probe) input; a build (right) input is
// σ(base table) — a Scan or a Filter over one (compileBuild) — drained once
// and indexed into a shared join table. Samples live only on the spine: the
// planner puts the fact table first, so its sampler or stored sample is the
// spine's, and it emits exactly this shape for every plan: exact, inline
// sampler builds, sample reuse and sketch-joins alike.
type pipeline struct {
	leaf      *storage.Table // base table or the sample's row table
	leafBase  bool           // true: charge BaseBytes; false: synopsis bytes
	leafFree  bool           // buffer-resident synopsis: no I/O charge
	leafBytes int64

	// chain lists the spine nodes between leaf and sink (both exclusive),
	// bottom-up. At most one SynopsisOp; any number of Joins.
	chain   []plan.Node
	sampler *plan.SynopsisOp // the chain's sampler node, if any

	// The leaf scan's projection: the positions and schema of the leaf columns
	// anything on the spine reads.
	leafCols   []int
	leafSchema storage.Schema
}

// matchSpine recognizes the spine shape below a sink (over names the sink
// for the error). Anything else there — a sketch-join, a second sampler, an
// aggregate — is a shape no planner emits and nothing compiles: the error
// names the node.
func matchSpine(n plan.Node, over string) (*pipeline, error) {
	p := &pipeline{}
	var down []plan.Node // top-down spine nodes
	for {
		switch t := n.(type) {
		case *plan.Filter:
			down = append(down, t)
			n = t.Child
		case *plan.Join:
			down = append(down, t)
			n = t.Left
		case *plan.SynopsisOp:
			if p.sampler != nil || t.Kind == plan.SketchJoinSynopsis {
				return nil, fmt.Errorf("exec: cannot compile %s over %s: at most one sample-kind sampler fits the morsel spine", over, t)
			}
			p.sampler = t
			down = append(down, t)
			n = t.Child
		case *plan.Scan:
			p.leaf = t.Table
			p.leafBase = true
			p.leafBytes = t.Table.Bytes()
		case *plan.SynopsisScan:
			p.leaf = t.Sample.Rows
			p.leafFree = t.InBuffer
			p.leafBytes = t.Sample.Rows.Bytes()
		default:
			return nil, fmt.Errorf("exec: cannot compile %s over %T: the morsel spine is Scan|SynopsisScan → {Sampler|Filter|Join}*", over, n)
		}
		if p.leaf != nil {
			break
		}
	}
	// Reverse to bottom-up order for per-morsel chain construction.
	for i := len(down) - 1; i >= 0; i-- {
		p.chain = append(p.chain, down[i])
	}
	return p, nil
}

// sink is where a pipeline's spine ends. Every morsel folds its batches into
// a worker-local partial, partials merge in morsel index order, and the
// merged partial emits the operator's one output batch. Two implementations:
// aggSpec (hash aggregation, hashagg.go) and sketchSink (the sketch-join's
// per-key lookup, sketchsink.go).
type sink interface {
	outSchema() storage.Schema
	// prepare runs once per execution, serially, before any morsel: the
	// sketch sink drains its inline build here.
	prepare(ctx *Context) error
	newPartial() partial
}

// partial is one morsel's — and, merged, the whole run's — sink state.
type partial interface {
	// fold consumes one spine batch, honoring its selection vector, and
	// charges the sink's per-batch cost to ctx. The caller releases b.
	fold(b *storage.Batch, ctx *Context)
	// merge folds o, a partial of the same sink, into the receiver. Both
	// sinks sum floating-point state, so the order of merges is part of the
	// result.
	merge(o partial)
	// emit renders the groups in key order with row-aligned intervals.
	emit(confidence float64) (*storage.Batch, [][]stats.Interval)
}

// pipelineJoinState is one join of the spine: its compiled build-side
// subtree, the resolved column binding, and — once the op runs — the shared
// join table every probe worker reads.
type pipelineJoinState struct {
	node  *plan.Join
	build Operator
	spec  *joinSpec
	table *joinTable
}

// PipelineOp executes a matched pipeline with morsel-driven parallelism. What
// runs serially, once, before the pool starts: the sink's prepare (an inline
// sketch build) and each join's build side, drained and indexed into a
// shared joinTable. Then the leaf's rows are split into fixed-size
// morsels, the pool claims morsels from an atomic dispenser, and each worker
// runs the full scan→sample→filter→probe→fold pipeline on its morsel with
// worker-local state. Partials are merged in morsel index order once all
// morsels are done.
//
// Determinism contract: every morsel's sampler draws from the RNG stream
// SplitSeed(seed, morselIdx) and the distinct sampler's per-instance
// requirement is PartitionDelta(δ, morsels), so the set of sampled rows, the
// merged sink state and the materialized sample bytes depend only on
// (input, seed, morsel size) — never on the worker count or on scheduling.
// Join probes inherit the contract for free: the build table is built
// serially, its match lists are ascending build-row indices, and each morsel
// probes them in its own input order. Running with Workers=1 and
// Workers=N yields byte-identical results, cost counters and built synopses
// included, under either sink.
type PipelineOp struct {
	pipe  *pipeline
	joins []*pipelineJoinState // spine joins, bottom-up
	sink  sink
	seed  uint64
	ctx   *Context

	emitted   bool
	intervals [][]stats.Interval
}

// newPipelineOp is the one lowering that runs a spine: it matches the shape
// below the sink, compiles the spine's join build sides, narrows every level
// of the spine to the columns something above it reads (reads names the
// sink's), hands the spine's physical output schema to bind for the sink's
// column binding (on an error the sink it returns is not looked at), and
// validates the sampler and filter configuration up front.
//
// A column is needed at a level when a node above that level names it: the
// sink's group, aggregate, probe-key and weight columns, a Filter's predicate
// columns, a Join's left keys, a sampler's stratification columns. Needs only
// grow going down, so one top-down pass appends them to a single list and
// remembers, per chain node, how much of the list was there before the node
// added its own. A sampler whose output is materialized needs every column of
// its input — the stored sample is the whole row — and so does everything
// below it. Names bind through Schema.Index at every level, exactly as the
// operators bind them; a name that matches nothing at a level keeps nothing
// there. What a dropped column would have cost to exchange is not lost:
// every batch carries its rows' full widths (storage.Batch.Width).
func newPipelineOp(spine plan.Node, over string, reads []string, seed uint64, ctx *Context, bind func(in storage.Schema) (sink, error)) (*PipelineOp, error) {
	pipe, err := matchSpine(spine, over)
	if err != nil {
		return nil, err
	}
	names := append([]string{synopses.WeightCol}, reads...)
	above := make([]int, len(pipe.chain)) // names[:above[i]] are read above chain[i]
	wholeBelow := -1                      // index of a materializing sampler: all below it stays whole
	for i := len(pipe.chain) - 1; i >= 0 && wholeBelow < 0; i-- {
		above[i] = len(names)
		switch t := pipe.chain[i].(type) {
		case *plan.Filter:
			names = t.Pred.Columns(names)
		case *plan.Join:
			names = append(names, t.LeftKeys...)
		case *plan.SynopsisOp:
			names = append(names, t.StratCols...)
			if _, ok := ctx.MaterializeSamples[t]; ok {
				wholeBelow = i
			}
		}
	}

	// Resolve the physical schema along the spine, bottom-up.
	var leafNeed []string // nil: every column
	if wholeBelow < 0 {
		leafNeed = names
	}
	pipe.leafCols = neededCols(pipe.leaf.Schema(), leafNeed)
	pipe.leafSchema = projectSchema(pipe.leaf.Schema(), pipe.leafCols)
	cur := pipe.leafSchema
	var joins []*pipelineJoinState
	for i, n := range pipe.chain {
		switch t := n.(type) {
		case *plan.SynopsisOp:
			cur = synopses.SampleSchema(cur)
		case *plan.Join:
			build, err := compileBuild(t.Right, "a join's build side", ctx)
			if err != nil {
				return nil, err
			}
			var need []string // nil: the join's output keeps every column
			if i > wholeBelow {
				need = names[:above[i]]
			}
			spec, err := resolveJoinSpec(cur, build.Schema(), t.LeftKeys, t.RightKeys, need)
			if err != nil {
				return nil, err
			}
			joins = append(joins, &pipelineJoinState{node: t, build: build, spec: spec})
			cur = spec.schema
		}
	}
	snk, err := bind(cur)
	if err != nil {
		return nil, err
	}
	// Validate the chain eagerly (sampler strat columns, filter types) by
	// building a throwaway morsel pipeline over zero rows.
	if _, err := buildMorselChain(pipe, joins, 0, 1, seed, NewContext(ctx.Confidence)); err != nil {
		return nil, err
	}
	return &PipelineOp{pipe: pipe, joins: joins, sink: snk, seed: seed, ctx: ctx}, nil
}

// neededCols returns, ascending, the positions of s's columns that some name
// binds to; nil names stand for every column.
func neededCols(s storage.Schema, names []string) []int {
	mark := make([]bool, len(s))
	for _, n := range names {
		if i := s.Index(n); i >= 0 {
			mark[i] = true
		}
	}
	cols := make([]int, 0, len(s))
	for i, m := range mark {
		if m || names == nil {
			cols = append(cols, i)
		}
	}
	return cols
}

// projectSchema is s restricted to the columns at cols.
func projectSchema(s storage.Schema, cols []int) storage.Schema {
	out := make(storage.Schema, len(cols))
	for i, c := range cols {
		out[i] = s[c]
	}
	return out
}

// morselResult is everything one morsel produced: its partial sink state,
// its local cost counters and any per-morsel materialized sample parts.
type morselResult struct {
	part  partial
	stats RunStats
	err   error
}

// Open implements Operator.
func (p *PipelineOp) Open() error {
	p.emitted = false
	p.intervals = nil
	return nil
}

// Next implements Operator: the first call runs the whole morsel pool and
// emits the merged result as a single batch.
func (p *PipelineOp) Next() (*storage.Batch, error) {
	if p.emitted {
		return nil, nil
	}
	p.emitted = true

	rows := p.pipe.leaf.NumRows()
	morselRows := p.ctx.MorselRows
	if morselRows <= 0 {
		morselRows = DefaultMorselRows
	}
	nMorsels := (rows + morselRows - 1) / morselRows
	if nMorsels < 1 {
		nMorsels = 1
	}
	workers := p.ctx.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}

	// A sketch built inline is a byproduct the tuner may be waiting for, like
	// a materializing sampler's: it is built whatever the joins below find.
	if err := p.sink.prepare(p.ctx); err != nil {
		return nil, err
	}

	// Run and index every join's build side once; the resulting tables are
	// shared read-only by all probe workers. Builds run top-down,
	// so an empty one stops the rest: it proves the inner join — and hence
	// the whole pipeline input — empty, and the probe scan is normally
	// skipped entirely (O(1) early-out, no phantom scan or shuffle charges,
	// deeper builds never drained). The exception is a run whose spine
	// sampler materializes: the stored sample is the sampler's whole stream,
	// so every build plus the probe pass still runs.
	_, materializes := p.ctx.MaterializeSamples[p.pipe.sampler]
	emptyJoin := false
	for k := len(p.joins) - 1; k >= 0; k-- {
		js := p.joins[k]
		table, err := runBuild(js.node, js.build, js.spec, p.ctx)
		cerr := js.build.Close()
		if err != nil {
			return nil, err
		}
		if cerr != nil {
			return nil, cerr
		}
		js.table = table
		if js.table.empty() {
			emptyJoin = true
			if !materializes {
				break
			}
		}
	}
	if emptyJoin && !materializes {
		return p.emit(p.sink.newPartial()), nil
	}

	if workers > nMorsels {
		workers = nMorsels
	}

	// Zone-map pruning: when the spine is sampler-free and a Filter sits
	// directly above a base-table leaf, partitions whose zones refute the
	// predicate are skipped — the filter would drop every one of their rows
	// anyway, so the merged result is bit-identical; only the scanned bytes
	// and tuple counts shrink. Morsel geometry stays on the global row grid
	// (nMorsels is unchanged), so worker-count determinism is untouched; a
	// fully pruned morsel simply yields no batches. Sampler pipelines never
	// prune: their per-morsel RNG streams are keyed to raw row positions.
	keep, leafBytes := []bool(nil), p.pipe.leafBytes
	if p.pipe.leafBase && p.pipe.sampler == nil && len(p.pipe.chain) > 0 {
		if f, ok := p.pipe.chain[0].(*plan.Filter); ok {
			keep, leafBytes = pruneKeep(p.pipe.leaf, f.Pred)
			p.ctx.Obs.Pruned(prunedCount(keep))
		}
	}

	// Charge the leaf scan once, exactly as the scan operators do.
	switch {
	case p.pipe.leafBase:
		p.ctx.Stats.BaseBytes += leafBytes
	case !p.pipe.leafFree:
		p.ctx.Stats.WarehouseBytes += p.pipe.leafBytes
	}

	results := make([]morselResult, nMorsels)
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= nMorsels {
					return
				}
				results[i] = p.runMorsel(i, nMorsels, morselRows, keep)
			}
		}()
	}
	wg.Wait()

	// Merge in morsel index order: float accumulation and sample
	// concatenation stay bit-reproducible across worker counts.
	global := p.sink.newPartial()
	var parts []*synopses.Sample
	for i := range results {
		r := &results[i]
		if r.err != nil {
			return nil, r.err
		}
		p.ctx.Stats.CPUTuples += r.stats.CPUTuples
		p.ctx.Stats.ShuffleBytes += r.stats.ShuffleBytes
		for _, bs := range r.stats.BuiltSamples {
			parts = append(parts, bs.Sample)
		}
		global.merge(r.part)
	}

	if p.pipe.sampler != nil && len(parts) > 0 {
		name := p.ctx.MaterializeSamples[p.pipe.sampler]
		merged, err := synopses.MergeSamples(name, parts)
		if err != nil {
			return nil, err
		}
		// The merged sample carries the node's logical configuration, not
		// the per-morsel δ' each instance ran with.
		merged.Delta = p.pipe.sampler.Delta
		merged.Seed = p.seed
		p.ctx.Stats.BuiltSamples = append(p.ctx.Stats.BuiltSamples,
			BuiltSample{Op: p.pipe.sampler, Sample: merged})
	}

	return p.emit(global), nil
}

// emit renders the run's merged sink state as the operator's output.
func (p *PipelineOp) emit(global partial) *storage.Batch {
	out, intervals := global.emit(p.ctx.Confidence)
	p.intervals = intervals
	p.ctx.Stats.OutputRows += int64(out.Len())
	return out
}

// Close implements Operator.
func (p *PipelineOp) Close() error {
	// Query-owned build-side concatenations are pool memory (drainBuild);
	// recycle them. Probe output only ever holds copies, never references
	// into them.
	for _, js := range p.joins {
		js.table.release(p.ctx.Pool)
	}
	return nil
}

// Schema implements Operator.
func (p *PipelineOp) Schema() storage.Schema { return p.sink.outSchema() }

// Intervals implements IntervalReporter.
func (p *PipelineOp) Intervals() [][]stats.Interval { return p.intervals }

// runMorsel executes the pipeline over morsel i with fully local state. keep
// is the zone-prune survivor mask (nil = scan everything).
func (p *PipelineOp) runMorsel(i, nMorsels, morselRows int, keep []bool) morselResult {
	mctx := &Context{
		Confidence:         p.ctx.Confidence,
		Stats:              &RunStats{},
		MaterializeSamples: p.ctx.MaterializeSamples,
		Pool:               p.ctx.Pool, // sync.Pool-backed: safe across workers
		Obs:                p.ctx.Obs,  // atomic counters: safe across workers
	}
	root, err := buildMorselChain(p.pipe, p.joins, i, nMorsels, p.seed, mctx)
	if err != nil {
		return morselResult{err: err}
	}
	lo := i * morselRows
	hi := lo + morselRows
	root.src.batches = p.pipe.leaf.ScanRangePruned(lo, hi, storage.BatchSize, keep, p.pipe.leafSchema, p.pipe.leafCols)

	part := p.sink.newPartial()
	if err := root.op.Open(); err != nil {
		return morselResult{err: err}
	}
	defer root.op.Close()
	for {
		b, err := root.op.Next()
		if err != nil {
			return morselResult{err: err}
		}
		if b == nil {
			break
		}
		part.fold(b, mctx)
		mctx.Pool.Release(b)
	}
	return morselResult{part: part, stats: *mctx.Stats}
}

// morselChain couples the top operator of a per-morsel pipeline with its
// leaf, so the caller can install the morsel's batches before running.
type morselChain struct {
	op  Operator
	src *morselScan
}

// buildMorselChain instantiates the pipeline's operator chain for one morsel:
// a morsel-local scan, then per-node Filter/Sampler/probe operators. Sampler
// instances get the morsel's split seed and partitioned δ; probe operators
// share the join states' pre-built hash tables.
func buildMorselChain(pipe *pipeline, joins []*pipelineJoinState, morsel, nMorsels int, seed uint64, mctx *Context) (*morselChain, error) {
	src := &morselScan{schema: pipe.leafSchema, ctx: mctx}
	var cur Operator = src
	ji := 0
	for _, n := range pipe.chain {
		switch t := n.(type) {
		case *plan.Filter:
			op, err := NewFilterOp(cur, t.Pred, mctx)
			if err != nil {
				return nil, err
			}
			cur = op
		case *plan.Join:
			cur = &morselProbeOp{child: cur, st: joins[ji], ctx: mctx}
			ji++
		case *plan.SynopsisOp:
			delta := synopses.PartitionDelta(t.Delta, nMorsels)
			op, err := newSamplerOp(cur, t, delta, synopses.SplitSeed(seed, uint64(morsel)), mctx)
			if err != nil {
				return nil, err
			}
			cur = op
		}
	}
	return &morselChain{op: cur, src: src}, nil
}

// morselProbeOp probes one morsel's stream against a join's shared hash
// table with a morsel-local prober, charging probe shuffle and output CPU to
// the morsel's context (joinProber.probe). It is the engine's only join
// driver.
type morselProbeOp struct {
	child  Operator
	st     *pipelineJoinState
	ctx    *Context
	prober joinProber
}

// Open implements Operator. The prober's pair lists are sized up front: a
// morsel is four batches long, too short to grow them from nothing.
func (o *morselProbeOp) Open() error {
	o.prober = joinProber{
		spec: o.st.spec, table: o.st.table, pool: o.ctx.Pool,
		lrows: make([]int32, 0, joinBatchRows), mrows: make([]int32, 0, joinBatchRows),
	}
	return o.child.Open()
}

// Next implements Operator.
func (o *morselProbeOp) Next() (*storage.Batch, error) { return o.prober.probe(o.child, o.ctx) }

// Close implements Operator.
func (o *morselProbeOp) Close() error { return o.child.Close() }

// Schema implements Operator.
func (o *morselProbeOp) Schema() storage.Schema { return o.st.spec.schema }

// morselScan feeds one morsel's pre-sliced batches into a per-morsel
// pipeline. I/O is charged once by PipelineOp, not per morsel; CPU tuples
// are charged here like any scan.
type morselScan struct {
	schema  storage.Schema
	ctx     *Context
	batches []*storage.Batch
	pos     int
}

// Open implements Operator.
func (s *morselScan) Open() error {
	s.pos = 0
	return nil
}

// Next implements Operator.
func (s *morselScan) Next() (*storage.Batch, error) {
	if s.pos >= len(s.batches) {
		return nil, nil
	}
	b := s.batches[s.pos]
	s.pos++
	s.ctx.Stats.CPUTuples += int64(b.Len())
	return b, nil
}

// Close implements Operator.
func (s *morselScan) Close() error { return nil }

// Schema implements Operator.
func (s *morselScan) Schema() storage.Schema { return s.schema }

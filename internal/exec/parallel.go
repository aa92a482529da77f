package exec

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/tasterdb/taster/internal/expr"
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
// (Scan [→ SynopsisOp] | SynopsisScan) → {Filter | Join}* → sink, where the
// sink is an Aggregate's hash aggregation or a SketchJoin's per-key lookup.
// The spine follows each Join's left (probe) input; a build (right) input is
// σ(base table) — a Scan or a Filter over one (buildSide) — drained once
// into a shared join table: its survivors over the table's own key index. A
// sample has one home: directly over the fact table's scan at the bottom of
// the spine — the planner puts the fact table first — built there by a
// sampler or read back as the leaf. The planner emits exactly this shape for
// every plan: exact, inline sampler builds, sample reuse and sketch-joins
// alike.
type pipeline struct {
	leaf     *storage.Table // base table or the sample's row table
	leafBase bool           // true: charge BaseBytes; false: synopsis bytes
	leafFree bool           // buffer-resident synopsis: no I/O charge

	// chain lists the spine nodes between leaf and sink (both exclusive),
	// bottom-up: the stages of the morsel loop. A SynopsisOp can only be
	// chain[0]; any number of Joins.
	chain []plan.Node
	// filters holds, by chain position, each Filter's program, compiled once
	// per run against its input schema for every morsel to run; nil at the
	// other positions.
	filters []*expr.Filter
	// prune narrows a base-table leaf's read (open) — by zone maps, and by a
	// key index when it bounds an Int64 column selectively (keyed): the
	// predicate of a Filter directly above it, nil for none. A sampled leaf
	// never prunes: its sampler, not a Filter, is chain[0], and its
	// per-morsel RNG streams are keyed to raw row positions.
	prune expr.Pred

	// The leaf scan's projection: the positions and schema of the leaf columns
	// anything on the spine reads, and, when the sink folds by the leaf's
	// numbering (groupSource), that numbering's ids, which every batch
	// carries after them as groupIDCol.
	leafCols   []int
	leafSchema storage.Schema
	leafIDs    *storage.Vector
}

// matchSpine recognizes the spine shape below a sink (over names the sink
// for the error). Anything else there — a sketch-join, a sampler anywhere but
// directly on the leaf Scan, an aggregate — is a shape no planner emits and
// nothing compiles: the error names the node.
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
			if _, ok := t.Child.(*plan.Scan); !ok || t.Kind == plan.SketchJoinSynopsis {
				return nil, fmt.Errorf("exec: cannot compile %s over %s: a sample-kind sampler fits the morsel spine only directly on its Scan", over, t)
			}
			down = append(down, t)
			n = t.Child
		case *plan.Scan:
			p.leaf = t.Table
			p.leafBase = true
		case *plan.SynopsisScan:
			p.leaf = t.Sample.Rows
			p.leafFree = t.InBuffer
		default:
			return nil, fmt.Errorf("exec: cannot compile %s over %T: the morsel spine is (Scan [→ Sampler] | SynopsisScan) → {Filter|Join}*", over, n)
		}
		if p.leaf != nil {
			break
		}
	}
	// Reverse to bottom-up order, the order a morsel's batches climb it.
	for i := len(down) - 1; i >= 0; i-- {
		p.chain = append(p.chain, down[i])
	}
	if len(p.chain) > 0 && p.leafBase {
		if f, ok := p.chain[0].(*plan.Filter); ok {
			p.prune = f.Pred
		}
	}
	return p, nil
}

// leafRead is how a run reads its leaf, as open decides it: the partitions
// to read, and, when a key index serves the range of the Filter directly
// above a base-table leaf, that Filter's candidate rows.
type leafRead struct {
	keep []bool // the partitions to read; nil: every one
	// rows, when not nil, holds one bit a table row, set for the rows whose
	// key lies in the Filter's range (keyed), and the Filter then runs rest
	// — the program of its other terms, nil for none — on each batch's
	// candidates alone (refine). It is the run's pool's until done.
	rows storage.KeyMask
	rest *expr.Filter
}

// filter is what the leaf's Filter, compiled as prog, runs on a leaf batch:
// prog over every row, or rest over the candidates rows holds.
func (r leafRead) filter(prog *expr.Filter) (*expr.Filter, storage.KeyMask) {
	if r.rows == nil {
		return prog, nil
	}
	return r.rest, r.rows
}

// done hands the read's bitmap back to the run's pool.
func (r leafRead) done(ctx *Context) { ctx.Pool.PutBits(r.rows) }

// open is a run's one prune-and-charge call over the leaf, made before any
// morsel is read; it returns how the leaf is read. A base-table leaf reads
// the partitions expr.Prune leaves its prune predicate: partitions whose
// zones refute it are skipped — the filter would drop every one of their
// rows anyway, so the result is bit-identical; only the scanned bytes and
// tuples shrink. Morsel geometry stays on the global row grid, so
// worker-count determinism is untouched; a fully pruned morsel simply yields
// no batches. The same read may then be narrowed by a key index (keyed): the
// charges do not move, as every row read is still charged to the scan and
// to the filter. A synopsis leaf charges its bytes as a warehouse read,
// unless it is buffer-resident.
func (p *pipeline) open(ctx *Context) leafRead {
	if !p.leafBase {
		if !p.leafFree {
			ctx.Stats.WarehouseBytes += p.leaf.Bytes()
		}
		return leafRead{}
	}
	keep, bytes, rows := expr.Prune(p.prune, p.leaf)
	ctx.Stats.BaseBytes += bytes
	ctx.Obs.Pruned(prunedCount(keep))
	read := leafRead{keep: keep}
	p.keyed(ctx, &read, rows)
	return read
}

// keyedRatio is R: a key index serves a leaf Filter's range when the range
// holds at most 1/R of the table's rows. BenchmarkKeyedRangeSweep reads a
// 600 000-row column both ways: the index read costs a tenth of the range
// kernel's pass at 0.5 % of the rows, under 40 % of it at 12.5 %, and
// breaks even between 30 % and 50 %. R sits well inside the break-even
// because the sweep does not time what a range new to a column costs: the
// index's first build — a numbering and its runs, once per table version —
// and its 12 bytes a row for as long as the version lives, which a range
// that narrows the read by less pays back over more reads.
const keyedRatio = 8

// keyed narrows a base-table leaf's read by the table version's key index
// over the Int64 column its prune predicate bounds (expr.IntRange), when
// that index says the range holds at most 1/keyedRatio of the rows: it
// marks the range's rows in a bitmap borrowed from the run's pool, compiles
// the predicate's other terms, and counts the read and the rows of the read
// partitions (read) no kernel will evaluate. The index is asked only when
// the zone maps' span of the column leaves the range room to be that
// selective (keyedRoom), so a range that never is builds no index; and an
// empty range, or one outside the column, is left to the kernels and the
// zone maps.
func (p *pipeline) keyed(ctx *Context, r *leafRead, read int64) {
	col, iv, rest, ok := expr.IntRange(p.prune, p.leaf.Schema())
	if !ok || iv.Empty || !keyedRoom(p.leaf, col, iv) {
		return
	}
	rows, ok := p.leaf.KeyIndex([]int{col}).Range(iv.From, iv.To)
	if !ok || len(rows)*keyedRatio > p.leaf.NumRows() {
		return
	}
	if len(rest) > 0 {
		prog, err := expr.CompileFilter(rest, p.leafSchema)
		if err != nil {
			return // the whole predicate compiled; its terms do
		}
		r.rest = prog
		read -= int64(len(rows))
	}
	r.rows = ctx.Pool.GetBits(p.leaf.NumRows())
	r.rows.MarkRows(rows)
	ctx.Obs.KeyIndexed(max(read, 0))
}

// keyedRoom reports whether interval iv of column col of t, cut to the
// column's span by the zone maps' bounds, spans at most 1/keyedRatio of it:
// the rule that decides, before any index is built, whether one could find
// the range selective enough to serve it.
func keyedRoom(t *storage.Table, col int, iv expr.Interval) bool {
	mn, mx, ok := t.Bounds(col)
	if !ok {
		return false
	}
	lo, hi := max(iv.From, mn.I), min(iv.To, mx.I)
	if lo > hi {
		return false
	}
	return (float64(uint64(hi)-uint64(lo))+1)*keyedRatio <= float64(uint64(mx.I)-uint64(mn.I))+1
}

// prunedCount counts the partitions a survivor mask skipped (0 for the nil
// nothing-pruned mask).
func prunedCount(keep []bool) int64 {
	var n int64
	for _, k := range keep {
		if !k {
			n++
		}
	}
	return n
}

// cursor returns a reader of the leaf's batches narrowed to the leaf columns
// the spine reads, with their rows' group ids after them when the sink folds
// by the leaf's numbering: the run's one read path, Seek'd to a morsel's
// rows and the partitions open left, whose Filter narrows it further by the
// read's candidates when a key index served its range.
func (p *pipeline) cursor() *storage.Cursor {
	return p.leaf.NewCursor(storage.BatchSize, p.leafSchema, p.leafCols, p.leafIDs)
}

// sink is where a pipeline's spine ends. Every morsel folds its batches into
// a partial of its own, partials merge in morsel index order as morsels
// finish and are then reset for later morsels, and the merged partial emits
// the operator's one output batch. Two implementations: aggSpec (hash
// aggregation, hashagg.go) and sketchSink (the sketch-join's per-key lookup,
// sketchsink.go).
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
	// charges the sink's per-batch cost to ctx. b is valid only for the
	// call; sc is the folding worker's scratch.
	fold(b *storage.Batch, ctx *Context, sc *foldScratch)
	// merge folds o, a partial of the same sink, into the receiver. Both
	// sinks sum floating-point state, so the order of merges is part of the
	// result.
	merge(o partial)
	// reset empties the partial for another morsel, keeping its memory; it
	// then folds exactly as a new partial of the sink would.
	reset()
	// emit renders the groups in key order with row-aligned intervals.
	emit(confidence float64) (*storage.Batch, [][]stats.Interval)
}

// foldScratch is a morsel worker's working memory for its sink's folds,
// reused batch to batch: the group ids' resolution scratch, the aggregate
// fold's converted integer columns — the arrays of convs, the pool's — and
// the sketch sink's Probe pairs (row, payload row) and live rows' key
// counts.
type foldScratch struct {
	groups    *storage.ResolveScratch
	conv      stats.FoldScratch
	convs     [2]*storage.Vector // Float64
	pos, rows []int32
	cnts      *storage.Vector // Float64
}

// pipelineJoinState is one join of the spine: its build side, the resolved
// column binding, and — once the op runs — the shared join table every probe
// worker reads.
type pipelineJoinState struct {
	node  *plan.Join
	build *buildSide
	spec  *joinSpec
	table *joinTable
}

// PipelineOp is a compiled plan: the one run Compile returns, a matched
// pipeline that Run executes with morsel-driven parallelism, then orders
// under its Sort, if any. What runs serially, once, before the pool starts: the sink's prepare (an inline
// sketch build) and each join's build side, drained into a shared joinTable
// (its survivor mask over the build table's own key index). Then the leaf's
// rows are split into fixed-size morsels, the pool claims morsels from an
// atomic dispenser, and each worker runs its morsel through one push loop
// (morselWorker.run): every leaf batch climbs the chain's sampler, filter and
// probe stages and folds into the morsel's partial, with the filters
// compiled once per run and one kernel scratch per filter per worker.
// Partials are merged in morsel index order as morsels finish (mergeQueue),
// and a merged partial is reset and handed to the next morsel a worker
// claims.
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
	pipe    *pipeline
	joins   []*pipelineJoinState // spine joins, bottom-up
	sampler *samplerStage        // the spine's sampler; nil: none
	sink    sink
	sort    *sortSpec // a Sort above the sink; nil: none
	seed    uint64
	ctx     *Context
	trace   *tracer // the sink node's trace record; nil untraced

	intervals [][]stats.Interval
}

// newPipelineOp is the one lowering that runs a spine: it matches the shape
// below the sink, decides which spine table's numbering the sink folds by
// (groupSourceOf), compiles the spine's join build sides, narrows every
// level of the spine to the columns something above it reads (groupBy and
// reads name the sink's: its GROUP BY columns, nil to keep every group
// value-keyed, and the rest), hands the spine's physical output schema and
// the numbering, if any, to bind for the sink's column binding (on an error
// the sink it returns is not looked at), and binds the morsel loop's stages
// once for the whole run: every Filter of the chain compiled, the sampler's
// configuration and stratification columns.
//
// A column is needed at a level when a node above that level names it: the
// sink's group, aggregate, probe-key and weight columns, a Filter's predicate
// columns, a Join's left keys, a sampler's stratification columns. Needs only
// grow going down, so one top-down pass appends them to a single list and
// remembers, per chain node, how much of the list was there before the node
// added its own. A sampler whose output is materialized reads no column for
// it: it records the drawn rows' table positions, and the stored sample's
// whole rows are gathered from the leaf's table version after the run. Names
// bind through Schema.Index at every level, exactly as the operators bind them; a
// name that matches nothing at a level keeps nothing there. What a dropped
// column would have cost to exchange is not lost: every batch carries its
// rows' full widths (storage.Batch.Width). Folding by a numbering, the sink
// reads the id column (groupIDCol) in place of its group columns, so from
// the table that numbers them up the spine carries one id per row, and a
// group column only where something else reads it.
func newPipelineOp(spine plan.Node, over string, groupBy, reads []string, seed uint64, ctx *Context, bind func(in storage.Schema, src *groupSource) (sink, error)) (*PipelineOp, error) {
	pipe, err := matchSpine(spine, over)
	if err != nil {
		return nil, err
	}
	src := groupSourceOf(pipe, groupBy)
	names := append([]string{synopses.WeightCol}, reads...)
	if src != nil {
		names = append(names, groupIDCol)
	} else {
		names = append(names, groupBy...)
	}
	above := make([]int, len(pipe.chain)) // names[:above[i]] are read above chain[i]
	for i := len(pipe.chain) - 1; i >= 0; i-- {
		above[i] = len(names)
		switch t := pipe.chain[i].(type) {
		case *plan.Filter:
			names = t.Pred.Columns(names)
		case *plan.Join:
			names = append(names, t.LeftKeys...)
		case *plan.SynopsisOp:
			names = append(names, t.StratCols...)
		}
	}

	// Resolve the physical schema along the spine, bottom-up.
	pipe.leafCols = neededCols(pipe.leaf.Schema(), names)
	pipe.leafSchema = projectSchema(pipe.leaf.Schema(), pipe.leafCols)
	if src != nil && src.at < 0 {
		pipe.leafIDs = src.ids.ID
		pipe.leafSchema = append(pipe.leafSchema, storage.Col{Name: groupIDCol, Typ: storage.Int64})
	}
	cur := pipe.leafSchema
	var joins []*pipelineJoinState
	var smp *samplerStage
	pipe.filters = make([]*expr.Filter, len(pipe.chain))
	for i, n := range pipe.chain {
		switch t := n.(type) {
		case *plan.Filter:
			if pipe.filters[i], err = expr.CompileFilter(t.Pred, cur); err != nil {
				return nil, err
			}
		case *plan.SynopsisOp:
			if smp, err = newSamplerStage(t, cur, ctx); err != nil {
				return nil, err
			}
			cur = smp.schema
		case *plan.Join:
			build, err := newBuildSide(t.Right, "a join's build side", ctx)
			if err != nil {
				return nil, err
			}
			spec, err := resolveJoinSpec(cur, build.table.leafSchema, t.LeftKeys, t.RightKeys, names[:above[i]])
			if err != nil {
				return nil, err
			}
			if src != nil && src.at == i {
				spec.emitGroups(src.ids)
			}
			joins = append(joins, &pipelineJoinState{node: t, build: build, spec: spec})
			cur = spec.schema
		}
	}
	snk, err := bind(cur, src)
	if err != nil {
		return nil, err
	}
	return &PipelineOp{pipe: pipe, joins: joins, sampler: smp, sink: snk, seed: seed, ctx: ctx}, nil
}

// groupIDCol names the column of group ids a spine carries when its sink
// folds by a table's numbering (groupSource): each row's group id in that
// table version's GroupIDs.
const groupIDCol = "__group_id"

// groupSource is the lowering of a sink whose GROUP BY columns all
// belong to one spine table — the leaf, or one join's build side — onto that
// table version's numbering by those columns (storage.Table.GroupIDs),
// whose ids run in key order. The table adds each row's id to the spine as
// one more column, groupIDCol: the leaf scan slices it beside the leaf's
// columns, a join gathers it by build row; every later operator carries it
// like any other column, and the sink's group table folds by it, sorting
// ids and reading the groups' key values from the numbering when it emits.
type groupSource struct {
	at   int               // -1: the leaf; otherwise the join's position in the chain
	ids  *storage.GroupIDs // the table's numbering by the group columns
	keys storage.Schema    // the group columns, as the table names and types them
}

// groupSourceOf decides, from the plan shape and the leaf's statistics,
// which spine table a sink grouping by groupBy folds by the numbering of,
// and returns the lowering, or nil: the one table every group column binds
// to, unless that is a base-table leaf with fewer than leafRowsPerGroup rows
// a group. Names bind as the operators bind them, on the spine's full-width
// schema; group columns that span two tables, or bind to nothing, keep the
// value-keyed GroupIndex, as does a leaf the rule turns down.
func groupSourceOf(pipe *pipeline, groupBy []string) *groupSource {
	if len(groupBy) == 0 {
		return nil
	}
	// wide[i] is the schema chain[i] reads with no column narrowed away:
	// the leaf's, the sampler's weight, and each join's build table after it.
	wide := make([]storage.Schema, len(pipe.chain)+1)
	wide[0] = pipe.leaf.Schema()
	for i, n := range pipe.chain {
		wide[i+1] = wide[i]
		switch t := n.(type) {
		case *plan.SynopsisOp:
			wide[i+1] = synopses.SampleSchema(wide[i])
		case *plan.Join:
			build := buildSource(t.Right)
			if build == nil {
				return nil // newBuildSide names the shape
			}
			wide[i+1] = append(wide[i][:len(wide[i]):len(wide[i])], build.Schema()...)
		}
	}
	top := wide[len(pipe.chain)]
	pos := make([]int, len(groupBy))
	for k, g := range groupBy {
		if pos[k] = top.Index(g); pos[k] < 0 {
			return nil
		}
	}
	// The table, its position (-1: the leaf) and its first column's in top.
	tbl, at, lo := pipe.leaf, -1, 0
	if slices.Max(pos) >= len(wide[0]) {
		tbl = nil
		for i, n := range pipe.chain {
			if j, ok := n.(*plan.Join); ok && len(wide[i]) <= slices.Min(pos) && slices.Max(pos) < len(wide[i+1]) {
				tbl, at, lo = buildSource(j.Right), i, len(wide[i])
				break
			}
		}
		if tbl == nil {
			return nil
		}
	}
	cols := make([]int, len(pos))
	keys := make(storage.Schema, len(pos))
	for k, p := range pos {
		cols[k] = p - lo
		keys[k] = tbl.Schema()[cols[k]]
	}
	if at < 0 && pipe.leafBase && tbl.GroupCount(keys.Names())*leafRowsPerGroup > tbl.NumRows() {
		return nil
	}
	return &groupSource{at: at, ids: tbl.GroupIDs(cols), keys: keys}
}

// leafRowsPerGroup is how many rows a base table's groups must hold on
// average, by its statistics (Table.GroupCount), for a GROUP BY on its own
// columns to fold by its numbering. The numbering costs a pass over the
// whole version and 8 bytes a row for as long as the version lives, and
// each partial of a run a word for every group in it: with few rows a group
// — an order key — a query that filters most rows away would pay in
// proportion to the table for the handful of groups it meets, so it hashes
// the rows it reads instead. A stored sample has no such bound: every query
// over one reads all of it, so its numbering costs what its scan does.
const leafRowsPerGroup = 16

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

// mergeQueue folds a run's morsel partials into the global partial in morsel
// index order, as morsels finish rather than after the pool: a finished
// morsel records its partial at its index, and whoever holds the merge turn
// advances the cursor over every consecutive finished index, merging each
// partial and putting it on the free list. The first one, morsel 0's, is
// not merged but adopted as the global partial, and the still-empty global
// goes to the free list in its place: a merge into an empty table gives
// every group the merged partial's state as it is, and emit orders by key,
// so adopting answers what copying did without the copy. A worker
// takes its next partial from the free list and resets it then, so a
// one-morsel run pays no reset.
// With one worker this is run, merge, reuse; with more, the partials alive
// at once are the workers' plus the reorder window. The free list is a
// run-local slice of sink partials — no pooled vector or selection passes
// through it.
type mergeQueue struct {
	sink   sink
	global partial // written only by the merge turn's holder

	mu      sync.Mutex
	done    []partial // finished, not yet merged, by morsel index
	next    int       // the cursor: the lowest index not yet merged
	merging bool      // a worker holds the merge turn
	free    []partial // merged partials, for reuse
}

func newMergeQueue(snk sink, nMorsels int) *mergeQueue {
	return &mergeQueue{sink: snk, global: snk.newPartial(), done: make([]partial, nMorsels)}
}

// take returns an empty partial for a morsel: a merged one, reset, or a new
// one when none is free.
func (q *mergeQueue) take() partial {
	q.mu.Lock()
	var part partial
	if k := len(q.free) - 1; k >= 0 {
		part, q.free = q.free[k], q.free[:k]
	}
	q.mu.Unlock()
	if part == nil {
		return q.sink.newPartial()
	}
	part.reset()
	return part
}

// finish records morsel i's partial and, unless another worker holds the
// merge turn, takes it and merges every consecutive finished partial from
// the cursor on. The merge itself runs outside the lock: the turn, not the
// mutex, keeps the global partial to one writer.
func (q *mergeQueue) finish(i int, part partial) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.done[i] = part
	if q.merging {
		return
	}
	q.merging = true
	for q.next < len(q.done) && q.done[q.next] != nil {
		part := q.done[q.next]
		q.done[q.next] = nil
		q.next++
		if q.next == 1 {
			q.global, part = part, q.global
		} else {
			q.mu.Unlock()
			q.global.merge(part)
			q.mu.Lock()
		}
		q.free = append(q.free, part)
	}
	q.merging = false
}

// run runs the whole morsel pool and emits the merged result as a single
// batch (Run).
func (p *PipelineOp) run() (*storage.Batch, error) {
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

	// Run every join's build side once; the resulting tables are shared
	// read-only by all probe workers. Builds run top-down,
	// so an empty one stops the rest: it proves the inner join — and hence
	// the whole pipeline input — empty, and the probe scan is normally
	// skipped entirely (O(1) early-out, no phantom scan or shuffle charges,
	// deeper builds never drained). The exception is a run whose spine
	// sampler materializes: the stored sample is the sampler's whole stream,
	// so every build plus the probe pass still runs.
	materializes := p.sampler != nil && p.sampler.keep
	emptyJoin := false
	for k := len(p.joins) - 1; k >= 0; k-- {
		js := p.joins[k]
		js.table = runBuild(js, p.ctx)
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

	read := p.pipe.open(p.ctx)

	// Partials merge in morsel index order (mergeQueue) and the counters and
	// drawn rows are summed and concatenated in it below: float
	// accumulation and sample concatenation stay bit-reproducible across
	// worker counts. drawn keeps each morsel's draw when the run keeps its
	// sample.
	merges := newMergeQueue(p.sink, nMorsels)
	stats := make([]RunStats, nMorsels)
	var drawn []*synopses.Drawn
	if materializes {
		drawn = make([]*synopses.Drawn, nMorsels)
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := p.newWorker()
			defer wk.close()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= nMorsels {
					return
				}
				part := merges.take()
				d := wk.run(i, nMorsels, morselRows, read, part, &stats[i])
				if drawn != nil {
					drawn[i] = d
				}
				merges.finish(i, part)
			}
		}()
	}
	wg.Wait()
	read.done(p.ctx)

	for i := range stats {
		p.ctx.Stats.CPUTuples += stats[i].CPUTuples
		p.ctx.Stats.ShuffleBytes += stats[i].ShuffleBytes
	}
	if materializes {
		sample, err := p.gatherSample(drawn, nMorsels)
		if err != nil {
			return nil, err
		}
		p.ctx.Stats.Built = append(p.ctx.Stats.Built, Built{Node: p.sampler.node, ID: p.sampler.id,
			Synopsis: sample, SourceRows: int64(p.pipe.leaf.NumRows())})
	}

	return p.emit(merges.global), nil
}

// gatherSample builds the run's stored sample: the morsels' drawn rows,
// concatenated in morsel index order — ascending table rows, in arrays
// allocated once at their total length — gathered once from the leaf's
// table version (synopses.GatherSample) into one partition. The span the
// gather checks string codes over ends where the last morsel that drew a
// row was offered its last batch. The sample carries the node's logical
// configuration, not the per-morsel δ' each instance ran with.
func (p *PipelineOp) gatherSample(drawn []*synopses.Drawn, nMorsels int) (*synopses.Sample, error) {
	n := 0
	for _, d := range drawn {
		n += len(d.Rows)
	}
	all := synopses.Drawn{Rows: make([]int32, 0, n), Weights: make([]float64, 0, n)}
	for _, d := range drawn {
		all.Rows = append(all.Rows, d.Rows...)
		all.Weights = append(all.Weights, d.Weights...)
		all.Offered += d.Offered
		if len(d.Rows) > 0 {
			all.Through = d.Through
		}
	}
	node := p.sampler.node
	sample, err := synopses.GatherSample(fmt.Sprintf("synopsis_%d", p.sampler.id), p.pipe.leaf, p.sampler.sampler(p.seed, 0, nMorsels, nil), all, 1)
	if err != nil {
		return nil, err
	}
	sample.Delta = node.Delta
	sample.Seed = p.seed
	sample.StratCols = append([]string(nil), node.StratCols...)
	return sample, nil
}

// emit renders the run's merged sink state as the operator's output.
func (p *PipelineOp) emit(global partial) *storage.Batch {
	out, intervals := global.emit(p.ctx.Confidence)
	p.intervals = intervals
	p.ctx.Stats.OutputRows += int64(out.Len())
	return out
}

// Schema is the schema of the batch Run returns.
func (p *PipelineOp) Schema() storage.Schema { return p.sink.outSchema() }

// Intervals reports, after Run, the confidence interval of every aggregate
// cell, row-aligned with the batch it returned.
func (p *PipelineOp) Intervals() [][]stats.Interval { return p.intervals }

// morselWorker is one pool worker of a run: the state its morsels' stages
// run with. Every stage hands up a batch of its own, which stays valid until
// the stage is asked again: the cursor's one leaf batch, re-pointed at every
// leaf batch, a Filter's header over its input under a selection of its
// own, the sampler's output batch, a Join's chunk or its lookup batch (a
// header over its input's carried columns and its gathered build columns).
// Across morsels the worker keeps those, its filters' kernel scratch —
// selection buffers and the coded string leaves' truth tables, keyed by
// leaf and dictionary, neither of which changes within a run — its probes'
// pair lists, its sink's fold scratch and its distinct sampler's strata
// numbering, an index of stratum keys that serves every morsel the worker
// claims. Within a morsel it holds the sink partial, the counters and the
// sampler instance with what it draws.
type morselWorker struct {
	p       *PipelineOp
	ctx     *Context         // the morsel's counters; the run's metrics
	cur     *storage.Cursor  // the leaf's reader
	read    leafRead         // how it reads: the run's, from open
	leaf    storage.Batch    // the leaf batch cur re-points
	part    partial          // the morsel's sink partial
	stages  []stage          // by chain position
	sampled *storage.Batch   // the sampler's output; nil without a sampler
	fold    foldScratch      // the sink's
	strata  *synopses.Strata // nil without a sampler
	smp     synopses.Sampler // the morsel's sampler instance
	drawn   *synopses.Drawn  // what it drew; nil unless the run keeps it
	pass    []int32          // the sampler's passing rows, per batch
}

// stage is a worker's state for one chain position: a Filter's output
// header and kernel scratch, a Join's probe state, chunk and lookup batch.
type stage struct {
	kept    storage.Batch // a Filter's output; a Join's lookup batch
	scratch expr.Scratch
	probe   joinProber
}

// newWorker starts a worker over the run's built join tables. A worker
// lives for the run, so the buffers its stages and its sink fill batch after
// batch come from the run's pool once, here, and go back when it is done
// (close).
func (p *PipelineOp) newWorker() *morselWorker {
	pool := p.ctx.Pool
	w := &morselWorker{
		p:      p,
		ctx:    &Context{Confidence: p.ctx.Confidence, Obs: p.ctx.Obs},
		cur:    p.pipe.cursor(),
		stages: make([]stage, len(p.pipe.chain)),
		fold: foldScratch{groups: pool.GetScratch(), pos: pool.GetSel(storage.BatchSize), rows: pool.GetSel(storage.BatchSize),
			cnts: pool.GetVector(storage.Float64, storage.BatchSize)},
	}
	for i := range w.fold.convs {
		w.fold.convs[i] = pool.GetVector(storage.Float64, storage.BatchSize)
		w.fold.conv.Conv[i] = w.fold.convs[i].F64
	}
	joins := p.joins
	for k, n := range p.pipe.chain {
		switch st := &w.stages[k]; n.(type) {
		case *plan.SynopsisOp:
			w.sampled, w.strata = pool.GetBatch(p.sampler.schema, storage.BatchSize), synopses.NewStrata(w.fold.groups)
		case *plan.Filter:
			st.kept.Sel = pool.GetSel(storage.BatchSize)
		case *plan.Join:
			st.probe = newJoinProber(joins[0], &st.kept, pool)
			joins = joins[1:]
		}
	}
	return w
}

// close hands the worker's buffers back to the run's pool.
func (w *morselWorker) close() {
	pool := w.p.ctx.Pool
	for k := range w.stages {
		st := &w.stages[k]
		pool.PutSel(st.kept.Sel)
		st.probe.release(pool)
	}
	pool.Release(w.sampled)
	pool.PutScratch(w.fold.groups)
	pool.PutSel(w.fold.pos)
	pool.PutSel(w.fold.rows)
	pool.PutVector(w.fold.cnts)
	for i, v := range w.fold.convs {
		v.F64 = w.fold.conv.Conv[i][:0]
		pool.PutVector(v)
	}
}

// run is the morsel loop: it executes morsel i of nMorsels — global rows
// [i·morselRows, (i+1)·morselRows) of the partitions read leaves, nil
// keeping every one — folding it into part (empty) and counting into stats.
// Every leaf batch — the worker's one leaf batch, re-pointed by its cursor,
// which every stage is done with once push returns — is charged its scan's
// CPU tuples and pushed through the chain's stages; at the end the joins'
// partly filled chunks are flushed bottom-up, each through the stages above
// its join. It returns the rows the morsel's sampler drew when the run
// keeps them.
func (w *morselWorker) run(i, nMorsels, morselRows int, read leafRead, part partial, stats *RunStats) *synopses.Drawn {
	w.ctx.Stats, w.part, w.read = stats, part, read
	if s := w.p.sampler; s != nil {
		w.smp, w.drawn = s.sampler(w.p.seed, i, nMorsels, w.strata), nil
		if s.keep {
			w.drawn = &synopses.Drawn{}
		}
	}
	lo := i * morselRows
	for w.cur.Seek(lo, lo+morselRows, read.keep); w.cur.Next(&w.leaf); {
		stats.CPUTuples += int64(w.leaf.Len())
		w.push(&w.leaf, 0)
	}
	for k := range w.stages {
		if out := w.stages[k].probe.out; out != nil && out.Len() > 0 {
			w.emit(k)
		}
	}
	return w.drawn
}

// push runs b through the chain's stages from position k on and folds what
// reaches the top into the morsel's partial. The stages are the chain's
// nodes: the sampler draws, a Filter refines — the one directly over a
// base-table leaf by the read's key-index candidates when it has them — and
// a stage that keeps no row of b ends its climb there; a Join probes b whole
// (probe), and what goes on climbing from it is its chunks.
func (w *morselWorker) push(b *storage.Batch, k int) {
	pipe := w.p.pipe
	for ; k < len(pipe.chain); k++ {
		switch st := &w.stages[k]; pipe.chain[k].(type) {
		case *plan.SynopsisOp:
			b, w.pass = w.p.sampler.draw(b, w.smp, w.drawn, w.sampled, w.pass, w.ctx)
		case *plan.Filter:
			prog, rows := pipe.filters[k], storage.KeyMask(nil)
			if k == 0 {
				prog, rows = w.read.filter(prog)
			}
			b = refine(b, prog, rows, &st.kept, &st.scratch, w.ctx)
		case *plan.Join:
			w.probe(b, k)
			return
		}
		if b == nil {
			return
		}
	}
	w.part.fold(b, w.ctx, &w.fold)
}

// probe is the Join stage at chain position k: it charges b's rows their
// exchange and joins all of them, as one lookup batch pushed on up the
// chain whole — after the partly filled chunk, if any, so that rows climb in
// their order — or as pairs into the stage's chunk, pushing the chunk on each
// time it fills (emit); a partly filled one stays for the next batch or the
// morsel's end. A lookup sums b's widths in its own pass over the rows; a
// batch that takes pairs is charged LiveWidth. Over an empty table — only
// reached by a run that materializes a sampler byproduct, plain empty joins
// short-circuit before the pool starts — b is charged and dropped, so the
// sampler below still sees its whole stream.
func (w *morselWorker) probe(b *storage.Batch, k int) {
	pr := &w.stages[k].probe
	if look, in := pr.lookup(b); look != nil {
		w.ctx.Stats.ShuffleBytes += in
		if pr.out.Len() > 0 {
			w.emit(k)
		}
		w.ctx.Stats.CPUTuples += int64(look.Len())
		w.push(look, k+1)
		return
	}
	w.ctx.Stats.ShuffleBytes += b.LiveWidth()
	if pr.table.empty() {
		return
	}
	at, full := pr.fill(b, storage.ProbePos{})
	for full {
		w.emit(k)
		at, full = pr.fill(b, at)
	}
}

// emit pushes join k's chunk on to position k+1, charging its rows' output
// CPU, and empties it once everything above is done with it.
func (w *morselWorker) emit(k int) {
	out := w.stages[k].probe.out
	w.ctx.Stats.CPUTuples += int64(out.Len())
	w.push(out, k+1)
	out.Reset()
}

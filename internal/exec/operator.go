// Package exec implements the physical, batch-at-a-time execution engine,
// and it has one executor: the morsel-driven pipeline (PipelineOp). Every plan
// a planner emits is a spine — (Scan [→ Sampler] | SynopsisScan) →
// {Filter|Join}* — ending in one of two sinks: weighted hash aggregation
// with single-pass error tracking (an Aggregate root), or the sketch-join's
// per-key lookup (a SketchJoin root, paper §II: Join+Aggregate collapsed
// into one terminal). Compile has no other lowering for either.
//
// What runs serially, once, before the worker pool starts: each join's build
// side — σ(base table), a scan with an optional filter, drained and indexed
// into one shared join table — and an inline sketch build, the same kind of
// drain into the build side's exact (count, sum) per join key, one row per
// key. Samples live only on the spine: the planner puts the fact table
// first, so no build side is ever sampled and a joined row's weight is its
// probe row's. Then workers claim fixed-size row-range morsels of the probe
// side from a shared dispenser, run the whole spine on each with
// worker-local state, and fold into per-morsel partial sink tables that
// merge in morsel index order, with per-morsel RNG streams split
// deterministically from the query seed — so results, cost counters and
// built synopses are byte-identical at any worker count. SortOp, above a
// sink, orders the handful of group rows it emitted.
//
// The spine is narrow: each level holds only the columns something above it
// reads (newPipelineOp), and every batch row carries what its whole logical
// row costs to exchange (storage.Batch.Width), so ShuffleBytes is the full
// rows' whatever was copied.
//
// Samplers are pipelined, with materialization as a byproduct (paper §III).
// Every join table finds a key's build rows without a Go map or a hash
// table of its own (storage.KeyIndex, through which the sketch-join's
// per-key table is found too): a dense Int64 key at its address key − min,
// any other key by binary search over its version's numbering of the key
// columns (Table.GroupIDs). That index is the build
// table version's own, built once per version and key (Table.KeyIndex); a
// build side copies no row, it marks its filter's survivors in a mask over
// the index. JoinCache keeps the immutable table and the cost the build
// charged, and a later run replays the cost instead of rebuilding.
package exec

import (
	"github.com/tasterdb/taster/internal/obs"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
)

// Operator is a physical operator producing batches until nil (EOF).
type Operator interface {
	// Open prepares the operator (and its inputs) for execution.
	Open() error
	// Next returns the next batch, or nil at end of stream.
	Next() (*storage.Batch, error)
	// Close releases resources; safe after partial consumption.
	Close() error
	// Schema returns the operator's output schema.
	Schema() storage.Schema
}

// RunStats accumulates the logical work counters the simulated-cluster cost
// model converts to seconds, plus every synopsis built as a byproduct of the
// run (paper §III: "all synopses are constructed as byproducts of query
// answering").
type RunStats struct {
	BaseBytes      int64 // cold bytes scanned from base tables
	WarehouseBytes int64 // bytes scanned from materialized synopses
	CPUTuples      int64 // tuples pushed through operators
	ShuffleBytes   int64 // full-width row bytes exchanged for joins/aggregations
	OutputRows     int64

	BuiltSamples  []BuiltSample
	BuiltSketches []BuiltSketch
}

// BuiltSample records a sample materialized during execution.
type BuiltSample struct {
	Op     *plan.SynopsisOp
	Sample *synopses.Sample
}

// BuiltSketch records a sketch-join synopsis built during execution.
type BuiltSketch struct {
	Op     *plan.SketchJoin
	Sketch *synopses.SketchJoin
}

// SimulatedSeconds converts the counters into simulated cluster time. The
// seek charge models per-query job startup and is paid once, matching the
// planner's cost convention.
func (s *RunStats) SimulatedSeconds(m storage.CostModel) float64 {
	sec := m.CPUSeconds(s.CPUTuples) + m.ShuffleSeconds(s.ShuffleBytes)
	if s.BaseBytes > 0 || s.WarehouseBytes > 0 {
		sec += m.SeekSeconds
	}
	sec += float64(s.BaseBytes) / m.ScanBytesPerSec
	sec += float64(s.WarehouseBytes) / (m.ScanBytesPerSec * m.WarehouseReadFrac)
	return sec
}

// Context carries per-run state shared by the operator tree.
type Context struct {
	Confidence float64 // confidence level for reported intervals
	Stats      *RunStats
	// MaterializeSamples maps SynopsisOp nodes whose output the tuner chose
	// to keep; the sampler operator tees into a builder for each. The map is
	// fully populated before execution starts and only read afterwards, so
	// parallel workers may consult it without locking.
	MaterializeSamples map[*plan.SynopsisOp]string // node → synopsis name
	// Workers is the intra-query parallelism degree of the morsel-driven
	// executor; 0 means runtime.NumCPU(). Results are byte-identical for any
	// value, whichever sink the plan ends in (see PipelineOp).
	Workers int
	// MorselRows overrides the morsel granularity (rows per morsel); 0 means
	// DefaultMorselRows. Changing it changes the per-morsel sampler streams,
	// so it is part of a query's reproducibility key.
	MorselRows int
	// Pool recycles batch/vector memory between operators of this run. Batches
	// transfer ownership downstream; the final consumer releases after copying
	// out (storage.VecPool documents the contract). A nil pool degrades every
	// pool-aware operator to plain allocation, so results never depend on it.
	Pool *storage.VecPool
	// Joins keeps built join tables across runs (see JoinCache). Nil — the
	// NewContext default — builds every join's table per run; the engine
	// threads its own cache here beside Pool. A table is immutable and holds
	// no pool memory, so runs and morsel workers share it without locking.
	Joins *JoinCache
	// Obs receives the executor's dispatch counters (filter batches,
	// zone-pruned partitions). Metrics are write-only from
	// execution — nothing here reads them back — and every hook is safe on
	// the nil default, so an engine without a metrics registry threads nil
	// and pays one pointer test per batch. Morsel workers share the pointer;
	// the counters are atomic.
	Obs *obs.ExecObs
	// TraceNodes, when non-nil, enables per-operator tracing: Compile wraps
	// every compiled operator and records its counters into this map, keyed
	// by the plan node it implements. Per-query state — never shared across
	// runs or copied into morsel contexts (fused pipelines account their
	// work at the enclosing traced operator).
	TraceNodes map[plan.Node]*obs.TraceNode
	// Clock times traced operators. Always non-nil (NewContext defaults to
	// the frozen clock); the engine injects the wall clock only for
	// asynchronous runs, so synchronous traces render with zero durations
	// and stay byte-reproducible.
	Clock obs.Clock
}

// NewContext returns a context with fresh stats at the given confidence.
func NewContext(confidence float64) *Context {
	if confidence <= 0 || confidence >= 1 {
		confidence = stats.DefaultAccuracy.Confidence
	}
	return &Context{
		Confidence:         confidence,
		Stats:              &RunStats{},
		MaterializeSamples: make(map[*plan.SynopsisOp]string),
		Pool:               storage.NewVecPool(),
		Clock:              obs.Frozen{},
	}
}

// IntervalReporter is implemented by PipelineOp and by the SortOp above it;
// after the stream is drained it reports the confidence interval of every
// aggregate cell, row-aligned with the emitted output.
type IntervalReporter interface {
	Intervals() [][]stats.Interval
}

// Run opens, drains and closes an operator, returning all batches.
func Run(op Operator) ([]*storage.Batch, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	var out []*storage.Batch
	for {
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		// Result boundary: resolve any selection vector so callers see dense
		// batches (and the selection buffer returns to the pool).
		b = b.Materialize(nil)
		if b.Len() > 0 {
			out = append(out, b)
		}
	}
}

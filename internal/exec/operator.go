// Package exec implements the physical, batch-at-a-time execution engine,
// and it has one executor: the morsel-driven pipeline (PipelineOp). Every plan
// a planner emits is a spine — (Scan [→ Sampler] | SynopsisScan) →
// {Filter|Join}* — ending in one of two sinks: weighted hash aggregation
// with single-pass error tracking (an Aggregate root), or the sketch-join's
// per-key lookup (a SketchJoin root, paper §II: Join+Aggregate collapsed
// into one terminal), under an optional Sort. Compile lowers such a plan to
// one run and has no other lowering; Run runs it once and returns its one
// batch. Nothing in the package pulls batches: the spine pushes them.
//
// What runs serially, once, before the worker pool starts: each join's build
// side — σ(base table), a scan with an optional filter, read once by the
// spine's own read loop (buildSide.drain) and indexed into one shared join
// table — and an inline sketch build, the same read into the build side's
// exact (count, sum) per join key, one row per key. Samples live only on the
// spine: the planner puts the fact table first, so no build side is ever
// sampled and a joined row's weight is its probe row's. Then workers claim
// fixed-size row-range morsels of the probe side from a shared dispenser,
// run the whole spine on each as one push loop with worker-local state, and
// fold into per-morsel partial sink tables that merge in morsel index order,
// with per-morsel RNG streams split deterministically from the query seed —
// so results, cost counters and built synopses are byte-identical at any
// worker count. A Sort above the sink orders the handful of group rows it
// emitted (sortSpec).
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

// RunStats accumulates the logical work counters the simulated-cluster cost
// model converts to seconds, plus every synopsis built as a byproduct of the
// run (paper §III: "all synopses are constructed as byproducts of query
// answering").
type RunStats struct {
	BaseBytes      int64 // cold bytes scanned from base tables
	WarehouseBytes int64 // bytes scanned from materialized synopses
	CPUTuples      int64 // tuples pushed through a run's stages
	ShuffleBytes   int64 // full-width row bytes exchanged for joins/aggregations
	OutputRows     int64

	Built []Built // the byproducts the run kept (Context.Materialize)
}

// Built records a synopsis the run built as a byproduct and kept: the node
// that built it (a sampler or an inline sketch-join), its descriptor id, its
// payload, and the row count of the table version the run bound for it —
// the data it summarizes, which orders rebuilds of one synopsis by freshness
// (row counts only grow under append).
type Built struct {
	Node       plan.Node
	ID         uint64
	Synopsis   synopses.Stored
	SourceRows int64
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

// Context carries per-run state shared by a run's stages.
type Context struct {
	Confidence float64 // confidence level for reported intervals
	Stats      *RunStats
	// Materialize maps each node whose synopsis the tuner chose to keep — a
	// sampler or an inline sketch-join — to the synopsis' descriptor id; the
	// run records what each builds in Stats.Built. The map is fully
	// populated before Compile, which binds whether a node keeps its
	// synopsis, and only read afterwards.
	Materialize map[plan.Node]uint64
	// Workers is the intra-query parallelism degree of the morsel-driven
	// executor; 0 means runtime.NumCPU(). Results are byte-identical for any
	// value, whichever sink the plan ends in (see PipelineOp).
	Workers int
	// MorselRows overrides the morsel granularity (rows per morsel); 0 means
	// DefaultMorselRows. Changing it changes the per-morsel sampler streams,
	// so it is part of a query's reproducibility key.
	MorselRows int
	// Pool lends a run's morsel workers and build sides the buffers their
	// stages fill batch after batch, once when each starts and back when it
	// is done (storage.VecPool documents the contract). Nil — the NewContext
	// default — allocates them fresh, so results never depend on it; the
	// engine threads its own pool, which keeps the memory warm across
	// queries.
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
	// TraceNodes, when non-nil, enables per-node tracing: Compile registers
	// a trace node here for the run's root, a Sort above it and every build
	// side's Scan and Filter, keyed by the plan node, and the run records
	// their counters (tracer). Per-query state — never shared across runs or
	// copied into morsel contexts (the spine's fused nodes account their
	// work at the sink's node).
	TraceNodes map[plan.Node]*obs.TraceNode
	// Clock times traced nodes. Always non-nil (NewContext defaults to
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
		Confidence:  confidence,
		Stats:       &RunStats{},
		Materialize: make(map[plan.Node]uint64),
		Clock:       obs.Frozen{},
	}
}

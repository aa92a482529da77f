// Package exec implements the physical, batch-at-a-time (Volcano-with-
// vectors) execution engine: scans, filters, hash joins, weighted hash
// aggregation with single-pass error tracking, the sampler operators
// (pipelined, with materialization as a byproduct — paper §III), the
// sketch-join operator, and the compiler from logical plans.
//
// Scan→sample→filter→join→aggregate chains — every aggregate a planner
// emits, single-table or join-shaped — compile to the morsel-driven
// ParallelAggOp, and Compile has no other lowering for an Aggregate: join
// build sides are hashed once into partitioned shared tables, workers claim
// fixed-size row-range morsels of the probe side from a shared dispenser and
// merge per-worker partial hash tables, with per-morsel RNG streams split
// deterministically from the query seed so results are byte-identical at any
// worker count.
//
// The Volcano pair stays for stated reasons only. HashAggOp is reference-only:
// no plan compiles to it; join_test.go and parallel_test.go build it by hand
// as the oracle the morsel path must equal.
// HashJoinOp runs the join subtrees under a sketch-join's probe side (and any
// join inside a build side), and is the join half of the same oracle. Both
// share their inner loops with the morsel path (aggTable, joinProber.probe),
// so the reference costs no second algorithm.
//
// Fixed-width single-column join keys are indexed without a Go map (a dense
// offset array or an open-addressing table behind joinTable.lookupWord), and
// a build side made only of scans, filters and joins is built once per table
// version: JoinCache keeps the immutable table and the cost the build
// charged, and a later run replays the cost instead of rebuilding.
package exec

import (
	"math"
	"sort"

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
	ShuffleBytes   int64 // bytes exchanged for joins/aggregations
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
	// value (see ParallelAggOp).
	Workers int
	// MorselRows overrides the morsel granularity (rows per morsel); 0 means
	// DefaultMorselRows. Changing it changes the per-morsel sampler streams,
	// so it is part of a query's reproducibility key.
	MorselRows int
	// DisablePrune turns zone-map partition pruning off. Pruning is sound —
	// it never changes results, only the scan-byte and tuple charges — so the
	// flag exists for A/B cost measurement and the pruning soundness tests.
	DisablePrune bool
	// Pool recycles batch/vector memory between operators of this run. Batches
	// transfer ownership downstream; the final consumer releases after copying
	// out (storage.VecPool documents the contract). A nil pool degrades every
	// pool-aware operator to plain allocation, so results never depend on it.
	Pool *storage.VecPool
	// Joins keeps built join tables across runs (see JoinCache). Nil — the
	// NewContext default — builds every join's table per run; the engine
	// threads its own cache here beside Pool. A cached table is immutable
	// and cache-owned, so runs and morsel workers share it without locking
	// and never release its rows.
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

// IntervalReporter is implemented by the terminal aggregation operators;
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

// groupKey builds a deterministic byte key from selected columns of a row.
func groupKey(dst []byte, vecs []*storage.Vector, cols []int, row int) []byte {
	dst = dst[:0]
	for _, c := range cols {
		v := vecs[c]
		switch v.Typ {
		case storage.Int64:
			x := uint64(v.I64[row])
			dst = append(dst, 1, byte(x), byte(x>>8), byte(x>>16), byte(x>>24),
				byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56))
		case storage.Float64:
			x := math.Float64bits(v.F64[row])
			dst = append(dst, 2, byte(x), byte(x>>8), byte(x>>16), byte(x>>24),
				byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56))
		case storage.String:
			// Length-prefixed, not NUL-terminated: a terminator byte lets
			// NUL-embedded strings collide across column boundaries (e.g. the
			// two-column keys ("a\x00\x03b","c") and ("a","b\x00\x03c") encode
			// to the same bytes under termination).
			s := v.Str[row]
			n := uint32(len(s))
			dst = append(dst, 3, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
			dst = append(dst, s...)
		case storage.Bool:
			if v.B[row] {
				dst = append(dst, 4, 1)
			} else {
				dst = append(dst, 4, 0)
			}
		}
	}
	return dst
}

// sortRowsByValues orders row indices by the given value tuples
// lexicographically — used for deterministic aggregate output.
func sortRowsByValues(keys [][]storage.Value) []int {
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := keys[idx[a]], keys[idx[b]]
		for i := range ka {
			if ka[i].Equal(kb[i]) {
				continue
			}
			return ka[i].Less(kb[i])
		}
		return false
	})
	return idx
}

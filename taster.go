// Package taster is a self-tuning, elastic, online approximate query
// processing engine — a from-scratch Go implementation of "Taster:
// Self-Tuning, Elastic and Online Approximate Query Processing" (Olma,
// Papapetrou, Appuswamy, Ailamaki; ICDE 2019).
//
// Taster answers SQL aggregate queries approximately by injecting samplers
// and sketches into query plans at runtime. The synopses it builds are
// byproducts of query execution: they cost the query nothing extra, land in
// an in-memory buffer, and a tuner decides after every query which of them
// to keep in a quota-bounded warehouse so that future queries reuse them.
// The warehouse adapts continuously to the workload and to runtime storage
// budget changes.
//
// Quick start:
//
//	cat := taster.NewCatalog()
//	// ... register tables via taster.TableBuilder ...
//	eng, err := taster.Open(cat, taster.Options{StorageBudget: 1 << 28})
//	res, err := eng.Query(`SELECT region, SUM(amount) FROM sales
//	    JOIN customers ON sales.cust = customers.id
//	    GROUP BY region
//	    ERROR WITHIN 10% AT CONFIDENCE 95%`)
//	for i, row := range res.Rows {
//	    fmt.Println(row, "±", res.Intervals[i][0].HalfWidth)
//	}
package taster

import (
	"github.com/tasterdb/taster/internal/baselines"
	"github.com/tasterdb/taster/internal/core"
	"github.com/tasterdb/taster/internal/obs"
	"github.com/tasterdb/taster/internal/sqlparser"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/tuner"
)

// Catalog registers the base tables an engine can query.
type Catalog = storage.Catalog

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return storage.NewCatalog() }

// Schema, Col and Type describe table shapes.
type (
	// Schema is an ordered list of columns.
	Schema = storage.Schema
	// Col is one column: name (qualify as "table.column") and type.
	Col = storage.Col
	// Type is a column type.
	Type = storage.Type
)

// Column types.
const (
	Int64   = storage.Int64
	Float64 = storage.Float64
	String  = storage.String
	Bool    = storage.Bool
)

// TableBuilder accumulates rows for a new table.
type TableBuilder = storage.Builder

// NewTableBuilder starts a table. Column names should be qualified with the
// table name ("sales.amount") so SQL references bind unambiguously.
func NewTableBuilder(name string, schema Schema) *TableBuilder {
	return storage.NewBuilder(name, schema)
}

// Value is a dynamically typed scalar (result cells).
type Value = storage.Value

// Interval is an estimate with its confidence half-width.
type Interval = stats.Interval

// Accuracy is an error-at-confidence requirement.
type Accuracy = stats.AccuracySpec

// Options configures an engine.
type Options struct {
	// StorageBudget is the synopsis warehouse quota in bytes. The paper
	// expresses it as a fraction of the dataset; 0 means 25% of the
	// catalog's current size.
	StorageBudget int64
	// BufferSize is the in-memory synopsis buffer quota (0 → budget/4).
	BufferSize int64
	// Window is the tuner's initial sliding-window length (0 → 10); the
	// window adapts online unless FixedWindow is set.
	Window      int
	FixedWindow bool
	// DefaultAccuracy applies to queries without an ERROR WITHIN clause
	// (zero value → 10% at 95%).
	DefaultAccuracy Accuracy
	// Seed makes sampling reproducible.
	Seed uint64
	// SimulatedScale activates the simulated-cluster cost model that treats
	// the registered data as a miniature of a large cluster-resident
	// dataset (used by the experiments; optional for library users).
	SimulatedScale bool
	// Workers caps the morsel-driven executor's intra-query parallelism;
	// 0 means all CPUs. Results are byte-identical for any worker count.
	Workers int
	// PartitionRows tiles every registered table into fixed-size partitions
	// of at most this many rows. Each partition carries a zone map
	// (per-column min/max) that lets scans skip partitions a filter provably
	// rejects, and an append copies only the tail partition, sharing every
	// other one with the previous table version. Query answers are
	// bit-identical for any partitioning — only cost changes. 0 keeps
	// tables monolithic.
	PartitionRows int
	// MaxStaleness is the bounded-staleness policy for reuse under online
	// ingestion: the largest fraction of source rows a materialized synopsis
	// may have missed (via Ingest) while still answering queries. 0 (the
	// default) serves only fully fresh synopses — any append disqualifies
	// affected synopses until they are refreshed; a negative value disables
	// the bound (reuse regardless of staleness).
	MaxStaleness float64
	// WarehouseDir makes the synopsis warehouse disk-backed and the engine
	// restartable: synopses the tuner keeps are durably written there (and
	// dropped from RAM until reused), and Open recovers the previous
	// incarnation's warehouse, metadata and tuning window from the
	// directory's manifest — a warm restart answers its first queries from
	// recovered synopses instead of re-tasting the workload. Empty (the
	// default) keeps everything in memory and restarts cold.
	WarehouseDir string
	// SynchronousTuning schedules the self-tuning round inline on every
	// query (tune → evict/promote → execute → admit, all on the calling
	// goroutine) instead of on the default background service; it is the
	// same round either way. Sequential runs then become byte-deterministic
	// — the right setting for reproducible experiments and demos. The
	// default (false) keeps tuning off the query critical path entirely:
	// queries serve lock-free against an atomically published tuning
	// snapshot and a background service applies retention decisions between
	// queries; use Drain/Quiesce when a test or benchmark needs the tuner
	// caught up.
	SynchronousTuning bool
	// PlanCacheSize bounds the serving fast path's plan-set cache, in
	// entries: with the default asynchronous tuning, a repeated query
	// shape skips planning entirely (the cache key covers the canonical
	// query text, every bound table epoch and the published tuning
	// snapshot's identity, so a stale hit is impossible by construction).
	// 0 (the default) means 4096 entries; negative disables caching.
	// Ignored with SynchronousTuning.
	PlanCacheSize int
	// Metrics, when non-nil, receives engine-wide operational counters:
	// queries served, latency percentiles, plan-cache traffic, tuning
	// rounds, warehouse spills, pool recycling, executor dispatch. The
	// registry is write-only from the engine — enabling it never changes
	// an answer — and one registry may be shared across engines. Read it
	// with Engine.MetricsSnapshot or serve it live via obs/httpexport.
	// Nil (the default) disables the layer entirely.
	Metrics *Metrics
	// Trace enables per-query execution traces: Result.Trace carries an
	// EXPLAIN-ANALYZE-style tree of per-operator rows, batches, selection
	// density, materialized synopsis rows and stage durations. Traced and
	// untraced runs return byte-identical results.
	Trace bool
}

// Metrics is the engine-wide metrics registry (see Options.Metrics).
type Metrics = obs.Metrics

// MetricsSnapshot is a point-in-time copy of every engine metric.
type MetricsSnapshot = obs.MetricsSnapshot

// NewMetrics returns a ready metrics registry to pass as Options.Metrics.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// Engine is a Taster instance. It is safe for concurrent use: queries
// issued from many goroutines plan and execute in parallel (each one also
// parallelized internally by the morsel-driven executor). With the default
// asynchronous tuning, the query path acquires no engine-wide mutex — the
// tuner runs in the background and publishes its decisions as immutable
// snapshots the serving path reads atomically.
type Engine struct {
	inner *core.Engine
	cat   *Catalog
}

// Open creates an engine over the catalog. With Options.WarehouseDir it
// opens the persistent warehouse and replays any previous incarnation's
// manifest (warm restart); the error is non-nil only when that directory
// cannot be opened or its manifest is unreadable — individually corrupt
// synopsis files recover to a consistent cold state instead of failing.
func Open(cat *Catalog, opts Options) (*Engine, error) {
	if opts.StorageBudget <= 0 {
		opts.StorageBudget = cat.TotalBytes() / 4
		if opts.StorageBudget <= 0 {
			opts.StorageBudget = 64 << 20
		}
	}
	if opts.BufferSize <= 0 {
		opts.BufferSize = opts.StorageBudget / 4
	}
	model := storage.DefaultCostModel()
	if opts.SimulatedScale {
		var rows int64
		for _, n := range cat.Names() {
			if t, err := cat.Table(n); err == nil {
				rows += int64(t.NumRows())
			}
		}
		model = storage.ScaledCostModel(cat.TotalBytes(), rows)
	}
	tcfg := tuner.DefaultConfig()
	if opts.Window > 0 {
		tcfg.Window = opts.Window
	}
	tcfg.Adaptive = !opts.FixedWindow
	inner, err := core.Open(cat, core.Config{
		Mode:            core.ModeTaster,
		StorageBudget:   opts.StorageBudget,
		BufferSize:      opts.BufferSize,
		CostModel:       model,
		Tuner:           tcfg,
		DefaultAccuracy: opts.DefaultAccuracy,
		Seed:            opts.Seed,
		Workers:         opts.Workers,
		PartitionRows:   opts.PartitionRows,
		MaxStaleness:    opts.MaxStaleness,
		Synchronous:     opts.SynchronousTuning,
		PlanCacheSize:   opts.PlanCacheSize,
		WarehouseDir:    opts.WarehouseDir,
		Metrics:         opts.Metrics,
		Trace:           opts.Trace,
	})
	if err != nil {
		return nil, err
	}
	return &Engine{inner: inner, cat: cat}, nil
}

// MustOpen is Open for programs that treat a failed engine start as fatal
// (examples, demos); it panics on error.
func MustOpen(cat *Catalog, opts Options) *Engine {
	e, err := Open(cat, opts)
	if err != nil {
		panic(err)
	}
	return e
}

// RecoveredSynopses reports how many materialized synopses the engine
// restored from Options.WarehouseDir at Open (0 for cold starts).
func (e *Engine) RecoveredSynopses() int { return e.inner.Recovered() }

// Result is a completed query.
type Result struct {
	// Columns names the result columns.
	Columns []string
	// Rows holds the result values (group-by columns, then aggregates).
	Rows [][]Value
	// Intervals holds, per row, the confidence interval of every aggregate
	// cell. Exact results have zero-width intervals.
	Intervals [][]Interval
	// Stats reports how the query was answered.
	Stats QueryStats
	// Trace is the rendered per-operator execution trace (empty unless
	// Options.Trace is set).
	Trace string
}

// QueryStats is per-query telemetry.
type QueryStats struct {
	// Plan describes the chosen plan ("exact", "reuse sample #3 ...", ...).
	Plan string
	// PlanTree is the full plan rendering.
	PlanTree string
	// ReusedSynopses / CreatedSynopses identify warehouse activity.
	ReusedSynopses  []uint64
	CreatedSynopses []uint64
	// SimulatedSeconds is the cluster-time estimate (only meaningful with
	// Options.SimulatedScale); WallSeconds is measured.
	SimulatedSeconds float64
	WallSeconds      float64
	// WarehouseBytes is the warehouse occupancy after the query.
	WarehouseBytes int64
}

// Query parses, plans, tunes and executes one SQL query. It may be called
// concurrently from any number of goroutines.
func (e *Engine) Query(sql string) (*Result, error) {
	q, err := sqlparser.Parse(sql, e.cat)
	if err != nil {
		return nil, err
	}
	res, err := e.inner.Execute(q)
	if err != nil {
		return nil, err
	}
	return &Result{
		Columns:   res.Columns,
		Rows:      res.Rows,
		Intervals: res.Intervals,
		Trace:     res.Trace,
		Stats: QueryStats{
			Plan:             res.Report.PlanDesc,
			PlanTree:         res.Report.PlanTree,
			ReusedSynopses:   res.Report.UsedSynopses,
			CreatedSynopses:  res.Report.CreatedSynopses,
			SimulatedSeconds: res.Report.SimSeconds,
			WallSeconds:      res.Report.WallSeconds,
			WarehouseBytes:   res.Report.WarehouseBytes,
		},
	}, nil
}

// SetStorageBudget changes the warehouse quota at runtime; the tuner
// immediately re-evaluates the stored synopses (storage elasticity, §V).
func (e *Engine) SetStorageBudget(bytes int64) { e.inner.SetStorageBudget(bytes) }

// Drain blocks until the background tuner has processed every query served
// before the call — the barrier that makes an Execute→Drain loop
// deterministic. No-op with SynchronousTuning.
func (e *Engine) Drain() { e.inner.Drain() }

// Quiesce drains the background tuner and republishes its state from the
// current warehouse and metadata, so subsequent queries serve fully
// caught-up tuning decisions. With SynchronousTuning there is nothing to
// drain: every query's round has already run.
func (e *Engine) Quiesce() { e.inner.Quiesce() }

// Close stops the background tuning service and, with WarehouseDir set,
// writes the final checkpoint (buffer payloads included) so the next Open
// warm-restarts from it. Pending observations are discarded — Drain first
// if they matter. Safe to call multiple times and on synchronous engines,
// so callers may always defer it.
func (e *Engine) Close() error { return e.inner.Close() }

// Ingest appends the builder's rows to a registered table (the builder must
// have been created with the table's schema). Running queries keep the
// snapshot they started on; subsequent queries see the new rows. Synopses
// built before the append become stale — by the share of the table's rows
// they never saw, read from the catalog, so rows appended to it by another
// engine count too — and are refreshed or disqualified according to
// Options.MaxStaleness. Returns the table's new epoch (version counter).
func (e *Engine) Ingest(table string, rows *TableBuilder) (uint64, error) {
	delta, err := rows.TryBuild(1)
	if err != nil {
		return 0, err
	}
	return e.inner.Ingest(table, delta)
}

// Hint pre-builds a pinned uniform sample of a table offline, so that the
// very first queries over it are already fast. stratCols names the grouping
// the analysis needs — the sample is sized for its average group and pinned
// at the default accuracy, 10 % at 95 % confidence; aggCols the columns
// that will be aggregated.
func (e *Engine) Hint(table string, stratCols, aggCols []string) error {
	_, err := baselines.ApplyHints(e.inner, []baselines.Hint{{
		Table: table, StratCols: stratCols, AggCols: aggCols,
	}}, storage.DefaultCostModel(), 1)
	return err
}

// MetricsSnapshot samples the metrics registry plus the engine-level gauges
// (warehouse occupancy, plan-cache residency, tuning snapshot version). Safe
// to call concurrently with queries and ingests. Without Options.Metrics the
// counters are all zero and only the gauges are live.
func (e *Engine) MetricsSnapshot() MetricsSnapshot { return e.inner.MetricsSnapshot() }

// WarehouseUsage returns (bufferBytes, warehouseBytes) currently occupied.
func (e *Engine) WarehouseUsage() (buffer, warehouse int64) {
	return e.inner.Warehouse().Usage()
}

// Synopses returns one human-readable line per synopsis the engine has
// stored: the buffer tier, then the warehouse tier, each by id.
func (e *Engine) Synopses() []string { return e.inner.Synopses() }

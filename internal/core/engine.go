// Package core wires Taster together: for every query it runs the
// cost-based planner, chooses the physical plan, executes it (materializing
// synopses as byproducts into the in-memory buffer), and updates the
// metadata store — the full §III execution workflow — while a tuner decides
// which synopses the quota-bounded warehouse keeps.
//
// Concurrency model: Engine is safe for concurrent use. Every query, in
// every mode, is one pipeline: load the published tuning snapshot (warehouse
// view + the tuner's keep/gain state) with one atomic pointer read, plan
// against its view, choose through the mode's policy, execute, and hand the
// observation to the tuning round. There is one round (roundLocked: admit
// byproducts, fold observations, select S*, apply evictions/promotions,
// publish a new snapshot RCU-style) and two schedules for it. By default a
// background service drains queued observations into batched rounds, so
// Execute never takes the tuning mutex. Config.Synchronous runs the same
// round inline on the calling goroutine, before execution and under tuneMu,
// for byte-deterministic experiments; see docs/ARCHITECTURE.md for the full
// design. Each *planner.Query value must be used by one Execute call at a
// time (the engine assigns its ID and defaults its accuracy in place).
package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tasterdb/taster/internal/exec"
	"github.com/tasterdb/taster/internal/meta"
	"github.com/tasterdb/taster/internal/obs"
	"github.com/tasterdb/taster/internal/persist"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/planner"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
	"github.com/tasterdb/taster/internal/tuner"
	"github.com/tasterdb/taster/internal/warehouse"
)

// Mode selects the engine's behaviour, letting the same machinery serve as
// the paper's baselines.
type Mode uint8

// Engine modes.
const (
	// ModeTaster is the full system: online approximation + materialization
	// + reuse + tuning.
	ModeTaster Mode = iota
	// ModeQuickr injects samplers per query but never materializes or
	// reuses synopses (the online-AQP baseline, paper §VI).
	ModeQuickr
	// ModeExact always runs the exact plan (the vanilla-SparkSQL baseline).
	ModeExact
	// ModeOffline answers from pre-built (pinned) synopses when one
	// matches and falls back to the exact plan otherwise — no query-time
	// sampling, no materialization. This is the BlinkDB-style behaviour.
	ModeOffline
)

// String returns the mode name.
func (m Mode) String() string {
	names := [...]string{"taster", "quickr", "exact", "offline"}
	if int(m) >= len(names) {
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
	return names[m]
}

// Config configures an Engine.
type Config struct {
	// Mode selects full Taster or a baseline behaviour.
	Mode Mode
	// StorageBudget is the warehouse quota in bytes (the paper expresses it
	// as a fraction of the dataset size).
	StorageBudget int64
	// BufferSize is the in-memory synopsis buffer quota in bytes.
	BufferSize int64
	// CostModel is the simulated cluster; zero value → defaults.
	CostModel storage.CostModel
	// Tuner configures the sliding window; zero value → defaults.
	Tuner tuner.Config
	// DefaultAccuracy applies to queries without an ERROR WITHIN clause.
	DefaultAccuracy stats.AccuracySpec
	// Seed drives all sampling randomness.
	Seed uint64
	// Workers caps the morsel-driven executor's intra-query parallelism;
	// 0 means runtime.NumCPU(). Results are byte-identical for any value.
	// An explicit value (>0) additionally informs the planner's cost model:
	// parallelizable pipeline CPU work is divided by it, so plan choice
	// reflects the parallel runtime. The default 0 leaves plan costing at
	// serial parallelism so plan choice stays machine-independent.
	Workers int
	// PartitionRows splits every catalog table into fixed-size partitions of
	// this many rows (the last partition may be shorter; appends extend it
	// and open new partitions past it). Each partition carries a zone map
	// that lets filtered scans skip it, and an append copies only the tail
	// partition, sharing the rest with the previous version. 0 (the default)
	// leaves tables as registered — effectively monolithic. Query results
	// are byte-identical for any value; only costs change.
	PartitionRows int
	// MaxStaleness bounds synopsis staleness under online ingestion: a
	// materialized synopsis that has missed more than this fraction of its
	// source rows (see meta.Entry.Staleness) is disqualified from answering
	// queries; within the bound, reuse is discounted proportionally so
	// refresh builds win as data drifts. 0 (the default) serves only fully
	// fresh synopses; negative disables the bound.
	MaxStaleness float64
	// Synchronous schedules ModeTaster's tuning round inline instead of on
	// the background service: every Execute runs the round on the calling
	// goroutine, under the tuning mutex, before it executes. Plan choice,
	// materialization, eviction and promotion then see the current query's
	// own observation, which makes sequential runs byte-deterministic — the
	// experiments and the paper-figure reproductions rely on it. The
	// default (false) serves queries lock-free against the published
	// snapshot and applies tuning in the background.
	Synchronous bool
	// PlanCacheSize bounds the serving fast path's plan-set cache (in
	// entries). Asynchronous ModeTaster memoizes candidate enumeration per
	// (canonical query signature, table epochs, snapshot identity): a
	// repeated query shape skips planner.PlanWith entirely and only re-runs
	// plan choice against the published gains. Invalidation is by
	// construction — ingests bump table epochs and warehouse rearrangements
	// bump the snapshot identity, so stale entries are never consulted. 0
	// (the default) means 4096 entries; negative disables caching.
	// Synchronous and baseline modes never cache: a workload that tunes
	// inline publishes a new snapshot identity on most queries, so every
	// entry would pin a plan set (and the sample payloads it references)
	// that no later query can hit.
	PlanCacheSize int
	// Metrics, when non-nil, is the registry every engine layer writes its
	// counters into (plan cache, pool, disk tier, executor dispatch, tuning
	// service, serving path). The registry is strictly write-only from the
	// serving and tuning paths — no engine decision ever reads it — so
	// enabling metrics cannot change any answer or plan choice. One registry
	// may be shared by several engines. Nil (the default) compiles the whole
	// layer down to nil-pointer tests.
	Metrics *obs.Metrics
	// Trace enables per-query execution traces: every Execute records
	// per-operator row/batch/selectivity counters and stage durations and
	// renders them as an EXPLAIN-ANALYZE tree on Result.Trace. Tracing
	// observes the batch stream without touching it — traced and untraced
	// runs are byte-identical (enforced by TestObsDifferential).
	Trace bool
	// WarehouseDir makes the warehouse tier disk-backed and the engine
	// restartable: synopses promoted to the warehouse are durably written
	// there (payloads dropped from RAM, faulted back lazily on reuse), a
	// crash-safe manifest checkpoints the tuning state after every round,
	// and Open replays it on start — a warm restart serves the workload
	// with the same answers and plan choices as an uninterrupted engine.
	// Empty (the default) keeps both tiers memory-resident.
	WarehouseDir string
}

// Report is the per-query telemetry the experiments aggregate.
type Report struct {
	QueryID         int
	Mode            Mode
	PlanDesc        string
	PlanTree        string
	UsedSynopses    []uint64
	CreatedSynopses []uint64
	// Refreshed lists created synopses that replaced a stale stored copy.
	// Under asynchronous tuning admissions happen in the background, so
	// refreshes are not attributable to the creating query and this field
	// stays empty; the registry's WarehouseRefreshes counts them under both
	// schedules.
	Refreshed []uint64
	// Evicted/Promoted list the warehouse rearrangements of this query's
	// inline tuning round (synchronous mode only; the registry's
	// WarehouseEvictions and WarehousePromotions count them under both
	// schedules).
	Evicted        []uint64
	Promoted       []uint64
	EstimatedCost  float64 // planner's estimate for the chosen plan
	EstimatedExact float64 // planner's estimate for the exact plan
	SimSeconds     float64 // measured simulated cluster time
	ScanBytes      int64   // base-table bytes actually scanned (post zone-map pruning)
	WallSeconds    float64
	WarehouseBytes int64 // warehouse usage after the query
	BufferBytes    int64
	Window         int // tuner window length (as published) after the query
}

// Result is a completed query: rows plus estimation intervals and telemetry.
type Result struct {
	Columns   []string
	Rows      [][]storage.Value
	Intervals [][]stats.Interval
	Report    Report
	// Trace is the rendered per-operator execution trace (empty unless
	// Config.Trace is set).
	Trace string
}

// Engine is a Taster instance over a catalog.
type Engine struct {
	cfg   Config
	cat   *storage.Catalog
	store *meta.Store
	wh    *warehouse.Manager
	pl    *planner.Planner
	tn    *tuner.Tuner

	// queryCount assigns query IDs without any lock.
	queryCount atomic.Int64

	// tuneMu serializes the tuner's window state and every warehouse/
	// metadata rearrangement (tuning rounds under either schedule, elastic
	// budget changes, pinned-hint installs, ingest republishes). In the
	// default asynchronous ModeTaster configuration the Execute path never
	// acquires it — queries read the published snapshot instead.
	tuneMu sync.Mutex
	// snap is the RCU-published tuning snapshot the lock-free serving path
	// reads; snapVersion (under tuneMu) numbers publishes.
	snap        atomic.Pointer[tuningSnapshot]
	snapVersion uint64

	// choose is the mode's plan-choice policy, selected once at Open.
	choose choosePolicy
	// svc is the background tuning service, the asynchronous schedule of the
	// tuning round; inline marks the synchronous schedule (Execute runs the
	// round itself). Baseline modes run no tuner: svc is nil, inline false.
	svc    *tuningService
	inline bool

	// planCache memoizes plan sets for the lock-free serving path (nil when
	// disabled or in modes without the asynchronous service).
	planCache *planner.PlanCache

	// vecPool recycles batch/vector memory across every query this engine
	// serves (sync.Pool-backed, so concurrent Executes share it safely).
	// Per-query pools would recycle only within one query and rebuild their
	// capacity from scratch each time; the engine-wide pool keeps warm
	// backing arrays across the whole serving workload.
	vecPool *storage.VecPool
	// joinCache keeps built join tables across queries, keyed by build
	// subtree text and bound table versions (exec.JoinCache): a dimension
	// table is indexed once per version (storage.Table.KeyIndex), and a
	// build side's filter runs once per version and filter, not once per
	// query; an entry is that filter's survivor mask and its charge.
	joinCache *exec.JoinCache

	// db is the warehouse directory's disk store (nil without
	// Config.WarehouseDir); persistErr remembers the first failed
	// background checkpoint (written under tuneMu, surfaced by Close);
	// recovered counts the items the manifest replay reinstated.
	db         *persist.Store
	persistErr error
	recovered  int

	// mx is the metrics registry (Config.Metrics; nil disables the layer)
	// and clock the timing source: frozen under Config.Synchronous, the wall
	// clock otherwise.
	mx    *obs.Metrics
	clock obs.Clock
}

// New creates an engine. A zero CostModel or Tuner config is replaced by
// defaults; the default accuracy defaults to the paper's 10%@95%. New
// panics when Config.WarehouseDir is set and the directory cannot be
// opened or its manifest is unrecoverable — restartable engines should use
// Open, which returns the error instead.
func New(cat *storage.Catalog, cfg Config) *Engine {
	e, err := Open(cat, cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Open creates an engine, recovering persisted warehouse state when
// Config.WarehouseDir names a directory with a previous incarnation's
// manifest (warm restart). Individually corrupt or truncated item files —
// a crash mid-spill — are dropped to a consistent never-materialized
// state, not errors; only an unopenable directory or an unreadable
// manifest fails Open — a torn one, one of another format version, or one
// that names a synopsis twice. Open ends by faulting in the heap the next
// collection cycle may grow into (touchHeadroom), so serving does not.
func Open(cat *storage.Catalog, cfg Config) (*Engine, error) {
	if cfg.CostModel == (storage.CostModel{}) {
		cfg.CostModel = storage.DefaultCostModel()
	}
	if cfg.Tuner == (tuner.Config{}) {
		cfg.Tuner = tuner.DefaultConfig()
	}
	if !cfg.DefaultAccuracy.Valid() {
		cfg.DefaultAccuracy = stats.DefaultAccuracy
	}
	if cfg.BufferSize <= 0 {
		cfg.BufferSize = 64 << 20
	}
	if cfg.StorageBudget <= 0 {
		cfg.StorageBudget = 256 << 20
	}
	if cfg.PlanCacheSize == 0 {
		cfg.PlanCacheSize = 4096
	}
	if cfg.PartitionRows > 0 {
		cat.Repartition(cfg.PartitionRows)
	}
	var db *persist.Store
	var sp warehouse.Spiller
	if cfg.WarehouseDir != "" {
		var err error
		if db, err = persist.OpenStore(cfg.WarehouseDir); err != nil {
			return nil, err
		}
		if cfg.Metrics != nil {
			// Before recovery reads through it, so its fault-ins count too.
			db.Obs = &cfg.Metrics.Disk
		}
		sp = db
	}
	store := meta.NewStore(cat)
	wh := warehouse.NewManager(cfg.BufferSize, cfg.StorageBudget, sp)
	pl := planner.New(store, wh, cfg.CostModel)
	pl.Seed = cfg.Seed
	pl.MaxStaleness = cfg.MaxStaleness
	if cfg.Workers > 0 {
		pl.Parallelism = float64(cfg.Workers)
	}
	e := &Engine{
		cfg:     cfg,
		cat:     cat,
		store:   store,
		wh:      wh,
		pl:      pl,
		tn:      tuner.New(cfg.Tuner, store, wh),
		choose:  policyFor(cfg.Mode, store),
		inline:  cfg.Mode == ModeTaster && cfg.Synchronous,
		vecPool: storage.NewVecPool(),
		// Every cacheable build is over base tables, so the catalog's size is
		// the scale of what could ever be worth keeping.
		joinCache: exec.NewJoinCache(cat.TotalBytes()),
		db:        db,
		mx:        cfg.Metrics,
		clock:     obs.Wall{},
	}
	if cfg.Synchronous {
		// Synchronous runs are the byte-deterministic configuration; freezing
		// the clock keeps their latency histograms, round timings and traces
		// reproducible (all durations zero). Asynchronous serving measures
		// real wall time.
		e.clock = obs.Frozen{}
	}
	if e.mx != nil {
		e.vecPool.Obs = &e.mx.Pool
		e.joinCache.Obs = &e.mx.JoinCache
	}
	// Replay the manifest before the engine escapes: recovery runs
	// single-threaded, so no lock ordering applies yet.
	keep, gains := map[uint64]bool{}, map[uint64]float64{}
	if db != nil {
		n, err := e.recoverLocked()
		if err != nil {
			return nil, err
		}
		e.recovered = n
		if n > 0 && cfg.Mode == ModeTaster {
			// Seed the published keep/gain state from the restored window so
			// the lock-free serving path can materialize and protect the
			// recovered set from the first query on (inline rounds recompute
			// it per query anyway). Retune mutates nothing.
			dec := e.tn.Retune()
			keep, gains = dec.Keep, dec.Gains
		}
	}
	// Publish the initial snapshot so the serving path always finds one,
	// then start the background service for asynchronous Taster mode.
	e.publishLocked(keep, gains)
	if cfg.Mode == ModeTaster && !cfg.Synchronous {
		e.svc = newTuningService(e)
		if cfg.PlanCacheSize > 0 {
			e.planCache = planner.NewPlanCache(cfg.PlanCacheSize)
			if e.mx != nil {
				e.planCache.Obs = &e.mx.PlanCache
			}
		}
	}
	touchHeadroom()
	return e, nil
}

// Recovered reports how many materialized synopses the manifest replay
// reinstated at Open (0 for cold starts and memory-resident engines).
func (e *Engine) Recovered() int { return e.recovered }

// Catalog returns the engine's table catalog.
func (e *Engine) Catalog() *storage.Catalog { return e.cat }

// Store exposes the metadata store (read-mostly; used by experiments).
func (e *Engine) Store() *meta.Store { return e.store }

// Warehouse exposes the warehouse manager (used by experiments and hints).
func (e *Engine) Warehouse() *warehouse.Manager { return e.wh }

// Synopses returns one human-readable line per stored synopsis: the buffer
// tier, then the warehouse tier, each by id.
func (e *Engine) Synopses() []string {
	view := e.wh.View()
	var out []string
	for _, tier := range []struct {
		name  string
		items []*warehouse.Item
	}{{"buffer", view.BufferItems()}, {"warehouse", view.WarehouseItems()}} {
		for _, it := range tier.items {
			if ent, ok := e.store.Get(it.ID); ok {
				out = append(out, fmt.Sprintf("%s [%s, %d bytes]", ent.Desc.Label(), tier.name, it.Size))
			}
		}
	}
	return out
}

// Execute plans, chooses and runs one query. It is safe to call from many
// goroutines; in the default asynchronous ModeTaster configuration it
// acquires no engine-wide mutex — tuning state arrives via the published
// snapshot and leaves as a queued observation.
func (e *Engine) Execute(q *planner.Query) (res *Result, err error) {
	start := time.Now()
	if e.mx != nil {
		mstart := e.clock.Now() //taster:clock serving metrics are recorded after the result is final and never feed it
		defer func() {
			if err != nil {
				e.mx.QueryErrors.Inc()
				return
			}
			e.mx.QueriesServed.Inc()
			e.mx.QueryLatencySeconds.Observe(e.clock.Since(mstart).Seconds()) //taster:clock serving metrics are recorded after the result is final and never feed it
		}()
	}

	q.ID = int(e.queryCount.Add(1)) - 1

	if !q.Accuracy.Valid() {
		q.Accuracy = e.cfg.DefaultAccuracy
	}
	if e.cfg.Mode == ModeExact {
		q.Exact = true
	}

	// One snapshot load covers planning AND plan choice, so both see the
	// same instant of tuning state.
	snap := e.snap.Load()
	ps, err := e.planSet(q, snap)
	if err != nil {
		return nil, err
	}

	rep := Report{QueryID: q.ID, Mode: e.cfg.Mode, EstimatedExact: ps.Exact.Cost}
	// The query's record in the tuning window. Only values and the plan set's
	// read-only reuse costs — q may be reused by a later Execute while the
	// observation is still queued.
	seen := tuner.Observation{QueryID: q.ID, ExactCost: ps.Exact.Cost, Reuse: ps.ReuseCost}

	var dec tuner.Decision
	if e.inline {
		// Synchronous schedule: the round runs here, before execution, over
		// this query's own observation, so plan choice, evictions and
		// promotions already account for it. It is the serialization point
		// of a synchronous engine.
		//taster:locked the inline schedule of the tuning round (Config.Synchronous) is the documented serialization point; the lock-free contract covers the asynchronous schedule, where inline is false
		e.tuneMu.Lock()
		dec, rep.Evicted, rep.Promoted = e.roundLocked([]*observation{{obs: seen}}, ps)
		snap = e.snap.Load() // the round's own publish
		e.tuneMu.Unlock()
	} else {
		// Score candidates against the published state; under ModeTaster
		// that materializes exactly the creates the last published S* wants,
		// and this query's influence on the window follows after execution.
		dec = e.choose(ps, snap)
	}
	rep.Window = snap.window

	rep.PlanDesc = dec.Chosen.Desc
	rep.EstimatedCost = dec.Chosen.Cost
	rep.UsedSynopses = dec.Chosen.Uses

	// Execute. The executor seed derives from the canonical plan text, not
	// the query's arrival number, so the randomness a query sees — and with
	// it the sampled result — is reproducible under concurrent serving
	// regardless of interleaving.
	ctx := exec.NewContext(q.Accuracy.Confidence)
	ctx.Pool = e.vecPool // engine-wide: recycles batches across queries
	ctx.Joins = e.joinCache
	ctx.Workers = e.cfg.Workers
	if e.mx != nil {
		ctx.Obs = &e.mx.Exec
	}
	if e.cfg.Trace {
		ctx.TraceNodes = make(map[plan.Node]*obs.TraceNode)
		ctx.Clock = e.clock
	}
	for _, cs := range dec.Materialize {
		ctx.Materialize[cs.Node] = cs.Entry.Desc.ID
	}
	planTree := plan.Format(dec.Chosen.Root)
	op, err := exec.Compile(dec.Chosen.Root, synopses.SeedFromString(planTree, e.cfg.Seed), ctx)
	if err != nil {
		return nil, err
	}
	out, err := exec.Run(op)
	if err != nil {
		return nil, err
	}

	// Byproducts: each carries the row count of the table version *bound
	// into the executed plan* (exec.Built.SourceRows), not the current
	// catalog's, so an append racing between execution and admission
	// registers as staleness instead of being silently absorbed (for samples
	// and sketches alike; a sketch's source is its build side only — the
	// probe tables are not summarized).
	built := ctx.Stats.Built
	for _, b := range built {
		rep.CreatedSynopses = append(rep.CreatedSynopses, b.ID)
	}
	if e.svc != nil {
		// Asynchronous schedule: hand the byproducts and the plan observation
		// to the tuning service; admission, window accounting, set selection
		// and the snapshot publish all happen off this query's critical path.
		e.svc.enqueue(&observation{obs: seen, uses: dec.Chosen.Uses, built: built})
	} else if len(built) > 0 {
		// Synchronous schedule: the round already ran, so only the byproducts
		// remain (baseline policies materialize nothing and never get here).
		//taster:locked inline admission of the synchronous schedule; the asynchronous serving path enqueues above and never takes this branch
		e.tuneMu.Lock()
		rep.Refreshed = e.admitBuiltLocked(built)
		e.republishLocked()
		e.noteCheckpointLocked()
		e.tuneMu.Unlock()
	}

	res = assemble(op.Schema().Names(), out, op.Intervals())
	res.Report = rep
	res.Report.SimSeconds = ctx.Stats.SimulatedSeconds(e.cfg.CostModel)
	res.Report.ScanBytes = ctx.Stats.BaseBytes
	res.Report.WallSeconds = time.Since(start).Seconds()
	res.Report.BufferBytes, res.Report.WarehouseBytes = e.wh.Usage()
	res.Report.PlanTree = planTree
	if ctx.TraceNodes != nil {
		res.Trace = exec.BuildTraceTree(dec.Chosen.Root, ctx.TraceNodes, built).Render()
	}
	return res, nil
}

// planSet returns q's candidate set against the snapshot's warehouse view —
// the engine's one planning entry. With a plan cache the key embeds the
// query's canonical signature, every bound table's epoch and the snapshot
// identity, so a hit is guaranteed to be the plan set a cold PlanWith against
// this exact state would rebuild. Only candidate enumeration is skipped:
// plan choice still scores against the live published gains, and the query's
// observation carries the plan set's reuse costs into the window either way.
func (e *Engine) planSet(q *planner.Query, snap *tuningSnapshot) (*planner.PlanSet, error) {
	if e.planCache == nil {
		return e.pl.PlanWith(q, snap.wh)
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	key := planner.CacheKey(q, snap.ident)
	if ps, ok := e.planCache.Get(key); ok {
		return ps, nil
	}
	ps, err := e.pl.PlanWith(q, snap.wh)
	if err == nil {
		e.planCache.Put(key, ps)
	}
	return ps, err
}

// MetricsSnapshot samples the engine's metrics registry and fills in the
// engine-level gauges the registry cannot know (warehouse occupancy,
// plan-cache residency, published snapshot version). Safe to call
// concurrently with Execute/Ingest/SetStorageBudget — every registry series
// is atomic and the gauges read from their own synchronized sources. With no
// Config.Metrics the counters are all zero and only the gauges are live.
func (e *Engine) MetricsSnapshot() obs.MetricsSnapshot {
	s := e.mx.Snapshot()
	s.PlanCacheEntries = int64(e.planCache.Len())
	if snap := e.snap.Load(); snap != nil {
		s.SnapshotVersion = int64(snap.version)
	}
	s.BufferBytes, s.WarehouseBytes = e.wh.Usage()
	return s
}

// admitLocked places a freshly built synopsis in the buffer, overflowing to
// the warehouse, dropping it if neither tier has room. The caller holds
// tuneMu, so the admit-then-record-freshness pair never interleaves with a
// tuning round's rearrangement; admission itself is atomic in the warehouse
// manager, so two queries concurrently building the same synopsis converge
// on one stored copy.
//
// When a stored copy exists but this rebuild scanned strictly more source
// rows, the rebuild is a *refresh*: the stale copy is atomically replaced
// (pins carry over; plans already executing against the old item keep
// their immutable snapshot). Returns whether this build landed in a tier
// (false when dropped for space or superseded by an at-least-as-fresh
// stored copy) and whether it was a refresh replacement. srcRows is the
// row count of the table version the build scanned (exec.Built.SourceRows);
// row counts are monotone under append, so it orders builds.
func (e *Engine) admitLocked(it *warehouse.Item, id uint64, srcRows int64) (stored, refreshed bool) {
	if ent, ok := e.store.Get(id); ok && e.wh.Has(id) {
		if srcRows <= ent.Desc.BuildRows {
			// The stored copy is at least as fresh as this rebuild (a
			// concurrent build from a newer snapshot won the race, or an
			// equally-stale rebuild): keep its copy AND its metadata —
			// stamping this build's version could mislabel fresh data as
			// stale, and churning an equal copy would report a refresh
			// that recovered nothing.
			return false, false
		}
		// Genuine refresh: this rebuild scanned strictly more source rows.
		// Replace in place — pins carry over (a refresh is not an
		// eviction), and on failure (rebuild fits nowhere) the stale copy
		// and its metadata stay, so the staleness policy keeps seeing it
		// for what it is.
		if _, err := e.wh.Refresh(it); err != nil {
			return false, false
		}
		e.store.SetActualSize(id, it.Size)
		e.store.SetFreshness(id, srcRows)
		return true, true
	}
	// Metadata remembers the measured size even when both tiers are full and
	// the synopsis is dropped, for better future decisions.
	e.store.SetActualSize(id, it.Size)
	if e.wh.Admit(it) == warehouse.AdmitDropped {
		return false, false
	}
	e.store.SetFreshness(id, srcRows)
	return true, false
}

// Ingest appends a batch of rows to a base table (schema must match) — the
// engine's online data-evolution entry point. It is safe under concurrent
// Execute: the catalog swaps in a new immutable table version atomically
// (running queries keep the version they resolved), and the catalog is the
// one record of a table's row count, so a query that binds the new version
// already sees every synopsis over the table as stale by the rows it never
// saw. Returns the table's new epoch.
func (e *Engine) Ingest(table string, delta *storage.Table) (uint64, error) {
	nt, err := e.cat.Append(table, delta)
	if err != nil {
		return 0, fmt.Errorf("core: ingest into %s: %w", table, err)
	}
	if e.mx != nil {
		e.mx.IngestBatches.Inc()
		e.mx.IngestRows.Add(int64(delta.NumRows()))
	}
	e.tuneMu.Lock()
	e.republishLocked()
	e.noteCheckpointLocked()
	e.tuneMu.Unlock()
	return nt.Epoch(), nil
}

// assemble converts a run's batch and its row-aligned intervals into a
// Result. Its rows are carved from one array of cells, each capped at its
// own width, so that an append to one row reallocates it instead of writing
// into the next.
func assemble(columns []string, b *storage.Batch, intervals [][]stats.Interval) *Result {
	res := &Result{Columns: columns, Intervals: intervals}
	n, w := b.Len(), len(b.Vecs)
	if n == 0 {
		return res
	}
	res.Rows = make([][]storage.Value, n)
	all := make([]storage.Value, n*w)
	for i := range res.Rows {
		row := all[:w:w]
		all = all[w:]
		for c, v := range b.Vecs {
			row[c] = v.Get(i)
		}
		res.Rows[i] = row
	}
	return res
}

// SetStorageBudget changes the warehouse quota at runtime and immediately
// retunes, evicting the lowest-gain synopses until the warehouse fits —
// the paper's storage elasticity (§V, §VI-D). The re-evaluated keep set is
// published as a fresh snapshot before returning, so queries planned after
// the call serve against the new budget. Every synopsis it evicts counts
// into the registry's WarehouseEvictions, as a round's evictions do.
func (e *Engine) SetStorageBudget(bytes int64) {
	e.tuneMu.Lock()
	defer e.tuneMu.Unlock()
	e.wh.SetWarehouseQuota(bytes)
	if e.cfg.Mode != ModeTaster {
		return
	}
	dec := e.tn.Retune()
	evicted, _ := e.wh.ApplyMoves(dec.Evict, nil)
	n := int64(len(evicted))
	// A shrink can leave overflow even after set-based eviction (e.g. all
	// remaining synopses beneficial); drop the lowest-marginal-gain
	// leftovers — larger size breaking ties, so each eviction frees the
	// most bytes per unit of forfeited gain — until the quota holds.
	// Failed deletes are skipped, not fatal: one undeletable item must not
	// leave the warehouse permanently over quota.
	if e.wh.Overflow() > 0 {
		items := e.wh.WarehouseItems()
		sort.Slice(items, func(i, j int) bool {
			gi, gj := dec.Gains[items[i].ID], dec.Gains[items[j].ID]
			if gi != gj {
				return gi < gj
			}
			if items[i].Size != items[j].Size {
				return items[i].Size > items[j].Size
			}
			return items[i].ID < items[j].ID
		})
		for _, it := range items {
			if e.wh.Overflow() <= 0 {
				break
			}
			if !it.Pinned && e.wh.Delete(it.ID) == nil {
				n++
			}
		}
	}
	if e.mx != nil {
		e.mx.WarehouseEvictions.Add(n)
	}
	e.publishLocked(dec.Keep, dec.Gains)
	e.noteCheckpointLocked()
}

// PinSample registers an offline-built sample (user hints, §V): it is
// placed directly in the warehouse, marked pinned, and the tuner will never
// evict it. The sample is the one record of its design: a "uniform"
// Strategy files it as a uniform sample, any other as a distinct one, and
// its StratCols are the stratification it is matched on. aggCols and acc
// declare what it was sized for. Pinning is synchronous in every mode — the
// hint is servable the moment the call returns (an immediate snapshot
// republish).
func (e *Engine) PinSample(table string, s *synopses.Sample, aggCols []string, acc stats.AccuracySpec) (uint64, error) {
	e.tuneMu.Lock()
	defer e.tuneMu.Unlock()
	tbl, err := e.cat.Table(table)
	if err != nil {
		return 0, err
	}
	desc := meta.Descriptor{
		Kind:      plan.DistinctSample,
		Table:     tbl.Name,
		StratCols: s.StratCols,
		P:         s.P,
		Delta:     s.Delta,
		AggCols:   aggCols,
		Accuracy:  acc,
	}
	if s.Strategy == "uniform" {
		desc.Kind = plan.UniformSample
	}
	id := e.store.Intern(desc).Desc.ID
	// Freshness is anchored to the rows the sample actually scanned (its
	// validated SourceRows), matching the admit path's plan-bound
	// convention: an ingest racing the offline build — or a hint built from
	// partial data — registers as staleness instead of being silently
	// absorbed by the catalog's current row count.
	rows := int64(s.SourceRows)
	if rows <= 0 {
		rows = int64(tbl.NumRows())
	}
	// An id that is already stored — a hint rebuilt after ingestion — is
	// refreshed in place; a new one goes straight to the warehouse. The pin
	// is the stored item's: a hint that fits nowhere leaves nothing pinned.
	it := warehouse.NewItem(id, s)
	it.Pinned = true
	if e.wh.Has(id) {
		if _, err := e.wh.Refresh(it); err != nil {
			return 0, fmt.Errorf("core: pinning sample: %w", err)
		}
	} else if err := e.wh.PutWarehouse(it); err != nil {
		return 0, fmt.Errorf("core: pinning sample: %w", err)
	}
	e.store.SetActualSize(id, it.Size)
	e.store.SetFreshness(id, rows)
	e.republishLocked()
	if e.db != nil {
		// A pinned hint should be durable the moment the call returns: its
		// payload was spilled by PutWarehouse/Refresh above, so only the
		// manifest write remains. If that write fails the hint IS installed
		// and serving (this engine run answers from it) but would not
		// survive a restart — surface the failure alongside the id so the
		// caller can retry a checkpoint or treat the hint as volatile.
		if err := e.checkpointLocked(false); err != nil {
			return id, fmt.Errorf("core: pinned sample #%d installed but not yet durable: %w", id, err)
		}
	}
	return id, nil
}

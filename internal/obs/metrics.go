package obs

// Metrics is the engine-wide registry: every counter the serving path,
// tuning service, pool, disk tier and executor write. One registry may be
// shared by several engines (the bench harness restarts engines per
// configuration but keeps one registry alive for the export surface); all
// fields are independently atomic, so cross-engine sharing needs no
// coordination.
//
// Construct with NewMetrics — the zero value's histograms have no buckets
// and ignore observations.
type Metrics struct {
	// PlanCache, JoinCache, Pool, Exec and Disk are the hook groups leaf
	// packages receive as pointers (each is nil-safe, so an engine without
	// metrics threads nil and every hook call is one pointer test).
	PlanCache PlanCacheObs
	JoinCache JoinCacheObs
	Pool      PoolObs
	Exec      ExecObs
	Disk      DiskObs

	// Serving path.
	QueriesServed       Counter   // Execute calls that returned a result
	QueryErrors         Counter   // Execute calls that returned an error
	QueryLatencySeconds Histogram // per-query wall latency (Wall clock only)
	IngestBatches       Counter   // Ingest calls accepted
	IngestRows          Counter   // rows appended across all ingests

	// Tuning service.
	TuningRounds       Counter   // batched rounds run (inline rounds included)
	TuningShed         Counter   // observations dropped at a full queue
	TuningQueueDepth   Gauge     // queue occupancy after the last enqueue or gathered batch
	TuningBatchSize    Histogram // observations folded per round
	TuningRoundSeconds Histogram // wall time per round (Wall clock only)

	// Warehouse rearrangements, whichever schedule or entry point made them.
	WarehouseAdmissions Counter // byproducts stored in a tier, refreshes included
	WarehouseRefreshes  Counter // byproducts that replaced a stale stored copy
	WarehouseEvictions  Counter // synopses evicted by tuning rounds and budget shrinks
	WarehousePromotions Counter // synopses promoted from the buffer to the warehouse

	// Snapshot publishes.
	SnapshotPublishes    Counter // tuning snapshots swapped in
	SnapshotIdentCarries Counter // publishes that carried the planning ident forward
}

// NewMetrics returns a ready registry with every histogram initialized.
func NewMetrics() *Metrics {
	m := &Metrics{}
	m.QueryLatencySeconds.init(latencyBuckets)
	m.TuningBatchSize.init(batchSizeBuckets)
	m.TuningRoundSeconds.init(latencyBuckets)
	return m
}

// PlanCacheObs counts the serving fast path's plan-set cache traffic. The
// cache increments these inside its own mutex; the counters stay atomic so
// a shared registry never couples two engines' cache locks.
type PlanCacheObs struct {
	Hits      Counter
	Misses    Counter
	Evictions Counter
}

// Hit records a cache hit.
func (o *PlanCacheObs) Hit() {
	if o != nil {
		o.Hits.Inc()
	}
}

// Miss records a cache miss.
func (o *PlanCacheObs) Miss() {
	if o != nil {
		o.Misses.Inc()
	}
}

// Evict records an LRU eviction.
func (o *PlanCacheObs) Evict() {
	if o != nil {
		o.Evictions.Inc()
	}
}

// JoinCacheObs counts the executor's join-table cache traffic: lookups that
// found a resident table (Hits) or did not (Misses, first sights included),
// builds made resident (Admissions), tables dropped from the LRU tail or
// displaced by a replaced base table (Evictions), and the bytes resident
// now. Incremented inside the cache's mutex; atomic for the same reason as
// PlanCacheObs.
//
// A hit skips the build subtree altogether, and the executor's dispatch
// counters count work actually done: ExecObs.KernelFilterBatches and
// PrunedPartitions (the benchmark's exec.kernel_filter_share denominator and
// exec.pruned_partitions) fall by whatever the skipped build-side filters and
// scans would have added.
type JoinCacheObs struct {
	Hits          Counter
	Misses        Counter
	Admissions    Counter
	Evictions     Counter
	ResidentBytes Gauge
}

// Hit records a lookup served from a resident table.
func (o *JoinCacheObs) Hit() {
	if o != nil {
		o.Hits.Inc()
	}
}

// Miss records a lookup that found no resident table.
func (o *JoinCacheObs) Miss() {
	if o != nil {
		o.Misses.Inc()
	}
}

// Admit records a built table made resident.
func (o *JoinCacheObs) Admit() {
	if o != nil {
		o.Admissions.Inc()
	}
}

// Evict records a resident table dropped.
func (o *JoinCacheObs) Evict() {
	if o != nil {
		o.Evictions.Inc()
	}
}

// Resident records the bytes of built tables now resident.
func (o *JoinCacheObs) Resident(n int64) {
	if o != nil {
		o.ResidentBytes.Set(n)
	}
}

// PoolObs counts the vector pool's borrows: BatchGets every borrow (a
// batch header, a vector, a selection buffer, resolution scratch),
// BatchPuts every return, and AllocMisses every borrow the free lists could
// not serve, so AllocMisses/BatchGets is the pool's miss rate. The fields
// keep their batch-era names, which the benchmark's probes read.
type PoolObs struct {
	BatchGets   Counter
	BatchPuts   Counter
	AllocMisses Counter
}

// Get records one borrow from the pool.
func (o *PoolObs) Get() {
	if o != nil {
		o.BatchGets.Inc()
	}
}

// Put records one return to the free lists.
func (o *PoolObs) Put() {
	if o != nil {
		o.BatchPuts.Inc()
	}
}

// Miss records a borrow the free lists could not serve: a fresh allocation.
func (o *PoolObs) Miss() {
	if o != nil {
		o.AllocMisses.Inc()
	}
}

// ExecObs counts executor work: how many batches the filters' compiled
// selection-vector kernels evaluated, how many partitions zone-map pruning
// skipped, and the leaf reads whose filter took its candidates from a key
// index (KeyIndexReads) with the rows of them no kernel evaluated
// (KeyIndexSparedRows). Counters only — the executor's outputs must not
// depend on the metrics layer, and these are written from morsel workers
// concurrently (atomics make that safe).
type ExecObs struct {
	KernelFilterBatches Counter
	PrunedPartitions    Counter
	KeyIndexReads       Counter
	KeyIndexSparedRows  Counter
}

// Kernel records one filter batch evaluated by the compiled kernels.
func (o *ExecObs) Kernel() {
	if o != nil {
		o.KernelFilterBatches.Inc()
	}
}

// Pruned records n partitions skipped by zone-map pruning.
func (o *ExecObs) Pruned(n int64) {
	if o != nil && n > 0 {
		o.PrunedPartitions.Add(n)
	}
}

// KeyIndexed records one leaf read whose filter took its candidates from a
// key index, and the spared rows of it no kernel evaluated.
func (o *ExecObs) KeyIndexed(spared int64) {
	if o != nil {
		o.KeyIndexReads.Inc()
		o.KeyIndexSparedRows.Add(spared)
	}
}

// DiskObs counts the persistent warehouse tier's traffic: spills (item
// writes), fault-ins (item reads), manifest checkpoints, and payload bytes
// both ways.
type DiskObs struct {
	Spills         Counter
	FaultIns       Counter
	ManifestWrites Counter
	WriteBytes     Counter
	ReadBytes      Counter
}

// ItemWrite records one synopsis payload spilled (n payload bytes).
func (o *DiskObs) ItemWrite(n int64) {
	if o != nil {
		o.Spills.Inc()
		o.WriteBytes.Add(n)
	}
}

// ItemRead records one synopsis payload faulted in (n payload bytes).
func (o *DiskObs) ItemRead(n int64) {
	if o != nil {
		o.FaultIns.Inc()
		o.ReadBytes.Add(n)
	}
}

// Manifest records one manifest checkpoint (n manifest bytes).
func (o *DiskObs) Manifest(n int64) {
	if o != nil {
		o.ManifestWrites.Inc()
		o.WriteBytes.Add(n)
	}
}

// Snapshot captures every registered series. Engine-level gauges that live
// outside the registry (warehouse occupancy, plan-cache entries, snapshot
// version) are zero here; Engine.MetricsSnapshot fills them in.
func (m *Metrics) Snapshot() MetricsSnapshot {
	if m == nil {
		return MetricsSnapshot{}
	}
	return MetricsSnapshot{
		QueriesServed:        m.QueriesServed.Value(),
		QueryErrors:          m.QueryErrors.Value(),
		QueryLatencySeconds:  m.QueryLatencySeconds.Snapshot(),
		IngestBatches:        m.IngestBatches.Value(),
		IngestRows:           m.IngestRows.Value(),
		PlanCacheHits:        m.PlanCache.Hits.Value(),
		PlanCacheMisses:      m.PlanCache.Misses.Value(),
		PlanCacheEvictions:   m.PlanCache.Evictions.Value(),
		JoinCacheHits:        m.JoinCache.Hits.Value(),
		JoinCacheMisses:      m.JoinCache.Misses.Value(),
		JoinCacheAdmissions:  m.JoinCache.Admissions.Value(),
		JoinCacheEvictions:   m.JoinCache.Evictions.Value(),
		JoinCacheBytes:       m.JoinCache.ResidentBytes.Value(),
		TuningRounds:         m.TuningRounds.Value(),
		TuningShed:           m.TuningShed.Value(),
		TuningQueueDepth:     m.TuningQueueDepth.Value(),
		TuningBatchSize:      m.TuningBatchSize.Snapshot(),
		TuningRoundSeconds:   m.TuningRoundSeconds.Snapshot(),
		WarehouseAdmissions:  m.WarehouseAdmissions.Value(),
		WarehouseRefreshes:   m.WarehouseRefreshes.Value(),
		WarehouseEvictions:   m.WarehouseEvictions.Value(),
		WarehousePromotions:  m.WarehousePromotions.Value(),
		SnapshotPublishes:    m.SnapshotPublishes.Value(),
		SnapshotIdentCarries: m.SnapshotIdentCarries.Value(),
		WarehouseSpills:      m.Disk.Spills.Value(),
		WarehouseFaultIns:    m.Disk.FaultIns.Value(),
		ManifestWrites:       m.Disk.ManifestWrites.Value(),
		DiskWriteBytes:       m.Disk.WriteBytes.Value(),
		DiskReadBytes:        m.Disk.ReadBytes.Value(),
		PoolBatchGets:        m.Pool.BatchGets.Value(),
		PoolBatchPuts:        m.Pool.BatchPuts.Value(),
		PoolAllocMisses:      m.Pool.AllocMisses.Value(),
		KernelFilterBatches:  m.Exec.KernelFilterBatches.Value(),
		PrunedPartitions:     m.Exec.PrunedPartitions.Value(),
		KeyIndexReads:        m.Exec.KeyIndexReads.Value(),
		KeyIndexSparedRows:   m.Exec.KeyIndexSparedRows.Value(),
	}
}

// MetricsSnapshot is a point-in-time copy of every engine metric — the one
// read surface of the layer, consumed by the exporters and tests. Fields
// marked (engine) are instantaneous gauges Engine.MetricsSnapshot samples
// from live engine state rather than the registry.
type MetricsSnapshot struct {
	QueriesServed       int64
	QueryErrors         int64
	QueryLatencySeconds HistogramSnapshot
	IngestBatches       int64
	IngestRows          int64

	PlanCacheHits      int64
	PlanCacheMisses    int64
	PlanCacheEvictions int64
	PlanCacheEntries   int64 // (engine)

	JoinCacheHits       int64
	JoinCacheMisses     int64
	JoinCacheAdmissions int64
	JoinCacheEvictions  int64
	JoinCacheBytes      int64

	TuningRounds       int64
	TuningShed         int64
	TuningQueueDepth   int64
	TuningBatchSize    HistogramSnapshot
	TuningRoundSeconds HistogramSnapshot

	WarehouseAdmissions int64
	WarehouseRefreshes  int64
	WarehouseEvictions  int64
	WarehousePromotions int64

	SnapshotPublishes    int64
	SnapshotIdentCarries int64
	SnapshotVersion      int64 // (engine)

	WarehouseSpills   int64
	WarehouseFaultIns int64
	ManifestWrites    int64
	DiskWriteBytes    int64
	DiskReadBytes     int64
	BufferBytes       int64 // (engine)
	WarehouseBytes    int64 // (engine)

	PoolBatchGets   int64
	PoolBatchPuts   int64
	PoolAllocMisses int64

	KernelFilterBatches int64
	// FallbackFilterBatches is always 0: the interpreted filter path is gone
	// and nothing sets it. The field stays because benchmark/probes.go reads
	// it for exec.kernel_filter_share; a benchmark PR removes both.
	FallbackFilterBatches int64
	PrunedPartitions      int64
	KeyIndexReads         int64
	KeyIndexSparedRows    int64
}

// Kind distinguishes exported series types.
type Kind uint8

// Series kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// Family is one exported series: a name in Prometheus vocabulary, help
// text, and either a scalar value or a histogram snapshot.
type Family struct {
	Name  string
	Help  string
	Kind  Kind
	Value int64
	Hist  HistogramSnapshot
}

// Families enumerates the snapshot as exportable series, in a fixed order
// (exporter output is part of the golden-tested surface).
func (s MetricsSnapshot) Families() []Family {
	c := func(name, help string, v int64) Family {
		return Family{Name: name, Help: help, Kind: KindCounter, Value: v}
	}
	g := func(name, help string, v int64) Family {
		return Family{Name: name, Help: help, Kind: KindGauge, Value: v}
	}
	h := func(name, help string, hs HistogramSnapshot) Family {
		return Family{Name: name, Help: help, Kind: KindHistogram, Hist: hs}
	}
	return []Family{
		c("taster_queries_total", "Queries served successfully.", s.QueriesServed),
		c("taster_query_errors_total", "Queries that returned an error.", s.QueryErrors),
		h("taster_query_latency_seconds", "Per-query wall latency (zero under a frozen clock).", s.QueryLatencySeconds),
		c("taster_ingest_batches_total", "Ingest calls accepted.", s.IngestBatches),
		c("taster_ingest_rows_total", "Rows appended across all ingests.", s.IngestRows),
		c("taster_plan_cache_hits_total", "Plan-cache hits on the serving fast path.", s.PlanCacheHits),
		c("taster_plan_cache_misses_total", "Plan-cache misses (cold candidate enumeration).", s.PlanCacheMisses),
		c("taster_plan_cache_evictions_total", "Plan-cache LRU evictions.", s.PlanCacheEvictions),
		g("taster_plan_cache_entries", "Plan-cache entries currently resident.", s.PlanCacheEntries),
		c("taster_join_cache_hits_total", "Join builds served from a cached table.", s.JoinCacheHits),
		c("taster_join_cache_misses_total", "Join builds that ran (first sights included).", s.JoinCacheMisses),
		c("taster_join_cache_admissions_total", "Built join tables made resident in the cache.", s.JoinCacheAdmissions),
		c("taster_join_cache_evictions_total", "Cached join tables dropped.", s.JoinCacheEvictions),
		g("taster_join_cache_bytes", "Bytes of built join tables resident in the cache.", s.JoinCacheBytes),
		c("taster_tuning_rounds_total", "Tuning rounds run (batched and inline).", s.TuningRounds),
		c("taster_tuning_observations_shed_total", "Observations dropped at a full tuning queue.", s.TuningShed),
		g("taster_tuning_queue_depth", "Observation-queue occupancy after the last enqueue or gathered batch.", s.TuningQueueDepth),
		h("taster_tuning_batch_size", "Observations folded per tuning round.", s.TuningBatchSize),
		h("taster_tuning_round_seconds", "Wall time per tuning round (zero under a frozen clock).", s.TuningRoundSeconds),
		c("taster_warehouse_admissions_total", "Built synopses stored in the buffer or warehouse.", s.WarehouseAdmissions),
		c("taster_warehouse_refreshes_total", "Built synopses that replaced a stale stored copy.", s.WarehouseRefreshes),
		c("taster_warehouse_evictions_total", "Synopses evicted by tuning rounds and storage-budget shrinks.", s.WarehouseEvictions),
		c("taster_warehouse_promotions_total", "Synopses promoted from the buffer to the warehouse.", s.WarehousePromotions),
		c("taster_snapshot_publishes_total", "Tuning snapshots published.", s.SnapshotPublishes),
		c("taster_snapshot_ident_carries_total", "Publishes that carried the planning identity forward.", s.SnapshotIdentCarries),
		g("taster_snapshot_version", "Version of the currently published tuning snapshot.", s.SnapshotVersion),
		c("taster_warehouse_spills_total", "Synopsis payloads written to the disk tier.", s.WarehouseSpills),
		c("taster_warehouse_faultins_total", "Synopsis payloads faulted back from the disk tier.", s.WarehouseFaultIns),
		c("taster_warehouse_manifest_writes_total", "Manifest checkpoints written.", s.ManifestWrites),
		c("taster_disk_write_bytes_total", "Payload and manifest bytes written to the disk tier.", s.DiskWriteBytes),
		c("taster_disk_read_bytes_total", "Payload bytes read from the disk tier.", s.DiskReadBytes),
		g("taster_buffer_bytes", "In-memory synopsis buffer occupancy.", s.BufferBytes),
		g("taster_warehouse_bytes", "Warehouse tier occupancy.", s.WarehouseBytes),
		c("taster_pool_batch_gets_total", "Borrows from the vector pool: batch headers, vectors, selection buffers, scratch.", s.PoolBatchGets),
		c("taster_pool_batch_puts_total", "Returns to the vector pool.", s.PoolBatchPuts),
		c("taster_pool_alloc_misses_total", "Borrows the vector pool's free lists could not serve (fresh allocations).", s.PoolAllocMisses),
		c("taster_exec_kernel_filter_batches_total", "Filter batches evaluated by the compiled selection-vector kernels.", s.KernelFilterBatches),
		c("taster_exec_pruned_partitions_total", "Partitions skipped by zone-map pruning.", s.PrunedPartitions),
		c("taster_exec_key_index_reads_total", "Leaf reads whose filter took its candidate rows from a key index.", s.KeyIndexReads),
		c("taster_exec_key_index_spared_rows_total", "Leaf rows of key-index reads that no filter kernel evaluated.", s.KeyIndexSparedRows),
	}
}

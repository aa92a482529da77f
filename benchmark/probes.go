package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"github.com/tasterdb/taster"
	"github.com/tasterdb/taster/internal/core"
	"github.com/tasterdb/taster/internal/exec"
	"github.com/tasterdb/taster/internal/persist"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/planner"
	"github.com/tasterdb/taster/internal/sqlparser"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
	"github.com/tasterdb/taster/internal/tuner"
	"github.com/tasterdb/taster/internal/workload"
)

// perLayer lists the per-layer metrics of a traced run; the prefix of a name
// is the package it measures. Times from spans are means per call; times
// from probes are the mean over the sampled queries of each query's median
// over probeCalls calls.
var perLayer = []metricDef{
	// Spans around the harness's own calls on the live run.
	{name: "workload.gen_s", unit: "s", better: "lower"},
	{name: "taster.open_s", unit: "s", better: "lower"},
	{name: "taster.warm_s", unit: "s", better: "lower"},
	{name: "taster.query_ms", unit: "ms", better: "lower"},
	{name: "taster.ingest_ms", unit: "ms", better: "lower"},
	{name: "taster.drain_ms", unit: "ms", better: "lower"},
	// Probes on the mirrored core.Engine, after the timed phase.
	{name: "sqlparser.parse_us", unit: "us", better: "lower"},
	{name: "planner.cache_key_us", unit: "us", better: "lower"},
	{name: "planner.plan_us", unit: "us", better: "lower"},
	{name: "planner.candidates", unit: "count", better: "lower"},
	{name: "planner.plan_after_append_ms", unit: "ms", better: "lower"},
	{name: "tuner.tune_us", unit: "us", better: "lower"},
	{name: "tuner.choose_us", unit: "us", better: "lower"},
	{name: "plan.format_us", unit: "us", better: "lower"},
	{name: "exec.compile_us", unit: "us", better: "lower"},
	{name: "exec.run_chosen_ms", unit: "ms", better: "lower"},
	{name: "exec.run_build_ms", unit: "ms", better: "lower"},
	{name: "exec.run_exact_ms", unit: "ms", better: "lower"},
	{name: "exec.scan_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "storage.append_ms", unit: "ms", better: "lower"},
	{name: "storage.stats_ms", unit: "ms", better: "lower"},
	{name: "persist.encode_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "persist.decode_mb_per_s", unit: "MB/s", better: "higher"},
	// Counts over the timed phase.
	{name: "planner.cache_hit_share", unit: "share", better: "higher"},
	{name: "core.publishes", unit: "count", better: "lower"},
	{name: "core.ident_carry_share", unit: "share", better: "higher"},
	{name: "tuner.rounds", unit: "count", better: "lower"},
	{name: "tuner.round_ms", unit: "ms", better: "lower"},
	{name: "tuner.shed_share", unit: "share", better: "lower"},
	{name: "meta.reuse_share", unit: "share", better: "higher"},
	{name: "synopses.created_per_query", unit: "count", better: "lower"},
	{name: "warehouse.bytes_share", unit: "share", better: "lower"},
	{name: "warehouse.synopses", unit: "count", better: "lower"},
	{name: "exec.kernel_filter_share", unit: "share", better: "higher"},
	{name: "exec.pruned_partitions", unit: "count", better: "higher"},
	{name: "storage.pool_miss_share", unit: "share", better: "lower"},
	{name: "runtime.alloc_kb_per_query", unit: "KB", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "runtime.cpu_s_per_busy_s", unit: "x", better: "lower"},
	{name: "host.ref_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead_share", unit: "share", better: "lower"},
}

const (
	probeQueries = 64 // sampled texts for the cheap probes
	runQueries   = 16 // of which the first few also run their plans
	probeCalls   = 5
	runCalls     = 3
	appendRounds = 2 // each costs two statistics passes over lineitem, 0.75 s apiece
)

// probeSample picks up to probeQueries distinct query texts, evenly spaced
// over the timed phase.
func probeSample(in inputs) []string {
	var texts []string
	seen := map[string]bool{}
	for _, q := range in.timed {
		if q.batch == nil && !seen[q.sql] {
			seen[q.sql] = true
			texts = append(texts, q.sql)
		}
	}
	if len(texts) <= probeQueries {
		return texts
	}
	out := make([]string, probeQueries)
	for i := range out {
		out[i] = texts[i*len(texts)/probeQueries]
	}
	return out
}

// coreConfig is the mapping taster.Open applies to its options. The probes
// need a planner, a tuner, a metadata store and a warehouse, which the
// public engine does not hand out; a unit test holds this mirror equal to
// taster.Open by the hash of the warm-up answers.
func coreConfig(cat *storage.Catalog, opts taster.Options) core.Config {
	if opts.StorageBudget <= 0 {
		opts.StorageBudget = cat.TotalBytes() / 4
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
	return core.Config{
		Mode: core.ModeTaster, StorageBudget: opts.StorageBudget, BufferSize: opts.BufferSize,
		CostModel: model, Tuner: tcfg, Seed: opts.Seed, Workers: opts.Workers,
		PartitionRows: opts.PartitionRows, MaxStaleness: opts.MaxStaleness,
		Synchronous: opts.SynchronousTuning, PlanCacheSize: opts.PlanCacheSize,
	}
}

// warmMirror opens the mirrored engine and sends it the warm-up operations
// exactly as runWorkload sends them to the live engine. It returns the hash
// of the answers, which must equal the live engine's.
func warmMirror(cat *storage.Catalog, opts taster.Options, warm []op) (*core.Engine, core.Config, uint64, error) {
	cfg := coreConfig(cat, opts)
	eng, err := core.Open(cat, cfg)
	if err != nil {
		return nil, cfg, 0, err
	}
	h := fnv.New64a()
	for _, q := range warm {
		pq, err := sqlparser.Parse(q.sql, cat)
		if err != nil {
			eng.Close()
			return nil, cfg, 0, err
		}
		res, err := eng.Execute(pq)
		if err != nil {
			eng.Close()
			return nil, cfg, 0, err
		}
		eng.Drain()
		hashResult(h, &taster.Result{Rows: res.Rows})
	}
	eng.Quiesce()
	return eng, cfg, h.Sum64(), nil
}

// timeCalls returns the median duration of n calls of f.
func timeCalls(n int, f func() error) (time.Duration, error) {
	ds := make([]time.Duration, n)
	for i := range ds {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds[i] = time.Since(t)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[n/2], nil
}

// meanOf accumulates a mean.
type meanOf struct {
	sum float64
	n   int
}

func (m *meanOf) add(v float64) { m.sum += v; m.n++ }
func (m *meanOf) mean() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

func share(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// probe fills o.layer: span means and counts from the live run, then the
// per-call probes on a mirrored engine.
func (o *outcome) probe(opts taster.Options, in inputs) error {
	o.layer = map[string]float64{}
	o.spanMetrics()
	o.countMetrics()

	pw := workload.TPCH(o.sc.sf, o.seed)
	cat := pw.Catalog
	opts.Metrics = nil
	eng, cfg, hash, err := warmMirror(cat, opts, in.warm)
	if err != nil {
		return err
	}
	defer eng.Close()
	if hash != o.warmHash {
		return fmt.Errorf("mirrored engine diverged from taster.Open: warm-up answers hash %x, live %x", hash, o.warmHash)
	}

	pl := planner.New(eng.Store(), eng.Warehouse(), cfg.CostModel)
	pl.Seed, pl.MaxStaleness = cfg.Seed, cfg.MaxStaleness
	if cfg.Workers > 0 {
		pl.Parallelism = float64(cfg.Workers)
	}
	tn := tuner.New(cfg.Tuner, eng.Store(), eng.Warehouse())
	pool := storage.NewVecPool()

	// Fill the probe tuner's window with the sample once, so that Tune is
	// timed over a window like the live one, not an empty one.
	sample := probeSample(in)
	for _, sql := range sample {
		q, err := sqlparser.Parse(sql, cat)
		if err != nil {
			return err
		}
		q.ID = 1 << 20
		ps, err := pl.Plan(q)
		if err != nil {
			return err
		}
		tn.Tune(ps)
	}

	var parse, key, planT, cands, tune, choose, format, compile, runChosen, runBuild, runExact, scan meanOf
	for i, sql := range sample {
		var q *planner.Query
		d, err := timeCalls(probeCalls, func() (err error) { q, err = sqlparser.Parse(sql, cat); return })
		if err != nil {
			return err
		}
		parse.add(usOf(d))
		q.ID = 1<<20 + i

		d, _ = timeCalls(probeCalls, func() error { _ = planner.CacheKey(q, 1); return nil })
		key.add(usOf(d))

		var ps *planner.PlanSet
		if d, err = timeCalls(probeCalls, func() (err error) { ps, err = pl.Plan(q); return }); err != nil {
			return err
		}
		planT.add(usOf(d))
		cands.add(float64(len(ps.Candidates)))

		var dec tuner.Decision
		d, _ = timeCalls(probeCalls, func() error { dec = tn.Tune(ps); return nil })
		tune.add(usOf(d))
		wh, store := eng.Warehouse(), eng.Store()
		d, _ = timeCalls(probeCalls, func() error {
			_ = tuner.ChoosePlan(ps, dec.Keep, dec.Gains, tn.Window(), wh.Has, store.Staleness)
			return nil
		})
		choose.add(usOf(d))

		var tree string
		d, _ = timeCalls(probeCalls, func() error { tree = plan.Format(dec.Chosen.Root); return nil })
		format.add(usOf(d))

		newCtx := func() *exec.Context {
			ctx := exec.NewContext(q.Accuracy.Confidence)
			ctx.Pool, ctx.Workers = pool, cfg.Workers
			return ctx
		}
		seed := synopses.SeedFromString(tree, cfg.Seed)
		if d, err = timeCalls(probeCalls, func() error { _, err := exec.Compile(dec.Chosen.Root, seed, newCtx()); return err }); err != nil {
			return err
		}
		compile.add(usOf(d))

		if i >= runQueries {
			continue
		}
		// run compiles outside the timer and times exec.Run alone; it returns
		// the median of runCalls calls and the base-table bytes one call scans.
		run := func(root plan.Node) (ms float64, baseBytes int64, err error) {
			ds := make([]float64, runCalls)
			seed := synopses.SeedFromString(plan.Format(root), cfg.Seed)
			for c := range ds {
				ctx := newCtx()
				op, err := exec.Compile(root, seed, ctx)
				if err != nil {
					return 0, 0, err
				}
				t := time.Now()
				if _, err := exec.Run(op); err != nil {
					return 0, 0, err
				}
				ds[c] = msOf(time.Since(t))
				baseBytes = ctx.Stats.BaseBytes
			}
			return median(ds), baseBytes, nil
		}
		ms, _, err := run(dec.Chosen.Root)
		if err != nil {
			return err
		}
		runChosen.add(ms)
		var build *planner.Candidate
		for c := range ps.Candidates {
			if cand := &ps.Candidates[c]; len(cand.Creates) > 0 && (build == nil || cand.Cost < build.Cost) {
				build = cand
			}
		}
		if build != nil {
			if ms, _, err = run(build.Root); err != nil {
				return err
			}
			runBuild.add(ms)
		}
		ms, baseBytes, err := run(ps.Exact.Root)
		if err != nil {
			return err
		}
		runExact.add(ms)
		scan.add(float64(baseBytes) / 1e6 / (ms / 1e3))
	}
	o.layer["sqlparser.parse_us"] = parse.mean()
	o.layer["planner.cache_key_us"] = key.mean()
	o.layer["planner.plan_us"] = planT.mean()
	o.layer["planner.candidates"] = cands.mean()
	o.layer["tuner.tune_us"] = tune.mean()
	o.layer["tuner.choose_us"] = choose.mean()
	o.layer["plan.format_us"] = format.mean()
	o.layer["exec.compile_us"] = compile.mean()
	o.layer["exec.run_chosen_ms"] = runChosen.mean()
	o.layer["exec.run_build_ms"] = runBuild.mean()
	o.layer["exec.run_exact_ms"] = runExact.mean()
	o.layer["exec.scan_mb_per_s"] = scan.mean()

	o.persistProbes(eng)
	return o.appendProbes(cat, pl)
}

// persistProbes encodes and decodes the largest sample the mirrored engine
// kept (the disk tier's CPU cost; the disk itself is out of scope).
func (o *outcome) persistProbes(eng *core.Engine) {
	var largest *synopses.Sample
	for _, it := range append(eng.Warehouse().WarehouseItems(), eng.Warehouse().BufferItems()...) {
		if s, err := it.Sample(); err == nil && s != nil && (largest == nil || s.SizeBytes() > largest.SizeBytes()) {
			largest = s
		}
	}
	if largest == nil {
		return
	}
	var buf []byte
	d, _ := timeCalls(probeCalls, func() error { buf = persist.Encode(largest); return nil })
	o.layer["persist.encode_mb_per_s"] = float64(len(buf)) / 1e6 / d.Seconds()
	d, err := timeCalls(probeCalls, func() error { _, err := persist.Decode(buf); return err })
	if err == nil {
		o.layer["persist.decode_mb_per_s"] = float64(len(buf)) / 1e6 / d.Seconds()
	}
}

// appendProbes times what an append costs the layers below the engine: the
// append itself, the statistics of the new table version, and the first plan
// over it.
func (o *outcome) appendProbes(cat *storage.Catalog, pl *planner.Planner) error {
	r := rand.New(rand.NewSource(o.seed + 3))
	const sql = "SELECT l_returnflag, SUM(l_quantity) FROM lineitem GROUP BY l_returnflag" + accuracyClause
	var appendMs, statsMs, planMs []float64
	for round := 0; round < 2*appendRounds; round++ {
		li, err := cat.Table("lineitem")
		if err != nil {
			return err
		}
		delta, err := resample(li, 3000, r).TryBuild(1)
		if err != nil {
			return err
		}
		t := time.Now()
		nt, err := cat.Append("lineitem", delta)
		if err != nil {
			return err
		}
		appendMs = append(appendMs, msOf(time.Since(t)))
		t = time.Now()
		if round%2 == 0 {
			nt.Stats()
			statsMs = append(statsMs, msOf(time.Since(t)))
			continue
		}
		q, err := sqlparser.Parse(sql, cat)
		if err != nil {
			return err
		}
		if _, err := pl.Plan(q); err != nil {
			return err
		}
		planMs = append(planMs, msOf(time.Since(t)))
	}
	o.layer["storage.append_ms"] = median(appendMs)
	o.layer["storage.stats_ms"] = median(statsMs)
	o.layer["planner.plan_after_append_ms"] = median(planMs)
	return nil
}

// spanMetrics turns the live run's spans into per-call means.
func (o *outcome) spanMetrics() {
	sums := map[string]*meanOf{}
	for _, s := range o.spans {
		m := sums[s.Name]
		if m == nil {
			m = &meanOf{}
			sums[s.Name] = m
		}
		m.add(s.EndUs - s.StartUs)
	}
	for _, name := range []string{"workload.gen_s", "taster.open_s", "taster.warm_s"} {
		if m := sums[name]; m != nil {
			o.layer[name] = m.mean() / 1e6
		}
	}
	for _, name := range []string{"taster.query_ms", "taster.ingest_ms", "taster.drain_ms"} {
		if m := sums[name]; m != nil {
			o.layer[name] = m.mean() / 1e3
		}
	}
	// What recording the spans cost the busy clock: the measured cost of
	// recording one, times the spans recorded inside the timed phase.
	const trial = 1 << 16
	scratch := make([]span, 0, trial)
	t := time.Now()
	for i := 0; i < trial; i++ {
		now := time.Now()
		scratch = append(scratch, span{Name: "taster.query_ms", StartUs: o.us(now), EndUs: o.us(now), Op: i})
	}
	perSpan := time.Since(t).Seconds() / trial
	timed := 0
	for _, s := range o.spans {
		if s.Op >= 0 {
			timed++
		}
	}
	o.layer["trace.overhead_share"] = perSpan * float64(timed) / o.busyRawS
}

// countMetrics derives the count metrics from the engine's registry, the
// query results and the runtime, as differences over the timed phase.
func (o *outcome) countMetrics() {
	a, b := o.before.metrics, o.after.metrics
	q := int64(o.queries)
	o.layer["planner.cache_hit_share"] = share(b.PlanCacheHits-a.PlanCacheHits, b.PlanCacheHits-a.PlanCacheHits+b.PlanCacheMisses-a.PlanCacheMisses)
	o.layer["core.publishes"] = float64(b.SnapshotPublishes - a.SnapshotPublishes)
	o.layer["core.ident_carry_share"] = share(b.SnapshotIdentCarries-a.SnapshotIdentCarries, b.SnapshotPublishes-a.SnapshotPublishes)
	rounds := b.TuningRounds - a.TuningRounds
	o.layer["tuner.rounds"] = float64(rounds)
	if rounds > 0 {
		o.layer["tuner.round_ms"] = (b.TuningRoundSeconds.Sum - a.TuningRoundSeconds.Sum) * 1e3 / float64(rounds)
	}
	o.layer["tuner.shed_share"] = share(b.TuningShed-a.TuningShed, q)
	o.layer["meta.reuse_share"] = share(int64(o.reused), q)
	o.layer["synopses.created_per_query"] = share(int64(o.created), q)
	o.layer["warehouse.bytes_share"] = share(o.whBytes, o.catBytes)
	o.layer["warehouse.synopses"] = float64(o.synopses)
	kernel, fallback := b.KernelFilterBatches-a.KernelFilterBatches, b.FallbackFilterBatches-a.FallbackFilterBatches
	o.layer["exec.kernel_filter_share"] = share(kernel, kernel+fallback)
	o.layer["exec.pruned_partitions"] = float64(b.PrunedPartitions - a.PrunedPartitions)
	o.layer["storage.pool_miss_share"] = share(b.PoolAllocMisses-a.PoolAllocMisses, b.PoolBatchGets-a.PoolBatchGets)
	// The calibrations ran inside the timed phase: what they allocated and
	// the processor time they took is the harness's, not the engine's.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	calibrate()
	runtime.ReadMemStats(&m1)
	calAlloc := (m1.TotalAlloc - m0.TotalAlloc) * uint64(o.calSamples)
	o.layer["runtime.alloc_kb_per_query"] = float64(o.after.mem.TotalAlloc-o.before.mem.TotalAlloc-calAlloc) / 1024 / float64(q)
	o.layer["runtime.gc_cycles"] = float64(o.after.mem.NumGC - o.before.mem.NumGC)
	o.layer["runtime.peak_rss_mb"] = o.after.peakRSSMB
	o.layer["runtime.cpu_s_per_busy_s"] = ((o.after.cpu - o.before.cpu).Seconds() - o.calSpentS) / o.busyRawS
	o.layer["host.ref_ms"] = o.calMs
}

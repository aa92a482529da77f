package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/tasterdb/taster"
	"github.com/tasterdb/taster/internal/workload"
)

// span is one traced call the harness made into a layer. Spans are kept in
// memory and written out when the run ends.
type span struct {
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	// Parent is the index of the span that caused this one, -1 for a root.
	Parent int `json:"parent"`
	// Op is the operation's index within its phase, -1 for a phase span.
	Op int `json:"op"`
}

// phaseCounters are the engine-side counts bracketing the timed phase.
type phaseCounters struct {
	metrics   taster.MetricsSnapshot
	mem       runtime.MemStats
	cpu       time.Duration
	peakRSSMB float64
}

// outcome is everything one run measured.
type outcome struct {
	sp    spec
	seed  int64
	sc    scale
	trace bool

	// Times are normalised to the reference host speed (calib.go); the Raw
	// ones are as measured.
	setupS     float64
	setupRawS  float64
	busyS      float64   // per client: Σ latency of its timed operations; mean over clients
	busyRawS   float64   // per client: its busy clock; mean over clients
	wallS      float64   // timed phase, wall clock, drains and calibrations included
	latMs      []float64 // per query of the timed phase, ascending
	latRawMs   []float64
	calMs      float64 // median calibration of the timed phase
	calSpentS  float64 // time the timed phase's calibrations took, all clients
	calSamples int
	queries    int
	appends    int

	attempted int
	failed    int
	acc       accuracy

	// Traced runs only.
	spans    []span
	t0       time.Time
	before   phaseCounters
	after    phaseCounters
	reused   int // timed queries that reused a synopsis
	created  int // synopses the timed queries created
	whBytes  int64
	catBytes int64
	synopses int
	warmHash uint64             // of the warm-up answers; the probes' mirror must match it
	layer    map[string]float64 // per-layer metrics, by name
}

func (o *outcome) us(t time.Time) float64 { return usOf(t.Sub(o.t0)) }

// addSpan records a span when tracing; it returns the span's index.
func (o *outcome) addSpan(name string, start, end time.Time, parent, op int) int {
	if !o.trace {
		return -1
	}
	o.spans = append(o.spans, span{Name: name, StartUs: o.us(start), EndUs: o.us(end), Parent: parent, Op: op})
	return len(o.spans) - 1
}

func readCounters(eng *taster.Engine) phaseCounters {
	var c phaseCounters
	c.metrics = eng.MetricsSnapshot()
	runtime.ReadMemStats(&c.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		c.peakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return c
}

func exactText(sql string) string {
	if strings.HasSuffix(sql, exactSuffix) {
		return sql
	}
	return sql + exactSuffix
}

// hashResult folds a result's rows into h.
func hashResult(h hash.Hash64, r *taster.Result) {
	for _, row := range r.Rows {
		for _, v := range row {
			_, _ = h.Write([]byte(v.String())) // a hash.Hash never fails
			_, _ = h.Write([]byte{0})
		}
		_, _ = h.Write([]byte{1})
	}
}

// runWorkload performs one run: set-up, the timed phase, and the checks.
// start is main's entry time, from which setup_s counts.
func runWorkload(sp spec, seed int64, sc scale, trace bool, start time.Time) (*outcome, error) {
	o := &outcome{sp: sp, seed: seed, sc: sc, trace: trace, t0: start}

	// Set-up: data, inputs, the engine under test, its warm-up, the truth
	// engine. All of it is inside setup_s, in laps between calibrations.
	clock := newLapClock(start)
	t := time.Now()
	w := workload.TPCH(sc.sf, seed)
	in, err := sp.build(w, seed, sc)
	if err != nil {
		return nil, err
	}
	setup := o.addSpan("setup", start, start, -1, -1)
	o.addSpan("workload.gen_s", t, time.Now(), setup, -1)
	clock.lap()

	t = time.Now()
	opts := sp.opts(uint64(seed), w.Catalog.TotalBytes())
	if trace {
		opts.Metrics = taster.NewMetrics()
	}
	eng, err := taster.Open(w.Catalog, opts)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	defer eng.Close()
	o.addSpan("taster.open_s", t, time.Now(), setup, -1)
	clock.lap()

	// Warm-up is serial with a Drain after every query: an Execute→Drain
	// loop is deterministic by contract, so every run of one seed starts the
	// timed phase from the same warehouse, window and plan cache.
	t = time.Now()
	wh := fnv.New64a()
	for _, q := range in.warm {
		res, err := eng.Query(q.sql)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w\nSQL: %s", err, q.sql)
		}
		eng.Drain()
		if trace {
			hashResult(wh, res)
		}
		clock.lap()
	}
	eng.Quiesce()
	o.warmHash = wh.Sum64()
	o.addSpan("taster.warm_s", t, time.Now(), setup, -1)
	clock.lap()

	t = time.Now()
	tw := workload.TPCH(sc.sf, seed)
	truth, err := taster.Open(tw.Catalog, taster.Options{SimulatedScale: true, Seed: uint64(seed), Workers: sp.truthWorkers, SynchronousTuning: true})
	if err != nil {
		return nil, fmt.Errorf("open truth engine: %w", err)
	}
	defer truth.Close()
	o.addSpan("truth.build_s", t, time.Now(), setup, -1)

	runtime.GC()
	raw, norm := clock.finish()
	o.setupRawS, o.setupS = raw.Seconds(), norm.Seconds()
	if trace {
		o.spans[setup].EndUs = o.us(time.Now())
		o.before = readCounters(eng)
	}

	// Timed phase.
	results, bad := o.timedPhase(eng, in.timed)

	if trace {
		o.after = readCounters(eng)
		_, o.whBytes = eng.WarehouseUsage()
		o.catBytes = w.Catalog.TotalBytes()
		o.synopses = len(eng.Synopses())
	}

	// Post-phase operations on the live engine, off every clock.
	postResults := make([]*taster.Result, len(in.post))
	postBad := make([]bool, len(in.post))
	for i, q := range in.post {
		res, err := eng.Query(q.sql)
		if err != nil {
			postBad[i] = true
			continue
		}
		eng.Drain()
		postResults[i] = res
	}

	// The truth engine replays the run: the same appends in the same order,
	// and every checked query with EXACT.
	ck := &checker{truth: truth, cat: tw.Catalog, acc: &o.acc, cache: map[string]*taster.Result{}}
	ck.replay(in.timed, results, bad)
	ck.replay(in.post, postResults, postBad)

	o.attempted = len(in.timed) + len(in.post)
	for _, b := range bad {
		if b {
			o.failed++
		}
	}
	for _, b := range postBad {
		if b {
			o.failed++
		}
	}

	if trace {
		if err := o.probe(opts, in); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
	}
	return o, nil
}

// timedPhase sends ops to the engine from the workload's closed-loop
// clients, which jointly drain the list: a client sends its next operation
// only after its previous one completed. It returns the answers of the
// checked queries and which operations failed.
func (o *outcome) timedPhase(eng *taster.Engine, ops []op) ([]*taster.Result, []bool) {
	results := make([]*taster.Result, len(ops))
	bad := make([]bool, len(ops))
	lat := make([]interval, len(ops))
	owner := make([]int, len(ops)) // the client that sent the operation
	type client struct {
		cal             *calibrator
		clock           busyClock
		reused, created int
		spans           []span
	}
	clients := make([]client, o.sp.clients)

	var next atomic.Int64
	var wg sync.WaitGroup
	phaseStart := time.Now()
	for c := range clients {
		wg.Add(1)
		go func(c int, cl *client) {
			defer wg.Done()
			cl.cal = newCalibrator(o.t0)
			for {
				if cl.cal.due() {
					cl.cal.sample()
				}
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					break
				}
				q := &ops[i]
				name := "taster.query_ms"
				cl.clock.start()
				t := time.Now()
				var err error
				if q.batch != nil {
					name = "taster.ingest_ms"
					_, err = eng.Ingest("lineitem", q.batch)
				} else {
					var res *taster.Result
					if res, err = eng.Query(q.sql); err == nil {
						if len(res.Stats.ReusedSynopses) > 0 {
							cl.reused++
						}
						cl.created += len(res.Stats.CreatedSynopses)
						if q.check {
							results[i] = res
						}
					}
				}
				end := time.Now()
				// Off the busy clock from here to the next operation: the
				// harness's bookkeeping, the drain, the calibration.
				cl.clock.pause()
				lat[i] = interval{start: t.Sub(o.t0), d: end.Sub(t)}
				owner[i] = c
				cl.cal.worked(lat[i].d)
				bad[i] = err != nil
				if o.trace {
					cl.spans = append(cl.spans, span{Name: name, StartUs: o.us(t), EndUs: o.us(end), Op: i})
				}
				if o.sp.drainEach {
					eng.Drain()
					if o.trace {
						cl.spans = append(cl.spans, span{Name: "taster.drain_ms", StartUs: o.us(end), EndUs: o.us(time.Now()), Op: i})
					}
				}
			}
			// The client's last operations need a calibration after them.
			if cl.cal.since > 0 {
				cl.cal.sample()
			}
		}(c, &clients[c])
	}
	wg.Wait()
	o.wallS = time.Since(phaseStart).Seconds()

	phase := o.addSpan("timed", phaseStart, time.Now(), -1, -1)
	var calMs []float64
	for _, cl := range clients {
		o.busyRawS += cl.clock.seconds() / float64(len(clients))
		o.calSpentS += cl.cal.spent.Seconds()
		o.calSamples += len(cl.cal.samples)
		for _, s := range cl.cal.samples {
			calMs = append(calMs, msOf(s.d))
		}
		o.reused += cl.reused
		o.created += cl.created
		for _, s := range cl.spans {
			s.Parent = phase
			o.spans = append(o.spans, s)
		}
	}
	o.calMs = median(calMs)
	for i, q := range ops {
		norm := clients[owner[i]].cal.normalise(lat[i].start, lat[i].d)
		o.busyS += norm.Seconds() / float64(len(clients))
		if q.batch != nil {
			o.appends++
			continue
		}
		o.queries++
		o.latMs = append(o.latMs, msOf(norm))
		o.latRawMs = append(o.latRawMs, msOf(lat[i].d))
	}
	sort.Float64s(o.latMs)
	sort.Float64s(o.latRawMs)
	return results, bad
}

// checker compares live answers with the truth engine's.
type checker struct {
	truth *taster.Engine
	cat   *taster.Catalog // the truth engine's catalog, for the oracle
	acc   *accuracy
	// cache holds truth answers by text until the next append.
	cache map[string]*taster.Result
}

// replay walks a phase's operations in order on the truth engine. An append
// is ingested there too; a checked query is answered with EXACT, verified
// against the oracle where it has one, and compared with the live answer.
// bad[i] is set for every operation that fails a check.
func (c *checker) replay(ops []op, live []*taster.Result, bad []bool) {
	for i, q := range ops {
		if q.batch != nil {
			if _, err := c.truth.Ingest("lineitem", q.batch); err != nil {
				bad[i] = true
			}
			clear(c.cache)
			continue
		}
		if !q.check || bad[i] {
			continue
		}
		text := exactText(q.sql)
		exact, ok := c.cache[text]
		if !ok {
			var err error
			if exact, err = c.truth.Query(text); err != nil {
				bad[i] = true
				continue
			}
			c.cache[text] = exact
			if li, err := c.cat.Table("lineitem"); err == nil {
				if want, has := oracle(text, li); has && !matchesOracle(exact, want) {
					bad[i] = true
				}
			}
		}
		if text == q.sql {
			// The live query was exact too: the rows must be the same bytes.
			if !rowsEqual(live[i], exact) {
				bad[i] = true
			}
			continue
		}
		c.acc.add(live[i], exact)
	}
}

package core

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/tasterdb/taster/internal/exec"
	"github.com/tasterdb/taster/internal/planner"
	"github.com/tasterdb/taster/internal/tuner"
	"github.com/tasterdb/taster/internal/warehouse"
)

// tuningSnapshot is the immutable tuning state the lock-free serving path
// reads: the warehouse view the last tuning round left behind, the selected
// synopsis set S* with its marginal gains, and the sliding-window length. A
// new snapshot is swapped in atomically (RCU-style) after every tuning round,
// inline admission, elastic budget change, pinned-hint install or ingest, in
// every mode and under both tuning schedules; readers holding an older
// snapshot keep a coherent — merely slightly stale — view of the world, which
// is exactly the staleness budget asynchronous tuning trades for a lock-free
// hot path. All fields are read-only after publish. Staleness is not here:
// readers derive it from the catalog (meta.Store.Staleness).
//
//taster:immutable
type tuningSnapshot struct {
	wh      *warehouse.View
	keep    map[uint64]bool
	gains   map[uint64]float64
	window  int
	version uint64
	// ident is the snapshot's *planning* identity: it advances only when
	// the warehouse item set the planner's candidate enumeration reads
	// changed since the previous publish (pointer-wise, so refreshes
	// count); an append needs none, as the plan cache key holds every bound
	// table's epoch. Publishes that merely slid the window or recomputed
	// gains carry the previous ident forward: those inputs feed plan
	// *choice*, which the serving path re-runs on every query anyway. The
	// plan cache keys on ident, so per-batch republishes under a steady
	// workload do not evict it, while every rearrangement orphans stale
	// entries by construction.
	ident uint64
}

// republishLocked re-publishes the snapshot from current warehouse/store
// state, carrying forward the last published keep/gain sets — the idiom
// every non-round publisher (Ingest, PinSample, Quiesce, the synchronous
// schedule's inline admission) uses. Caller holds tuneMu.
func (e *Engine) republishLocked() {
	prev := e.snap.Load()
	e.publishLocked(prev.keep, prev.gains)
}

// publishLocked swaps in a fresh tuning snapshot built from the current
// warehouse view, tuner window and the given keep/gain state. Caller holds
// tuneMu (or is the constructor, before the engine escapes), which is what
// orders publishes.
func (e *Engine) publishLocked(keep map[uint64]bool, gains map[uint64]float64) {
	view := e.wh.View()
	prev := e.snap.Load()
	e.snapVersion++
	ident := e.snapVersion
	carried := prev != nil && prev.wh.SameContents(view)
	if carried {
		ident = prev.ident
	}
	if e.mx != nil {
		e.mx.SnapshotPublishes.Inc()
		if carried {
			e.mx.SnapshotIdentCarries.Inc()
		}
	}
	e.snap.Store(&tuningSnapshot{
		wh:      view,
		keep:    keep,
		gains:   gains,
		window:  e.tn.Window(),
		version: e.snapVersion,
		ident:   ident,
	})
}

// builtSynopsis is a byproduct built during execution, awaiting admission:
// the item plus the row count of the table its build plan scanned.
type builtSynopsis struct {
	item    *warehouse.Item
	id      uint64
	srcRows int64
}

// observation is one served query's contribution to tuning: the window
// record (plain values — the caller's Query may be legally reused by a
// later Execute, so nothing of the plan set is retained past the query's
// own Execute call), the synopses its chosen plan read (exempt from
// eviction for one round), and any byproducts awaiting admission.
type observation struct {
	obs   tuner.Observation
	uses  []uint64
	built []builtSynopsis
}

// TuningStats is the engine's cumulative tuning accounting: every round
// counts into it, whichever schedule ran it.
type TuningStats struct {
	// Rounds is the number of tuning rounds run: one per drained batch under
	// the asynchronous service, one per query under Config.Synchronous
	// (elastic/pin/ingest publishes are not rounds).
	Rounds int64
	// Observations is the number of served queries folded into the window.
	Observations int64
	// Dropped counts observations shed because the queue was full; their
	// byproducts were discarded and their window contribution lost.
	Dropped int64
	// Admitted/Refreshed/Evicted/Promoted count the warehouse
	// rearrangements rounds and byproduct admissions applied.
	Admitted  int64
	Refreshed int64
	Evicted   int64
	Promoted  int64
	// SnapshotVersion is the version of the currently published snapshot.
	SnapshotVersion uint64
	// PlanCacheHits/Misses/Evictions account the serving fast path's
	// plan-set cache (all zero when Config.PlanCacheSize disables it).
	PlanCacheHits      int64
	PlanCacheMisses    int64
	PlanCacheEvictions int64
	// JoinCache accounts the executor's built-join-table cache: hits,
	// misses, admissions, evictions and the bytes resident now.
	JoinCache exec.JoinCacheStats
}

// tuningService is the asynchronous schedule of the engine's tuning round:
// a single goroutine draining the bounded observation queue into batches
// and running Engine.roundLocked on each.
type tuningService struct {
	eng     *Engine
	obsCh   chan *observation
	flushCh chan chan struct{}
	done    chan struct{}
	exited  chan struct{}
	closed  sync.Once
	dropped atomic.Int64
}

// observationQueue bounds the service's observation channel. When it is
// full — the tuner is behind sustained traffic — new observations are shed
// rather than blocking the serving path: tuning fidelity degrades while query
// latency stays flat. Shed counts surface in TuningStats.Dropped.
const observationQueue = 1024

func newTuningService(e *Engine) *tuningService {
	s := &tuningService{
		eng:     e,
		obsCh:   make(chan *observation, observationQueue),
		flushCh: make(chan chan struct{}),
		done:    make(chan struct{}),
		exited:  make(chan struct{}),
	}
	go s.loop()
	return s
}

// enqueue hands an observation to the service without ever blocking the
// serving path: when the queue is full the observation is shed (counted in
// TuningStats.Dropped) — under overload the engine keeps answering queries
// at full speed and tuning fidelity degrades instead of latency.
func (s *tuningService) enqueue(o *observation) bool {
	select {
	case s.obsCh <- o:
		if mx := s.eng.mx; mx != nil {
			mx.TuningQueueDepth.Set(int64(len(s.obsCh)))
		}
		return true
	default:
		s.dropped.Add(1)
		if mx := s.eng.mx; mx != nil {
			mx.TuningShed.Inc()
		}
		return false
	}
}

// loop is the service goroutine: batch up whatever has queued, tune, and
// publish. A flush request (Drain) processes the entire backlog before
// acking, which is the determinism barrier tests and experiments use.
func (s *tuningService) loop() {
	defer close(s.exited)
	for {
		// Shutdown takes priority: a Go select picks randomly among ready
		// cases, so without this check a closed done channel could lose to
		// a busy observation queue indefinitely and the service would keep
		// tuning after Close.
		select {
		case <-s.done:
			return
		default:
		}
		select {
		case <-s.done:
			return
		case o := <-s.obsCh:
			// Pace the round so the batch can fill: under sustained traffic a
			// hair-trigger service runs one micro-round per observation, and
			// every warmup rearrangement then lands in its own publish — each
			// of which can advance the snapshot identity that keys the plan
			// cache, keeping hit windows pathologically short. Waiting one
			// batch delay coalesces rearrangements into few publishes; tuning
			// is off the query critical path, so the only cost is snapshot
			// freshness lagging by at most the delay. Drain bypasses the
			// pacing (the flush case below never waits).
			select {
			case <-s.done:
				return
			case ack := <-s.flushCh:
				s.runBatch(s.gather(o))
				for {
					batch := s.gather(nil)
					if len(batch) == 0 {
						break
					}
					s.runBatch(batch)
				}
				close(ack)
				continue
			case <-time.After(tuneBatchDelay):
			}
			s.runBatch(s.gather(o))
		case ack := <-s.flushCh:
			// A flush must clear the whole backlog, not just one batch:
			// gather caps at maxBatch so a deep queue still publishes at a
			// steady cadence, but Drain's contract is "everything enqueued
			// before the call is tuned" — keep rounding until dry.
			for {
				batch := s.gather(nil)
				if len(batch) == 0 {
					break
				}
				s.runBatch(batch)
			}
			close(ack)
		}
	}
}

// maxBatch bounds one round's observation count so a deep backlog still
// publishes fresh snapshots at a steady cadence instead of one giant round.
const maxBatch = 256

// tuneBatchDelay is how long the service lets a batch fill after its first
// observation arrives before running the round (see the pacing comment in
// loop). It bounds how far published tuning state can lag the served
// workload when traffic is light.
const tuneBatchDelay = 20 * time.Millisecond

// gather drains the queue non-blockingly into a batch seeded with head.
func (s *tuningService) gather(head *observation) []*observation {
	var batch []*observation
	if head != nil {
		batch = append(batch, head)
	}
	for len(batch) < maxBatch {
		select {
		case o := <-s.obsCh:
			batch = append(batch, o)
		default:
			return batch
		}
	}
	return batch
}

// runBatch is the asynchronous schedule's call site of the round: a drained
// batch of already-served queries, tuned off every query's critical path.
func (s *tuningService) runBatch(batch []*observation) {
	s.eng.tuneMu.Lock()
	defer s.eng.tuneMu.Unlock()
	s.eng.roundLocked(batch, nil)
}

// roundLocked is the engine's one §V tuning round, run by both schedules
// (the service's drained batches after execution; Execute's inline
// one-observation batch before it): byproduct admissions first (so set
// selection sees them materialized), then the tuner's round — fold the
// observations, select S*, and when ps is given choose its plan and exempt
// that plan's inputs — then the whole warehouse rearrangement in one
// ApplyMoves call, and finally one snapshot publish that makes it visible
// to the serving path at once: queries never observe a half-applied
// synopsis set. Returns the decision and the ids actually evicted and
// promoted. Caller holds tuneMu.
func (e *Engine) roundLocked(batch []*observation, ps *planner.PlanSet) (dec tuner.Decision, evicted, promoted []uint64) {
	roundStart := e.clock.Now() //taster:clock round timing is observability-only; the round's decisions never read it

	protect := make(map[uint64]bool)
	obs := make([]tuner.Observation, 0, len(batch))
	for _, o := range batch {
		e.admitBuiltLocked(o.built)
		for _, id := range o.uses {
			protect[id] = true
		}
		obs = append(obs, o.obs)
	}

	dec = e.tn.TuneBatch(obs, protect, ps)
	evicted, promoted = e.wh.ApplyMoves(dec.Evict, dec.Promote)
	e.stats.Evicted += int64(len(evicted))
	e.stats.Promoted += int64(len(promoted))
	e.stats.Rounds++
	e.stats.Observations += int64(len(batch))
	if e.mx != nil {
		e.mx.TuningRounds.Inc()
		e.mx.TuningBatchSize.Observe(float64(len(batch)))
		e.mx.TuningRoundSeconds.Observe(e.clock.Since(roundStart).Seconds()) //taster:clock round timing is observability-only; the round's decisions never read it
	}
	e.publishLocked(dec.Keep, dec.Gains)
	// Durable index of this round's layout; payload files were written at
	// spill time, so one manifest write checkpoints the whole round.
	e.noteCheckpointLocked()
	return dec, evicted, promoted
}

// admitBuiltLocked admits one query's byproducts (see admitLocked), counting
// them into the tuning stats; it returns the ids that replaced a stale
// stored copy. Caller holds tuneMu.
func (e *Engine) admitBuiltLocked(built []builtSynopsis) (refreshed []uint64) {
	for _, b := range built {
		stored, fresh := e.admitLocked(b.item, b.id, b.srcRows)
		if stored {
			e.stats.Admitted++
		}
		if fresh {
			e.stats.Refreshed++
			refreshed = append(refreshed, b.id)
		}
	}
	return refreshed
}

// Drain blocks until every observation enqueued before the call has been
// tuned and the resulting snapshot published — the barrier that makes
// sequential Execute→Drain loops deterministic. No-op for synchronous and
// baseline engines.
func (e *Engine) Drain() {
	if e.svc == nil {
		return
	}
	ack := make(chan struct{})
	select {
	case e.svc.flushCh <- ack:
		<-ack
	case <-e.svc.done:
	}
}

// Quiesce drains the tuning pipeline and then republishes the snapshot
// from current store/warehouse state. After it returns, the published
// tuning state reflects every completed query and ingest — experiments use
// it as the settle point before reading results. Engines without the
// background service are always settled; for them it only republishes.
func (e *Engine) Quiesce() {
	e.Drain()
	e.tuneMu.Lock()
	e.republishLocked()
	e.tuneMu.Unlock()
}

// Close stops the background tuning service and waits for its goroutine to
// exit: after Close returns, no batch runs and no snapshot publish happens
// unless triggered by another engine entry point. Observations still queued
// are discarded — call Drain first if they matter.
//
// With a persistent warehouse (Config.WarehouseDir), Close then writes the
// final checkpoint: the buffer tier's payloads (volatile byproducts during
// normal operation) are spilled alongside the already-durable warehouse
// tier, and the manifest indexes the complete state — the clean-shutdown
// half of the warm-restart contract. The returned error reports a failed
// final checkpoint or the first failed background one; memory-resident
// engines always return nil. Safe to call multiple times, so callers may
// always defer it.
func (e *Engine) Close() error {
	if e.svc != nil {
		e.svc.closed.Do(func() { close(e.svc.done) })
		<-e.svc.exited
	}
	if e.db == nil {
		return nil
	}
	e.tuneMu.Lock()
	defer e.tuneMu.Unlock()
	if err := e.checkpointLocked(true); err != nil {
		return err
	}
	return e.persistErr
}

// TuningStats returns the engine's cumulative tuning accounting (baseline
// engines run no rounds; only their SnapshotVersion moves).
func (e *Engine) TuningStats() TuningStats {
	e.tuneMu.Lock()
	st := e.stats
	e.tuneMu.Unlock()
	if e.svc != nil {
		st.Dropped = e.svc.dropped.Load()
	}
	st.SnapshotVersion = e.snap.Load().version
	if e.planCache != nil {
		cs := e.planCache.Stats()
		st.PlanCacheHits = cs.Hits
		st.PlanCacheMisses = cs.Misses
		st.PlanCacheEvictions = cs.Evictions
	}
	st.JoinCache = e.joinCache.Stats()
	return st
}

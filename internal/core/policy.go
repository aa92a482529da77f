package core

import (
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/planner"
	"github.com/tasterdb/taster/internal/tuner"
)

// choosePolicy picks the plan a query executes from its candidate set and
// the tuning snapshot the set was planned against. An engine's mode selects
// one policy at Open; Execute never branches on the mode to choose.
type choosePolicy func(ps *planner.PlanSet, snap *tuningSnapshot) tuner.Decision

// policyFor maps an engine mode to its plan-choice policy.
func policyFor(m Mode) choosePolicy {
	switch m {
	case ModeTaster:
		return chooseFromSnapshot
	case ModeQuickr:
		return chooseQuickr
	case ModeOffline:
		return chooseOffline
	}
	return chooseExact
}

// chooseFromSnapshot runs the §V plan-choice rule against published state:
// the same scoring as the tuning round, with synopsis presence and staleness
// read from the snapshot instead of live stores. Materialization is gated on
// the published S* — a synopsis first seen by this query becomes
// materializable only after a background round has selected it, which
// delays warmup by one batch and is the price of never tuning on the
// critical path.
func chooseFromSnapshot(ps *planner.PlanSet, snap *tuningSnapshot) tuner.Decision {
	return tuner.Choose(ps, snap.keep, snap.gains, snap.window, snap.wh.Has,
		func(id uint64) float64 { return snap.staleness[id] })
}

// chooseQuickr is the online-AQP baseline: the best per-query plan with no
// reuse and no materialization. The paper's Quickr implements only the
// sampler operators — no sketch-joins — so sketch plans are out of scope.
func chooseQuickr(ps *planner.PlanSet, _ *tuningSnapshot) tuner.Decision {
	chosen := ps.Exact
	for _, c := range ps.Candidates {
		if _, isSketch := c.Root.(*plan.SketchJoin); isSketch {
			continue
		}
		if len(c.Uses) == 0 && c.Cost < chosen.Cost {
			chosen = c
		}
	}
	return tuner.Decision{Chosen: chosen}
}

// chooseOffline is the BlinkDB-style baseline: reuse a pre-built sample when
// one matches, else run exact; never sample at query time.
func chooseOffline(ps *planner.PlanSet, _ *tuningSnapshot) tuner.Decision {
	chosen := ps.Exact
	for _, c := range ps.Candidates {
		if len(c.Creates) == 0 && c.Cost < chosen.Cost {
			chosen = c
		}
	}
	return tuner.Decision{Chosen: chosen}
}

// chooseExact always runs the exact plan (the vanilla-SparkSQL baseline).
func chooseExact(ps *planner.PlanSet, _ *tuningSnapshot) tuner.Decision {
	return tuner.Decision{Chosen: ps.Exact}
}

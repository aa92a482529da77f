package core

import (
	"testing"

	"github.com/tasterdb/taster/internal/meta"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/planner"
)

// TestBaselinePolicies drives the three baseline plan-choice policies over
// one hand-built plan set whose cheapest candidates are exactly the ones
// each baseline must refuse.
func TestBaselinePolicies(t *testing.T) {
	exact := planner.Candidate{Desc: "exact", Cost: 10, Root: &plan.Aggregate{}}
	ps := &planner.PlanSet{
		Exact: exact,
		Candidates: []planner.Candidate{
			exact,
			{Desc: "reuse", Cost: 1, Root: &plan.Aggregate{}, Uses: []uint64{4}},
			{Desc: "sketch", Cost: 2, Root: &plan.SketchJoin{}},
			{Desc: "build", Cost: 3, Root: &plan.Aggregate{},
				Creates: []planner.CreateSpec{{Entry: &meta.Entry{Desc: meta.Descriptor{ID: 5}}}}},
			{Desc: "inline", Cost: 4, Root: &plan.Aggregate{}},
		},
	}
	for _, tc := range []struct {
		mode Mode
		want string
	}{
		{ModeQuickr, "build"},  // skips the reuse plan and the sketch-join
		{ModeOffline, "reuse"}, // anything that creates nothing
		{ModeExact, "exact"},   // ignores every candidate
	} {
		dec := policyFor(tc.mode)(ps, nil)
		if dec.Chosen.Desc != tc.want {
			t.Errorf("%v chose %q, want %q", tc.mode, dec.Chosen.Desc, tc.want)
		}
		if len(dec.Materialize) != 0 || dec.Keep != nil {
			t.Errorf("%v: baselines materialize nothing and keep no set: %+v", tc.mode, dec)
		}
	}
	// Offline without a matching pre-built synopsis may still not build.
	ps.Candidates = append(ps.Candidates[:1], ps.Candidates[3])
	if got := chooseOffline(ps, nil).Chosen.Desc; got != "exact" {
		t.Errorf("offline with only a build plan chose %q, want exact", got)
	}
}

package experiments

import (
	"strings"
	"testing"
)

// tiny is the smallest configuration exercising all machinery quickly.
var tiny = Config{SF: 0.004, Queries: 24, Seed: 7}

func TestFigure3TPCHShape(t *testing.T) {
	f, err := Figure3("tpch", tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Runs) != 6 {
		t.Fatalf("TPC-H must have 6 bars (incl. 100%% budgets), got %d", len(f.Runs))
	}
	byName := map[string]SystemRun{}
	for _, r := range f.Runs {
		byName[r.System] = r
	}
	base := byName["Baseline"]
	taster := byName["Taster(50%)"]
	quickr := byName["Quickr"]
	blinkdb := byName["BlinkDB(50%)"]
	// Paper Fig. 3a shape: Taster beats Quickr substantially and at least
	// matches BlinkDB; everyone beats Baseline; only BlinkDB pays offline.
	if taster.QuerySec >= base.QuerySec {
		t.Fatalf("Taster %.0f must beat Baseline %.0f", taster.QuerySec, base.QuerySec)
	}
	if taster.QuerySec >= quickr.QuerySec {
		t.Fatalf("Taster %.0f must beat Quickr %.0f (reuse!)", taster.QuerySec, quickr.QuerySec)
	}
	if taster.Speedup < blinkdb.Speedup {
		t.Fatalf("Taster %.2fx must at least match BlinkDB %.2fx", taster.Speedup, blinkdb.Speedup)
	}
	if blinkdb.OfflineSec <= 0 || taster.OfflineSec != 0 || quickr.OfflineSec != 0 {
		t.Fatal("only BlinkDB pays an offline phase")
	}
	// 50% vs 100% budget gap small for Taster (paper: <10%; allow slack).
	t100 := byName["Taster(100%)"]
	gap := (taster.QuerySec - t100.QuerySec) / t100.QuerySec
	if gap < -0.05 || gap > 0.35 {
		t.Fatalf("Taster 50%%/100%% gap = %.2f, want small", gap)
	}
	if !strings.Contains(f.Table(), "Taster(50%)") {
		t.Fatal("table rendering")
	}
}

func TestFigure3OtherWorkloads(t *testing.T) {
	for _, wl := range []string{"tpcds", "instacart"} {
		f, err := Figure3(wl, tiny)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if len(f.Runs) != 4 {
			t.Fatalf("%s must have 4 bars, got %d", wl, len(f.Runs))
		}
		var base, taster SystemRun
		for _, r := range f.Runs {
			if r.System == "Baseline" {
				base = r
			}
			if strings.HasPrefix(r.System, "Taster") {
				taster = r
			}
		}
		if taster.QuerySec >= base.QuerySec {
			t.Fatalf("%s: Taster %.0f must beat Baseline %.0f", wl, taster.QuerySec, base.QuerySec)
		}
	}
	if _, err := Figure3("nope", tiny); err == nil {
		t.Fatal("want unknown workload error")
	}
}

func TestFigure4SpeedupCDF(t *testing.T) {
	// Fig. 4 needs a longer sequence than `tiny` for reuse to warm up.
	f, err := Figure4(Config{SF: 0.004, Queries: 60, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: less than ~10% of queries slow down (planning overhead); allow
	// headroom at tiny scale.
	if f.FracSlowedDown > 0.35 {
		t.Fatalf("%.0f%% of queries slowed down", 100*f.FracSlowedDown)
	}
	if f.MedianSpeedup <= 1 {
		t.Fatalf("median speedup %.2f must exceed 1", f.MedianSpeedup)
	}
	if f.Speedups.Percentile(90) < 2 {
		t.Fatalf("p90 speedup %.2f too low", f.Speedups.Percentile(90))
	}
	if f.MaxSpeedup < f.MedianSpeedup {
		t.Fatal("max < median?")
	}
	if f.Table() == "" {
		t.Fatal("render")
	}
}

func TestFigure5ErrorCDF(t *testing.T) {
	f, err := Figure5(tiny)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: no missing groups, >93% of queries under 10% error, all <12%.
	// Tiny scale has fewer rows per group; we verify the qualitative bar.
	if f.MissingGroups > 0 {
		t.Fatalf("%d missing groups (distinct sampler must prevent this)", f.MissingGroups)
	}
	if f.FracUnder10 < 0.6 {
		t.Fatalf("only %.0f%% of queries under 10%% error", 100*f.FracUnder10)
	}
	if f.MaxError > 0.5 {
		t.Fatalf("max error %.2f too large", f.MaxError)
	}
	if f.Table() == "" {
		t.Fatal("render")
	}
}

func TestFigure6Adaptivity(t *testing.T) {
	f, err := Figure6(Config{SF: 0.004, Queries: 80, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Points) != 80 {
		t.Fatalf("points = %d", len(f.Points))
	}
	// The warehouse must actually turn over across epochs: some evictions
	// and creations happen after the first epoch (shifting interests).
	evictions, creations := 0, 0
	for _, p := range f.Points[20:] {
		evictions += p.Evictions
		creations += p.Creations
	}
	if evictions == 0 || creations == 0 {
		t.Fatalf("no warehouse turnover across epochs (evict=%d create=%d)", evictions, creations)
	}
	// Warehouse occupancy stays within the budget at every point.
	for _, p := range f.Points {
		if p.WarehouseBytes < 0 {
			t.Fatal("negative occupancy")
		}
	}
	if f.Table() == "" {
		t.Fatal("render")
	}
}

func TestFigure7Hints(t *testing.T) {
	f, err := Figure7(Config{SF: 0.004, Queries: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if f.HintsScramble <= 0 || f.HintsOfflineSec <= 0 {
		t.Fatalf("offline phases must cost: %+v", f)
	}
	// Paper Fig. 7 shape: hints beat both baseline and plain Taster on the
	// full mix, and help most on the hinted database.
	if f.SpeedupAll <= 1 {
		t.Fatalf("hints total speedup %.2f must exceed 1", f.SpeedupAll)
	}
	if f.SpeedupDboff < f.SpeedupAll*0.8 {
		t.Fatalf("dboff speedup %.2f should be at least comparable to overall %.2f",
			f.SpeedupDboff, f.SpeedupAll)
	}
	if f.Table() == "" {
		t.Fatal("render")
	}
}

func TestFigure8WindowLengths(t *testing.T) {
	f, err := Figure8(Config{SF: 0.004, Queries: 60, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"window 5", "window 10", "window 50", "adaptive"} {
		if f.Totals[k] <= 0 {
			t.Fatalf("missing config %q", k)
		}
	}
	// Paper: adaptive at least matches the best static setting (within
	// noise at tiny scale).
	best := f.Totals["window 5"]
	for _, k := range []string{"window 10", "window 50"} {
		if f.Totals[k] < best {
			best = f.Totals[k]
		}
	}
	if f.Totals["adaptive"] > best*1.25 {
		t.Fatalf("adaptive %.0f much worse than best static %.0f", f.Totals["adaptive"], best)
	}
	if f.FinalWindow < 2 {
		t.Fatalf("final window = %d", f.FinalWindow)
	}
	if f.Table() == "" {
		t.Fatal("render")
	}
}

func TestFigure9Elasticity(t *testing.T) {
	f, err := Figure9(Config{SF: 0.004, Queries: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Phases) != 5 || f.Phases[0] != "20%" || f.Phases[2] != "100%" {
		t.Fatalf("phases = %v", f.Phases)
	}
	for i, s := range f.Speedups {
		if s <= 0 {
			t.Fatalf("phase %d speedup %.2f", i, s)
		}
	}
	// Paper Fig. 9 shape: the tight 20% phase must not beat the roomy
	// steady-state 100% phase (index 4, after warm-up).
	if f.Speedups[0] > f.Speedups[4] {
		t.Fatalf("20%% budget (%.2fx) outperformed steady 100%% (%.2fx)",
			f.Speedups[0], f.Speedups[4])
	}
	if f.Table() == "" {
		t.Fatal("render")
	}
}

func TestTableI(t *testing.T) {
	f, err := TableI(Config{SF: 0.004, Queries: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 templates", len(f.Rows))
	}
	agrees := 0
	for _, r := range f.Rows {
		if r.Agrees {
			agrees++
		}
	}
	// Taster's planner should respect the paper's sketch/sample designation
	// for most templates.
	if agrees < 6 {
		t.Fatalf("only %d/8 templates match their Table-I family:\n%s", agrees, f.Table())
	}
}

func TestCDFHelpers(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2})
	if c.Percentile(0) != 1 || c.Percentile(100) != 3 {
		t.Fatal("percentiles")
	}
	if c.FractionBelow(2) != 2.0/3 {
		t.Fatalf("FractionBelow = %v", c.FractionBelow(2))
	}
	empty := NewCDF(nil)
	if empty.Percentile(50) != 0 || empty.FractionBelow(1) != 0 {
		t.Fatal("empty CDF")
	}
}

func TestStreamingExperiment(t *testing.T) {
	s, err := Streaming("tpch", tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 3 || s.Appends == 0 {
		t.Fatalf("rows=%d appends=%d", len(s.Rows), s.Appends)
	}
	fresh, unbounded := s.Rows[0], s.Rows[2]
	if fresh.MaxStaleness != 0 || unbounded.MaxStaleness >= 0 {
		t.Fatalf("policy order: %+v", s.Rows)
	}
	// The fresh-only policy may never answer from a synopsis that missed
	// appended rows, so it can only reuse less (and build at least as much)
	// than the unbounded baseline over the identical stream.
	if fresh.ReuseQueries > unbounded.ReuseQueries {
		t.Fatalf("fresh-only reused %d > unbounded %d", fresh.ReuseQueries, unbounded.ReuseQueries)
	}
	if !strings.Contains(s.Table(), "staleness bound") {
		t.Fatal("table rendering")
	}
}

// TestPartitionPruningSpeedup is the PR's perf acceptance criterion: on the
// time-clustered selective-predicate workload, zone-map pruning must cut
// simulated time by at least 2x (it should do far better on scan bytes)
// while leaving every answer bit-equal.
func TestPartitionPruningSpeedup(t *testing.T) {
	r, err := Partition(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if !r.ResultsEqual {
		t.Fatal("pruning changed query answers")
	}
	if r.SimSpeedup < 2 {
		t.Fatalf("pruning speedup %.2fx < 2x (pruned %.1f vs full %.1f sim seconds)",
			r.SimSpeedup, r.PrunedSim, r.FullSim)
	}
	if r.BytesRatio < 2 {
		t.Fatalf("scan-byte ratio %.2fx < 2x", r.BytesRatio)
	}
	if r.Partitions < 2 {
		t.Fatalf("table tiled into %d partitions; pruning cannot fire", r.Partitions)
	}
	if !strings.Contains(r.Table(), "Partition pruning") {
		t.Fatal("table rendering")
	}
}

package experiments

import (
	"fmt"

	"github.com/tasterdb/taster/internal/baselines"
	"github.com/tasterdb/taster/internal/core"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/tuner"
	"github.com/tasterdb/taster/internal/workload"
)

// Figure6Point is one query of the adaptivity trace: execution time plus
// warehouse occupancy, like the two series of paper Fig. 6.
type Figure6Point struct {
	Query          int
	Epoch          int
	SimSeconds     float64
	WarehouseBytes int64
	Evictions      int
	Creations      int
}

// Figure6Result is the full trace.
type Figure6Result struct {
	Points        []Figure6Point
	EpochAvg      [4]float64 // average sim seconds per epoch
	EpochStartAvg [4]float64 // average over each epoch's first 5 queries
}

// Table renders per-epoch summaries (the full trace is in Points).
func (f *Figure6Result) Table() string {
	rows := make([][]string, 0, 4)
	for e := 0; e < 4; e++ {
		rows = append(rows, []string{
			fmt.Sprintf("epoch %d", e+1),
			fmt.Sprintf("%.1f", f.EpochStartAvg[e]),
			fmt.Sprintf("%.1f", f.EpochAvg[e]),
		})
	}
	return "Figure 6 (workload adaptivity, 4 epochs × 20 TPC-H queries)\n" +
		table([]string{"epoch", "avg first-5 (s)", "avg all (s)"}, rows)
}

// Figure6 reproduces the workload-shift experiment: 80 queries in four
// epochs over the paper's template groups, budget ≈ 35 GB / 300 GB ≈ 12% of
// the dataset. The trace shows warehouse contents turning over when each
// epoch starts.
func Figure6(cfg Config) (*Figure6Result, error) {
	cfg = cfg.withDefaults()
	w, err := loadWorkload("tpch", cfg)
	if err != nil {
		return nil, err
	}
	eng := newEngine(w, core.ModeTaster, 0.12, uint64(cfg.Seed))

	out := &Figure6Result{}
	qi := 0
	for epoch := 1; epoch <= 4; epoch++ {
		queries := w.QueriesFromTemplates(workload.TPCHEpoch(epoch), 20, cfg.Seed+int64(epoch))
		sims, results, err := runSeq(eng, w.Catalog, queries)
		if err != nil {
			return nil, err
		}
		for i, s := range sims {
			rep := results[i].Report
			out.Points = append(out.Points, Figure6Point{
				Query:          qi,
				Epoch:          epoch,
				SimSeconds:     s,
				WarehouseBytes: rep.WarehouseBytes + rep.BufferBytes,
				Evictions:      len(rep.Evicted),
				Creations:      len(rep.CreatedSynopses),
			})
			out.EpochAvg[epoch-1] += s / 20
			if i < 5 {
				out.EpochStartAvg[epoch-1] += s / 5
			}
			qi++
		}
	}
	return out, nil
}

// Figure7Result compares Baseline, Taster, and Taster+hints over the
// two-database mix (paper Fig. 7), with the offline phase split into
// scrambling and sampling like the figure's stacked bars. The scramble is a
// charge, not a copy: baselines.ApplyHints samples the table directly.
type Figure7Result struct {
	BaselineSec     float64
	TasterSec       float64
	HintsOfflineSec float64 // sampling part
	HintsScramble   float64 // the charged scramble cost
	HintsQuerySec   float64
	SpeedupAll      float64 // hints vs baseline, whole mix
	SpeedupVsTaster float64
	SpeedupDboff    float64 // hints vs baseline on the hinted database only
}

// Table renders the stacked bars.
func (f *Figure7Result) Table() string {
	rows := [][]string{
		{"Baseline", "0", "0", fmt.Sprintf("%.0f", f.BaselineSec), fmt.Sprintf("%.0f", f.BaselineSec)},
		{"Taster", "0", "0", fmt.Sprintf("%.0f", f.TasterSec), fmt.Sprintf("%.0f", f.TasterSec)},
		{"Taster+hints", fmt.Sprintf("%.0f", f.HintsScramble), fmt.Sprintf("%.0f", f.HintsOfflineSec),
			fmt.Sprintf("%.0f", f.HintsQuerySec),
			fmt.Sprintf("%.0f", f.HintsScramble+f.HintsOfflineSec+f.HintsQuerySec)},
	}
	return "Figure 7 (user hints, 2×TPC-H mix)\n" +
		table([]string{"system", "scramble", "offline sampling", "query exec", "total"}, rows) +
		fmt.Sprintf("speedup vs baseline: %.2fx (dboff-only %.2fx), vs Taster %.2fx\n",
			f.SpeedupAll, f.SpeedupDboff, f.SpeedupVsTaster)
}

// Figure7 runs two TPC-H instances (dboff gets a pinned lineitem hint,
// a uniform sample at the default accuracy; dbonl is handled fully online)
// with interleaved queries, as §VI-E describes.
func Figure7(cfg Config) (*Figure7Result, error) {
	cfg = cfg.withDefaults()
	half := cfg.Queries / 2
	if half < 10 {
		half = 10
	}
	wOff := workload.TPCH(cfg.SF, cfg.Seed)
	wOnl := workload.TPCH(cfg.SF, cfg.Seed+999)
	qOff := wOff.Queries(half, cfg.Seed+1)
	qOnl := wOnl.Queries(half, cfg.Seed+2)

	runPair := func(engOff, engOnl *core.Engine) (float64, float64, error) {
		sOff, _, err := runSeq(engOff, wOff.Catalog, qOff)
		if err != nil {
			return 0, 0, err
		}
		sOnl, _, err := runSeq(engOnl, wOnl.Catalog, qOnl)
		if err != nil {
			return 0, 0, err
		}
		return sum(sOff), sum(sOnl), nil
	}

	// Baseline.
	bOff, bOnl, err := runPair(newEngine(wOff, core.ModeExact, 1, uint64(cfg.Seed)),
		newEngine(wOnl, core.ModeExact, 1, uint64(cfg.Seed)))
	if err != nil {
		return nil, err
	}
	// Taster without hints (50 GB / 300 GB ≈ 17% of one database; our two
	// engines split the paper's shared quota).
	tOff, tOnl, err := runPair(newEngine(wOff, core.ModeTaster, 0.3, uint64(cfg.Seed)),
		newEngine(wOnl, core.ModeTaster, 0.3, uint64(cfg.Seed)))
	if err != nil {
		return nil, err
	}
	// Taster with hints on dboff's lineitem.
	bytes, rows := wOff.CostScale()
	model := storage.ScaledCostModel(bytes, rows)
	hintedOff := newEngine(wOff, core.ModeTaster, 0.3, uint64(cfg.Seed))
	off, err := baselines.ApplyHints(hintedOff, []baselines.Hint{{
		Table:     "lineitem",
		StratCols: []string{"lineitem.l_returnflag", "lineitem.l_linestatus", "lineitem.l_shipmode"},
		AggCols:   []string{"lineitem.l_quantity", "lineitem.l_extendedprice", "lineitem.l_discount"},
	}}, model, uint64(cfg.Seed))
	if err != nil {
		return nil, err
	}
	hOff, hOnl, err := runPair(hintedOff, newEngine(wOnl, core.ModeTaster, 0.3, uint64(cfg.Seed)))
	if err != nil {
		return nil, err
	}

	res := &Figure7Result{
		BaselineSec:     bOff + bOnl,
		TasterSec:       tOff + tOnl,
		HintsScramble:   off.ScrambleSecs,
		HintsOfflineSec: off.SimSeconds - off.ScrambleSecs,
		HintsQuerySec:   hOff + hOnl,
	}
	hintsTotal := res.HintsScramble + res.HintsOfflineSec + res.HintsQuerySec
	res.SpeedupAll = res.BaselineSec / hintsTotal
	res.SpeedupVsTaster = res.TasterSec / hintsTotal
	res.SpeedupDboff = bOff / (hOff + off.SimSeconds)
	return res, nil
}

// Figure8Result compares fixed window lengths against the adaptive window
// (paper Fig. 8).
type Figure8Result struct {
	Totals map[string]float64 // config name → total simulated seconds
	// FinalWindow is the adaptive run's final w (paper: fluctuates 12-17).
	FinalWindow int
}

// Table renders the bars.
func (f *Figure8Result) Table() string {
	order := []string{"window 5", "window 10", "window 50", "adaptive"}
	rows := make([][]string, 0, 4)
	for _, k := range order {
		rows = append(rows, []string{k, fmt.Sprintf("%.0f", f.Totals[k])})
	}
	return "Figure 8 (horizon length, 200 TPC-H queries)\n" +
		table([]string{"config", "total sim seconds"}, rows) +
		fmt.Sprintf("adaptive window ended at w=%d\n", f.FinalWindow)
}

// Figure8 runs the same sequence under w=5, w=10, w=50 and adaptive
// (starting at 5, as §VI-C does).
func Figure8(cfg Config) (*Figure8Result, error) {
	cfg = cfg.withDefaults()
	w, err := loadWorkload("tpch", cfg)
	if err != nil {
		return nil, err
	}
	queries := w.Queries(cfg.Queries, cfg.Seed)
	bytes, rows := w.CostScale()

	mk := func(window int, adaptive bool) *core.Engine {
		return core.New(w.Catalog, core.Config{
			Mode:          core.ModeTaster,
			StorageBudget: int64(float64(bytes) * 0.12),
			BufferSize:    bytes / 8,
			CostModel:     storage.ScaledCostModel(bytes, rows),
			Seed:          uint64(cfg.Seed),
			Tuner:         tuner.Config{Window: window, Adaptive: adaptive, Alpha: 0.25, MaxWindow: 64},
			Synchronous:   true,
		})
	}
	out := &Figure8Result{Totals: map[string]float64{}}
	for _, c := range []struct {
		name     string
		window   int
		adaptive bool
	}{
		{"window 5", 5, false},
		{"window 10", 10, false},
		{"window 50", 50, false},
		{"adaptive", 5, true},
	} {
		eng := mk(c.window, c.adaptive)
		sims, results, err := runSeq(eng, w.Catalog, queries)
		if err != nil {
			return nil, err
		}
		out.Totals[c.name] = sum(sims)
		if c.adaptive && len(results) > 0 {
			out.FinalWindow = results[len(results)-1].Report.Window
		}
	}
	return out, nil
}

// Figure9Result is the storage-elasticity sweep (paper Fig. 9): average
// speed-up over Baseline per budget phase 20% → 50% → 100% → 50% → 100%.
type Figure9Result struct {
	Phases   []string
	Speedups []float64
}

// Table renders the bars.
func (f *Figure9Result) Table() string {
	rows := make([][]string, len(f.Phases))
	for i := range f.Phases {
		rows[i] = []string{f.Phases[i], fmt.Sprintf("%.2fx", f.Speedups[i])}
	}
	return "Figure 9 (storage elasticity, 250 TPC-H queries)\n" +
		table([]string{"budget phase", "avg speedup vs Baseline"}, rows)
}

// Figure9 runs one continuous sequence while the admin changes the budget
// between phases; the engine retunes on every change.
func Figure9(cfg Config) (*Figure9Result, error) {
	cfg = cfg.withDefaults()
	n := cfg.Queries * 5 / 4 // paper uses 250 when the others use 200
	w, err := loadWorkload("tpch", cfg)
	if err != nil {
		return nil, err
	}
	queries := w.Queries(n, cfg.Seed)
	bytes, _ := w.CostScale()

	base := newEngine(w, core.ModeExact, 1, uint64(cfg.Seed))
	baseSims, _, err := runSeq(base, w.Catalog, queries)
	if err != nil {
		return nil, err
	}

	fracs := []float64{0.2, 0.5, 1.0, 0.5, 1.0}
	per := n / len(fracs)
	eng := newEngine(w, core.ModeTaster, fracs[0], uint64(cfg.Seed))
	out := &Figure9Result{}
	for phase, frac := range fracs {
		eng.SetStorageBudget(int64(float64(bytes) * frac))
		lo, hi := phase*per, (phase+1)*per
		if phase == len(fracs)-1 {
			hi = n
		}
		sims, _, err := runSeq(eng, w.Catalog, queries[lo:hi])
		if err != nil {
			return nil, err
		}
		out.Phases = append(out.Phases, fmt.Sprintf("%d%%", int(frac*100)))
		out.Speedups = append(out.Speedups, sum(baseSims[lo:hi])/sum(sims))
	}
	return out, nil
}

// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI) on the scaled-down substrate: Fig. 3a-c (end-to-end time
// per system), Fig. 4 (speed-up CDF), Fig. 5 (error CDF), Fig. 6 (workload
// adaptivity), Fig. 7 (user hints), Fig. 8 (window length), Fig. 9 (storage
// elasticity) and Table I (instacart templates). Results report simulated
// cluster seconds (the paper's I/O-bound regime, via storage.ScaledCostModel)
// and nothing measured on the host: no experiment reads a clock, so every
// report is a pure function of its Config.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"github.com/tasterdb/taster/internal/core"
	"github.com/tasterdb/taster/internal/sqlparser"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/workload"
)

// Config controls experiment scale. Zero values select defaults sized for
// a laptop run of the full suite in minutes.
type Config struct {
	SF      float64 // workload scale factor (default 0.004)
	Queries int     // length of the query sequence (default 200, like §VI-A)
	Seed    int64
}

func (c Config) withDefaults() Config {
	if c.SF <= 0 {
		c.SF = 0.004
	}
	if c.Queries <= 0 {
		c.Queries = 200
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// loadWorkload builds the named workload at the config's scale.
func loadWorkload(name string, cfg Config) (*workload.Workload, error) {
	switch name {
	case "tpch":
		return workload.TPCH(cfg.SF, cfg.Seed), nil
	case "tpcds":
		return workload.TPCDS(cfg.SF, cfg.Seed), nil
	case "instacart":
		return workload.Instacart(cfg.SF*5, cfg.Seed), nil
	}
	return nil, fmt.Errorf("experiments: unknown workload %q", name)
}

// newEngine builds an engine over the workload with a budget expressed as a
// fraction of the dataset size. Experiments run the tuner synchronously:
// every figure replays a fixed query sequence and must be byte-identical
// across runs, which the inline tuning round guarantees (the asynchronous
// pipeline's throughput is benchmark/'s dash_repeat workload).
func newEngine(w *workload.Workload, mode core.Mode, budgetFrac float64, seed uint64) *core.Engine {
	bytes, rows := w.CostScale()
	return core.New(w.Catalog, core.Config{
		Mode:          mode,
		StorageBudget: int64(float64(bytes) * budgetFrac),
		BufferSize:    bytes / 8,
		CostModel:     storage.ScaledCostModel(bytes, rows),
		Seed:          seed,
		Synchronous:   true,
	})
}

// runSeq executes the SQL sequence, returning per-query simulated seconds.
func runSeq(eng *core.Engine, cat *storage.Catalog, queries []string) ([]float64, []*core.Result, error) {
	sims := make([]float64, 0, len(queries))
	results := make([]*core.Result, 0, len(queries))
	for _, sql := range queries {
		q, err := sqlparser.Parse(sql, cat)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: %w\nSQL: %s", err, sql)
		}
		res, err := eng.Execute(q)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: %w\nSQL: %s", err, sql)
		}
		sims = append(sims, res.Report.SimSeconds)
		results = append(results, res)
	}
	return sims, results, nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// CDF summarizes a distribution at fixed percentiles.
type CDF struct {
	Values []float64 // sorted ascending
}

// NewCDF sorts a copy of the values.
func NewCDF(vals []float64) CDF {
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	return CDF{Values: v}
}

// Percentile returns the p-th percentile (p ∈ [0,100]).
func (c CDF) Percentile(p float64) float64 {
	if len(c.Values) == 0 {
		return 0
	}
	idx := int(p / 100 * float64(len(c.Values)-1))
	return c.Values[idx]
}

// FractionBelow returns the fraction of values ≤ x.
func (c CDF) FractionBelow(x float64) float64 {
	if len(c.Values) == 0 {
		return 0
	}
	n := sort.SearchFloat64s(c.Values, x)
	// include equal values
	for n < len(c.Values) && c.Values[n] <= x {
		n++
	}
	return float64(n) / float64(len(c.Values))
}

// table renders an ASCII table.
func table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&sb, "| %-*s ", width[i], c)
		}
		sb.WriteString("|\n")
	}
	line(header)
	for i := range header {
		sb.WriteString("|" + strings.Repeat("-", width[i]+2))
	}
	sb.WriteString("|\n")
	for _, r := range rows {
		line(r)
	}
	return sb.String()
}

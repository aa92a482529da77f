package experiments

import (
	"fmt"
	"math/rand"

	"github.com/tasterdb/taster/internal/core"
	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/planner"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
)

// PartitionResult is the zone-map pruning sweep: a time-clustered fact
// table is queried with selective day-range aggregates by two otherwise
// identical engines — one tiling it into fixed-size partitions, one keeping
// it monolithic, whose single zone map spans the whole day domain and so
// never rules its partition out. Answers are bit-equal by construction
// (pruning is sound; the differential harness proves it); what differs is
// work: bytes scanned and simulated cluster seconds.
type PartitionResult struct {
	Rows          int
	PartitionRows int
	Partitions    int
	Queries       int
	SpanFrac      float64 // fraction of the day domain each query touches
	// Totals over the query sequence.
	PrunedSim   float64
	FullSim     float64
	PrunedBytes int64
	FullBytes   int64
	// SimSpeedup = FullSim/PrunedSim; BytesRatio = FullBytes/PrunedBytes.
	SimSpeedup float64
	BytesRatio float64
	// ResultsEqual reports bit-equality of the two engines' row streams.
	ResultsEqual bool
}

// Table renders the experiment.
func (r *PartitionResult) Table() string {
	rows := [][]string{
		{"pruning off", fmt.Sprintf("%.1f", r.FullSim), fmt.Sprintf("%d", r.FullBytes), "reference"},
		{"pruning on", fmt.Sprintf("%.1f", r.PrunedSim), fmt.Sprintf("%d", r.PrunedBytes),
			fmt.Sprintf("%.1fx sim, %.1fx bytes, equal=%v", r.SimSpeedup, r.BytesRatio, r.ResultsEqual)},
	}
	return fmt.Sprintf("Partition pruning (%d rows, %d partitions of %d, %d queries @ %.0f%% day span) — simulated cluster seconds\n",
		r.Rows, r.Partitions, r.PartitionRows, r.Queries, r.SpanFrac*100) +
		table([]string{"engine", "total sim", "base bytes", "notes"}, rows)
}

// partitionDays is the day domain of the synthetic event table.
const partitionDays = 365

// partitionTable builds the time-clustered fact table: rows arrive in day
// order (the natural clustering of any append-only event log), so zone maps
// over fixed-size partitions carry tight day ranges and a selective day
// predicate provably excludes most partitions.
func partitionTable(rows int, seed int64) *storage.Catalog {
	r := rand.New(rand.NewSource(seed))
	b := storage.NewBuilder("events", storage.Schema{
		{Name: "events.day", Typ: storage.Int64},
		{Name: "events.region", Typ: storage.Int64},
		{Name: "events.amount", Typ: storage.Float64},
	})
	b.Grow(rows)
	for i := 0; i < rows; i++ {
		b.Int(0, int64(i*partitionDays/rows))
		b.Int(1, int64(r.Intn(8)))
		b.Float(2, float64(r.Intn(1000))/4+1)
	}
	cat := storage.NewCatalog()
	cat.Register(b.Build(1))
	return cat
}

// partitionQuery is one selective day-range aggregate.
func partitionQuery(cat *storage.Catalog, lo, hi int64) *planner.Query {
	events, _ := cat.Table("events")
	return &planner.Query{
		Tables: []planner.TableRef{{Name: "events", Table: events}},
		Filter: expr.Pred{
			expr.Compare("events.day", expr.GE, storage.IntValue(lo)),
			expr.Compare("events.day", expr.LE, storage.IntValue(hi)),
		},
		GroupBy:  []string{"events.region"},
		Aggs:     []plan.AggSpec{{Kind: stats.Sum, Col: "events.amount"}},
		Exact:    true,
		Accuracy: stats.DefaultAccuracy,
	}
}

// Partition runs the pruning sweep. Scale: rows grow with cfg.SF (the
// default 0.004 gives 20000 rows in 32 partitions), query count follows
// cfg.Queries capped at 64 — the sweep is A/B at fixed data, not a figure
// replay, so a short sequence already saturates the ratio.
func Partition(cfg Config) (*PartitionResult, error) {
	cfg = cfg.withDefaults()
	rows := int(5e6 * cfg.SF)
	if rows < 20000 {
		rows = 20000
	}
	partRows := rows / 32
	queries := cfg.Queries
	if queries > 64 {
		queries = 64
	}
	const spanFrac = 0.05

	out := &PartitionResult{
		Rows:          rows,
		PartitionRows: partRows,
		Queries:       queries,
		SpanFrac:      spanFrac,
	}

	run := func(partRows int) (float64, int64, [][][]storage.Value, error) {
		cat := partitionTable(rows, cfg.Seed)
		e := core.New(cat, core.Config{
			Mode:          core.ModeExact,
			StorageBudget: cat.TotalBytes(),
			BufferSize:    cat.TotalBytes(),
			CostModel:     storage.ScaledCostModel(cat.TotalBytes(), int64(rows)),
			Seed:          uint64(cfg.Seed),
			PartitionRows: partRows,
		})
		// Re-resolve: core.New retiles the catalog per PartitionRows.
		events, _ := cat.Table("events")
		out.Partitions = events.Partitions()
		r := rand.New(rand.NewSource(cfg.Seed + 1))
		days := float64(partitionDays)
		span := int64(days * spanFrac)
		var sim float64
		var bytes int64
		var results [][][]storage.Value
		for i := 0; i < queries; i++ {
			lo := int64(r.Intn(partitionDays - int(span)))
			res, err := e.Execute(partitionQuery(cat, lo, lo+span))
			if err != nil {
				return 0, 0, nil, err
			}
			sim += res.Report.SimSeconds
			bytes += res.Report.ScanBytes
			results = append(results, res.Rows)
		}
		return sim, bytes, results, nil
	}

	var prunedRows, fullRows [][][]storage.Value
	var err error
	if out.FullSim, out.FullBytes, fullRows, err = run(0); err != nil {
		return nil, err
	}
	if out.PrunedSim, out.PrunedBytes, prunedRows, err = run(partRows); err != nil {
		return nil, err
	}
	out.SimSpeedup = safeRatio(out.FullSim, out.PrunedSim)
	out.BytesRatio = safeRatio(float64(out.FullBytes), float64(out.PrunedBytes))
	out.ResultsEqual = equalRowRuns(prunedRows, fullRows)
	return out, nil
}

// equalRowRuns compares two sequences of result-row sets value by value.
func equalRowRuns(a, b [][][]storage.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if len(a[i][j]) != len(b[i][j]) {
				return false
			}
			for c := range a[i][j] {
				if !a[i][j][c].Equal(b[i][j][c]) {
					return false
				}
			}
		}
	}
	return true
}

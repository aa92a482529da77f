package baselines

import (
	"fmt"

	"github.com/tasterdb/taster/internal/core"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
)

// Hint asks Taster to pre-build one sample offline (paper §V "User hints",
// §VI-E): a uniform sample of the named table, drawn in one pass by the
// online sampler and pinned in the warehouse at stats.DefaultAccuracy.
type Hint struct {
	Table string
	// StratCols are the grouping columns the analysis needs (the hint-giver
	// knows it; e.g. l_returnflag, l_linestatus for TPC-H q1). The sample
	// is sized for their average group and declares them as its
	// stratification.
	StratCols []string
	// AggCols declares which columns the sample was sized for.
	AggCols []string
}

// ApplyHints performs the offline phase on an existing Taster engine: per
// hint, one uniform sample of the table with about
// RequiredRowsPerGroup(1, DefaultAccuracy) rows in the average StratCols
// group, pinned at DefaultAccuracy — what that sizing supports. The offline
// clock is also charged the scrambled copy VerdictDB writes before it
// samples (a scan and a write of the whole table), so Fig. 7's stacked
// bars keep the paper's scramble step; the copy itself is not made, since
// a shuffled copy changes which rows are drawn, not the design. Returns
// the offline cost split into scramble and sampling parts.
func ApplyHints(eng *core.Engine, hints []Hint, model storage.CostModel, seed uint64) (OfflineStats, error) {
	var off OfflineStats
	for i, h := range hints {
		tbl, err := eng.Catalog().Table(h.Table)
		if err != nil {
			return off, fmt.Errorf("baselines: hint %d: %w", i, err)
		}
		k := stats.RequiredRowsPerGroup(1, stats.DefaultAccuracy)
		groups := max(tbl.GroupCount(h.StratCols), 1)
		p := min(max(float64(k)*float64(groups)/float64(tbl.NumRows()), 0.001), 0.2)

		scrambleCost := model.ScanSeconds(tbl.Bytes()) +
			model.CPUSeconds(int64(tbl.NumRows())) +
			model.WriteSeconds(tbl.Bytes())
		off.ScrambleSecs += scrambleCost
		off.SimSeconds += scrambleCost

		smp := synopses.BuildSampleFromTable(fmt.Sprintf("hint_%s_%d", h.Table, i), tbl,
			synopses.NewUniformSampler(p, seed+uint64(i)*7919), h.StratCols)
		off.SimSeconds += model.ScanSeconds(tbl.Bytes()) +
			model.CPUSeconds(int64(tbl.NumRows())) +
			model.WriteSeconds(smp.SizeBytes())
		off.SamplesBuilt++
		off.BytesGenerated += smp.SizeBytes()

		if _, err := eng.PinSample(h.Table, smp, h.AggCols, stats.DefaultAccuracy); err != nil {
			return off, fmt.Errorf("baselines: hint %d: %w", i, err)
		}
	}
	return off, nil
}

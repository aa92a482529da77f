// Package baselines implements the comparison systems of the paper's
// evaluation (§VI): BlinkDB-style offline sample selection (fed by an
// oracle workload, as the paper's own re-implementation was), and the
// offline phase of Taster+hints: pinned uniform samples, charged the
// scrambled copy VerdictDB would write. The Quickr and exact baselines are
// core engine modes (core.ModeQuickr, core.ModeExact).
package baselines

import (
	"fmt"
	"sort"

	"github.com/tasterdb/taster/internal/core"
	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/planner"
	"github.com/tasterdb/taster/internal/sqlparser"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
)

// OfflineStats reports the cost of an offline preparation phase, split the
// way the paper's figures split it.
type OfflineStats struct {
	SimSeconds     float64 // simulated cluster time of the offline phase
	ScrambleSecs   float64 // portion charged for scrambled copies (hints; none is made)
	SamplesBuilt   int
	BytesGenerated int64
}

// qcs is one BlinkDB "query column set": a table plus the stratification
// columns the workload's queries need on it.
type qcs struct {
	table string
	cols  []string
	freq  int
}

func (q qcs) key() string {
	return q.table + "|" + fmt.Sprint(q.cols)
}

// BlinkDBOffline analyses the oracle workload, selects the best set of
// stratified samples under the storage budget (frequency-weighted greedy —
// the selection the paper says the MILP of [4] would make on these
// workloads), builds them with the two-pass stratified sampler, pins them
// in a ModeOffline engine, and returns the engine plus offline costs.
func BlinkDBOffline(cat *storage.Catalog, oracleQueries []string, budget int64, model storage.CostModel, seed uint64) (*core.Engine, OfflineStats, error) {
	eng := core.New(cat, core.Config{
		Mode:          core.ModeOffline,
		StorageBudget: budget,
		BufferSize:    1 << 20,
		CostModel:     model,
		Seed:          seed,
	})
	var off OfflineStats

	// 1. Extract QCSes from the oracle workload.
	counts := make(map[string]*qcs)
	for _, sql := range oracleQueries {
		q, err := sqlparser.Parse(sql, cat)
		if err != nil {
			return nil, off, fmt.Errorf("baselines: oracle query: %w", err)
		}
		table, cols := queryQCS(q)
		if table == "" {
			continue
		}
		c := qcs{table: table, cols: cols}
		if got, ok := counts[c.key()]; ok {
			got.freq++
		} else {
			c.freq = 1
			counts[c.key()] = &c
		}
	}
	all := make([]*qcs, 0, len(counts))
	for _, c := range counts {
		all = append(all, c)
	}
	// Deterministic frequency-descending order.
	sort.Slice(all, func(i, j int) bool {
		if all[i].freq != all[j].freq {
			return all[i].freq > all[j].freq
		}
		return all[i].key() < all[j].key()
	})

	// 2. Build samples greedily until the budget is exhausted.
	k := stats.RequiredRowsPerGroup(1, stats.DefaultAccuracy)
	used := int64(0)
	for i, c := range all {
		tbl, err := cat.Table(c.table)
		if err != nil {
			continue
		}
		smp, err := synopses.StratifiedSample(
			fmt.Sprintf("blinkdb_%s_%d", c.table, i), tbl, c.cols, k, seed+uint64(i))
		if err != nil {
			continue
		}
		size := smp.SizeBytes()
		if used+size > budget {
			continue // skip; try smaller QCSes (greedy knapsack)
		}
		// Two blocking passes over the table plus the sample write — the
		// offline cost BlinkDB pays and Taster avoids (paper Fig. 3).
		off.SimSeconds += 2*(model.ScanSeconds(tbl.Bytes())+model.CPUSeconds(int64(tbl.NumRows()))) +
			model.WriteSeconds(size)
		off.SamplesBuilt++
		off.BytesGenerated += size
		used += size
		if _, err := eng.PinSample(c.table, smp, numericCols(tbl), stats.DefaultAccuracy); err != nil {
			return nil, off, err
		}
	}
	return eng, off, nil
}

// queryQCS derives the (fact table, stratification columns) a BlinkDB
// sample would need for the query: the columns appearing in GROUP BY and
// equality WHERE clauses on the fact table (BlinkDB's "query column sets" —
// join keys are deliberately excluded, as BlinkDB's are).
func queryQCS(q *planner.Query) (string, []string) {
	fact := q.FactTable().Name
	var cols []string
	for _, g := range q.GroupBy {
		if q.TableOf(g) == fact {
			cols = append(cols, g)
		}
	}
	if f := q.FilterForTable(fact); f != nil {
		cols = append(cols, expr.EqualityColumns(f)...)
	}
	return fact, expr.DedupCols(cols)
}

// numericCols lists a table's numeric columns (declared as the aggregate
// columns the sample was sized for — BlinkDB samples serve any aggregate
// over the table).
func numericCols(tbl *storage.Table) []string {
	var out []string
	for _, c := range tbl.Schema() {
		if c.Typ.Numeric() {
			out = append(out, c.Name)
		}
	}
	return out
}

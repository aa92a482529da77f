package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/sqlparser"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/workload"
)

// Differential harness: the partitioned storage layout is supposed to be
// invisible to query answers. The tests below drive the identical randomized
// instacart stream — interleaved queries and append batches — through
// engines that differ only in partition layout (or worker count) and demand
// bit-equal results.
//
// Layout-obliviousness rests on three invariants the engine layers maintain:
//   - morsel boundaries are global-row-based, never partition-based, so
//     float accumulation order is identical for any layout;
//   - every morsel's sampler draws from SplitSeed(seed, morselIdx) over
//     those same global-row morsel bounds, so a sample over [0,N) is
//     byte-identical no matter how [0,N) is tiled into partitions;
//   - zone-map pruning only skips partitions whose zone provably rejects
//     the filter, so the post-filter stream is unchanged.

// diffStreamCfg fixes the randomized workload every differential engine
// replays: appends mutate each engine's private catalog, and the TPC-H
// generator plus Stream are deterministic for (scale, seed), so every engine
// sees byte-identical data and operations. The 18 TPC-H templates cover
// uniform samples, distinct samplers, sketch joins and exact fallbacks, so
// the layout-equivalence claim is exercised across every synopsis kind.
var diffStreamCfg = workload.StreamConfig{
	Queries:     30,
	AppendEvery: 6,
	BatchFrac:   0.05,
	Seed:        11,
}

// diffRun is one engine's observable output over the stream: every result
// row, every confidence interval, and the per-query synopsis-reuse count.
// sim is each query's simulated cost; it varies with layout by design (zone
// pruning skips different partitions), so only the comparisons that hold the
// layout fixed read it.
type diffRun struct {
	rows [][]storage.Value
	ivs  [][]stats.Interval
	used []int
	sim  []float64
}

// runDifferentialStream replays the fixed stream through a fresh engine.
// partitionRows shapes the layout (0 keeps the generator's build layout; a
// huge value yields a single monolithic partition).
func runDifferentialStream(t *testing.T, mode Mode, partitionRows, workers int) diffRun {
	t.Helper()
	return runDifferentialStreamPinned(t, mode, partitionRows, workers, 0)
}

// runDifferentialStreamPinned additionally pins the planner's parallelism
// factor (0 leaves the default, which tracks Workers). The worker-identity
// tests need the pin: the worker count deliberately enters the cost model —
// more workers make morsel-parallel plans cheaper relative to serial sketch
// paths — so plan CHOICE varies with Workers by design. What must never vary
// is the chosen plan's EXECUTION, and pinning parallelism isolates exactly
// that claim.
func runDifferentialStreamPinned(t *testing.T, mode Mode, partitionRows, workers int, planParallelism float64) diffRun {
	t.Helper()
	w := workload.TPCH(0.004, 3)
	ops, err := w.Stream(diffStreamCfg)
	if err != nil {
		t.Fatal(err)
	}
	bytes, rows := w.CostScale()
	e := New(w.Catalog, Config{
		Mode:          mode,
		StorageBudget: bytes / 2,
		BufferSize:    bytes / 8,
		CostModel:     storage.ScaledCostModel(bytes, rows),
		Seed:          7,
		Workers:       workers,
		PartitionRows: partitionRows,
		// Serve within 15% drift: appends are 5% batches, so a strict
		// fresh-only policy would disqualify everything after the first
		// append and the reuse path would go untested.
		MaxStaleness: 0.15,
		Synchronous:  true,
	})
	if planParallelism > 0 {
		e.pl.Parallelism = planParallelism
	}
	var run diffRun
	for _, op := range ops {
		if op.Append != nil {
			if _, err := e.Ingest(op.Append.Table, op.Append.Rows); err != nil {
				t.Fatalf("ingest %s: %v", op.Append.Table, err)
			}
			continue
		}
		q, err := sqlparser.Parse(op.SQL, w.Catalog)
		if err != nil {
			t.Fatalf("%v\nSQL: %s", err, op.SQL)
		}
		res, err := e.Execute(q)
		if err != nil {
			t.Fatalf("%v\nSQL: %s", err, op.SQL)
		}
		run.rows = append(run.rows, res.Rows...)
		run.ivs = append(run.ivs, res.Intervals...)
		run.used = append(run.used, len(res.Report.UsedSynopses))
		run.sim = append(run.sim, res.Report.SimSeconds)
	}
	return run
}

// mustEqualRuns asserts two runs are bit-identical: same values (floats via
// math.Float64bits, so NaN payloads and signed zeros cannot hide behind ==;
// everything else via storage.Value.Equal), same interval bits, same reuse
// profile.
func mustEqualRuns(t *testing.T, label string, a, b diffRun) {
	t.Helper()
	valueEq := func(x, y storage.Value) bool {
		if x.Typ == storage.Float64 && y.Typ == storage.Float64 {
			return math.Float64bits(x.F) == math.Float64bits(y.F)
		}
		return x.Equal(y)
	}
	if len(a.rows) != len(b.rows) {
		t.Fatalf("%s: row count differs: %d vs %d", label, len(a.rows), len(b.rows))
	}
	for i := range a.rows {
		if len(a.rows[i]) != len(b.rows[i]) {
			t.Fatalf("%s: row %d width differs: %d vs %d", label, i, len(a.rows[i]), len(b.rows[i]))
		}
		for c := range a.rows[i] {
			if !valueEq(a.rows[i][c], b.rows[i][c]) {
				t.Fatalf("%s: row %d col %d differs: %v vs %v", label, i, c, a.rows[i][c], b.rows[i][c])
			}
		}
	}
	if len(a.ivs) != len(b.ivs) {
		t.Fatalf("%s: interval row count differs: %d vs %d", label, len(a.ivs), len(b.ivs))
	}
	for i := range a.ivs {
		if len(a.ivs[i]) != len(b.ivs[i]) {
			t.Fatalf("%s: interval row %d width differs", label, i)
		}
		for c := range a.ivs[i] {
			x, y := a.ivs[i][c], b.ivs[i][c]
			if math.Float64bits(x.Estimate) != math.Float64bits(y.Estimate) ||
				math.Float64bits(x.HalfWidth) != math.Float64bits(y.HalfWidth) {
				t.Fatalf("%s: interval %d/%d differs: %+v vs %+v", label, i, c, x, y)
			}
		}
	}
	if len(a.used) != len(b.used) {
		t.Fatalf("%s: query count differs: %d vs %d", label, len(a.used), len(b.used))
	}
	for i := range a.used {
		if a.used[i] != b.used[i] {
			t.Fatalf("%s: query %d synopsis-reuse count differs: %d vs %d", label, i, a.used[i], b.used[i])
		}
	}
}

// monolithicRows retiles every table into a single partition: Repartition
// caps the partition length at the table's row count, so any bound larger
// than the biggest table yields the pre-partitioning layout.
const monolithicRows = 1 << 30

// TestDifferentialExactPartitionedVsMonolithic: exact answers over a finely
// partitioned layout must be bit-equal to the monolithic engine's — the
// layout may move only simulated cost, never a result.
func TestDifferentialExactPartitionedVsMonolithic(t *testing.T) {
	// 797 is prime: partition boundaries land nowhere near the 4096-row
	// morsel grid, so any accidental dependence on aligned layouts would
	// surface here.
	part := runDifferentialStream(t, ModeExact, 797, 4)
	mono := runDifferentialStream(t, ModeExact, monolithicRows, 4)
	mustEqualRuns(t, "exact part-vs-mono", part, mono)
}

// TestDifferentialPruningSoundEndToEnd: zone-map pruning is always on, so
// its soundness is shown against the monolithic engine, whose one zone per
// table spans every value and so can prune nothing. Answers must be
// bit-equal (pruning may only skip partitions that provably contain no
// qualifying row), and on the partitioned layout pruning must actually have
// pruned something, which shows up as strictly smaller simulated seconds on
// at least one query. This is the engine-level face of the zone-map
// soundness property tests in internal/expr and internal/exec.
func TestDifferentialPruningSoundEndToEnd(t *testing.T) {
	pruned := runDifferentialStream(t, ModeExact, 797, 4)
	mono := runDifferentialStream(t, ModeExact, monolithicRows, 4)
	mustEqualRuns(t, "prune partitioned-vs-mono", pruned, mono)
	for i := range pruned.sim {
		if pruned.sim[i] < mono.sim[i] {
			return
		}
	}
	t.Fatal("no query got cheaper over 797-row partitions: nothing was pruned")
}

// TestDifferentialTasterLayoutOblivious: the full self-tuning engine —
// sample builds, staleness accounting, plan choice, reuse — answers the
// stream over 797-row partitions exactly as over monolithic tables.
// Global-row morsel sampling makes synopses identical for any tiling;
// pruning, the one deliberate layout-dependent behavior, moves only scan
// charges, and on this stream no plan choice with them.
func TestDifferentialTasterLayoutOblivious(t *testing.T) {
	part := runDifferentialStream(t, ModeTaster, 797, 4)
	mono := runDifferentialStream(t, ModeTaster, monolithicRows, 4)
	mustEqualRuns(t, "taster part-vs-mono", part, mono)
	// The stream must actually exercise reuse, or the equivalence above is
	// vacuous for the synopsis path.
	reused := 0
	for _, u := range part.used {
		reused += u
	}
	if reused == 0 {
		t.Fatal("stream never reused a synopsis; differential coverage is vacuous")
	}
}

// TestDifferentialWorkersUnderIngest: the acceptance criterion — the
// partitioned engine, pruning enabled, yields byte-identical results at
// worker counts 1, 4 and 8 while appends land mid-stream.
func TestDifferentialWorkersUnderIngest(t *testing.T) {
	for _, mode := range []Mode{ModeExact, ModeTaster} {
		w1 := runDifferentialStreamPinned(t, mode, 797, 1, 4)
		w4 := runDifferentialStreamPinned(t, mode, 797, 4, 4)
		w8 := runDifferentialStreamPinned(t, mode, 797, 8, 4)
		mustEqualRuns(t, "workers 1 vs 4", w1, w4)
		mustEqualRuns(t, "workers 1 vs 8", w1, w8)
	}
}

// nanCatalog builds a table whose float column carries the full IEEE bestiary
// — NaN, ±Inf, −0.0 — interleaved with ordinary values, plus int, string and
// group columns. This is the data the kernel NaN contract bites on: ordered
// comparisons must drop NaN rows, <> must keep them, and NOT must be a set
// complement rather than an operator negation.
func nanCatalog() *storage.Catalog {
	cat := storage.NewCatalog()
	b := storage.NewBuilder("mets", storage.Schema{
		{Name: "mets.grp", Typ: storage.Int64},
		{Name: "mets.metric", Typ: storage.Float64},
		{Name: "mets.qty", Typ: storage.Int64},
		{Name: "mets.tag", Typ: storage.String},
	})
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	tags := []string{"alpha", "beta", "", "gamma"}
	for i := 0; i < 20000; i++ {
		b.Int(0, int64(i%8))
		if i%11 == 0 {
			b.Float(1, specials[(i/11)%len(specials)])
		} else {
			b.Float(1, float64(i%200)-50.5)
		}
		b.Int(2, int64(i%97))
		b.Str(3, tags[i%len(tags)])
	}
	cat.Register(b.Build(4))
	return cat
}

// nanQueries exercise every kernel shape over the NaN-bearing table: ordered
// float compares (NaN must vanish), <> (NaN must survive), fused integer
// conjuncts, string IN, and a BETWEEN that folds specials into a SUM so the
// NaN propagates into the aggregate state where a single bit of drift shows.
// Every query carries a COUNT(*): that is the cell the oracle below can
// reproduce exactly, whatever order the engine folds its floats in.
var nanQueries = []string{
	`SELECT grp, SUM(metric), COUNT(*) FROM mets WHERE metric > 10 GROUP BY grp`,
	`SELECT COUNT(*) FROM mets WHERE metric <> 50.5`,
	`SELECT grp, COUNT(*) FROM mets WHERE metric <= 0 GROUP BY grp`,
	`SELECT SUM(metric), COUNT(*) FROM mets WHERE qty >= 10 AND qty < 60 AND grp = 3`,
	`SELECT grp, COUNT(*) FROM mets WHERE tag IN ('alpha', '') GROUP BY grp`,
	`SELECT SUM(metric), AVG(qty), COUNT(*) FROM mets WHERE grp BETWEEN 2 AND 5`,
	`SELECT grp, SUM(qty), COUNT(*) FROM mets WHERE metric < 1000000 GROUP BY grp`,
}

// runNaNQueries executes the fixed NaN query set on a fresh exact-mode engine.
func runNaNQueries(t *testing.T, workers, partitionRows int) diffRun {
	t.Helper()
	cat := nanCatalog()
	e := New(cat, Config{
		Mode:          ModeExact,
		StorageBudget: cat.TotalBytes(),
		BufferSize:    cat.TotalBytes(),
		CostModel:     storage.ScaledCostModel(cat.TotalBytes(), 20000),
		Seed:          7,
		Workers:       workers,
		PartitionRows: partitionRows,
		Synchronous:   true,
	})
	var run diffRun
	for _, sql := range nanQueries {
		q, err := sqlparser.Parse(sql, cat)
		if err != nil {
			t.Fatalf("%v\nSQL: %s", err, sql)
		}
		res, err := e.Execute(q)
		if err != nil {
			t.Fatalf("%v\nSQL: %s", err, sql)
		}
		run.rows = append(run.rows, res.Rows...)
		run.used = append(run.used, len(res.Report.UsedSynopses))
		run.sim = append(run.sim, res.Report.SimSeconds)
	}
	return run
}

// nanOracleCell is what the oracle knows about one result row of the NaN
// query set: its group key (grouped queries) and its COUNT(*) cell.
type nanOracleCell struct {
	grouped  bool
	key      int64
	countCol int
	count    float64
}

// nanOracle answers the NaN query set the slow way, sharing no code with the
// engine's filter path: each query's WHERE runs through expr.EvalBool — the
// interpreter — over every row of a fresh nanCatalog, and a plain loop counts
// the surviving rows per grp. Cells come out in the engine's row order
// (queries in order, groups ascending, empty groups absent).
func nanOracle(t *testing.T) []nanOracleCell {
	t.Helper()
	cat := nanCatalog()
	tbl, err := cat.Table("mets")
	if err != nil {
		t.Fatal(err)
	}
	var cells []nanOracleCell
	for _, sql := range nanQueries {
		q, err := sqlparser.Parse(sql, cat)
		if err != nil {
			t.Fatalf("%v\nSQL: %s", err, sql)
		}
		countCol := -1
		for k, a := range q.Aggs {
			if a.Kind == stats.Count && a.Col == "" {
				countCol = len(q.GroupBy) + k
			}
		}
		if countCol < 0 || len(q.GroupBy) > 1 || (len(q.GroupBy) == 1 && q.GroupBy[0] != "mets.grp") {
			t.Fatalf("oracle needs COUNT(*) and at most GROUP BY grp\nSQL: %s", sql)
		}
		counts := make(map[int64]int)
		total := 0
		for p := 0; p < tbl.Partitions(); p++ {
			for _, b := range tbl.Scan(p, storage.BatchSize) {
				idx, err := expr.EvalBool(q.Filter, b)
				if err != nil {
					t.Fatalf("%v\nSQL: %s", err, sql)
				}
				for _, i := range idx {
					counts[b.Vecs[0].I64[i]]++
					total++
				}
			}
		}
		if len(q.GroupBy) == 0 {
			cells = append(cells, nanOracleCell{countCol: countCol, count: float64(total)})
			continue
		}
		for grp := int64(0); grp < 8; grp++ {
			if n := counts[grp]; n > 0 {
				cells = append(cells, nanOracleCell{grouped: true, key: grp, countCol: countCol, count: float64(n)})
			}
		}
	}
	return cells
}

// mustMatchNaNOracle holds a run's group keys and COUNT(*) cells to the
// oracle's, exactly: a kernel that mis-sorts one NaN row changes a count.
func mustMatchNaNOracle(t *testing.T, label string, run diffRun, want []nanOracleCell) {
	t.Helper()
	if len(run.rows) != len(want) {
		t.Fatalf("%s: engine returned %d rows, oracle %d", label, len(run.rows), len(want))
	}
	for i, c := range want {
		row := run.rows[i]
		if c.grouped && row[0].I != c.key {
			t.Fatalf("%s: row %d: group key %d, oracle %d", label, i, row[0].I, c.key)
		}
		if got := row[c.countCol].F; got != c.count {
			t.Fatalf("%s: row %d: COUNT(*) = %v, oracle %v", label, i, got, c.count)
		}
	}
}

// TestDifferentialKernelsNaN: over NaN-bearing columns at workers 1, 4 and 8,
// in 97-row partitions (NaN-poisoned zones among them) and monolithic, every
// run must agree bit-for-bit with every other — float rows compare
// Float64bits-strict, so a NaN payload perturbed through the aggregate
// cannot hide — and every run's row selection must equal the interpreter
// oracle's.
func TestDifferentialKernelsNaN(t *testing.T) {
	want := nanOracle(t)
	var runs []diffRun
	for _, partitionRows := range []int{97, monolithicRows} {
		for _, workers := range []int{1, 4, 8} {
			run := runNaNQueries(t, workers, partitionRows)
			mustMatchNaNOracle(t, "nan engine-vs-oracle", run, want)
			runs = append(runs, run)
		}
	}
	for _, run := range runs[1:] {
		mustEqualRuns(t, "nan workers x layout", runs[0], run)
	}
}

// recodedCatalog rebuilds every table of cat with the same rows in the same
// order but string codes assigned in another order. Each table is first
// loaded with its rows reversed — value by value, so the copy is coded
// afresh, in reverse first-seen order — and the result is then re-sorted back
// into the original order by copying rows out of that copy (the Vector copy
// methods carry its dictionary along), as two halves joined by Append.
func recodedCatalog(t *testing.T, cat *storage.Catalog) *storage.Catalog {
	t.Helper()
	out := storage.NewCatalog()
	recoded := 0
	for _, name := range cat.Names() {
		src, err := cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		n := src.NumRows()
		rev := storage.NewBuilder(name, src.Schema())
		for i := n - 1; i >= 0; i-- {
			vals := make([]storage.Value, len(src.Schema()))
			for c := range vals {
				vals[c] = src.Column(c).Get(i)
			}
			rev.AddRow(vals...)
		}
		reversed := rev.Build(1)
		half := func(lo, hi int) *storage.Table {
			b := storage.NewBuilder(name, src.Schema())
			for i := lo; i < hi; i++ {
				for c := range src.Schema() {
					b.CopyFrom(c, reversed.Column(c), n-1-i)
				}
			}
			return b.Build(1)
		}
		tbl, err := half(0, n/2).Append(half(n/2, n))
		if err != nil {
			t.Fatal(err)
		}
		for c, col := range src.Schema() {
			a, b := src.Column(c), tbl.Column(c)
			if col.Typ != storage.String || a.Dict == nil || a.Dict.Len() < 2 {
				continue
			}
			if b.Dict == nil {
				t.Fatalf("%s: coded in the original, uncoded in the copy", col.Name)
			}
			for i := 0; i < n; i++ {
				if a.Str[i] != b.Str[i] {
					t.Fatalf("%s row %d: the copy holds %q for %q", col.Name, i, b.Str[i], a.Str[i])
				}
				if a.Code[i] != b.Code[i] {
					recoded++
					break
				}
			}
		}
		out.Register(tbl)
	}
	if recoded == 0 {
		t.Fatal("no column's codes differ between the two catalogs; the comparison is vacuous")
	}
	return out
}

// TestDifferentialCodeAssignmentOblivious: dictionary codes are an
// accelerator, never an ordering. The same rows under two different code
// assignments — a monolithic load, and tables assembled by Append out of
// rows copied from a reordered load — must answer every TPC-H template
// byte-identically, exact and approximate, with the same plans and the same
// simulated cost.
func TestDifferentialCodeAssignmentOblivious(t *testing.T) {
	for _, mode := range []Mode{ModeExact, ModeTaster} {
		var runs []diffRun
		for _, recode := range []bool{false, true} {
			w := workload.TPCH(0.004, 3)
			cat := w.Catalog
			if recode {
				cat = recodedCatalog(t, cat)
			}
			bytes, rows := w.CostScale()
			e := New(cat, Config{
				Mode:          mode,
				StorageBudget: bytes / 2,
				BufferSize:    bytes / 8,
				CostModel:     storage.ScaledCostModel(bytes, rows),
				Seed:          7,
				Workers:       4,
				Synchronous:   true,
			})
			var run diffRun
			r := rand.New(rand.NewSource(5))
			for pass := 0; pass < 2; pass++ {
				for _, tpl := range w.Templates {
					sql := tpl.Instantiate(r) + " ERROR WITHIN 10% AT CONFIDENCE 95%"
					q, err := sqlparser.Parse(sql, cat)
					if err != nil {
						t.Fatalf("%v\nSQL: %s", err, sql)
					}
					res, err := e.Execute(q)
					if err != nil {
						t.Fatalf("%v\nSQL: %s", err, sql)
					}
					run.rows = append(run.rows, res.Rows...)
					run.ivs = append(run.ivs, res.Intervals...)
					run.used = append(run.used, len(res.Report.UsedSynopses))
					run.sim = append(run.sim, res.Report.SimSeconds)
				}
			}
			runs = append(runs, run)
		}
		mustEqualRuns(t, "code assignment", runs[0], runs[1])
		for i := range runs[0].sim {
			if runs[0].sim[i] != runs[1].sim[i] {
				t.Fatalf("query %d: simulated seconds %v vs %v under another code assignment", i, runs[0].sim[i], runs[1].sim[i])
			}
		}
	}
}

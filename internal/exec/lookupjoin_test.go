package exec_test

import (
	"fmt"
	"slices"
	"testing"

	"github.com/tasterdb/taster/internal/exec"
	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
)

// lookupFixture is a star for the lookup join: a fact table lf of rows rows
// in parts partitions (1 000 in three: 334, 334 and 332 rows, so some
// morsels are read as two batches) whose lf.k refers to ld's unique dense
// key ld.k; ld.g refers to ld2's key. A fact key in miss (by fact row) is
// replaced by 100, past ld's span, or by 50, a key ld does not hold — a hole
// inside the span.
func lookupFixture(rows, parts int, miss map[int]int64) (fact, ld, ld2 *storage.Table) {
	fb := storage.NewBuilder("lf", storage.Schema{
		{Name: "lf.id", Typ: storage.Int64}, {Name: "lf.k", Typ: storage.Int64},
		{Name: "lf.x", Typ: storage.Int64}, {Name: "lf.flag", Typ: storage.Int64},
	})
	for i := range rows {
		k := int64(i*7%100) | 1 // odd keys only: 50 is never one
		if m, ok := miss[i]; ok {
			k = m
		}
		fb.Int(0, int64(i))
		fb.Int(1, k)
		fb.Int(2, int64(i%13))
		fb.Int(3, int64(i%5))
	}
	db := storage.NewBuilder("ld", storage.Schema{
		{Name: "ld.k", Typ: storage.Int64}, {Name: "ld.v", Typ: storage.Int64}, {Name: "ld.g", Typ: storage.Int64},
	})
	for k := range 100 {
		if k == 50 {
			continue
		}
		db.Int(0, int64(k))
		db.Int(1, int64(k%9))
		db.Int(2, int64(k%4))
	}
	d2b := storage.NewBuilder("ld2", storage.Schema{{Name: "ld2.k", Typ: storage.Int64}, {Name: "ld2.r", Typ: storage.Int64}})
	for k := range 4 {
		d2b.Int(0, int64(k))
		d2b.Int(1, int64(10*k))
	}
	return fb.Build(parts), db.Build(1), d2b.Build(1)
}

// TestLookupJoinMeetsOracle holds the spine's two join paths — the lookup a
// batch takes when every row of it finds its row of an unmasked unique dense
// index, and the pairs every other batch takes — to the oracle, answers and
// all four charges, at 1 and 4 workers over 16- and 64-row morsels. The
// shapes:
//   - a dense hop every fact row matches, every batch a lookup;
//   - keys missing mid-batch, one past the index's span and one in a hole
//     of it: those batches fall back to pairs;
//   - the hop under a filter's selection: pairs;
//   - a missing key in the first of a morsel's two batches, so that pairs
//     leave a partly filled chunk before the next batch's lookup: the
//     chunk must go up first;
//   - a pair join (a filtered build, masked) whose chunks feed a lookup;
//   - a missing key in each of a morsel's first two batches, over morsels
//     of two full batches, so that the second batch's pairs fill the chunk
//     and the probe resumes; COUNT(*) and a build column's SUM by a build
//     column, so the join carries no probe column and a chunk's length is
//     its build columns';
//   - each of those ending in a grouped aggregate and — the hop on a
//     sketch-join's probe side — in the sketch-join sink.
//
// Beside the answers, the rows the spine hands its sink must come in the
// oracle join's order, the fact table's: a float sum of them depends on it.
func TestLookupJoinMeetsOracle(t *testing.T) {
	// Rows 330 and 340 lie in the 64-row morsel [320, 384), which the
	// partition boundary at 334 reads as two batches; 8 and 600 are
	// mid-batch at either morsel size.
	fact, ld, ld2 := lookupFixture(1000, 3, nil)
	missFact, _, _ := lookupFixture(1000, 3, map[int]int64{8: 100, 330: 50, 600: 50})
	hop := func(left plan.Node) *plan.Join {
		return &plan.Join{Left: left, Right: &plan.Scan{Table: ld}, LeftKeys: []string{"lf.k"}, RightKeys: []string{"ld.k"}}
	}
	filtered := func(tbl *storage.Table) plan.Node {
		return &plan.Filter{Child: &plan.Scan{Table: tbl}, Pred: expr.Pred{expr.Compare("lf.flag", expr.LT, storage.IntValue(3))}}
	}
	// The masked pair join first, then the lookup into ld2 over its chunks.
	maskedThenLookup := &plan.Join{
		Left: &plan.Join{
			Left:     &plan.Scan{Table: fact},
			Right:    &plan.Filter{Child: &plan.Scan{Table: ld}, Pred: expr.Pred{expr.Compare("ld.v", expr.LT, storage.IntValue(6))}},
			LeftKeys: []string{"lf.k"}, RightKeys: []string{"ld.k"},
		},
		Right:    &plan.Scan{Table: ld2},
		LeftKeys: []string{"ld.g"}, RightKeys: []string{"ld2.k"},
	}
	chunkThenLookup, _, _ := lookupFixture(1000, 3, map[int]int64{330: 50})
	// Rows 100 and BatchSize+100 miss in the first morsel's two batches;
	// BatchSize rows are joinBatchRows, a chunk's.
	fullChunk, _, _ := lookupFixture(5*storage.BatchSize/2, 1, map[int]int64{100: 50, storage.BatchSize + 100: 100})
	small := []int{16, 64}
	for _, c := range []struct {
		name    string
		spine   plan.Node
		reads   []string // the spine's columns the row-order check reads
		aggs    []plan.AggSpec
		morsels []int
		fact    *storage.Table // the sketch-join's build: a fact table holding every lf.id the spine does (nil: fact)
	}{
		{"dense hop", hop(&plan.Scan{Table: fact}), []string{"lf.id", "ld.v"}, nil, small, nil},
		{"missing keys", hop(&plan.Scan{Table: missFact}), []string{"lf.id", "ld.v"}, nil, small, nil},
		{"under a selection", hop(filtered(fact)), []string{"lf.id", "ld.v"}, nil, small, nil},
		{"pending chunk", hop(&plan.Scan{Table: chunkThenLookup}), []string{"lf.id", "ld.v"}, nil, small, nil},
		{"pairs then lookup", maskedThenLookup, []string{"lf.id", "ld2.r"}, nil, small, nil},
		{"full chunks, no probe column", hop(&plan.Scan{Table: fullChunk}), []string{"ld.v", "ld.g"},
			[]plan.AggSpec{{Kind: stats.Count}, {Kind: stats.Sum, Col: "ld.v"}}, []int{2 * storage.BatchSize}, fullChunk},
	} {
		oracleJoin := oracleEval(t, c.spine)
		cols := columnsOf(t, oracleJoin.schema, c.reads)
		var wantRows [][]int64
		for _, row := range oracleJoin.rows {
			var r []int64
			for _, col := range cols {
				r = append(r, row[col].I)
			}
			wantRows = append(wantRows, r)
		}
		group := "ld.g"
		if c.name == "pairs then lookup" {
			group = "ld2.r"
		}
		aggs := c.aggs
		if aggs == nil {
			aggs = []plan.AggSpec{{Kind: stats.Count}, {Kind: stats.Sum, Col: "lf.x"}, {Kind: stats.Avg, Col: "ld.v"}}
		}
		agg := &plan.Aggregate{Child: c.spine, GroupBy: []string{group}, Aggs: aggs}
		want := oracleEval(t, agg)
		build := c.fact
		if build == nil {
			build = fact
		}
		sj := &plan.SketchJoin{
			Probe: c.spine, ProbeKeys: []string{"lf.id"}, Build: &plan.Scan{Table: build}, BuildKeys: []string{"lf.id"},
			AggCol: "lf.x", GroupBy: []string{group}, Aggs: []plan.AggSpec{{Kind: stats.Count}, {Kind: stats.Sum, Col: "lf.x"}},
		}
		// Every probe row meets its own fact row: the sketch-join answers
		// what the aggregate of the same spine answers.
		wantSketch := oracleEval(t, &plan.Aggregate{Child: c.spine, GroupBy: sj.GroupBy, Aggs: sj.Aggs})
		for _, morselRows := range c.morsels {
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("%s, %d-row morsels, workers=%d", c.name, morselRows, workers)
				ctx := workerCtx(workers, morselRows)
				out, _ := engineRun(t, agg, ctx)
				mustMatchOracle(t, label, want, out, 0)
				mustChargeOracle(t, label, want.cost, ctx.Stats)

				ctx = workerCtx(workers, morselRows)
				out, _ = engineRun(t, sj, ctx)
				mustMatchOracle(t, label+", sketch-join", wantSketch, out, 0)
				// The sketch sink's charge: the probe spine's, one CPU tuple
				// a probe row, and the inline build's scan and fold.
				sketch := oracleJoin.cost.plus(oracleCost{
					base: build.Bytes(), cpu: int64(len(oracleJoin.rows) + 2*build.NumRows()), out: int64(len(wantSketch.rows)),
				})
				mustChargeOracle(t, label+", sketch-join", sketch, ctx.Stats)

				got, err := exec.SpineRows(c.spine, c.reads, 7, workerCtx(workers, morselRows))
				if err != nil {
					t.Fatal(err)
				}
				if !slices.EqualFunc(got, wantRows, slices.Equal[[]int64]) {
					t.Fatalf("%s: the spine handed its sink %d rows out of the join's order (%d rows)", label, len(got), len(wantRows))
				}
			}
		}
	}
}

package exec_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/obs"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
)

// keyedTables are a fact table of 20 000 rows in seven partitions and a
// dimension of 3 000 in three, each with a repeating Int64 day column of
// even values only: the fact's climbs with the row give or take 60 days, so
// zone maps prune a narrow range's partitions; the dimension's is drawn at
// random from 0..798. Every fact row's dim key finds a dimension row.
func keyedTables() (fact, dim *storage.Table) {
	rng := rand.New(rand.NewSource(41))
	tags := []string{"a", "b", "c", "d"}
	fb := storage.NewBuilder("fact", storage.Schema{
		{Name: "fact.day", Typ: storage.Int64}, {Name: "fact.dim", Typ: storage.Int64},
		{Name: "fact.v", Typ: storage.Float64}, {Name: "fact.tag", Typ: storage.String},
	})
	for i := 0; i < 20000; i++ {
		fb.Int(0, int64(2*(i/20+rng.Intn(60))))
		fb.Int(1, rng.Int63n(3000)+1)
		fb.Float(2, float64(rng.Intn(1000))/8)
		fb.Str(3, tags[rng.Intn(len(tags))])
	}
	db := storage.NewBuilder("dim", storage.Schema{
		{Name: "dim.id", Typ: storage.Int64}, {Name: "dim.day", Typ: storage.Int64}, {Name: "dim.w", Typ: storage.Float64},
	})
	for i, p := range rng.Perm(3000) {
		db.Int(0, int64(p)+1)
		db.Int(1, int64(2*rng.Intn(400)))
		db.Float(2, float64(i%97)/4)
	}
	return fb.Build(7), db.Build(3)
}

// keyedPreds are the day ranges the differential test reads, on column col:
// selective ones — random BETWEENs from one day to a tenth of the span, one-sided and
// strict bounds, = on a day no row carries — and ranges a key index must
// not serve: a wide one, and one outside the column; each alone and with
// each of other after it. selective reports which a key index serves.
func keyedPreds(rng *rand.Rand, col string, span int64, other []expr.Term) (preds []expr.Pred, selective []bool) {
	day := func(op expr.CmpOp, v int64) expr.Term { return expr.Compare(col, op, storage.IntValue(v)) }
	add := func(sel bool, p ...expr.Term) {
		preds, selective = append(preds, p), append(selective, sel)
		for _, o := range other {
			preds, selective = append(preds, append(slices.Clone(p), o)), append(selective, sel)
		}
	}
	for _, w := range []int64{0, 1, 10, span / 20, span / 10} {
		lo := rng.Int63n(span - w)
		add(true, day(expr.GE, lo), day(expr.LE, lo+w))
	}
	lo := rng.Int63n(span - 60)
	add(true, day(expr.GT, lo), day(expr.LT, lo+60), day(expr.NE, lo-lo%2+2))
	add(true, day(expr.LE, span/20))
	add(true, day(expr.GE, span-span/20))
	add(true, day(expr.EQ, 2*rng.Int63n(span/2)+1))
	add(false, day(expr.GE, 10), day(expr.LE, span-10))
	add(false, day(expr.GT, 5*span))
	return preds, selective
}

// TestKeyedReadMeetsTheOracle holds leaf reads a key index serves to the
// row-at-a-time oracle: random day ranges on a repeating Int64 column over
// several zone-pruned partitions, with and without other terms, as the
// Filter over the spine's leaf and over a join's build side, at workers 1
// and 4 and morsels of 512 and 4 096 rows. Answers and every RunStats
// charge equal the oracle's, answers are bit-equal across worker counts,
// and the traced build side's scan and filter rows equal the oracle's rows
// read and kept. The selective ranges must take the index and the others
// must not, so the test holds both reads of one Filter.
func TestKeyedReadMeetsTheOracle(t *testing.T) {
	fact, dim := keyedTables()
	rng := rand.New(rand.NewSource(43))
	aggs := []plan.AggSpec{{Kind: stats.Count}, {Kind: stats.Sum, Col: "fact.v"}}
	factPreds, factSel := keyedPreds(rng, "fact.day", 2116, []expr.Term{
		expr.Compare("fact.v", expr.GT, storage.FloatValue(60)),
		expr.In("fact.tag", storage.StringValue("a"), storage.StringValue("c")),
		expr.Compare("fact.dim", expr.LT, storage.IntValue(1500)),
	})
	dimPreds, dimSel := keyedPreds(rng, "dim.day", 798, []expr.Term{
		expr.Compare("dim.w", expr.LE, storage.FloatValue(12)),
	})

	type run struct {
		name  string
		root  plan.Node
		build *plan.Filter // the traced build side; nil on the spine
		reads int64        // leaf reads a key index serves
	}
	var runs []run
	for i, p := range factPreds {
		root := &plan.Aggregate{Child: &plan.Filter{Child: &plan.Scan{Table: fact}, Pred: p}, GroupBy: []string{"fact.tag"}, Aggs: aggs}
		runs = append(runs, run{name: "spine " + p.String(), root: root, reads: b2i(factSel[i])})
	}
	for i, p := range dimPreds {
		build := &plan.Filter{Child: &plan.Scan{Table: dim}, Pred: p}
		root := &plan.Aggregate{
			Child:   &plan.Join{Left: &plan.Scan{Table: fact}, Right: build, LeftKeys: []string{"fact.dim"}, RightKeys: []string{"dim.id"}},
			GroupBy: []string{"fact.tag"}, Aggs: append(aggs, plan.AggSpec{Kind: stats.Sum, Col: "dim.w"}),
		}
		runs = append(runs, run{name: "build side " + p.String(), root: root, build: build, reads: b2i(dimSel[i])})
	}

	for _, r := range runs {
		want := oracleEval(t, r.root)
		for _, morsel := range []int{512, 4096} {
			var base string
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("%s, workers=%d morsel=%d", r.name, workers, morsel)
				ctx := workerCtx(workers, morsel)
				ctx.Obs = &obs.ExecObs{}
				ctx.TraceNodes = make(map[plan.Node]*obs.TraceNode)
				out, fp := engineRun(t, r.root, ctx)
				mustMatchOracle(t, label, want, out, 1e-9)
				mustChargeOracle(t, label, want.cost, ctx.Stats)
				if base == "" {
					base = fp
				} else if fp != base {
					t.Fatalf("%s: answer differs from workers=1", label)
				}
				if got := ctx.Obs.KeyIndexReads.Value(); got != r.reads {
					t.Fatalf("%s: %d leaf reads took a key index, want %d", label, got, r.reads)
				}
				if r.build == nil {
					continue
				}
				kept := oracleEval(t, r.build)
				read := kept.cost.cpu / 2 // scanned, then evaluated
				scan, filter := ctx.TraceNodes[r.build.Child], ctx.TraceNodes[r.build]
				if scan.RowsOut != read || filter.RowsOut != int64(len(kept.rows)) {
					t.Fatalf("%s: traced scan rows %d, filter rows %d; oracle read %d, kept %d",
						label, scan.RowsOut, filter.RowsOut, read, len(kept.rows))
				}
			}
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

package exec_test

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/tasterdb/taster/internal/exec"
	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
)

// TestStackedJoinChunks: two stacked joins with a filter between them, over
// a leaf with a materializing sampler. One fact key meets 1 100 build rows,
// more than a chunk holds, so a probe row's matches cross chunk boundaries,
// and the upper join's input arrives in the lower one's chunks, thinned by
// the filter. At 512- and 4 096-row morsels:
//   - each join hands on chunks of exactly JoinBatchRows rows but the last it
//     emits in each morsel (its partly filled chunk, flushed at the morsel's
//     end bottom-up);
//   - a uniform sampler at p = 1, which passes every row at weight 1, answers
//     what the oracle answers over the unsampled plan;
//   - the answer and the built sample's bytes are the same at 1 and 4 workers.
func TestStackedJoinChunks(t *testing.T) {
	const factRows = 6000
	fb := storage.NewBuilder("f", storage.Schema{
		{Name: "f.id", Typ: storage.Int64}, {Name: "f.k", Typ: storage.Int64}, {Name: "f.x", Typ: storage.Int64},
	})
	for i := range factRows {
		fb.Int(0, int64(i))
		fb.Int(1, int64(i%150))
		fb.Int(2, int64(i%97))
	}
	// d1: key 0 has 1 100 rows, every other key of 1..149 two.
	db := storage.NewBuilder("d1", storage.Schema{
		{Name: "d1.k", Typ: storage.Int64}, {Name: "d1.v", Typ: storage.Int64}, {Name: "d1.k2", Typ: storage.Int64},
	})
	for k := range 150 {
		n := 2
		if k == 0 {
			n = 1100
		}
		for j := range n {
			db.Int(0, int64(k))
			db.Int(1, int64((k+j)%10))
			db.Int(2, int64((k*7+j)%20))
		}
	}
	// d2: three rows for each of d1's k2 values.
	d2b := storage.NewBuilder("d2", storage.Schema{
		{Name: "d2.k", Typ: storage.Int64}, {Name: "d2.g", Typ: storage.Int64},
	})
	for k := range 20 {
		for j := range 3 {
			d2b.Int(0, int64(k))
			d2b.Int(1, int64((k+j)%4))
		}
	}
	fact, d1, d2 := fb.Build(3), db.Build(1), d2b.Build(1)

	join1 := func(leaf plan.Node) *plan.Join {
		return &plan.Join{Left: leaf, Right: &plan.Scan{Table: d1}, LeftKeys: []string{"f.k"}, RightKeys: []string{"d1.k"}}
	}
	join2 := func(leaf plan.Node) *plan.Join {
		return &plan.Join{
			Left:     &plan.Filter{Child: join1(leaf), Pred: expr.Pred{expr.Compare("d1.v", expr.LT, storage.IntValue(6))}},
			Right:    &plan.Scan{Table: d2},
			LeftKeys: []string{"d1.k2"}, RightKeys: []string{"d2.k"},
		}
	}
	agg := func(leaf plan.Node) *plan.Aggregate {
		return &plan.Aggregate{
			Child:   join2(leaf),
			GroupBy: []string{"d2.g"},
			Aggs:    []plan.AggSpec{{Kind: stats.Count}, {Kind: stats.Sum, Col: "f.x"}, {Kind: stats.Sum, Col: "d1.v"}},
		}
	}
	want := oracleEval(t, agg(&plan.Scan{Table: fact}))

	for _, sampler := range []plan.SynopsisOp{
		{Kind: plan.UniformSample, P: 1},
		{Kind: plan.DistinctSample, P: 0.2, Delta: 5, StratCols: []string{"f.k"}},
	} {
		for _, morselRows := range []int{512, 4096} {
			label := fmt.Sprintf("%s p=%g, %d-row morsels", sampler.Kind, sampler.P, morselRows)
			ctxFor := func(smp *plan.SynopsisOp, workers int) *exec.Context {
				ctx := workerCtx(workers, morselRows)
				ctx.Materialize[smp] = 1
				return ctx
			}
			// Each join's chunks, seen as what its spine hands the sink.
			for _, c := range []struct {
				name  string
				spine func(plan.Node) *plan.Join
				reads []string
			}{
				{"lower join", join1, []string{"f.x", "d1.v", "d1.k2"}},
				{"upper join", join2, []string{"f.x", "d1.v", "d2.g"}},
			} {
				smp := sampler
				smp.Child = &plan.Scan{Table: fact}
				morsels, err := exec.SpineChunkRows(c.spine(&smp), c.reads, 7, ctxFor(&smp, 1))
				if err != nil {
					t.Fatal(err)
				}
				full := 0
				for m, chunks := range morsels {
					for n, rows := range chunks {
						if n < len(chunks)-1 && rows != exec.JoinBatchRows || rows < 1 || rows > exec.JoinBatchRows {
							t.Fatalf("%s, %s: morsel %d's chunk %d of %d has %d rows, want %d but for a morsel's last (1..%d)",
								label, c.name, m, n, len(chunks), rows, exec.JoinBatchRows, exec.JoinBatchRows)
						}
					}
					full += max(len(chunks)-1, 0)
				}
				if full == 0 {
					t.Fatalf("%s, %s: no morsel filled a chunk; the test is vacuous", label, c.name)
				}
			}

			var base string
			var baseSample []byte
			for _, workers := range []int{1, 4} {
				smp := sampler
				smp.Child = &plan.Scan{Table: fact}
				ctx := ctxFor(&smp, workers)
				out, got := engineRun(t, agg(&smp), ctx)
				if sampler.P == 1 {
					mustMatchOracle(t, fmt.Sprintf("%s, workers=%d", label, workers), want, out, 0)
				}
				if len(ctx.Stats.Built) != 1 {
					t.Fatalf("%s, workers=%d: built %d samples, want 1", label, workers, len(ctx.Stats.Built))
				}
				sample := ctx.Stats.Built[0].Synopsis.Encode()
				if base == "" {
					base, baseSample = got, sample
					continue
				}
				if got != base {
					t.Fatalf("%s: the answer at workers=%d differs from workers=1:\n%s\nvs\n%s", label, workers, got, base)
				}
				if !bytes.Equal(sample, baseSample) {
					t.Fatalf("%s: the built sample's bytes at workers=%d differ from workers=1", label, workers)
				}
			}
		}
	}
}

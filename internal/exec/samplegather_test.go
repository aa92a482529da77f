package exec

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
	"github.com/tasterdb/taster/internal/workload"
)

// twoDictTable is a table version whose string column d.s is coded under
// two dictionaries: 8 000 rows over {a, b, c} in partitions of 1 000, then
// an append of 200 rows that brings "z", in a ninth partition under the
// extended dictionary. d.id is each row's table position.
func twoDictTable(t *testing.T) *storage.Table {
	t.Helper()
	schema := storage.Schema{
		{Name: "d.id", Typ: storage.Int64},
		{Name: "d.s", Typ: storage.String},
		{Name: "d.v", Typ: storage.Float64},
	}
	rows := func(lo, hi int, vals []string) *storage.Table {
		b := storage.NewBuilder("d", schema)
		for i := lo; i < hi; i++ {
			b.Int(0, int64(i))
			b.Str(1, vals[(i*7)%len(vals)])
			b.Float(2, float64(i%13)+0.5)
		}
		return b.Build(1)
	}
	tbl, err := rows(0, 8000, []string{"a", "b", "c"}).Repartition(1000).Append(rows(8000, 8200, []string{"a", "b", "c", "z"}))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Partitions() != 9 || len(tableDicts(tbl, 1)) != 2 {
		t.Fatalf("setup: %d partitions, d.s under %d dictionaries; want 9 and 2", tbl.Partitions(), len(tableDicts(tbl, 1)))
	}
	return tbl
}

// TestInlineSampleKeepsDictionaryRule: on a version whose appended tail
// carries a second dictionary, a materialized sample — uniform at a low rate
// under forty seeds, uniform at a high one and distinct, under a query that
// reads no leaf column and under one whose filter the zone maps refute past
// row 4 000 (a sampled leaf still reads every partition), at workers 1, 4
// and 8 — encodes to the same bytes as a row-at-a-time reference built from
// the table at the sample's positions (d.id) and weights. Its string column
// keeps a dictionary of the table exactly when the per-morsel,
// batch-by-batch copy the executor once made kept one
// (Vector.AppendGather over every batch a morsel's sampler was offered,
// drawn rows or not, then one dictionary across the parts that drew rows),
// and is coded afresh otherwise. Morsels of 2 048 rows put the dictionary
// boundary inside the fourth, so every outcome occurs: the table's first
// dictionary kept; a fresh one because rows were drawn from the tail; and a
// fresh one although every drawn row lies under the first dictionary,
// because a morsel that drew offered its sampler a batch of the tail.
func TestInlineSampleKeepsDictionaryRule(t *testing.T) {
	tbl := twoDictTable(t)
	dicts := tableDicts(tbl, 1)
	const morselRows = 2048
	type run struct {
		smp  plan.SynopsisOp
		seed uint64
	}
	runs := []run{
		{plan.SynopsisOp{Kind: plan.UniformSample, P: 0.05}, 1},
		{plan.SynopsisOp{Kind: plan.DistinctSample, P: 0.01, Delta: 12, StratCols: []string{"d.s"}}, 1},
	}
	for seed := uint64(1); seed <= 40; seed++ {
		runs = append(runs, run{plan.SynopsisOp{Kind: plan.UniformSample, P: 0.001}, seed})
	}
	kept, fromTail, offeredTail := 0, 0, 0
	for _, r := range runs {
		for _, filtered := range []bool{false, true} {
			smp := r.smp
			smp.Child = &plan.Scan{Table: tbl}
			var child plan.Node = &smp
			aggs := []plan.AggSpec{{Kind: stats.Count}}
			var groupBy []string
			if filtered {
				child = &plan.Filter{Child: child, Pred: expr.Pred{expr.Compare("d.id", expr.LT, storage.IntValue(4000))}}
				groupBy, aggs = []string{"d.s"}, append(aggs, plan.AggSpec{Kind: stats.Sum, Col: "d.v"})
			}
			agg := &plan.Aggregate{Child: child, GroupBy: groupBy, Aggs: aggs}
			var first []byte
			for _, workers := range []int{1, 4, 8} {
				where := fmt.Sprintf("%s seed=%d filtered=%v workers=%d", smp.String(), r.seed, filtered, workers)
				ctx := NewContext(0.95)
				ctx.Workers, ctx.MorselRows = workers, morselRows
				ctx.Materialize[&smp] = 1
				fingerprint(t, agg, ctx, r.seed)
				if len(ctx.Stats.Built) != 1 {
					t.Fatalf("%s: built samples = %d", where, len(ctx.Stats.Built))
				}
				got := ctx.Stats.Built[0].Synopsis.(*synopses.Sample)
				enc := got.Encode()
				if first == nil {
					first = enc
				} else if !bytes.Equal(enc, first) {
					t.Fatalf("%s: sample differs from workers=1", where)
				}

				ids, weights := got.Rows.Column(0).I64, got.Rows.Column(3).F64
				ref := storage.NewBuilder("synopsis_1", got.Rows.Schema())
				for k, id := range ids {
					for c := range tbl.Schema() {
						ref.CopyFrom(c, tbl.Column(c), int(id))
					}
					ref.Float(3, weights[k])
				}
				want := *got
				want.Rows = ref.Build(1)
				if !bytes.Equal(enc, want.Encode()) {
					t.Fatalf("%s: sample encodes differently from the per-row reference", where)
				}

				wantDict := perMorselDict(tbl, 1, ids, morselRows)
				switch d := got.Rows.Column(1).Dict; {
				case wantDict != nil && d != wantDict:
					t.Fatalf("%s: d.s coded under %p, the per-morsel copy kept %p", where, d, wantDict)
				case wantDict == nil && (d == nil || dicts[d]):
					t.Fatalf("%s: d.s under %p, want a dictionary of its own", where, d)
				case wantDict != nil:
					kept++
				case len(ids) > 0 && ids[len(ids)-1] >= 8000:
					fromTail++
				case len(ids) > 0:
					offeredTail++
				}
			}
		}
	}
	if kept == 0 || fromTail == 0 || offeredTail == 0 {
		t.Fatalf("the table's dictionary kept %d times, dropped for tail rows %d times and for a tail batch %d times; want each",
			kept, fromTail, offeredTail)
	}
}

// tableDicts is the set of dictionaries column c of tbl is coded under.
func tableDicts(tbl *storage.Table, c int) map[*storage.Dict]bool {
	out := map[*storage.Dict]bool{}
	var b storage.Batch
	cur := tbl.NewCursor(storage.BatchSize, nil, nil, nil)
	for cur.Seek(0, tbl.NumRows(), nil); cur.Next(&b); {
		if d := b.Vecs[c].Dict; d != nil {
			out[d] = true
		}
	}
	return out
}

// perMorselDict is the dictionary the per-morsel, batch-by-batch copy kept
// for column c of a sample drawn at the ascending table rows ids: each
// morsel copies its drawn rows through Vector.AppendGather over every batch
// of its range, and the parts that drew rows share their dictionary only
// when all of them kept the same one. Nil: the parts were coded afresh.
func perMorselDict(tbl *storage.Table, c int, ids []int64, morselRows int) *storage.Dict {
	var d *storage.Dict
	k := 0
	for lo := 0; lo < tbl.NumRows(); lo += morselRows {
		v := storage.NewVector(tbl.Schema()[c].Typ, 0)
		drew := false
		var b storage.Batch
		cur := tbl.NewCursor(storage.BatchSize, nil, nil, nil)
		for cur.Seek(lo, lo+morselRows, nil); cur.Next(&b); {
			var local []int32
			for ; k < len(ids) && int(ids[k]) < b.Start+b.Len(); k++ {
				local = append(local, int32(int(ids[k])-b.Start))
			}
			drew = drew || len(local) > 0
			v.AppendGather(b.Vecs[c], local)
		}
		if !drew {
			continue
		}
		if v.Dict == nil || d != nil && v.Dict != d {
			return nil
		}
		d = v.Dict
	}
	return d
}

// TestDistinctStrataRestartEveryMorsel: one worker runs every morsel's
// distinct sampler through one strata numbering, and each morsel still
// passes the first δ' = PartitionDelta(δ, morsels) rows of the table's one
// stratum at weight 1 — its count restarts in every morsel — at any worker
// count.
func TestDistinctStrataRestartEveryMorsel(t *testing.T) {
	const rows, morselRows, delta = 10000, 1000, 50
	b := storage.NewBuilder("one", storage.Schema{
		{Name: "one.id", Typ: storage.Int64},
		{Name: "one.g", Typ: storage.Int64},
	})
	for i := 0; i < rows; i++ {
		b.Int(0, int64(i))
		b.Int(1, 7)
	}
	tbl := b.Build(4)
	morsels := rows / morselRows
	perMorsel := synopses.PartitionDelta(delta, morsels)
	var first []byte
	for _, workers := range []int{1, 4} {
		smp := &plan.SynopsisOp{Child: &plan.Scan{Table: tbl}, Kind: plan.DistinctSample, P: 0.001, Delta: delta, StratCols: []string{"one.g"}}
		agg := &plan.Aggregate{Child: smp, Aggs: []plan.AggSpec{{Kind: stats.Count}}}
		ctx := NewContext(0.95)
		ctx.Workers, ctx.MorselRows = workers, morselRows
		ctx.Materialize[smp] = 1
		fingerprint(t, agg, ctx, 3)
		s := ctx.Stats.Built[0].Synopsis.(*synopses.Sample)
		ids, weights := s.Rows.Column(0).I64, s.Rows.Column(2).F64
		whole := make([]int, morsels)
		for k, id := range ids {
			m := int(id) / morselRows
			if weights[k] != 1 {
				continue
			}
			if int(id) != m*morselRows+whole[m] {
				t.Fatalf("workers=%d: row %d passed at weight 1 after %d of morsel %d's rows", workers, id, whole[m], m)
			}
			whole[m]++
		}
		for m, n := range whole {
			if n != perMorsel {
				t.Fatalf("workers=%d: morsel %d passed %d rows at weight 1, want δ'=%d", workers, m, n, perMorsel)
			}
		}
		if enc := s.Encode(); first == nil {
			first = enc
		} else if !bytes.Equal(enc, first) {
			t.Fatalf("workers=%d: sample differs from workers=1", workers)
		}
	}
}

// BenchmarkInlineSampleBuild times a lineitem query whose sampler's sample
// is kept, as the tuner's inline builds run it — the spine's draws plus the
// stored sample's materialization — reporting allocations, one worker: one
// uniform and one distinct build over lineitem at sf 0.05 (300 000 rows),
// and q14's build at sf 0.1 (600 000 rows), a distinct sample of
// l_partkey at δ = 1 and p = 0.1. Each of its 147 morsels keeps δ' = 1 row
// of every stratum it meets (synopses.PartitionDelta), and l_partkey's
// 20 000 strata are spread over all of them, so the sample keeps most of
// the table at weight 1 (distinct_partkey, against uniform_p09, a uniform
// build of the size p asks for).
func BenchmarkInlineSampleBuild(b *testing.B) {
	li, err := workload.TPCH(0.05, 3).Catalog.Table("lineitem")
	if err != nil {
		b.Fatal(err)
	}
	li01, err := workload.TPCH(0.1, 3).Catalog.Table("lineitem")
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		tbl  *storage.Table
		smp  plan.SynopsisOp
	}{
		{"uniform", li, plan.SynopsisOp{Kind: plan.UniformSample, P: 0.01}},
		{"distinct", li, plan.SynopsisOp{Kind: plan.DistinctSample, P: 0.01, Delta: 100,
			StratCols: []string{"lineitem.l_returnflag", "lineitem.l_shipmode"}}},
		{"distinct_partkey", li01, plan.SynopsisOp{Kind: plan.DistinctSample, P: 0.1, Delta: 1,
			StratCols: []string{"lineitem.l_partkey"}}},
		{"uniform_p09", li01, plan.SynopsisOp{Kind: plan.UniformSample, P: 0.09}},
	} {
		b.Run(c.name, func(b *testing.B) {
			smp := c.smp
			smp.Child = &plan.Scan{Table: c.tbl}
			agg := &plan.Aggregate{Child: &smp, GroupBy: []string{"lineitem.l_returnflag"},
				Aggs: []plan.AggSpec{{Kind: stats.Sum, Col: "lineitem.l_quantity"}}}
			var kept int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ctx := NewContext(0.95)
				ctx.Workers = 1
				ctx.Materialize[&smp] = 1
				op, err := Compile(agg, 1, ctx)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Run(op); err != nil {
					b.Fatal(err)
				}
				if len(ctx.Stats.Built) != 1 {
					b.Fatalf("built samples = %d", len(ctx.Stats.Built))
				}
				kept = ctx.Stats.Built[0].Synopsis.(*synopses.Sample).Rows.NumRows()
			}
			b.ReportMetric(float64(kept), "rows_kept")
		})
	}
}

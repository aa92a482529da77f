package synopses_test

import (
	"bytes"
	"testing"

	"github.com/tasterdb/taster/internal/persist"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
	"github.com/tasterdb/taster/internal/workload"
)

// lineitem is the TPC-H fact table at scale factor sf: int keys, float
// measures and dictionary-coded string flags.
func lineitem(tb testing.TB, sf float64) *storage.Table {
	tb.Helper()
	li, err := workload.TPCH(sf, 3).Catalog.Table("lineitem")
	if err != nil {
		tb.Fatal(err)
	}
	return li
}

// materializeSamplers are one uniform and one distinct sampler, stratified
// on the two coded flag columns, fresh for every call with the same seed.
var materializeSamplers = []struct {
	name string
	new  func(seed uint64) synopses.Sampler
}{
	{"uniform", func(seed uint64) synopses.Sampler { return synopses.NewUniformSampler(0.05, seed) }},
	{"distinct", func(seed uint64) synopses.Sampler { return synopses.NewDistinctSampler(0.05, 20, []int{6, 7}, seed) }},
}

// TestOfferMatchesPerRowReference holds a sample offered batch by batch
// (Drawn.Draw, recording table positions) and gathered once (GatherSample)
// to a row-at-a-time reference — Decide, then every column of each passing
// row copied alone out of its batch and its weight appended — over batches
// that carry a selection vector: the encoded samples are the same bytes,
// and a coded column keeps its source table's dictionary.
func TestOfferMatchesPerRowReference(t *testing.T) {
	li := lineitem(t, 0.002)
	flag := li.Schema().Index("lineitem.l_returnflag")
	src := li.Column(flag).Dict
	if src == nil {
		t.Fatal("lineitem.l_returnflag is not coded")
	}
	batches := func() []*storage.Batch {
		var out []*storage.Batch
		for p := 0; p < li.Partitions(); p++ {
			for _, b := range li.Scan(p, storage.BatchSize) {
				for i := 0; i < b.Len(); i++ {
					if i%3 != 1 {
						b.Sel = append(b.Sel, int32(i))
					}
				}
				out = append(out, b)
			}
		}
		return out
	}
	for _, c := range materializeSamplers {
		smp := c.new(7)
		var d synopses.Drawn
		var pass []int32
		var weights []float64
		for _, b := range batches() {
			pass, weights = d.Draw(smp, b, pass[:0], weights[:0])
		}
		got, err := synopses.GatherSample("s", li, smp, d, 1)
		if err != nil {
			t.Fatal(err)
		}

		smp = c.new(7)
		schema := synopses.SampleSchema(li.Schema())
		ref := storage.NewBuilder("s", schema)
		sourceRows := 0
		for _, b := range batches() {
			sourceRows += b.Rows()
			pass, weights = smp.Decide(b, pass[:0], weights[:0])
			for k, row := range pass {
				for col, v := range b.Vecs {
					ref.CopyFrom(col, v, int(row))
				}
				ref.Float(len(schema)-1, weights[k])
			}
		}
		want := *got
		want.Rows, want.SourceRows = ref.Build(1), sourceRows

		if got.Rows.NumRows() == 0 {
			t.Fatalf("%s: empty sample", c.name)
		}
		if !bytes.Equal(persist.Encode(got), persist.Encode(&want)) {
			t.Fatalf("%s: gathered sample encodes differently from the per-row reference", c.name)
		}
		if d := got.Rows.Column(flag).Dict; d != src {
			t.Fatalf("%s: l_returnflag carries dictionary %p, want the source's %p", c.name, d, src)
		}
	}
}

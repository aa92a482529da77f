package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
)

// The group index itself is held to byte-key grouping in storage
// (TestGroupIndexMatchesByteKeyGrouping); this test holds the sinks that
// resolve through it.

func awkwardString(r *rand.Rand, vocab int) string {
	switch k := r.Intn(vocab); k {
	case 0:
		return ""
	case 1:
		return "a\x00b"
	case 2:
		return "a"
	case 3:
		return "\x00b"
	default:
		return fmt.Sprintf("s%d", k)
	}
}

// TestGroupedAnswersAcrossWorkersAndCodings runs GROUP BY over string columns
// through the whole executor — tables whose partitions share one dictionary,
// a table an append left with two, a column past the cap with none — and
// demands the reference grouping's answers, byte-identical at 1, 4 and 8
// workers. Payloads are small integers, so every SUM is exact in any order
// and the reference needs no tolerance.
func TestGroupedAnswersAcrossWorkersAndCodings(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	schema := storage.Schema{
		{Name: "t.s", Typ: storage.String},
		{Name: "t.u", Typ: storage.String},
		{Name: "t.k", Typ: storage.Int64},
		{Name: "t.y", Typ: storage.Float64},
	}
	load := func(n, vocab int) *storage.Table {
		b := storage.NewBuilder("t", schema)
		for i := 0; i < n; i++ {
			b.AddRow(storage.StringValue(awkwardString(r, vocab)),
				storage.StringValue(fmt.Sprintf("u%d", r.Intn(2*storage.MaxDictSize))),
				storage.IntValue(int64(r.Intn(700))), storage.FloatValue(float64(r.Intn(50))))
		}
		return b.Build(1)
	}
	base := load(20000, 9).Repartition(3000)
	grown, err := base.Append(load(9000, 40)) // new values: the dictionary is extended
	if err != nil {
		t.Fatal(err)
	}
	if s := base.Column(0); s.Dict == nil || base.Column(1).Dict != nil {
		t.Fatal("fixture: t.s should be coded and t.u past the cap")
	}
	if first, last := grown.Scan(0, 10), grown.Scan(grown.Partitions()-1, 10); len(first) == 0 ||
		len(last) == 0 || first[0].Vecs[0].Dict == last[0].Vecs[0].Dict {
		t.Fatal("fixture: the append should leave partitions under two dictionaries")
	}
	aggs := []plan.AggSpec{{Kind: stats.Count}, {Kind: stats.Sum, Col: "t.y"}}
	for _, tbl := range []*storage.Table{base, grown} {
		for _, groupBy := range [][]string{{"t.s"}, {"t.u"}, {"t.s", "t.k"}, {"t.k", "t.s", "t.u"}, {"t.k"}} {
			node := &plan.Aggregate{Child: &plan.Scan{Table: tbl}, GroupBy: groupBy, Aggs: aggs}
			// Reference: group on printed key values, count and sum.
			type cell struct{ n, sum float64 }
			want := map[string]*cell{}
			gcols := make([]int, len(groupBy))
			for i, g := range groupBy {
				gcols[i] = tbl.Schema().Index(g)
			}
			for i := 0; i < tbl.NumRows(); i++ {
				key := ""
				for _, c := range gcols {
					key += fmt.Sprintf("%q|", tbl.Column(c).Get(i).String())
				}
				if want[key] == nil {
					want[key] = &cell{}
				}
				want[key].n++
				want[key].sum += tbl.Column(3).F64[i]
			}
			var base string
			for _, workers := range []int{1, 4, 8} {
				ctx := NewContext(0.95)
				ctx.Workers = workers
				op, err := Compile(node, 3, ctx)
				if err != nil {
					t.Fatal(err)
				}
				out, err := Run(op)
				if err != nil {
					t.Fatal(err)
				}
				rows := allRows(out)
				if fp := fmt.Sprintf("%v", rows); base == "" {
					base = fp
				} else if fp != base {
					t.Fatalf("GROUP BY %v: workers=%d diverges from workers=1", groupBy, workers)
				}
				if len(rows) != len(want) {
					t.Fatalf("GROUP BY %v workers=%d: %d groups, reference %d", groupBy, workers, len(rows), len(want))
				}
				for _, row := range rows {
					key := ""
					for c := range groupBy {
						key += fmt.Sprintf("%q|", row[c].String())
					}
					w := want[key]
					if w == nil || row[len(groupBy)].F != w.n || row[len(groupBy)+1].F != w.sum {
						t.Fatalf("GROUP BY %v workers=%d: group %s answers %v, reference %+v", groupBy, workers, key, row, w)
					}
				}
			}
		}
	}
}

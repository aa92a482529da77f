package synopses

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/tasterdb/taster/internal/storage"
)

// gatherTable builds a fact-like table version: int key, float measure, a
// low-cardinality string, a string with a distinct value per row and a
// bool. The first base rows are cut into partitions of partRows; each tail
// is then appended as its own version, the string values of tail k drawn
// from a vocabulary that widens by k — a new value each, so each brings a
// dictionary of its own — and past MaxDictSize rows the unique column goes
// uncoded from the append that crosses it.
func gatherTable(base, partRows, vocab int, tails []int) *storage.Table {
	schema := storage.Schema{
		{Name: "g.k", Typ: storage.Int64},
		{Name: "g.v", Typ: storage.Float64},
		{Name: "g.s", Typ: storage.String},
		{Name: "g.u", Typ: storage.String},
		{Name: "g.f", Typ: storage.Bool},
	}
	rows := func(lo, hi, vocab int) *storage.Table {
		b := storage.NewBuilder("g", schema)
		for i := lo; i < hi; i++ {
			b.Int(0, int64(i%97))
			b.Float(1, float64(i%13)+0.25)
			b.Str(2, fmt.Sprintf("s%d", (i*7)%vocab))
			b.Str(3, fmt.Sprintf("u%d", i))
			b.Bool(4, i%3 == 0)
		}
		return b.Build(1)
	}
	tbl := rows(0, base, vocab).Repartition(partRows)
	at := base
	for k, n := range tails {
		var err error
		if tbl, err = tbl.Append(rows(at, at+n, vocab+k+1)); err != nil {
			panic(err)
		}
		at += n
	}
	return tbl
}

// perRowSample is the row-at-a-time reference of GatherSample: every column
// of each drawn row copied alone from the table's whole-column view, then
// its weight, in a table of the given partition count.
func perRowSample(name string, tbl *storage.Table, d Drawn, partitions int) *Sample {
	schema := SampleSchema(tbl.Schema())
	ref := storage.NewBuilder(name, schema)
	for k, r := range d.Rows {
		for c := range tbl.Schema() {
			ref.CopyFrom(c, tbl.Column(c), int(r))
		}
		ref.Float(len(schema)-1, d.Weights[k])
	}
	return &Sample{Rows: ref.Build(partitions), SourceRows: d.Offered}
}

// perBatchDicts is the dictionary each string column of a sample kept when
// its rows were copied batch by batch as the sampler was offered them
// (Vector.AppendGather over every batch up to d.Through, drawn rows or
// not): the decision Table.Gather must reproduce. Nil for an uncoded
// column, and for every other type.
func perBatchDicts(tbl *storage.Table, d Drawn) []*storage.Dict {
	cols := make([]*storage.Vector, len(tbl.Schema()))
	for c, col := range tbl.Schema() {
		cols[c] = storage.NewVector(col.Typ, 0)
	}
	k := 0
	var b storage.Batch
	cur := tbl.NewCursor(storage.BatchSize, nil, nil, nil)
	for cur.Seek(0, d.Through, nil); cur.Next(&b); {
		var local []int32
		for ; k < len(d.Rows) && int(d.Rows[k]) < b.Start+b.Len(); k++ {
			local = append(local, d.Rows[k]-int32(b.Start))
		}
		for c, v := range cols {
			v.AppendGather(b.Vecs[c], local)
		}
	}
	dicts := make([]*storage.Dict, len(cols))
	for c, v := range cols {
		dicts[c] = v.Dict
	}
	return dicts
}

// TestGatherSampleValidatesDraws: a draw that cannot have come from a
// sampler over the table — weights misaligned with rows, more rows than were
// offered, rows out of order or out of the table, a span end before the last
// row or past the table — is rejected as corruption; an empty draw from no
// input is a legitimate morsel's, and a good draw keeps its offered count.
func TestGatherSampleValidatesDraws(t *testing.T) {
	tbl := gatherTable(20, 8, 3, nil)
	for _, bad := range []struct {
		d    Drawn
		want string
	}{
		{Drawn{Rows: []int32{1, 2}, Weights: []float64{1}, Offered: 5, Through: 20}, "weights"},
		{Drawn{Rows: []int32{1, 2}, Weights: []float64{1, 1}, Offered: 1, Through: 20}, "offered"},
		{Drawn{Rows: []int32{2, 1}, Weights: []float64{1, 1}, Offered: 5, Through: 20}, "out of order"},
		{Drawn{Rows: []int32{1, 20}, Weights: []float64{1, 1}, Offered: 30, Through: 20}, "past"},
		{Drawn{Rows: []int32{1, 9}, Weights: []float64{1, 1}, Offered: 30, Through: 9}, "span"},
		{Drawn{Rows: []int32{1, 9}, Weights: []float64{1, 1}, Offered: 30, Through: 21}, "span"},
	} {
		if _, err := GatherSample("m", tbl, nil, bad.d, 1); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Fatalf("%+v: error %v, want one naming %q", bad.d, err, bad.want)
		}
	}
	empty, err := GatherSample("m", tbl, nil, Drawn{}, 1)
	if err != nil || empty.Rows.NumRows() != 0 || empty.SourceRows != 0 {
		t.Fatalf("empty draw: %v, %v", empty, err)
	}
	good, err := GatherSample("m", tbl, NewUniformSampler(0.5, 1),
		Drawn{Rows: []int32{0, 9, 19}, Weights: []float64{2, 2, 2}, Offered: 20, Through: 20}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if good.SourceRows != 20 || good.Rows.NumRows() != 3 || good.Strategy != "uniform" || good.P != 0.5 {
		t.Fatalf("good draw: SourceRows=%d rows=%d %s p=%g", good.SourceRows, good.Rows.NumRows(), good.Strategy, good.P)
	}
}

// FuzzGatherSample holds GatherSample, the one constructor of every sample,
// to the row-at-a-time reference over random tables, appended partitions
// and drawn rows: the encoded samples are the same bytes at one partition
// and at the table's count; each string column keeps exactly the dictionary
// a batch-by-batch copy of the offered rows kept (when it drew any); and
// Encode / DecodeSample round-trip.
func FuzzGatherSample(f *testing.F) {
	f.Add(uint16(1000), uint16(300), uint16(128), uint8(4), uint16(0), uint64(7), uint16(50), uint16(0))
	f.Add(uint16(0), uint16(0), uint16(1), uint8(1), uint16(0), uint64(1), uint16(10), uint16(0))
	f.Add(uint16(3500), uint16(1000), uint16(700), uint8(9), uint16(1500), uint64(99), uint16(3), uint16(77))
	f.Add(uint16(777), uint16(5), uint16(100), uint8(2), uint16(9), uint64(3), uint16(999), uint16(5))
	// Every drawn row under the first dictionary, the span past them into
	// the appended tail's: the codes are dropped.
	f.Add(uint16(114), uint16(97), uint16(26), uint8(1), uint16(0), uint64(10), uint16(10), uint16(30))

	f.Fuzz(func(t *testing.T, nBase, tailA, partRows uint16, vocab uint8, tailB uint16, seed uint64, pMille, throughOff uint16) {
		tails := []int{int(tailA % 1500)}
		if tailB%2 == 1 {
			tails = append(tails, int(tailB%1500))
		}
		tbl := gatherTable(int(nBase%4000), int(partRows%1024)+1, int(vocab%16)+1, tails)
		n := tbl.NumRows()
		p := float64(pMille%1000+1) / 1000
		rnd := newRng(seed)
		d := Drawn{Offered: n}
		for i := 0; i < n; i++ {
			if rnd.next() < p {
				d.Rows, d.Weights = append(d.Rows, int32(i)), append(d.Weights, 1/p+rnd.next())
			}
		}
		if k := len(d.Rows); k > 0 {
			last := int(d.Rows[k-1])
			d.Through = last + 1 + int(throughOff)%(n-last)
		}
		want := perBatchDicts(tbl, d)

		for _, parts := range []int{1, tbl.Partitions()} {
			where := fmt.Sprintf("rows=%d drawn=%d through=%d partitions=%d", n, len(d.Rows), d.Through, parts)
			got, err := GatherSample("fz", tbl, NewUniformSampler(p, seed), d, parts)
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			ref := perRowSample("fz", tbl, d, parts)
			ref.Strategy, ref.P = got.Strategy, got.P
			enc := got.Encode()
			if !bytes.Equal(enc, ref.Encode()) {
				t.Fatalf("%s: gathered sample encodes differently from the per-row reference", where)
			}
			back, err := DecodeSample(enc)
			if err != nil {
				t.Fatalf("%s: decode: %v", where, err)
			}
			if !bytes.Equal(back.Encode(), enc) {
				t.Fatalf("%s: Encode/DecodeSample do not round-trip", where)
			}
			if len(d.Rows) == 0 {
				continue // an empty column's dictionary indexes no row
			}
			cols, err := tbl.Gather(d.Rows, d.Through)
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			for c, v := range cols {
				if v.Dict != want[c] {
					t.Fatalf("%s: column %s kept dictionary %p, a batch-by-batch copy %p", where, tbl.Schema()[c].Name, v.Dict, want[c])
				}
			}
		}
	})
}

package synopses

import (
	"math"

	"github.com/tasterdb/taster/internal/storage"
)

// This file implements the VerdictDB-style offline pipeline the paper uses
// for the user-hints experiment (§VI-E): (1) create a "scrambled" (shuffled)
// clone of the table, (2) extract a sample whose rows carry a variational
// subsample id, (3) estimate errors at query time from the spread of
// per-subsample aggregates instead of tuple-level variance formulas, which
// is what lets VerdictDB get away with smaller samples.

// SubsampleCol is the appended variational subsample id attribute.
const SubsampleCol = "__vsub"

// Scramble returns a row-shuffled clone of the table (the scrambled copy
// VerdictDB materializes offline). The shuffle is a seeded Fisher-Yates, so
// results are reproducible. Callers charge the copy's I/O to the offline
// phase.
func Scramble(tbl *storage.Table, seed uint64) *storage.Table {
	n := tbl.NumRows()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	r := newRng(seed)
	for i := n - 1; i > 0; i-- {
		j := int(r.next() * float64(i+1))
		if j > i {
			j = i
		}
		perm[i], perm[j] = perm[j], perm[i]
	}
	b := storage.NewBuilder(tbl.Name+"_scrambled", tbl.Schema().Clone())
	for _, i := range perm {
		for c := 0; c < len(tbl.Schema()); c++ {
			b.CopyFrom(c, tbl.Column(c), i)
		}
	}
	return b.Build(tbl.Partitions())
}

// VariationalSample draws a uniform sample of ratio p from a (scrambled)
// table and tags each sampled row with one of ns = ⌈√(p·n)⌉ subsample ids.
// The sample schema is source ++ __weight ++ __vsub.
func VariationalSample(name string, tbl *storage.Table, p float64, seed uint64) *Sample {
	if p <= 0 {
		p = 0.01
	}
	if p > 1 {
		p = 1
	}
	schema := SampleSchema(tbl.Schema())
	schema = append(schema, storage.Col{Name: SubsampleCol, Typ: storage.Int64})
	b := storage.NewBuilder(name, schema)
	widx, sidx := len(schema)-2, len(schema)-1

	expected := p * float64(tbl.NumRows())
	ns := int(math.Ceil(math.Sqrt(expected)))
	if ns < 1 {
		ns = 1
	}
	r := newRng(seed)
	src := 0
	kept := 0
	for pt := 0; pt < tbl.Partitions(); pt++ {
		for _, batch := range tbl.Scan(pt, storage.BatchSize) {
			for i := 0; i < batch.Len(); i++ {
				src++
				if r.next() >= p {
					continue
				}
				for c := 0; c < len(tbl.Schema()); c++ {
					b.CopyFrom(c, batch.Vecs[c], i)
				}
				b.Float(widx, 1/p)
				b.Int(sidx, int64(mix64(uint64(kept)^seed)%uint64(ns)))
				kept++
			}
		}
	}
	return &Sample{
		Rows:       b.Build(tbl.Partitions()),
		Strategy:   "variational",
		P:          p,
		SourceRows: src,
		Seed:       seed,
	}
}

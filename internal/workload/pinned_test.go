package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"github.com/tasterdb/taster/internal/storage"
)

// tableDigest is an FNV-64a digest of everything a generated table holds:
// its name, partition count and rows, and per column its name, type and
// values in row order — a string column's codes too, so the dictionary
// assignment is held with the strings.
func tableDigest(t *storage.Table) uint64 {
	h := fnv.New64a()
	var w [8]byte
	word := func(x uint64) {
		binary.LittleEndian.PutUint64(w[:], x)
		h.Write(w[:])
	}
	str := func(s string) {
		word(uint64(len(s)))
		h.Write([]byte(s))
	}
	str(t.Name)
	word(uint64(t.Partitions()))
	word(uint64(t.NumRows()))
	for i, c := range t.Schema() {
		str(c.Name)
		word(uint64(c.Typ))
		v := t.Column(i)
		switch c.Typ {
		case storage.Int64:
			for _, x := range v.I64 {
				word(uint64(x))
			}
		case storage.Float64:
			for _, x := range v.F64 {
				word(math.Float64bits(x))
			}
		case storage.String:
			for _, s := range v.Str {
				str(s)
			}
			word(uint64(len(v.Code)))
			for _, code := range v.Code {
				word(uint64(code))
			}
		case storage.Bool:
			for _, b := range v.B {
				if b {
					word(1)
				} else {
					word(0)
				}
			}
		}
	}
	return h.Sum64()
}

// TestGeneratorsPinned holds the generators' bytes directly: every table of
// TPC-H, TPC-DS and Instacart at a small scale, and one append batch drawn by
// ResampleBatch. A change to how a table is built — its loop, its builder's
// sizing, the builder itself — must leave every digest alone; only a
// deliberate change of the generated data moves one.
func TestGeneratorsPinned(t *testing.T) {
	want := map[string]uint64{
		"instacart.aisles":        0x69ef3737e17df7b6,
		"instacart.departments":   0x8ae7979c8ed950b0,
		"instacart.orderproducts": 0x7cb67c43e4958d9b,
		"instacart.orders":        0x22fd01f2433701cf,
		"instacart.products":      0xfc39da4b3f2b2f06,
		"resample.lineitem":       0xf264b111d8ddd021,
		"tpcds.date_dim":          0x44f6321b35022898,
		"tpcds.item":              0xbec5689588edf754,
		"tpcds.store":             0xf60c4f4766500950,
		"tpcds.store_sales":       0x91acb4208f33ac0f,
		"tpch.customer":           0xe5d87e606491c157,
		"tpch.lineitem":           0x5636b6d84ddfef16,
		"tpch.nation":             0xe17290fe75b094d9,
		"tpch.orders":             0xc82d94a9cb0557ee,
		"tpch.part":               0x9a3582c277f1b769,
		"tpch.partsupp":           0xa614d4647fbcd875,
		"tpch.region":             0x1c0f23e54d1b264f,
		"tpch.supplier":           0x1c9531fabede53f8,
	}
	got := map[string]uint64{}
	record := func(w *Workload) {
		for _, name := range w.Catalog.Names() {
			tbl, err := w.Catalog.Table(name)
			if err != nil {
				t.Fatal(err)
			}
			got[w.Name+"."+name] = tableDigest(tbl)
		}
	}
	tpch := TPCH(0.01, 1)
	record(tpch)
	record(TPCDS(0.01, 2))
	record(Instacart(0.02, 3))
	li, err := tpch.Catalog.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	got["resample.lineitem"] = tableDigest(ResampleBatch(li, 500, rand.New(rand.NewSource(7))))

	for name, g := range got {
		if w, ok := want[name]; !ok || w != g {
			t.Errorf("%q: %#016x, want %#016x", name, g, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d tables digested, want %d", len(got), len(want))
	}
}

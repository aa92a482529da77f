package persist

import (
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
)

// fixtureExprs covers every expression node kind the codec handles.
func fixtureExprs() []expr.Expr {
	return []expr.Expr{
		nil,
		&expr.Col{Name: "sales.region"},
		expr.Int(42),
		expr.Float(3.25),
		expr.Str("west"),
		&expr.Const{Val: storage.BoolValue(true)},
		&expr.Cmp{Op: expr.LE, L: &expr.Col{Name: "sales.qty"}, R: expr.Float(10)},
		&expr.Bin{Op: expr.Mul, L: &expr.Col{Name: "sales.qty"}, R: expr.Float(1.1)},
		&expr.Not{E: &expr.Cmp{Op: expr.EQ, L: &expr.Col{Name: "a.b"}, R: expr.Int(1)}},
		&expr.In{E: &expr.Col{Name: "sales.region"}, Vals: []storage.Value{
			storage.StringValue("east"), storage.StringValue("west"),
		}},
		&expr.Logic{
			Op: expr.And,
			L:  &expr.Cmp{Op: expr.GT, L: &expr.Col{Name: "sales.price"}, R: expr.Float(5)},
			R: &expr.Logic{
				Op: expr.Or,
				L:  &expr.Cmp{Op: expr.NE, L: &expr.Col{Name: "sales.store"}, R: expr.Int(3)},
				R:  &expr.In{E: &expr.Col{Name: "sales.cat"}, Vals: []storage.Value{storage.IntValue(1)}},
			},
		},
	}
}

// fixtureSample builds a deterministic sample with every column type.
func fixtureSample() *synopses.Sample {
	b := storage.NewBuilder("synopsis_7", storage.Schema{
		{Name: "s.id", Typ: storage.Int64},
		{Name: "s.amount", Typ: storage.Float64},
		{Name: "s.region", Typ: storage.String},
		{Name: "s.flag", Typ: storage.Bool},
		{Name: synopses.WeightCol, Typ: storage.Float64},
	})
	for i := 0; i < 57; i++ {
		b.Int(0, int64(i*3))
		b.Float(1, float64(i)*1.25+0.125)
		b.Str(2, fmt.Sprintf("region-%d", i%5))
		b.Bool(3, i%2 == 0)
		b.Float(4, 1/(0.01+float64(i%7)))
	}
	return &synopses.Sample{
		Rows:       b.Build(3),
		Strategy:   "distinct",
		P:          0.0125,
		Delta:      11,
		StratCols:  []string{"s.region", "s.flag"},
		SourceRows: 4096,
		Seed:       0xfeedface,
	}
}

// fixtureSketchJoin builds the payload of a two-column-key sketch-join by
// hand: 200 build rows grouped by (product, store) in first-seen order, each
// key's row count and quantity sum.
func fixtureSketchJoin() *synopses.SketchJoin {
	b := storage.NewBuilder("sketch-join", storage.Schema{
		{Name: "sales.product", Typ: storage.Int64},
		{Name: "sales.store", Typ: storage.Int64},
		{Name: synopses.CountCol, Typ: storage.Float64},
		{Name: synopses.SumCol, Typ: storage.Float64},
	})
	type key struct{ product, store int64 }
	var order []key
	count, sum := map[key]float64{}, map[key]float64{}
	for i := 0; i < 200; i++ {
		k := key{int64(i % 17), int64(i % 3)}
		if count[k] == 0 {
			order = append(order, k)
		}
		count[k]++
		sum[k] += float64(i%9) + 0.5
	}
	for _, k := range order {
		b.Int(0, k.product)
		b.Int(1, k.store)
		b.Float(2, count[k])
		b.Float(3, sum[k])
	}
	sj, err := synopses.NewSketchJoin(b.Build(1), "sales.qty")
	if err != nil {
		panic(err)
	}
	return sj
}

// fixtures returns one instance of each stored synopsis kind.
func fixtures() map[string]synopses.Stored {
	return map[string]synopses.Stored{
		"sample":     fixtureSample(),
		"sketchjoin": fixtureSketchJoin(),
	}
}

// retiredKinds are the codec kind bytes whose record types left the engine
// (bare count-min, AMS, Flajolet-Martin, Bloom, heavy hitters, the
// sketch-join over count-min planes, partitioned-sample bundle).
// testdata/fuzz/FuzzDecode keeps a real record of most as the fuzzer's
// negative corpus.
var retiredKinds = []byte{2, 3, 4, 5, 6, 7, 8}

// retiredRecord returns a well-formed envelope (magic, current version) of a
// retired kind over a valid sample payload.
func retiredRecord(kind byte) []byte {
	enc := Encode(fixtureSample())
	enc[5] = kind
	return enc
}

// TestSizeBytesEqualsEncodedLength is the SizeBytes unification contract:
// storage quotas charge exactly what disk stores, for both stored kinds.
func TestSizeBytesEqualsEncodedLength(t *testing.T) {
	for name, s := range fixtures() {
		enc := Encode(s)
		if int64(len(enc)) != s.SizeBytes() {
			t.Errorf("%s: len(Encode) = %d, SizeBytes = %d", name, len(enc), s.SizeBytes())
		}
	}
}

// TestCodecRoundTrip: Decode(Encode(x)) reproduces x exactly, and
// re-encoding the decoded value is byte-identical (the codec is a
// bijection on its image — what warm-restart fidelity rests on).
func TestCodecRoundTrip(t *testing.T) {
	for name, s := range fixtures() {
		enc := Encode(s)
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(s, dec) {
			t.Errorf("%s: round trip mismatch:\n got %#v\nwant %#v", name, dec, s)
		}
		re := Encode(dec)
		if string(re) != string(enc) {
			t.Errorf("%s: re-encode differs (%d vs %d bytes)", name, len(re), len(enc))
		}
	}
}

// Golden CRCs pin the byte-level format: a codec change that silently
// alters the on-disk layout (breaking old warehouses) must fail here and
// force a deliberate version bump.
// Regenerated for codec version 2 (partition-aware table layout); the
// sketch-join's for kind 9 (the per-key table).
var goldenCRC = map[string]uint32{
	"sample":     0xa5a4db1d,
	"sketchjoin": 0x9c7b7413,
}

func TestCodecGolden(t *testing.T) {
	for name, s := range fixtures() {
		got := crc32.ChecksumIEEE(Encode(s))
		if want, ok := goldenCRC[name]; !ok || got != want {
			t.Errorf("%s: encoding CRC = %#08x, golden %#08x — format changed? bump CodecVersion and regenerate", name, got, goldenCRC[name])
		}
	}
}

// TestDecodeRejectsCorruption: flipping the kind byte, truncating, and
// garbage all fail cleanly (no panics, no misreads).
func TestDecodeRejectsCorruption(t *testing.T) {
	for name, s := range fixtures() {
		enc := Encode(s)
		if _, err := Decode(enc[:len(enc)/2]); err == nil {
			t.Errorf("%s: truncated payload decoded", name)
		}
		bad := append([]byte(nil), enc...)
		bad[5] ^= 0x55 // kind byte
		if _, err := Decode(bad); err == nil {
			t.Errorf("%s: wrong-kind payload decoded", name)
		}
		ver := append([]byte(nil), enc...)
		ver[4] = 99
		if _, err := Decode(ver); err == nil {
			t.Errorf("%s: future-version payload decoded", name)
		}
	}
	if _, err := Decode([]byte("not a synopsis")); err == nil {
		t.Error("garbage decoded")
	}
	if _, err := Decode(nil); err == nil {
		t.Error("nil decoded")
	}
}

// TestDecodeRejectsRetiredKinds: a well-formed record carrying a retired kind
// byte is an error, never a panic and never a misread as a live kind — and
// its envelope kind, which recovery holds against the entry's, is neither
// live kind, while every live record's is its own type's.
func TestDecodeRejectsRetiredKinds(t *testing.T) {
	for _, kind := range retiredKinds {
		s, err := Decode(retiredRecord(kind))
		if err == nil || !strings.Contains(err.Error(), "unknown synopsis kind") {
			t.Errorf("kind %d: decoded to %T, err %v; want the unknown-kind error", kind, s, err)
		}
		if got, err := synopses.EnvelopeKind(retiredRecord(kind)); err != nil || got == synopses.KindSample || got == synopses.KindSketchJoin {
			t.Errorf("kind %d: envelope kind %d, err %v", kind, got, err)
		}
	}
	for name, s := range fixtures() {
		want := synopses.KindSample
		if _, ok := s.(*synopses.SketchJoin); ok {
			want = synopses.KindSketchJoin
		}
		if got, err := synopses.EnvelopeKind(Encode(s)); err != nil || got != want {
			t.Errorf("%s: envelope kind %d, err %v; want %d", name, got, err, want)
		}
	}
}

// TestExprCodecRoundTrip round-trips predicate trees through the binary
// expression codec (descriptors persist their filter predicates with it).
func TestExprCodecRoundTrip(t *testing.T) {
	exprs := fixtureExprs()
	for i, e := range exprs {
		b, err := EncodeExpr(nil, e)
		if err != nil {
			t.Fatalf("expr %d: encode: %v", i, err)
		}
		dec, err := DecodeExpr(b)
		if err != nil {
			t.Fatalf("expr %d: decode: %v", i, err)
		}
		switch {
		case e == nil && dec == nil:
		case e == nil || dec == nil:
			t.Fatalf("expr %d: nil mismatch", i)
		case e.String() != dec.String():
			t.Errorf("expr %d: %q != %q", i, dec.String(), e.String())
		}
		if e != nil && !reflect.DeepEqual(e, dec) {
			t.Errorf("expr %d: structural mismatch", i)
		}
	}
}

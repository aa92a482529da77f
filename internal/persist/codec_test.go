package persist

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
)

// fixturePreds covers every term shape the codec writes: no filter, one
// comparison of each literal type, an IN list, and conjunctions.
func fixturePreds() []expr.Pred {
	return []expr.Pred{
		nil,
		{expr.Compare("sales.qty", expr.LE, storage.FloatValue(10))},
		{expr.Compare("sales.store", expr.NE, storage.IntValue(3))},
		{expr.Compare("sales.region", expr.EQ, storage.StringValue("west"))},
		{expr.Compare("sales.flag", expr.EQ, storage.BoolValue(true))},
		{expr.In("sales.region", storage.StringValue("east"), storage.StringValue("west"))},
		{
			expr.Compare("sales.price", expr.GT, storage.FloatValue(5)),
			expr.Compare("sales.store", expr.NE, storage.IntValue(3)),
			expr.In("sales.cat", storage.IntValue(1), storage.FloatValue(2.5)),
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

// TestExprCodecRoundTrip round-trips predicates through the binary
// filter codec (descriptors persist their filter predicates with it).
func TestExprCodecRoundTrip(t *testing.T) {
	for i, p := range fixturePreds() {
		b, err := EncodeExpr(nil, p)
		if err != nil {
			t.Fatalf("pred %d: encode: %v", i, err)
		}
		dec, err := DecodeExpr(b)
		if err != nil {
			t.Fatalf("pred %d: decode: %v", i, err)
		}
		if dec.String() != p.String() || !reflect.DeepEqual(dec, p) {
			t.Errorf("pred %d: %q (%#v) != %q", i, dec, dec, p)
		}
	}
}

// TestExprCodecWritesTheFlatFormat pins the bytes of a conjunction — the
// term count, then per term its operator, column, value count and values —
// and the shapes both halves of the codec refuse.
func TestExprCodecWritesTheFlatFormat(t *testing.T) {
	// head is a term's operator, column and value count.
	head := func(op expr.CmpOp, name string, k uint32) []byte {
		return storage.AppendU32(storage.AppendStr([]byte{byte(op)}, name), k)
	}
	term := func(op expr.CmpOp, name string, vals ...storage.Value) []byte {
		b := head(op, name, uint32(len(vals)))
		for _, v := range vals {
			b = appendValue(b, v)
		}
		return b
	}
	count := func(n uint32) []byte { return storage.AppendU32(nil, n) }
	a := term(expr.EQ, "t.a", storage.IntValue(1))
	p := expr.Pred{
		expr.Compare("t.a", expr.EQ, storage.IntValue(1)),
		expr.Compare("t.b", expr.GE, storage.IntValue(2)),
		expr.In("t.c", storage.StringValue("x"), storage.StringValue("y")),
	}
	want := slices.Concat(count(3), a, term(expr.GE, "t.b", storage.IntValue(2)),
		term(expr.IN, "t.c", storage.StringValue("x"), storage.StringValue("y")))
	got, err := EncodeExpr(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding\n got %x\nwant %x", got, want)
	}
	if got, err := EncodeExpr(nil, nil); err != nil || !bytes.Equal(got, count(0)) {
		t.Fatalf("no filter encodes to %x, %v; want %x", got, err, count(0))
	}
	for name, p := range map[string]expr.Pred{
		"IN without values": {expr.In("t.c")},
		"unknown operator":  {{Col: "t.a", Op: expr.IN + 1, Val: storage.IntValue(1)}},
	} {
		if b, err := EncodeExpr(nil, p); err == nil {
			t.Errorf("%s: encoded to %x, want an error", name, b)
		}
	}
	refused := map[string][]byte{
		"empty payload":            {},
		"term count past payload":  slices.Concat(count(2), a),
		"value count past payload": slices.Concat(count(1), head(expr.IN, "t.c", 1<<30)),
		"unknown operator":         slices.Concat(count(1), term(expr.IN+1, "t.a", storage.IntValue(1))),
		"comparison, two values":   slices.Concat(count(1), term(expr.LT, "t.a", storage.IntValue(1), storage.IntValue(2))),
		"comparison, no value":     slices.Concat(count(1), term(expr.LT, "t.a")),
		"IN without values":        slices.Concat(count(1), term(expr.IN, "t.c")),
		"trailing bytes":           slices.Concat(count(1), a, []byte{0}),
		"boolean byte 2":           slices.Concat(count(1), head(expr.EQ, "t.f", 1), []byte{byte(storage.Bool), 2}),
		"unknown value type":       slices.Concat(count(1), head(expr.EQ, "t.a", 1), []byte{0xff}),
	}
	for name, b := range refused {
		if dec, err := DecodeExpr(b); err == nil {
			t.Errorf("%s: decoded to %v, want an error", name, dec)
		}
	}
}

package persist

import (
	"reflect"
	"testing"
)

// FuzzDecode throws arbitrary bytes at the synopsis decoder: it must never
// panic, and whenever it accepts an input, re-encoding the decoded value
// must reproduce a decodable record of the same type (the codec's image is
// closed under round-trips). Seeds cover both stored kinds and every retired
// kind byte — see testdata/fuzz/FuzzDecode and the f.Add calls below.
func FuzzDecode(f *testing.F) {
	for _, s := range fixtures() {
		f.Add(Encode(s))
	}
	for _, kind := range retiredKinds {
		f.Add(retiredRecord(kind))
	}
	// Adversarial seeds: truncations and header mutations of a valid record.
	enc := Encode(fixtureSketchJoin())
	f.Add(enc[:4])
	f.Add(enc[:len(enc)-1])
	mut := append([]byte(nil), enc...)
	mut[5] = 0xff
	f.Add(mut)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := Decode(b)
		if err != nil {
			return
		}
		re := Encode(s)
		s2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded record undecodable: %v", err)
		}
		if reflect.TypeOf(s) != reflect.TypeOf(s2) {
			t.Fatalf("round trip changed type: %T vs %T", s, s2)
		}
	})
}

// FuzzDecodeExpr: the filter decoder must never panic and must round-trip
// every predicate it accepts (canonical string form is the identity plan
// signatures rely on). Seeds include the node shapes it refuses — the
// retired arithmetic and NOT tags, OR, operands other than a column and a
// literal — which must decode to an error.
func FuzzDecodeExpr(f *testing.F) {
	for _, p := range fixturePreds() {
		b, err := EncodeExpr(nil, p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{exprIn, exprCol, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{exprNot, exprNot, exprNil})
	f.Add([]byte{exprBin, 0, exprCol, 1, 0, 0, 0, 'a', exprConst, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{exprLogic, 1, exprNil, exprNil})
	f.Add([]byte{exprCmp, 0, exprConst, 0, 1, 0, 0, 0, 0, 0, 0, 0, exprCol, 1, 0, 0, 0, 'a'})
	f.Add([]byte{exprCmp, 0, exprCol, 1, 0, 0, 0, 'a', exprCol, 1, 0, 0, 0, 'b'})

	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := DecodeExpr(b)
		if err != nil || p == nil {
			return
		}
		re, err := EncodeExpr(nil, p)
		if err != nil {
			t.Fatalf("decoded predicate unencodable: %v", err)
		}
		p2, err := DecodeExpr(re)
		if err != nil {
			t.Fatalf("re-encoded predicate undecodable: %v", err)
		}
		if p.String() != p2.String() {
			t.Fatalf("round trip changed predicate: %q vs %q", p, p2)
		}
	})
}

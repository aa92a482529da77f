package persist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/meta"
	"github.com/tasterdb/taster/internal/storage"
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
// every predicate it accepts, byte for byte (the canonical string form is the
// identity plan signatures rely on). Seeds — the f.Add calls below and
// testdata/fuzz/FuzzDecodeExpr — hold every fixture filter and the shapes it
// refuses: a term or value count past the payload, an unknown operator, a
// comparison with two values, an IN with none, trailing bytes, a boolean byte
// other than 0 or 1 and a column name past the payload.
func FuzzDecodeExpr(f *testing.F) {
	for _, p := range fixturePreds() {
		b, err := EncodeExpr(nil, p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{2, 0, 0, 0, byte(expr.EQ), 1, 0, 0, 0, 'a', 1, 0, 0, 0, byte(storage.Bool), 1})
	f.Add([]byte{1, 0, 0, 0, byte(expr.IN), 1, 0, 0, 0, 'a', 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{1, 0, 0, 0, byte(expr.IN) + 1, 1, 0, 0, 0, 'a', 1, 0, 0, 0, byte(storage.Bool), 1})
	f.Add([]byte{1, 0, 0, 0, byte(expr.LT), 1, 0, 0, 0, 'a', 2, 0, 0, 0, byte(storage.Bool), 1, byte(storage.Bool), 0})
	f.Add([]byte{1, 0, 0, 0, byte(expr.IN), 1, 0, 0, 0, 'a', 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 0, byte(expr.EQ), 1, 0, 0, 0, 'a', 1, 0, 0, 0, byte(storage.Bool), 2})
	f.Add([]byte{1, 0, 0, 0, byte(expr.EQ), 0xff, 0xff, 0xff, 0x7f, 'a'})

	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := DecodeExpr(b)
		if err != nil {
			return
		}
		re, err := EncodeExpr(nil, p)
		if err != nil {
			t.Fatalf("decoded predicate unencodable: %v", err)
		}
		if !bytes.Equal(re, b) {
			t.Fatalf("round trip changed the bytes: %x vs %x", b, re)
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

// FuzzManifest: the manifest decoder reads a file from outside the program.
// It must never panic, and every entry of a manifest it accepts either fails
// Entry or round-trips: its descriptor, written back by EntryRecordOf and
// WriteManifest and read by LoadManifest, is the same descriptor. Seeds: a
// manifest holding every fixture filter, and in testdata/fuzz/FuzzManifest
// the manifest of a warm-restarted engine's directory (a pinned sample, a
// filtered sketch-join, window records with reuse costs), a version-2
// manifest and a torn one.
func FuzzManifest(f *testing.F) {
	m := &Manifest{Version: ManifestVersion, NextSynopsisID: 9, QueryCount: 3, Window: 10,
		History: []WindowRecord{{QueryID: 2, ExactCost: 7.5}},
		Items:   []ItemRecord{{ID: 1, Tier: TierWarehouse, Size: 64, Rows: 4, Pinned: true}},
	}
	for i, p := range fixturePreds() {
		rec, err := EntryRecordOf(&meta.Entry{Desc: meta.Descriptor{ID: uint64(i + 1), Table: "sales", FilterPred: p, AggCols: []string{"sales.qty"}}})
		if err != nil {
			f.Fatal(err)
		}
		m.Entries = append(m.Entries, rec)
	}
	b, err := json.Marshal(m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	st, err := OpenStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeManifest(b)
		if err != nil {
			return
		}
		var descs []meta.Descriptor
		back := &Manifest{}
		for _, rec := range m.Entries {
			d, err := rec.Entry()
			if err != nil {
				continue
			}
			out, err := EntryRecordOf(&meta.Entry{Desc: d})
			if err != nil {
				t.Fatalf("entry #%d: accepted descriptor unencodable: %v", rec.ID, err)
			}
			descs, back.Entries = append(descs, d), append(back.Entries, out)
		}
		if len(descs) == 0 {
			return
		}
		if err := st.WriteManifest(back); err != nil {
			t.Fatal(err)
		}
		m2, ok, err := st.LoadManifest()
		if err != nil || !ok || len(m2.Entries) != len(descs) {
			t.Fatalf("written manifest unreadable: ok %t, err %v", ok, err)
		}
		for i, rec := range m2.Entries {
			d, err := rec.Entry()
			if err != nil {
				t.Fatalf("entry #%d: written entry undecodable: %v", rec.ID, err)
			}
			if got, want := fmt.Sprintf("%+v", d), fmt.Sprintf("%+v", descs[i]); got != want {
				t.Fatalf("entry #%d: round trip changed the descriptor:\n got %s\nwant %s", rec.ID, got, want)
			}
		}
	})
}

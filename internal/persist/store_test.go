package persist

import (
	"os"
	"path/filepath"
	"testing"
)

func TestItemFileRoundTrip(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := Encode(fixtureSample())
	if err := st.WriteItem(7, payload); err != nil {
		t.Fatal(err)
	}
	got, err := st.ReadItem(7)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatal("payload mismatch")
	}
	ids, err := st.ItemIDs()
	if err != nil || len(ids) != 1 || ids[0] != 7 {
		t.Fatalf("ItemIDs = %v, %v", ids, err)
	}
	if err := st.RemoveItem(7); err != nil {
		t.Fatal(err)
	}
	if err := st.RemoveItem(7); err != nil {
		t.Fatalf("double remove must be a no-op: %v", err)
	}
	if _, err := st.ReadItem(7); err == nil {
		t.Fatal("reading a removed item must fail")
	}
}

func TestItemFileValidation(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := Encode(fixtureSketchJoin())
	if err := st.WriteItem(3, payload); err != nil {
		t.Fatal(err)
	}
	path := st.ItemPath(3)

	// Truncation (torn write).
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, full[:len(full)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ReadItem(3); err == nil {
		t.Fatal("truncated item passed validation")
	}

	// Bit flip in the payload (checksum).
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)-1] ^= 1
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ReadItem(3); err == nil {
		t.Fatal("corrupt item passed checksum")
	}

	// Wrong id under the right name.
	if err := st.WriteItem(4, payload); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(st.ItemPath(4), path); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ReadItem(3); err == nil {
		t.Fatal("id-mismatched item passed validation")
	}
}

func TestManifestAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.LoadManifest(); ok || err != nil {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}
	m1 := &Manifest{QueryCount: 10, Window: 12, Items: []ItemRecord{{ID: 1, Tier: TierWarehouse, Size: 100}}}
	if err := st.WriteManifest(m1); err != nil {
		t.Fatal(err)
	}
	m2 := &Manifest{QueryCount: 20, Window: 9}
	if err := st.WriteManifest(m2); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.LoadManifest()
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if got.QueryCount != 20 || got.Window != 9 || len(got.Items) != 0 {
		t.Fatalf("manifest = %+v, want the second write", got)
	}
	// No temp droppings left behind.
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if de.Name() != "MANIFEST.json" {
			t.Fatalf("unexpected file %q after manifest writes", de.Name())
		}
	}
}

func TestManifestVersionGate(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST.json"), []byte(`{"version":999}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.LoadManifest(); err == nil {
		t.Fatal("future-version manifest accepted")
	}
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST.json"), []byte(`{"version":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.LoadManifest(); err == nil {
		t.Fatal("torn manifest accepted")
	}
}

func TestEntryRecordRoundTrip(t *testing.T) {
	// Conversion fidelity for a descriptor with every field populated is
	// covered end to end by core's warm-restart tests; here we pin the
	// filter-predicate encoding through the record layer.
	for _, e := range fixturePreds() {
		var rec EntryRecord
		rec.ID = 5
		if e != nil {
			b, err := EncodeExpr(nil, e)
			if err != nil {
				t.Fatal(err)
			}
			rec.Filter = b
		}
		d, err := rec.Entry()
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case e == nil && d.FilterPred != nil:
			t.Fatal("nil filter decoded non-nil")
		case e != nil && (d.FilterPred == nil || d.FilterPred.String() != e.String()):
			t.Fatalf("filter round trip: %v", d.FilterPred)
		}
	}
}

func TestOpenStoreClearsTornTempFiles(t *testing.T) {
	dir := t.TempDir()
	torn := filepath.Join(dir, ".tmp-123456")
	if err := os.WriteFile(torn, []byte("half a manifest"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatal("torn temp file survived OpenStore")
	}
}

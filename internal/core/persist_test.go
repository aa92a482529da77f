package core

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/tasterdb/taster/internal/meta"
	"github.com/tasterdb/taster/internal/persist"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/planner"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
)

// persistEngine builds a synchronous engine over its own catalog with a
// disk-backed warehouse. The tiny buffer forces admissions to overflow to
// the warehouse tier, so spill/reload paths are exercised from the first
// materialization on.
func persistEngine(cat *storage.Catalog, dir string, tinyBuffer bool) (*Engine, error) {
	buf := cat.TotalBytes()
	if tinyBuffer {
		buf = 1 << 10
	}
	return Open(cat, Config{
		Mode:          ModeTaster,
		StorageBudget: cat.TotalBytes(),
		BufferSize:    buf,
		CostModel:     storage.ScaledCostModel(cat.TotalBytes(), 30040),
		Seed:          7,
		Synchronous:   true,
		WarehouseDir:  dir,
	})
}

// persistQuery returns the i-th query of a small recurring workload: the
// grouped join plus single-table variants, cycling so reuse kicks in.
func persistQuery(e *Engine, i int) *planner.Query {
	sales, _ := e.Catalog().Table("sales")
	products, _ := e.Catalog().Table("products")
	switch i % 3 {
	case 0, 1:
		return &planner.Query{
			Tables: []planner.TableRef{{Name: "sales", Table: sales}, {Name: "products", Table: products}},
			Joins: []planner.JoinPred{{
				LeftTable: "sales", LeftCol: "sales.product",
				RightTable: "products", RightCol: "products.id",
			}},
			GroupBy:  []string{"products.category"},
			Aggs:     []plan.AggSpec{{Kind: stats.Sum, Col: "sales.qty"}},
			Accuracy: stats.DefaultAccuracy,
		}
	default:
		return &planner.Query{
			Tables:   []planner.TableRef{{Name: "sales", Table: sales}},
			GroupBy:  []string{"sales.product"},
			Aggs:     []plan.AggSpec{{Kind: stats.Sum, Col: "sales.price"}},
			Accuracy: stats.DefaultAccuracy,
		}
	}
}

// storedEntries returns the entry of every synopsis the warehouse holds,
// buffer tier first, each by id, failing on an item that names no entry:
// recovery drops such an item row, and admission interns before it stores.
func storedEntries(t *testing.T, e *Engine) []*meta.Entry {
	t.Helper()
	v := e.wh.View()
	var out []*meta.Entry
	for _, it := range append(v.BufferItems(), v.WarehouseItems()...) {
		ent, ok := e.store.Get(it.ID)
		if !ok {
			t.Fatalf("stored item #%d names no entry", it.ID)
		}
		out = append(out, ent)
	}
	return out
}

// renderResult flattens everything fidelity cares about: the chosen plan,
// the full plan tree, and every result cell with its interval.
func renderResult(res *Result) string {
	out := res.Report.PlanDesc + "\n" + res.Report.PlanTree + "\n"
	for i, row := range res.Rows {
		for _, v := range row {
			out += v.String() + "|"
		}
		if i < len(res.Intervals) {
			for _, iv := range res.Intervals[i] {
				out += fmt.Sprintf("%v±%v", iv.Estimate, iv.HalfWidth)
			}
		}
		out += "\n"
	}
	return out
}

// TestWarmRestartFidelity is the acceptance criterion: an engine closed
// and reopened from its warehouse directory serves the remaining workload
// with byte-identical answers and plan choices to an engine that never
// stopped.
func TestWarmRestartFidelity(t *testing.T) {
	const total, split = 12, 6

	// Uninterrupted reference (its own directory: persistence enabled, so
	// spill/fault cost dynamics match the restarted engine's).
	refCat := testCatalog()
	ref, err := persistEngine(refCat, t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < total; i++ {
		res, err := ref.Execute(persistQuery(ref, i))
		if err != nil {
			t.Fatal(err)
		}
		if i >= split {
			want = append(want, renderResult(res))
		}
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: first half, clean close, warm reopen, second half.
	dir := t.TempDir()
	cat := testCatalog()
	e1, err := persistEngine(cat, dir, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < split; i++ {
		if _, err := e1.Execute(persistQuery(e1, i)); err != nil {
			t.Fatal(err)
		}
	}
	bufBytes, whBytes := e1.wh.Usage()
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := persistEngine(cat, dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.Recovered() == 0 {
		t.Fatal("warm restart recovered no synopses")
	}
	if b2, w2 := e2.wh.Usage(); b2 != bufBytes || w2 != whBytes {
		t.Fatalf("recovered usage %d/%d, want %d/%d", b2, w2, bufBytes, whBytes)
	}
	for i := split; i < total; i++ {
		res, err := e2.Execute(persistQuery(e2, i))
		if err != nil {
			t.Fatal(err)
		}
		if got := renderResult(res); got != want[i-split] {
			t.Fatalf("query %d diverged after warm restart:\ngot:\n%s\nwant:\n%s", i, got, want[i-split])
		}
	}
}

// TestWarmRestartBeatsColdStart: the recovered warehouse serves the first
// post-restart query from a synopsis, while a cold-started engine must run
// the expensive exact/build plan — the latency gap the warmstart
// experiment measures.
func TestWarmRestartBeatsColdStart(t *testing.T) {
	dir := t.TempDir()
	cat := testCatalog()
	e1, err := persistEngine(cat, dir, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := e1.Execute(persistQuery(e1, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	warm, err := persistEngine(cat, dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	wres, err := warm.Execute(persistQuery(warm, 0))
	if err != nil {
		t.Fatal(err)
	}

	cold, err := persistEngine(testCatalog(), t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	cres, err := cold.Execute(persistQuery(cold, 0))
	if err != nil {
		t.Fatal(err)
	}

	if len(wres.Report.UsedSynopses) == 0 {
		t.Fatalf("warm first query did not reuse a recovered synopsis (plan %q)", wres.Report.PlanDesc)
	}
	if wres.Report.SimSeconds >= cres.Report.SimSeconds {
		t.Fatalf("warm first query (%.3fs) not faster than cold start (%.3fs)",
			wres.Report.SimSeconds, cres.Report.SimSeconds)
	}
}

// TestCrashRecoveryTruncatedSpill simulates the crash windows: the engine
// dies without Close (stale manifest), one spilled payload file is
// truncated mid-write, and an orphan payload file has no manifest entry.
// Recovery must converge to a consistent view — the torn item reverts to
// never-materialized, the orphan is garbage-collected, and the engine
// keeps answering correctly.
func TestCrashRecoveryTruncatedSpill(t *testing.T) {
	dir := t.TempDir()
	cat := testCatalog()
	e1, err := persistEngine(cat, dir, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := e1.Execute(persistQuery(e1, i)); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: the last durable manifest is whatever the tuning rounds
	// checkpointed. There must be spilled payloads to corrupt.
	files, err := filepath.Glob(filepath.Join(dir, "item_*.syn"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no spilled payload files (%v)", err)
	}
	// Truncate one payload mid-file (torn write).
	st, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(files[0], st.Size()/2); err != nil {
		t.Fatal(err)
	}
	// Drop an orphan alongside (spill that outran the manifest).
	orphan := filepath.Join(dir, "item_999999.syn")
	if err := os.WriteFile(orphan, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	e2, err := persistEngine(cat, dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if _, statErr := os.Stat(orphan); !os.IsNotExist(statErr) {
		t.Fatal("orphan payload file survived recovery")
	}
	if _, statErr := os.Stat(files[0]); !os.IsNotExist(statErr) {
		t.Fatal("truncated payload file survived recovery")
	}
	// Consistency: every stored item names an entry and is loadable.
	for _, ent := range storedEntries(t, e2) {
		it, _, _ := e2.Warehouse().Get(ent.Desc.ID)
		if _, err := it.Synopsis(); err != nil {
			t.Fatalf("recovered item #%d unloadable: %v", ent.Desc.ID, err)
		}
	}
	// And the engine still serves every workload query.
	truth := exactAnswer(t)
	res, err := e2.Execute(persistQuery(e2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(truth) {
		t.Fatalf("post-recovery query lost groups: %d != %d", len(res.Rows), len(truth))
	}
}

// dirFiles reads every file of a warehouse directory, by name.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(des))
	for _, de := range des {
		b, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[de.Name()] = string(b)
	}
	return out
}

// TestOpenRefusesOlderManifest: a directory written in manifest version 2 —
// its entries naming their table as sig_tables — is read by no build of
// version 3. Open fails with an error naming both versions, and every file
// of the directory, item files included, is left byte for byte as it was:
// the directory is the user's to remove for a cold start.
func TestOpenRefusesOlderManifest(t *testing.T) {
	dir := t.TempDir()
	cat := testCatalog()
	e1, err := persistEngine(cat, dir, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := e1.Execute(persistQuery(e1, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "MANIFEST.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m["version"] = 2
	for _, x := range m["entries"].([]any) {
		rec := x.(map[string]any)
		rec["sig_tables"] = []any{rec["table"]}
		delete(rec, "table")
	}
	old, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)
	if n := len(before); n < 2 {
		t.Fatalf("test setup: %d files in the directory, want the manifest and item files", n)
	}

	e2, err := persistEngine(cat, dir, true)
	if err == nil {
		e2.Close()
		t.Fatal("Open accepted a version-2 manifest")
	}
	if !strings.Contains(err.Error(), "manifest version 2, want 3") {
		t.Fatalf("Open over a version-2 manifest: %v; want the version error", err)
	}
	if after := dirFiles(t, dir); !maps.Equal(after, before) {
		t.Fatal("the refused Open removed or rewrote a file")
	}
}

// TestRecoveryRefusesDuplicateIdentity: a manifest names each synopsis once.
// A second entry of one identity under another id is refused by
// meta.Store.Restore — Open fails and the directory is left as it was —
// never merged into the first.
func TestRecoveryRefusesDuplicateIdentity(t *testing.T) {
	dir := t.TempDir()
	cat := testCatalog()
	e1, err := persistEngine(cat, dir, true)
	if err != nil {
		t.Fatal(err)
	}
	id := pinSalesHint(t, e1, synopses.NewUniformSampler(0.05, 3))
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	db, err := persist.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, ok, err := db.LoadManifest()
	if err != nil || !ok {
		t.Fatalf("test setup: manifest ok=%v err=%v", ok, err)
	}
	i := slices.IndexFunc(m.Entries, func(r persist.EntryRecord) bool { return r.ID == id })
	if i < 0 {
		t.Fatalf("test setup: no entry for the pinned sample #%d", id)
	}
	m.NextSynopsisID++
	dup := m.Entries[i]
	dup.ID = m.NextSynopsisID
	m.Entries = append(m.Entries, dup)
	if err := db.WriteManifest(m); err != nil {
		t.Fatal(err)
	}
	before := dirFiles(t, dir)

	e2, err := persistEngine(cat, dir, true)
	if err == nil {
		e2.Close()
		t.Fatalf("Open restored two entries of one identity (#%d, #%d)", id, dup.ID)
	}
	if want := fmt.Sprintf("identity of #%d already held by #%d", dup.ID, id); !strings.Contains(err.Error(), want) {
		t.Fatalf("Open over a duplicate identity: %v; want %q", err, want)
	}
	if after := dirFiles(t, dir); !maps.Equal(after, before) {
		t.Fatal("the refused Open removed or rewrote a file")
	}
}

// TestRecoveryLayoutFromItemRows: where a synopsis lives, and whether it is
// pinned, is read from the manifest's item rows alone. A pinned hint in the
// warehouse tier and a byproduct in the buffer come back in their tiers with
// their pins, an entry with no item row stays a candidate outside S*, and
// re-planning interns onto the restored ids.
func TestRecoveryLayoutFromItemRows(t *testing.T) {
	dir := t.TempDir()
	cat := testCatalog()
	e1, err := persistEngine(cat, dir, false) // the buffer keeps the byproduct
	if err != nil {
		t.Fatal(err)
	}
	sales, _ := cat.Table("sales")
	// A hint too loose for the default accuracy, so the query below builds.
	hint, err := e1.PinSample("sales",
		synopses.BuildSampleFromTable("hint", sales, synopses.NewUniformSampler(0.05, 3), nil),
		[]string{"sales.price"}, stats.AccuracySpec{RelError: 0.5, Confidence: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Execute(persistQuery(e1, 2)); err != nil {
		t.Fatal(err)
	}
	bufItems := e1.wh.BufferItems()
	if len(bufItems) != 1 {
		t.Fatalf("test setup: %d buffer items, want the one byproduct", len(bufItems))
	}
	built := bufItems[0].ID
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	// Add an entry with no item row.
	db, err := persist.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, ok, err := db.LoadManifest()
	if err != nil || !ok {
		t.Fatalf("test setup: manifest ok=%v err=%v", ok, err)
	}
	rows := make(map[uint64]persist.ItemRecord)
	for _, ir := range m.Items {
		rows[ir.ID] = ir
	}
	if len(rows) != 2 || !rows[hint].Pinned || rows[hint].Tier != persist.TierWarehouse ||
		rows[built].Pinned || rows[built].Tier != persist.TierBuffer {
		t.Fatalf("test setup: item rows %v, want pinned warehouse #%d and buffer #%d", rows, hint, built)
	}
	m.NextSynopsisID++
	rowless := m.NextSynopsisID
	m.Entries = append(m.Entries, persist.EntryRecord{
		ID: rowless, Kind: uint8(plan.UniformSample), Table: "sales",
		StratCols: []string{"sales.qty"}, AggCols: []string{"sales.qty"},
		RelError: 0.1, Confidence: 0.95, EstSize: 100,
	})
	if err := db.WriteManifest(m); err != nil {
		t.Fatal(err)
	}

	e2, err := persistEngine(cat, dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	for id, r := range rows {
		it, inBuffer, ok := e2.wh.Get(id)
		if !ok || inBuffer != (r.Tier == persist.TierBuffer) || it.Pinned != r.Pinned {
			t.Fatalf("item #%d after recovery: stored %t, buffer %t, pinned %t; want row %+v",
				id, ok, inBuffer, ok && it.Pinned, r)
		}
	}
	if _, ok := e2.store.Get(rowless); !ok || e2.wh.Has(rowless) {
		t.Fatalf("row-less entry #%d after recovery: present %t, stored %t; want a candidate", rowless, ok, e2.wh.Has(rowless))
	}
	if e2.tn.Retune().Keep[rowless] || e2.snap.Load().keep[rowless] {
		t.Fatalf("row-less entry #%d is in S*", rowless)
	}
	entries0 := len(e2.store.Entries())
	ps, err := e2.pl.PlanWith(persistQuery(e2, 2), e2.snap.Load().wh)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(e2.store.Entries()); n != entries0 {
		t.Fatalf("re-planning interned %d new descriptors", n-entries0)
	}
	if !slices.ContainsFunc(ps.Candidates, func(c planner.Candidate) bool { return slices.Contains(c.Uses, built) }) {
		t.Fatalf("re-planned candidates do not reuse the restored #%d", built)
	}
}

// TestRecoveryDropsRetiredSketchPayload: a warehouse directory written while
// sketch-joins were two count-min planes stores them as kind-7 records,
// which nothing decodes any more. Recovery must drop such an item whether
// the checkpoint had it loaded or lazy — restored lazily it would hold quota
// and fail every fault-in — leaving its entry a candidate and no file behind;
// Open succeeds and the next query rebuilds.
func TestRecoveryDropsRetiredSketchPayload(t *testing.T) {
	for _, loaded := range []bool{false, true} {
		t.Run(fmt.Sprintf("loaded=%t", loaded), func(t *testing.T) {
			dir := t.TempDir()
			cat := testCatalog()
			e1, err := persistEngine(cat, dir, true)
			if err != nil {
				t.Fatal(err)
			}
			var id uint64
			for i := 0; i < 6 && id == 0; i++ {
				if _, err := e1.Execute(persistQuery(e1, 0)); err != nil {
					t.Fatal(err)
				}
				for _, ent := range storedEntries(t, e1) {
					if ent.Desc.Kind == plan.SketchJoinSynopsis {
						id = ent.Desc.ID
					}
				}
			}
			if id == 0 {
				t.Fatal("test setup: the join query materialized no sketch-join")
			}
			if err := e1.Close(); err != nil {
				t.Fatal(err)
			}

			// Hand-write the item as a kind-7 record of the size the manifest
			// recorded, so only its kind gives it away.
			db, err := persist.OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			m, ok, err := db.LoadManifest()
			if err != nil || !ok {
				t.Fatalf("manifest: ok=%v err=%v", ok, err)
			}
			var rec []byte
			for i := range m.Items {
				if ir := &m.Items[i]; ir.ID == id {
					ir.Loaded = loaded
					rec = make([]byte, ir.Size)
				}
			}
			if len(rec) < synopses.EnvelopeBytes {
				t.Fatalf("test setup: no item row for sketch-join #%d", id)
			}
			copy(rec, "TSYN")
			rec[4], rec[5] = synopses.CodecVersion, 7
			if err := db.WriteItem(id, rec); err != nil {
				t.Fatal(err)
			}
			if err := db.WriteManifest(m); err != nil {
				t.Fatal(err)
			}

			e2, err := persistEngine(cat, dir, true)
			if err != nil {
				t.Fatalf("open over a retired sketch-join payload: %v", err)
			}
			defer e2.Close()
			if _, ok := e2.Store().Get(id); !ok {
				t.Fatalf("entry #%d was not restored", id)
			}
			if e2.Warehouse().Has(id) {
				t.Fatalf("retired item #%d was restored", id)
			}
			if _, err := os.Stat(db.ItemPath(id)); !os.IsNotExist(err) {
				t.Fatalf("retired payload file survived recovery (%v)", err)
			}
			res, err := e2.Execute(persistQuery(e2, 0))
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(res.Report.PlanDesc, "build ") {
				t.Fatalf("query after recovery must rebuild, got plan %q using %v", res.Report.PlanDesc, res.Report.UsedSynopses)
			}
		})
	}
}

// TestRecoveryDropsPayloadOfAnotherKind: an item's payload must be a record
// of its entry's kind, whether the checkpoint had it loaded or lazy. A valid
// sketch-join record in a pinned sample's item file, with the item row's size
// made to match, drops like a torn spill: Recovered leaves it out, its file
// goes and its entry stays a candidate.
func TestRecoveryDropsPayloadOfAnotherKind(t *testing.T) {
	for _, loaded := range []bool{false, true} {
		t.Run(fmt.Sprintf("loaded=%t", loaded), func(t *testing.T) {
			dir := t.TempDir()
			cat := testCatalog()
			e1, err := persistEngine(cat, dir, true)
			if err != nil {
				t.Fatal(err)
			}
			id := pinSalesHint(t, e1, synopses.NewUniformSampler(0.05, 3))
			if err := e1.Close(); err != nil {
				t.Fatal(err)
			}

			rows := storage.NewBuilder("sketch-join", storage.Schema{
				{Name: "sales.product", Typ: storage.Int64},
				{Name: synopses.CountCol, Typ: storage.Float64},
				{Name: synopses.SumCol, Typ: storage.Float64},
			})
			rows.Int(0, 1)
			rows.Float(1, 2)
			rows.Float(2, 6)
			sk, err := synopses.NewSketchJoin(rows.Build(1), "sales.qty")
			if err != nil {
				t.Fatal(err)
			}
			rec := persist.Encode(sk)
			db, err := persist.OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			m, ok, err := db.LoadManifest()
			if err != nil || !ok {
				t.Fatalf("manifest: ok=%v err=%v", ok, err)
			}
			j := slices.IndexFunc(m.Items, func(r persist.ItemRecord) bool { return r.ID == id })
			if j < 0 {
				t.Fatalf("test setup: no item row for the pinned sample #%d", id)
			}
			m.Items[j].Size, m.Items[j].Loaded = int64(len(rec)), loaded
			if err := db.WriteItem(id, rec); err != nil {
				t.Fatal(err)
			}
			if err := db.WriteManifest(m); err != nil {
				t.Fatal(err)
			}

			e2, err := persistEngine(cat, dir, true)
			if err != nil {
				t.Fatalf("open over a sample entry holding a sketch-join payload: %v", err)
			}
			defer e2.Close()
			if got, want := e2.Recovered(), len(m.Items)-1; got != want {
				t.Fatalf("Recovered() = %d, want %d", got, want)
			}
			if _, ok := e2.Store().Get(id); !ok {
				t.Fatalf("entry #%d was not restored", id)
			}
			if e2.Warehouse().Has(id) {
				t.Fatalf("item #%d of another kind was restored", id)
			}
			if _, err := os.Stat(db.ItemPath(id)); !os.IsNotExist(err) {
				t.Fatalf("the mismatched payload file survived recovery (%v)", err)
			}
		})
	}
}

// TestColdStartWipedManifest: payload files without a manifest carry no
// recoverable identity; Open must treat the directory as cold, clear it,
// and serve normally.
func TestColdStartWipedManifest(t *testing.T) {
	dir := t.TempDir()
	cat := testCatalog()
	e1, err := persistEngine(cat, dir, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := e1.Execute(persistQuery(e1, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "MANIFEST.json")); err != nil {
		t.Fatal(err)
	}
	e2, err := persistEngine(cat, dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.Recovered() != 0 {
		t.Fatalf("recovered %d items without a manifest", e2.Recovered())
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "item_*.syn")); len(files) != 0 {
		t.Fatalf("unreferenced payload files not cleared: %v", files)
	}
	if _, err := e2.Execute(persistQuery(e2, 0)); err != nil {
		t.Fatal(err)
	}
}

// TestRestartUnderSmallerBudget: reopening with a shrunken warehouse quota
// must drop overflow items (files included) instead of restoring over
// quota.
func TestRestartUnderSmallerBudget(t *testing.T) {
	dir := t.TempDir()
	cat := testCatalog()
	e1, err := persistEngine(cat, dir, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := e1.Execute(persistQuery(e1, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(cat, Config{
		Mode:          ModeTaster,
		StorageBudget: 1 << 10, // far below the checkpointed usage
		BufferSize:    1 << 10,
		CostModel:     storage.ScaledCostModel(cat.TotalBytes(), 30040),
		Seed:          7,
		Synchronous:   true,
		WarehouseDir:  dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if _, wu := e2.wh.Usage(); wu > 1<<10 {
		t.Fatalf("restored over quota: %d", wu)
	}
	storedEntries(t, e2)
	if _, err := e2.Execute(persistQuery(e2, 0)); err != nil {
		t.Fatal(err)
	}
}

// TestSpillLoadExecuteStorm races the disk-backed warehouse end to end:
// concurrent Executes (faulting spilled payloads in on the serving path)
// against the background tuner (spilling promotions, removing evictions)
// and elastic budget churn. Run under -race by the concurrency suite.
func TestSpillLoadExecuteStorm(t *testing.T) {
	dir := t.TempDir()
	cat := testCatalog()
	e, err := Open(cat, Config{
		Mode:          ModeTaster,
		StorageBudget: cat.TotalBytes(),
		BufferSize:    1 << 10, // overflow admissions straight to disk
		CostModel:     storage.ScaledCostModel(cat.TotalBytes(), 30040),
		Seed:          7,
		WarehouseDir:  dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 4, 12
	var wg sync.WaitGroup
	errCh := make(chan error, clients+1)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if _, err := e.Execute(persistQuery(e, i+c)); err != nil {
					errCh <- err
					return
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			e.SetStorageBudget(cat.TotalBytes() / int64(1+i%3))
			e.Drain()
		}
		e.SetStorageBudget(cat.TotalBytes())
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	e.Quiesce()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// The directory must reopen cleanly after the storm.
	e2, err := persistEngine(cat, dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	storedEntries(t, e2)
}

// TestIngestFreshnessSurvivesCrash: a crash right after an append must not
// recover synopses as fresh against pre-ingest row counts (stale serving
// across restart) — the recovered BuildRows meet the grown catalog.
func TestIngestFreshnessSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	cat := testCatalog()
	e1, err := persistEngine(cat, dir, true)
	if err != nil {
		t.Fatal(err)
	}
	// Materialize something over sales, then append without Close (crash).
	var builtID uint64
	for i := 0; i < 6 && builtID == 0; i++ {
		res, err := e1.Execute(persistQuery(e1, i))
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range res.Report.CreatedSynopses {
			builtID = id
		}
	}
	if builtID == 0 {
		t.Fatal("workload built no synopsis")
	}
	delta := storage.NewBuilder("sales", storage.Schema{
		{Name: "sales.product", Typ: storage.Int64},
		{Name: "sales.qty", Typ: storage.Float64},
		{Name: "sales.price", Typ: storage.Float64},
	})
	for i := 0; i < 15000; i++ {
		delta.Int(0, int64(i%40))
		delta.Float(1, 3)
		delta.Float(2, 9.5)
	}
	if _, err := e1.Ingest("sales", delta.Build(1)); err != nil {
		t.Fatal(err)
	}
	wantStale := e1.Store().Staleness(builtID)
	if wantStale <= 0 {
		t.Fatalf("synopsis #%d not stale after ingest", builtID)
	}
	// Crash (no Close). The recovered engine must still see the synopsis
	// as stale against the appended table version.
	e2, err := persistEngine(cat, dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := e2.Store().Staleness(builtID); got < wantStale-1e-9 {
		t.Fatalf("staleness after crash-recovery = %v, want >= %v (stale-serving regression)", got, wantStale)
	}
}

// TestWarmRestartOverGrownCatalog: rows appended to the catalog between
// runs, outside any engine, stale every recovered synopsis over the table —
// the restored BuildRows meet the catalog's row count, not a checkpointed
// copy of it.
func TestWarmRestartOverGrownCatalog(t *testing.T) {
	dir := t.TempDir()
	cat := testCatalog()
	e1, err := persistEngine(cat, dir, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := e1.Execute(persistQuery(e1, i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(storedEntries(t, e1)) == 0 {
		t.Fatal("test setup: the workload stored no synopsis")
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Append("sales", salesDelta(30000, 40)); err != nil {
		t.Fatal(err)
	}
	e2, err := persistEngine(cat, dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	recovered := storedEntries(t, e2)
	if len(recovered) == 0 {
		t.Fatal("warm restart recovered no synopsis")
	}
	for _, ent := range recovered {
		if s := e2.Store().Staleness(ent.Desc.ID); s <= 0.4 {
			t.Fatalf("recovered %s: staleness %v after the table doubled between runs, want ~0.5", ent.Desc.Label(), s)
		}
	}
}

// TestManifestPerQueryStateFollowsTheWindow: the only per-query state a
// checkpoint carries is the tuner's window, so after any number of distinct
// queries — each asks for its own accuracy, so each interns a descriptor of
// its own — the manifest holds at
// most MaxWindow window records and no query list on any entry.
func TestManifestPerQueryStateFollowsTheWindow(t *testing.T) {
	const queries = 200
	dir := t.TempDir()
	e, err := persistEngine(testCatalog(), dir, false)
	if err != nil {
		t.Fatal(err)
	}
	sales, _ := e.Catalog().Table("sales")
	for i := 0; i < queries; i++ {
		_, err := e.Execute(&planner.Query{
			Tables:   []planner.TableRef{{Name: "sales", Table: sales}},
			GroupBy:  []string{"sales.product"},
			Aggs:     []plan.AggSpec{{Kind: stats.Sum, Col: "sales.qty"}},
			Accuracy: stats.AccuracySpec{RelError: 0.1 + float64(i)/1000, Confidence: 0.95},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	maxWindow := e.cfg.Tuner.MaxWindow
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	m, ok, err := e.db.LoadManifest()
	if err != nil || !ok {
		t.Fatalf("manifest: ok=%v err=%v", ok, err)
	}
	if len(m.Entries) < queries {
		t.Fatalf("manifest holds %d entries; %d distinct queries must have interned at least one each", len(m.Entries), queries)
	}
	if len(m.History) == 0 || len(m.History) > maxWindow {
		t.Fatalf("manifest holds %d window records, want 1..%d", len(m.History), maxWindow)
	}
	reuse := 0
	for _, r := range m.History {
		reuse += len(r.Reuse)
	}
	if reuse == 0 {
		t.Fatal("window records carry no reuse costs: a restart would evict the whole warehouse")
	}
	// Every query id in the file belongs to a window record.
	raw, err := os.ReadFile(filepath.Join(dir, "MANIFEST.json"))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(raw), `"query_id"`); n != len(m.History) {
		t.Fatalf("manifest mentions %d query ids, want one per window record (%d)", n, len(m.History))
	}
}

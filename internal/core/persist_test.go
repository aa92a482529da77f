package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/tasterdb/taster/internal/expr"
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

// TestRecoveryDropsPartitionScopedEntry: a v2 manifest written before
// synopses were whole-table only may carry a sample scoped to one partition
// ("partition": n). Restored under today's whole-table descriptors it would
// answer whole-table aggregates from one partition's rows, so recovery must
// leave the entry out, remove its payload and open normally; the next query
// re-tastes.
func TestRecoveryDropsPartitionScopedEntry(t *testing.T) {
	dir := t.TempDir()
	cat := testCatalog()
	e1, err := persistEngine(cat, dir, true)
	if err != nil {
		t.Fatal(err)
	}
	id := pinSalesHint(t, e1, synopses.NewUniformSampler(0.05, 3))
	if _, ok := runsOn(t, e1, id); !ok {
		t.Fatal("test setup: the pinned sample must serve the query before the restart")
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	item := filepath.Join(dir, fmt.Sprintf("item_%d.syn", id))
	if _, err := os.Stat(item); err != nil {
		t.Fatalf("test setup: pinned payload not on disk: %v", err)
	}

	// Rewrite the manifest by hand: the pinned entry becomes partition 2's.
	// Item rows carry "tier" after the id, so the pattern names the entry.
	path := filepath.Join(dir, "MANIFEST.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	from := fmt.Sprintf(`{"id":%d,"kind":`, id)
	if n := strings.Count(string(raw), from); n != 1 {
		t.Fatalf("test setup: %d manifest entries match %s, want 1", n, from)
	}
	scoped := strings.Replace(string(raw), from, fmt.Sprintf(`{"id":%d,"partition":2,"kind":`, id), 1)
	if err := os.WriteFile(path, []byte(scoped), 0o644); err != nil {
		t.Fatal(err)
	}

	e2, err := persistEngine(cat, dir, true)
	if err != nil {
		t.Fatalf("open over a manifest with a partition-scoped entry: %v", err)
	}
	defer e2.Close()
	if _, ok := e2.Store().Get(id); ok {
		t.Fatalf("partition-scoped entry #%d was restored", id)
	}
	if e2.Warehouse().Has(id) {
		t.Fatalf("partition-scoped item #%d was restored", id)
	}
	if _, err := os.Stat(item); !os.IsNotExist(err) {
		t.Fatalf("partition-scoped payload file survived recovery (%v)", err)
	}
	res, ok := runsOn(t, e2, id)
	if ok || !strings.HasPrefix(res.Report.PlanDesc, "build ") {
		t.Fatalf("query after recovery must re-taste, got plan %q using %v",
			res.Report.PlanDesc, res.Report.UsedSynopses)
	}
}

// TestRecoveryDropsJoinResultSample: an older manifest may hold a sample of
// a join result (sig_tables lists more than one table), from before a sample
// lived only on the fact table's scan; meta.Store never forgets a descriptor,
// so every checkpoint carried them. No plan reads one any more, and a
// descriptor names one table. Restored, it would still collect the recovered
// window's reuse gain and take a place in S*, so recovery must leave the
// entry out, remove its payload and open normally.
func TestRecoveryDropsJoinResultSample(t *testing.T) {
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

	// Add the join-result sample by hand: an entry over sales⋈products, its
	// payload, and a reuse cost in every window record cheap enough that a
	// restored entry would enter S*.
	db, err := persist.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, ok, err := db.LoadManifest()
	if err != nil || !ok || len(m.History) == 0 {
		t.Fatalf("test setup: manifest ok=%v err=%v window records=%d", ok, err, len(m.History))
	}
	m.NextSynopsisID++ // the last id assigned
	id := m.NextSynopsisID
	sales, _ := cat.Table("sales")
	products, _ := cat.Table("products")
	smp := synopses.BuildSampleFromTable("join", sales, synopses.NewUniformSampler(0.05, 3), nil)
	payload := persist.Encode(smp)
	if err := db.WriteItem(id, payload); err != nil {
		t.Fatal(err)
	}
	m.Entries = append(m.Entries, persist.EntryRecord{
		ID: id, Kind: uint8(plan.UniformSample),
		SigTables: []string{"products", "sales"},
		P:         0.05, AggCols: []string{"sales.qty"},
		RelError: stats.DefaultAccuracy.RelError, Confidence: stats.DefaultAccuracy.Confidence,
		EstSize: int64(len(payload)), ActualSize: int64(len(payload)),
		BuildRows: int64(sales.NumRows() + products.NumRows()),
	})
	m.Items = append(m.Items, persist.ItemRecord{
		ID: id, Tier: persist.TierWarehouse,
		Size: int64(len(payload)), Rows: int64(smp.Rows.NumRows()),
	})
	for i := range m.History {
		m.History[i].Reuse = append(m.History[i].Reuse, planner.ReuseCost{ID: id, Cost: 1e-9})
	}
	if err := db.WriteManifest(m); err != nil {
		t.Fatal(err)
	}

	e2, err := persistEngine(cat, dir, true)
	if err != nil {
		t.Fatalf("open over a manifest with a join-result sample: %v", err)
	}
	defer e2.Close()
	if _, ok := e2.Store().Get(id); ok {
		t.Fatalf("join-result sample entry #%d was restored", id)
	}
	if e2.Warehouse().Has(id) {
		t.Fatalf("join-result sample item #%d was restored", id)
	}
	if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("item_%d.syn", id))); !os.IsNotExist(err) {
		t.Fatalf("join-result sample payload survived recovery (%v)", err)
	}
	if dec := e2.tn.Retune(); dec.Keep[id] {
		t.Fatalf("join-result sample #%d is in S* after recovery", id)
	}
	if _, err := e2.Execute(persistQuery(e2, 0)); err != nil {
		t.Fatal(err)
	}
}

// TestOldManifestRestores: a v2 manifest from before a descriptor was (table,
// filter, configuration) carries, per entry, the subplan's filter conjuncts
// and output columns (sig_filters, sig_output) and its freshness twice, as a
// summed epoch and per-table rows (build_epoch, built_by); one from before
// the catalog was the only record of a table's size also carries observed
// table versions (tables); and one from before a stored synopsis was its
// payload names each item row's kind (kind). Decoding ignores them all, so
// a filtered sketch-join and a sample restore under their ids as fresh as
// the catalog says — whatever the tables map claims — re-planning their
// queries interns onto those ids, and an append makes them exactly as stale
// as the per-table record and the catalog say: unseen / (built + unseen).
func TestOldManifestRestores(t *testing.T) {
	dir := t.TempDir()
	cat := testCatalog()
	e1, err := persistEngine(cat, dir, true)
	if err != nil {
		t.Fatal(err)
	}
	qty := expr.Compare("sales.qty", expr.GT, storage.FloatValue(2))
	price := expr.Compare("sales.price", expr.LT, storage.FloatValue(80))
	filtered := func(e *Engine) *planner.Query {
		q := persistQuery(e, 0)
		q.Filter = expr.Pred{qty, price}
		return q
	}
	var sketchID, sampleID uint64
	for i := 0; i < 8 && (sketchID == 0 || sampleID == 0); i++ {
		for _, q := range []*planner.Query{filtered(e1), persistQuery(e1, 2)} {
			if _, err := e1.Execute(q); err != nil {
				t.Fatal(err)
			}
		}
		for _, ent := range storedEntries(t, e1) {
			switch {
			case ent.Desc.Kind == plan.SketchJoinSynopsis && ent.Desc.FilterPred != nil:
				sketchID = ent.Desc.ID
			case ent.Desc.Kind != plan.SketchJoinSynopsis:
				sampleID = ent.Desc.ID
			}
		}
	}
	if sketchID == 0 || sampleID == 0 {
		t.Fatalf("test setup: materialized sketch-join #%d, sample #%d; want both", sketchID, sampleID)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	// Rewrite every entry the way the old writer wrote it.
	sales, _ := cat.Table("sales")
	output := append([]string(nil), sales.Schema().Names()...)
	sort.Strings(output)
	conjuncts := []string{qty.String(), price.String()}
	sort.Strings(conjuncts)
	path := filepath.Join(dir, "MANIFEST.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	entries, _ := m["entries"].([]any)
	for _, x := range entries {
		rec := x.(map[string]any)
		if tables, _ := rec["sig_tables"].([]any); len(tables) != 1 || tables[0] != "sales" {
			continue
		}
		rec["sig_output"] = output
		if rec["filter"] != nil {
			rec["sig_filters"] = conjuncts
		}
		if rows, ok := rec["build_rows"].(float64); ok {
			rec["build_epoch"] = sales.Epoch()
			rec["built_by"] = map[string]int64{"sales": int64(rows)}
		}
	}
	// Item rows named their kind beside the entry's.
	itemKind := make(map[float64]string)
	for _, x := range entries {
		rec := x.(map[string]any)
		itemKind[rec["id"].(float64)] = "sample"
		if rec["kind"] == float64(plan.SketchJoinSynopsis) {
			itemKind[rec["id"].(float64)] = "sketch"
		}
	}
	for _, x := range m["items"].([]any) {
		ir := x.(map[string]any)
		ir["kind"] = itemKind[ir["id"].(float64)]
	}
	// A table version the catalog never had: honoured, it would report
	// both synopses stale from the first query on.
	m["tables"] = map[string]any{"sales": map[string]any{"epoch": sales.Epoch() + 7, "rows": 2 * sales.NumRows()}}
	old, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"sig_filters"`, `"sig_output"`, `"build_epoch"`, `"built_by"`, `"tables"`, `"kind":"sample"`, `"kind":"sketch"`} {
		if !strings.Contains(string(old), field) {
			t.Fatalf("test setup: the rewritten manifest carries no %s", field)
		}
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}

	e2, err := persistEngine(cat, dir, true)
	if err != nil {
		t.Fatalf("open over an old-shaped manifest: %v", err)
	}
	defer e2.Close()
	built := make(map[uint64]int64)
	for _, id := range []uint64{sketchID, sampleID} {
		ent, ok := e2.Store().Get(id)
		if !ok || !e2.wh.Has(id) || ent.Staleness() != 0 {
			t.Fatalf("synopsis #%d after recovery: present %t, entry %+v", id, ok, ent)
		}
		built[id] = ent.Desc.BuildRows
	}
	entries0 := len(e2.Store().Entries())
	uses := make(map[uint64]bool)
	for _, q := range []*planner.Query{filtered(e2), persistQuery(e2, 2)} {
		ps, err := e2.pl.PlanWith(q, e2.snap.Load().wh)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range ps.Candidates {
			for _, id := range c.Uses {
				uses[id] = true
			}
		}
	}
	if n := len(e2.Store().Entries()); n != entries0 {
		t.Fatalf("re-planning interned %d new descriptors", n-entries0)
	}
	if !uses[sketchID] || !uses[sampleID] {
		t.Fatalf("re-planned candidates use %v, want the restored #%d and #%d", uses, sketchID, sampleID)
	}

	const added = 15000
	delta := storage.NewBuilder("sales", sales.Schema())
	for i := 0; i < added; i++ {
		delta.Int(0, int64(i%40))
		delta.Float(1, 3)
		delta.Float(2, 9.5)
	}
	if _, err := e2.Ingest("sales", delta.Build(1)); err != nil {
		t.Fatal(err)
	}
	for id, rows := range built {
		want := float64(added) / float64(rows+added)
		if got := e2.Store().Staleness(id); got != want {
			t.Fatalf("synopsis #%d staleness after ingest = %v, want %v", id, got, want)
		}
	}
}

// TestOldManifestSketchJoinsCollapse: a manifest from before a sketch-join
// was named without an accuracy can hold two entries of one exact synopsis
// that differ only in the accuracy of the queries that built them, each
// with a payload. They are one synopsis now: recovery restores the lower id
// with its item, leaves the other entry out and removes its payload, and
// re-planning the query reuses the lower id.
func TestOldManifestSketchJoinsCollapse(t *testing.T) {
	dir := t.TempDir()
	cat := testCatalog()
	e1, err := persistEngine(cat, dir, true)
	if err != nil {
		t.Fatal(err)
	}
	var low uint64
	for i := 0; i < 8 && low == 0; i++ {
		if _, err := e1.Execute(persistQuery(e1, i)); err != nil {
			t.Fatal(err)
		}
		for _, ent := range storedEntries(t, e1) {
			if ent.Desc.Kind == plan.SketchJoinSynopsis {
				low = ent.Desc.ID
			}
		}
	}
	if low == 0 {
		t.Fatal("test setup: no sketch-join stored")
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	// Write the entry the way the old writer did, with the building query's
	// accuracy, and add a second one built under a stricter clause.
	db, err := persist.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, ok, err := db.LoadManifest()
	if err != nil || !ok {
		t.Fatalf("test setup: manifest ok=%v err=%v", ok, err)
	}
	i := slices.IndexFunc(m.Entries, func(r persist.EntryRecord) bool { return r.ID == low })
	j := slices.IndexFunc(m.Items, func(r persist.ItemRecord) bool { return r.ID == low })
	if i < 0 || j < 0 {
		t.Fatalf("test setup: manifest holds entry %d, item %d of #%d", i, j, low)
	}
	m.Entries[i].RelError, m.Entries[i].Confidence = 0.10, 0.95
	m.NextSynopsisID++
	high := m.NextSynopsisID
	dup, item := m.Entries[i], m.Items[j]
	dup.ID, dup.RelError, dup.Confidence = high, 0.05, 0.99
	item.ID = high
	m.Entries = append(m.Entries, dup)
	m.Items = append(m.Items, item)
	payload, err := db.ReadItem(low)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.WriteItem(high, payload); err != nil {
		t.Fatal(err)
	}
	if err := db.WriteManifest(m); err != nil {
		t.Fatal(err)
	}

	e2, err := persistEngine(cat, dir, true)
	if err != nil {
		t.Fatalf("open over two sketch-joins of one identity: %v", err)
	}
	defer e2.Close()
	if ent, ok := e2.Store().Get(low); !ok || !e2.wh.Has(low) || ent.Desc.Accuracy != (stats.AccuracySpec{}) {
		t.Fatalf("sketch-join #%d after recovery: entry %v (ok %t), stored %t", low, ent, ok, e2.wh.Has(low))
	}
	if _, ok := e2.Store().Get(high); ok || e2.wh.Has(high) {
		t.Fatalf("the duplicate sketch-join #%d was restored", high)
	}
	if _, err := os.Stat(db.ItemPath(high)); !os.IsNotExist(err) {
		t.Fatalf("the duplicate's payload survived recovery (%v)", err)
	}
	res, err := e2.Execute(persistQuery(e2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(res.Report.UsedSynopses, low) {
		t.Fatalf("re-planned query ran %q using %v, want #%d", res.Report.PlanDesc, res.Report.UsedSynopses, low)
	}
}

// TestOldManifestLayoutFromItemRows: a v2 manifest written while the
// metadata store mirrored the warehouse carries, per entry, a location and a
// pin beside the item rows' tier and pin. Recovery reads the layout from the
// item rows alone: tiers and pins match them, an entry that claims the
// warehouse (and a pin) with no item row stays a candidate outside S*,
// re-planning interns onto the restored ids, and the next checkpoint writes
// neither field.
func TestOldManifestLayoutFromItemRows(t *testing.T) {
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

	// Rewrite the manifest the way the mirroring writer wrote it, plus one
	// entry that claims the warehouse and a pin but has no item row.
	path := filepath.Join(dir, "MANIFEST.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	type row struct {
		buffer, pinned bool
	}
	rows := make(map[uint64]row)
	for _, x := range m["items"].([]any) {
		ir := x.(map[string]any)
		pinned, _ := ir["pinned"].(bool)
		rows[uint64(ir["id"].(float64))] = row{buffer: ir["tier"] == persist.TierBuffer, pinned: pinned}
	}
	if len(rows) != 2 || !rows[hint].pinned || rows[hint].buffer || !rows[built].buffer || rows[built].pinned {
		t.Fatalf("test setup: item rows %v, want pinned warehouse #%d and buffer #%d", rows, hint, built)
	}
	entries := m["entries"].([]any)
	for _, x := range entries {
		rec := x.(map[string]any)
		if r, ok := rows[uint64(rec["id"].(float64))]; ok {
			rec["location"] = map[bool]int{true: 1, false: 2}[r.buffer]
			rec["pinned"] = r.pinned
		}
	}
	claim := uint64(m["next_synopsis_id"].(float64)) + 1
	m["next_synopsis_id"] = claim
	m["entries"] = append(entries, map[string]any{
		"id": claim, "kind": uint8(plan.UniformSample), "sig_tables": []string{"sales"},
		"strat_cols": []string{"sales.qty"}, "agg_cols": []string{"sales.qty"},
		"rel_error": 0.1, "confidence": 0.95, "est_size": 100, "location": 2, "pinned": true,
	})
	old, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}

	e2, err := persistEngine(cat, dir, false)
	if err != nil {
		t.Fatalf("open over a manifest with entry locations: %v", err)
	}
	for id, r := range rows {
		it, inBuffer, ok := e2.wh.Get(id)
		if !ok || inBuffer != r.buffer || it.Pinned != r.pinned {
			t.Fatalf("item #%d after recovery: stored %t, buffer %t, pinned %t; want buffer %t, pinned %t",
				id, ok, inBuffer, ok && it.Pinned, r.buffer, r.pinned)
		}
	}
	if _, ok := e2.store.Get(claim); !ok || e2.wh.Has(claim) {
		t.Fatalf("row-less entry #%d after recovery: present %t, stored %t; want a candidate", claim, ok, e2.wh.Has(claim))
	}
	if n := len(e2.Synopses()); n != len(rows) {
		t.Fatalf("Synopses lists %d, want the %d item rows", n, len(rows))
	}
	if e2.tn.Retune().Keep[claim] || e2.snap.Load().keep[claim] {
		t.Fatalf("row-less entry #%d is in S*", claim)
	}
	entries0 := len(e2.store.Entries())
	ps, err := e2.pl.PlanWith(persistQuery(e2, 2), e2.snap.Load().wh)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(e2.store.Entries()); n != entries0 {
		t.Fatalf("re-planning interned %d new descriptors", n-entries0)
	}
	reused := false
	for _, c := range ps.Candidates {
		reused = reused || slices.Contains(c.Uses, built)
	}
	if !reused {
		t.Fatalf("re-planned candidates do not reuse the restored #%d", built)
	}

	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	if raw, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	var next struct {
		Entries []map[string]any `json:"entries"`
	}
	if err := json.Unmarshal(raw, &next); err != nil {
		t.Fatal(err)
	}
	for _, rec := range next.Entries {
		for _, field := range []string{"location", "pinned"} {
			if _, ok := rec[field]; ok {
				t.Fatalf("checkpointed entry #%v carries %q", rec["id"], field)
			}
		}
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

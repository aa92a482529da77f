package planner

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/tasterdb/taster/internal/expr"
	"github.com/tasterdb/taster/internal/meta"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
	"github.com/tasterdb/taster/internal/warehouse"
)

// fixture: fact table "sales" (20k rows, 50 products, 10 stores) and
// dimension "products" (50 rows, 5 categories).
func salesTable() *storage.Table {
	b := storage.NewBuilder("sales", storage.Schema{
		{Name: "sales.product", Typ: storage.Int64},
		{Name: "sales.store", Typ: storage.Int64},
		{Name: "sales.amount", Typ: storage.Float64},
	})
	for i := 0; i < 20000; i++ {
		b.Int(0, int64(i%50))
		b.Int(1, int64(i%10))
		b.Float(2, float64(i%1000))
	}
	return b.Build(4)
}

func productsTable() *storage.Table {
	b := storage.NewBuilder("products", storage.Schema{
		{Name: "products.id", Typ: storage.Int64},
		{Name: "products.category", Typ: storage.Int64},
	})
	for i := 0; i < 50; i++ {
		b.Int(0, int64(i))
		b.Int(1, int64(i%5))
	}
	return b.Build(1)
}

func testPlanner() (*Planner, *meta.Store, *warehouse.Manager) {
	store := meta.NewStore(nil)
	wh := warehouse.NewManager(64<<20, 256<<20, nil)
	p := New(store, wh, storage.DefaultCostModel())
	return p, store, wh
}

func joinQuery() *Query {
	sales, products := salesTable(), productsTable()
	return &Query{
		Tables: []TableRef{{Name: "sales", Table: sales}, {Name: "products", Table: products}},
		Joins: []JoinPred{{
			LeftTable: "sales", LeftCol: "sales.product",
			RightTable: "products", RightCol: "products.id",
		}},
		GroupBy:  []string{"products.category"},
		Aggs:     []plan.AggSpec{{Kind: stats.Sum, Col: "sales.amount"}},
		Accuracy: stats.DefaultAccuracy,
	}
}

func singleTableQuery() *Query {
	return &Query{
		Tables:   []TableRef{{Name: "sales", Table: salesTable()}},
		GroupBy:  []string{"sales.store"},
		Aggs:     []plan.AggSpec{{Kind: stats.Avg, Col: "sales.amount"}},
		Accuracy: stats.DefaultAccuracy,
	}
}

func TestValidate(t *testing.T) {
	if err := (&Query{}).Validate(); err == nil {
		t.Fatal("empty query must fail")
	}
	q := singleTableQuery()
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	q.Aggs = nil
	if err := q.Validate(); err == nil {
		t.Fatal("aggregate-free query must fail")
	}
	bad := joinQuery()
	bad.Joins[0].LeftTable = "nope"
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown join table must fail")
	}

	// The typed half: each case edits a valid join query into one binding
	// exec could not honour; the error must say which.
	refused := []struct {
		name string
		edit func(q *Query)
		want string
	}{
		{"join keys of different types", func(q *Query) { q.Joins[0].LeftCol = "sales.amount" },
			"sales.amount is DOUBLE but products.id is BIGINT"},
		{"unknown join column", func(q *Query) { q.Joins[0].RightCol = "products.nope" }, `unknown column "products.nope"`},
		{"unknown aggregate column", func(q *Query) { q.Aggs[0].Col = "sales.nope" }, `unknown column "sales.nope"`},
		{"aggregate column of no table", func(q *Query) { q.Aggs[0].Col = "amount" }, "belongs to no table"},
		{"string compared with a number", func(q *Query) {
			q.Filter = expr.Pred{expr.Compare("products.category", expr.EQ, storage.StringValue("x"))}
		}, `BIGINT column "products.category" with a VARCHAR constant`},
		{"IN list of another type class", func(q *Query) {
			q.Filter = expr.Pred{
				expr.Compare("sales.amount", expr.GT, storage.IntValue(10)),
				expr.In("products.category", storage.StringValue("x")),
			}
		}, `no BIGINT value for column "products.category"`},
		{"filter on a column of no table", func(q *Query) {
			q.Filter = expr.Pred{expr.Compare("nope.x", expr.LT, storage.IntValue(1))}
		}, `column "nope.x" belongs to no table`},
		{"filter on an unknown column of a table", func(q *Query) {
			q.Filter = expr.Pred{expr.Compare("sales.nope", expr.LT, storage.IntValue(1))}
		}, `unknown column "sales.nope"`},
	}
	for _, c := range refused {
		q := joinQuery()
		c.edit(q)
		if err := q.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want an error mentioning %q", c.name, err, c.want)
		}
	}
	// Comparisons and IN lists on either table's columns, int literals
	// against a float column and float ones against an int column.
	ok := joinQuery()
	ok.Filter = expr.Pred{
		expr.In("sales.store", storage.IntValue(3), storage.FloatValue(4)),
		expr.Compare("sales.amount", expr.GT, storage.IntValue(10)),
		expr.Compare("products.category", expr.EQ, storage.FloatValue(2)),
	}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	ok.Aggs = append(ok.Aggs, plan.AggSpec{Kind: stats.Count, Col: "products.id"})
	if err := ok.Validate(); err != nil {
		t.Fatalf("COUNT over a column: %v", err)
	}
}

func TestQueryHelpers(t *testing.T) {
	q := joinQuery()
	q.Filter = expr.Pred{expr.Compare("sales.amount", expr.GT, storage.IntValue(10))}
	if q.TableOf("sales.amount") != "sales" || q.TableOf("bogus") != "" {
		t.Fatal("TableOf")
	}
	if f := q.FilterForTable("sales"); f == nil {
		t.Fatal("sales filter missing")
	}
	if f := q.FilterForTable("products"); f != nil {
		t.Fatal("products filter must be empty")
	}
	if got := q.joinKeysOf("sales"); len(got) != 1 || got[0] != "sales.product" {
		t.Fatalf("joinKeysOf = %v", got)
	}
	if q.FactTable().Name != "sales" {
		t.Fatal("fact table must follow the aggregate column")
	}
	if got := q.groupColsOn("products"); len(got) != 1 {
		t.Fatalf("groupColsOn = %v", got)
	}
	if !q.approximableAggs() {
		t.Fatal("SUM is approximable")
	}
	q.Aggs = append(q.Aggs, plan.AggSpec{Kind: stats.Min, Col: "sales.amount"})
	if q.approximableAggs() {
		t.Fatal("MIN must disable approximation")
	}
}

func TestFactTableForCountStar(t *testing.T) {
	q := joinQuery()
	q.Aggs = []plan.AggSpec{{Kind: stats.Count}}
	if q.FactTable().Name != "sales" {
		t.Fatal("COUNT(*) fact must be the largest table")
	}
}

func TestExactPlanShape(t *testing.T) {
	p, _, _ := testPlanner()
	q := joinQuery()
	ps, err := p.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	tree := plan.Format(ps.Exact.Root)
	if !strings.Contains(tree, "Aggregate") || !strings.Contains(tree, "Join") {
		t.Fatalf("exact plan:\n%s", tree)
	}
	if ps.Exact.Cost <= 0 {
		t.Fatal("exact cost must be positive")
	}
	if len(ps.Exact.Uses) != 0 || len(ps.Exact.Creates) != 0 {
		t.Fatal("exact plan must not involve synopses")
	}
}

func TestCandidatesIncludeBuildPlans(t *testing.T) {
	p, store, _ := testPlanner()
	ps, err := p.Plan(joinQuery())
	if err != nil {
		t.Fatal(err)
	}
	var hasBase, hasSketch bool
	for _, c := range ps.Candidates {
		switch {
		case strings.Contains(c.Desc, "sample on sales"):
			hasBase = true
		case strings.Contains(c.Desc, "sketch-join"):
			hasSketch = true
		}
	}
	if !hasBase || !hasSketch {
		t.Fatalf("missing candidates (base=%v sketch=%v):\n%v", hasBase, hasSketch, descs(ps))
	}
	// The plan set must carry a reuse cost for every candidate synopsis, in
	// ascending id order, each beating the exact plan.
	entries := store.Entries()
	if len(entries) < 2 {
		t.Fatalf("interned synopses = %d", len(entries))
	}
	if len(ps.ReuseCost) != len(entries) {
		t.Fatalf("reuse costs for %d synopses, interned %d", len(ps.ReuseCost), len(entries))
	}
	for i, rc := range ps.ReuseCost {
		if rc.ID != entries[i].Desc.ID {
			t.Fatalf("reuse cost %d is for synopsis #%d, want #%d (ascending, one per candidate)", i, rc.ID, entries[i].Desc.ID)
		}
		if rc.Cost >= ps.Exact.Cost {
			t.Fatalf("synopsis %s: reuse cost %v must beat exact %v", entries[i].Desc.Label(), rc.Cost, ps.Exact.Cost)
		}
	}
}

// Planning is a read of the metadata store apart from interning descriptors
// it has not seen: planning a query again must leave every entry as it was,
// so a second planner over an engine's store cannot leak into live tuning.
func TestPlanWithWritesNothingButInterns(t *testing.T) {
	p, store, wh := testPlanner()
	q := joinQuery()
	if _, err := p.PlanWith(q, wh.View()); err != nil {
		t.Fatal(err)
	}
	before := store.Entries()
	if _, err := p.PlanWith(q, wh.View()); err != nil {
		t.Fatal(err)
	}
	if after := store.Entries(); !reflect.DeepEqual(before, after) {
		t.Fatalf("planning a known query changed the metadata store:\nbefore %+v\nafter  %+v", before, after)
	}
}

func descs(ps *PlanSet) []string {
	out := make([]string, len(ps.Candidates))
	for i, c := range ps.Candidates {
		out[i] = c.Desc
	}
	return out
}

func TestExactOnlyForMinMaxOrExactFlag(t *testing.T) {
	p, _, _ := testPlanner()
	q := singleTableQuery()
	q.Aggs = []plan.AggSpec{{Kind: stats.Max, Col: "sales.amount"}}
	ps, err := p.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Candidates) != 1 {
		t.Fatalf("MIN/MAX query must be exact-only, got %v", descs(ps))
	}
	q2 := singleTableQuery()
	q2.Exact = true
	ps2, _ := p.Plan(q2)
	if len(ps2.Candidates) != 1 {
		t.Fatal("Exact flag must suppress approximation")
	}
}

func TestReuseCandidateAfterMaterialization(t *testing.T) {
	p, store, wh := testPlanner()
	q := singleTableQuery()
	ps, err := p.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	// Find the base-sample create spec and materialize it manually.
	var spec *CreateSpec
	for i := range ps.Candidates {
		if len(ps.Candidates[i].Creates) == 1 {
			spec = &ps.Candidates[i].Creates[0]
			break
		}
	}
	if spec == nil {
		t.Fatalf("no build candidate in %v", descs(ps))
	}
	sample := synopses.BuildSampleFromTable("syn",
		salesTable(),
		synopses.NewDistinctSampler(spec.Entry.Desc.P, max(spec.Entry.Desc.Delta, 1), []int{1}, 1),
		spec.Entry.Desc.StratCols)
	if err := wh.PutWarehouse(warehouse.NewItem(spec.Entry.Desc.ID, sample)); err != nil {
		t.Fatal(err)
	}
	store.SetActualSize(spec.Entry.Desc.ID, sample.SizeBytes())

	// Re-plan the same query: a reuse candidate must appear and be cheaper
	// than both exact and build.
	q2 := singleTableQuery()
	q2.ID = 1
	ps2, err := p.Plan(q2)
	if err != nil {
		t.Fatal(err)
	}
	var reuse *Candidate
	for i := range ps2.Candidates {
		if len(ps2.Candidates[i].Uses) > 0 {
			reuse = &ps2.Candidates[i]
		}
	}
	if reuse == nil {
		t.Fatalf("no reuse candidate after materialization: %v", descs(ps2))
	}
	if reuse.Cost >= ps2.Exact.Cost {
		t.Fatalf("reuse cost %v must beat exact %v", reuse.Cost, ps2.Exact.Cost)
	}
}

func TestSketchEligibility(t *testing.T) {
	p, _, _ := testPlanner()
	q := joinQuery()
	if _, ok := p.sketchEligible(q); !ok {
		t.Fatal("canonical star query must be sketch-eligible")
	}
	// Grouping on a non-key fact column disqualifies.
	q2 := joinQuery()
	q2.GroupBy = []string{"sales.store"}
	if _, ok := p.sketchEligible(q2); ok {
		t.Fatal("fact-side non-key grouping must disqualify")
	}
	// Grouping on the fact join key is rewritten to the probe side.
	q3 := joinQuery()
	q3.GroupBy = []string{"sales.product"}
	sh, ok := p.sketchEligible(q3)
	if !ok || sh.groupBy[0] != "products.id" {
		t.Fatalf("fact join-key grouping must rewrite, got %+v ok=%v", sh.groupBy, ok)
	}
	// MIN/MAX aggregates disqualify.
	q4 := joinQuery()
	q4.Aggs = []plan.AggSpec{{Kind: stats.Min, Col: "sales.amount"}}
	if _, ok := p.sketchEligible(q4); ok {
		t.Fatal("MIN must disqualify sketch-join")
	}
	// Two fact-side aggregate columns disqualify.
	q5 := joinQuery()
	q5.Aggs = []plan.AggSpec{
		{Kind: stats.Sum, Col: "sales.amount"},
		{Kind: stats.Sum, Col: "sales.store"},
	}
	if _, ok := p.sketchEligible(q5); ok {
		t.Fatal("two fact aggregate columns must disqualify")
	}
	// Single-table queries are not sketch-joins.
	if _, ok := p.sketchEligible(singleTableQuery()); ok {
		t.Fatal("single table must disqualify")
	}
}

// sketchJoinPlans plans q and returns its sketch-join build candidate's
// entry and the descriptions of its sketch-join reuse candidates.
func sketchJoinPlans(t *testing.T, p *Planner, q *Query) (entry *meta.Entry, reuses []string) {
	t.Helper()
	ps, err := p.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range ps.Candidates {
		if _, ok := c.Root.(*plan.SketchJoin); !ok {
			continue
		}
		if len(c.Creates) == 1 {
			entry = c.Creates[0].Entry
		}
		if len(c.Uses) > 0 {
			reuses = append(reuses, c.Desc)
		}
	}
	if entry == nil {
		t.Fatalf("no sketch-join build candidate in %v", descs(ps))
	}
	return entry, reuses
}

// productSketchJoin is a one-key sketch-join payload keyed on sales.product.
func productSketchJoin(t *testing.T) *synopses.SketchJoin {
	t.Helper()
	b := storage.NewBuilder("sketch-join", storage.Schema{
		{Name: "sales.product", Typ: storage.Int64},
		{Name: synopses.CountCol, Typ: storage.Float64},
		{Name: synopses.SumCol, Typ: storage.Float64},
	})
	b.Int(0, 1)
	b.Float(1, 2)
	b.Float(2, 3)
	sk, err := synopses.NewSketchJoin(b.Build(1), "sales.amount")
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

// A sketch-join is named by its build keys: two queries that differ only in
// the fact column they join on intern two descriptors, and a stored payload
// keyed on other columns than the plan's — which a manifest written before
// build keys named a sketch-join can hold under the entry — is never reused.
func TestSketchJoinBuildKeysNameTheSynopsis(t *testing.T) {
	p, _, wh := testPlanner()
	byStore := func() *Query {
		q := joinQuery()
		q.Joins[0].LeftCol = "sales.store"
		return q
	}
	byProductEntry, _ := sketchJoinPlans(t, p, joinQuery())
	byStoreEntry, _ := sketchJoinPlans(t, p, byStore())
	if byProductEntry.Desc.ID == byStoreEntry.Desc.ID {
		t.Fatalf("sketch-joins on sales.product and sales.store share #%d", byStoreEntry.Desc.ID)
	}

	// A payload keyed on sales.product, stored under the sales.store entry.
	if err := wh.PutWarehouse(warehouse.NewItem(byStoreEntry.Desc.ID, productSketchJoin(t))); err != nil {
		t.Fatal(err)
	}
	if _, reuses := sketchJoinPlans(t, p, byStore()); len(reuses) != 0 {
		t.Fatalf("a payload keyed on sales.product was offered to a sales.store join: %v", reuses)
	}
	// Control: under its own entry the same payload is reused.
	if err := wh.PutWarehouse(warehouse.NewItem(byProductEntry.Desc.ID, productSketchJoin(t))); err != nil {
		t.Fatal(err)
	}
	if _, reuses := sketchJoinPlans(t, p, joinQuery()); len(reuses) != 1 {
		t.Fatalf("reuse candidates = %v, want the stored sales.product sketch-join", reuses)
	}
}

// A sketch-join is exact, so it is named without an accuracy: one query
// planned under 10 % @ 95 % and under 5 % @ 99 % interns one descriptor, and
// a payload built under the looser clause is offered to the stricter one.
func TestSketchJoinOneSynopsisForEveryAccuracy(t *testing.T) {
	p, _, wh := testPlanner()
	strict := joinQuery()
	strict.Accuracy = stats.AccuracySpec{RelError: 0.05, Confidence: 0.99}
	loose, _ := sketchJoinPlans(t, p, joinQuery())
	if e, _ := sketchJoinPlans(t, p, strict); e.Desc.ID != loose.Desc.ID {
		t.Fatalf("one sketch-join under two accuracy clauses interned #%d and #%d", loose.Desc.ID, e.Desc.ID)
	}
	if err := wh.PutWarehouse(warehouse.NewItem(loose.Desc.ID, productSketchJoin(t))); err != nil {
		t.Fatal(err)
	}
	_, reuses := sketchJoinPlans(t, p, strict)
	if want := fmt.Sprintf("reuse sketch-join #%d on sales", loose.Desc.ID); len(reuses) != 1 || reuses[0] != want {
		t.Fatalf("under 5 %% @ 99 %%: reuse candidates = %v, want [%s]", reuses, want)
	}
}

func TestCrossJoinRejected(t *testing.T) {
	p, _, _ := testPlanner()
	q := joinQuery()
	q.Joins = nil
	if _, err := p.Plan(q); err == nil {
		t.Fatal("cross join must be rejected")
	}
}

func TestSamplerConfigurationFollowsAccuracy(t *testing.T) {
	p, _, _ := testPlanner()
	groups := func(n int) func() int { return func() int { return n } }
	loose := p.configureSampler(singleTableQuery(), []string{"sales.store"}, 20000, 1, groups(10), 2000, 10)
	if !loose.ok {
		t.Fatal("loose accuracy must admit a sampler")
	}
	// Tighter accuracy needs more rows per group.
	strict := singleTableQuery()
	strict.Accuracy = stats.AccuracySpec{RelError: 0.01, Confidence: 0.99}
	sCfg := p.configureSampler(strict, []string{"sales.store"}, 20000, 1, groups(10), 2000, 10)
	if sCfg.ok && sCfg.kind == loose.kind && sCfg.p <= loose.p && sCfg.delta <= loose.delta {
		t.Fatalf("stricter accuracy must sample more: %+v vs %+v", sCfg, loose)
	}
	// Impossible accuracy (tiny groups) must reject sampling.
	none := p.configureSampler(strict, []string{"sales.store"}, 100, 1, groups(50), 2, 50)
	if none.ok {
		t.Fatal("infeasible accuracy must reject sampling")
	}
	// Join-key stratification: many strat combos, few result groups → tiny δ
	// (a smallest-group size below the uniform bar forces the distinct path).
	wide := p.configureSampler(singleTableQuery(), []string{"sales.store", "sales.product"},
		1e6, 1, groups(100000), 1200, 10)
	if !wide.ok || wide.kind != plan.DistinctSample {
		t.Fatalf("wide stratification should still sample: %+v", wide)
	}
	if wide.delta > 4 {
		t.Fatalf("δ must shrink with strat/cover ratio, got %d", wide.delta)
	}
}

func TestPlanCostParallelismFactor(t *testing.T) {
	m := storage.DefaultCostModel()
	c := planCost{cpuTuples: 4_000_000_000, serialTuples: 4_000_000_000, shuffleBytes: 1 << 30}
	s1 := c.seconds(m, 1)
	s8 := c.seconds(m, 8)
	if s8 >= s1 {
		t.Fatalf("parallelism must shrink pipeline CPU cost: %v vs %v", s8, s1)
	}
	// Exactly the pipeline bucket divides; serial (sketch-probe) work and
	// shuffle stay undivided.
	wantDrop := m.CPUSeconds(c.cpuTuples) * (1 - 1.0/8)
	if diff := (s1 - s8) - wantDrop; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("cost drop %v, want %v (only cpuTuples divides)", s1-s8, wantDrop)
	}
	// Sub-1 factors clamp to serial.
	if c.seconds(m, 0) != s1 {
		t.Fatal("parallelism < 1 must clamp to 1")
	}

	// End to end: a higher-parallelism planner estimates every pipeline plan
	// cheaper, and relative candidate order is produced consistently.
	p1, _, _ := testPlanner()
	ps1, err := p1.Plan(joinQuery())
	if err != nil {
		t.Fatal(err)
	}
	p8, _, _ := testPlanner()
	p8.Parallelism = 8
	ps8, err := p8.Plan(joinQuery())
	if err != nil {
		t.Fatal(err)
	}
	if ps8.Exact.Cost >= ps1.Exact.Cost {
		t.Fatalf("exact plan at P=8 (%v) must be cheaper than at P=1 (%v)",
			ps8.Exact.Cost, ps1.Exact.Cost)
	}
	// Sketch-join candidates are costed as wholly serial work — conservative
	// since their probe side moved onto the morsel spine, and held fixed until
	// the cost model is refit (planCost) — so their cost does not shrink with
	// the parallelism factor.
	sketchCost := func(ps *PlanSet) float64 {
		for _, c := range ps.Candidates {
			if strings.HasPrefix(c.Desc, "build sketch-join") {
				return c.Cost
			}
		}
		t.Fatal("no sketch-join candidate generated")
		return 0
	}
	if c1, c8 := sketchCost(ps1), sketchCost(ps8); c1 != c8 {
		t.Fatalf("sketch-join cost must be parallelism-invariant: %v vs %v", c1, c8)
	}
}

// memSpiller is an in-memory warehouse.Spiller: with it attached the
// warehouse tier drops payloads after "writing" them, like the disk tier.
type memSpiller map[uint64]synopses.Stored

func (m memSpiller) Spill(id uint64, s synopses.Stored) error { m[id] = s; return nil }
func (m memSpiller) Load(id uint64) (synopses.Stored, error)  { return m[id], nil }
func (m memSpiller) RemoveItem(id uint64) error               { delete(m, id); return nil }

// TestBind drives the one gate every reuse loop binds a stored synopsis
// through: view presence, payload identity against the live
// warehouse, the staleness bound, and what it reports about the item's tier
// and residency.
func TestBind(t *testing.T) {
	sample := func() *synopses.Sample {
		return synopses.BuildSampleFromTable("s", productsTable(), synopses.NewUniformSampler(0.5, 1), nil)
	}
	sketch, err := synopses.NewSketchJoin(storage.NewBuilder("sketch-join", storage.Schema{
		{Name: "sales.product", Typ: storage.Int64},
		{Name: synopses.CountCol, Typ: storage.Float64},
	}).Build(1), "sales.amount")
	if err != nil {
		t.Fatal(err)
	}
	wh := warehouse.NewManager(1<<20, 1<<20, memSpiller{})
	p := New(meta.NewStore(nil), wh, storage.DefaultCostModel())
	const resident, spilled, sketched, refreshed, absent = 1, 2, 3, 4, 5
	if wh.Admit(warehouse.NewItem(resident, sample())) != warehouse.AdmitBuffer {
		t.Fatal("fixture: sample not admitted to the buffer")
	}
	for _, it := range []*warehouse.Item{
		warehouse.NewItem(spilled, sample()),
		warehouse.NewItem(sketched, sketch),
		warehouse.NewItem(refreshed, sample()),
	} {
		if err := wh.PutWarehouse(it); err != nil {
			t.Fatal(err)
		}
	}
	ps := &PlanSet{wh: wh.View()}
	// A refresh after the plan set took its view: the live copy of
	// `refreshed` is no longer the item the view holds.
	if _, err := wh.Refresh(warehouse.NewItem(refreshed, sample())); err != nil {
		t.Fatal(err)
	}

	entry := func(id uint64, unseen int64) *meta.Entry {
		return &meta.Entry{Desc: meta.Descriptor{ID: id, BuildRows: 100}, UnseenRows: unseen}
	}
	for _, tc := range []struct {
		name         string
		e            *meta.Entry
		maxStaleness float64
		ok           bool
		want         bound // item excluded; compared field by field below
	}{
		{name: "absent from the view", e: entry(absent, 0)},
		{name: "payload superseded in the live warehouse", e: entry(refreshed, 0)},
		{name: "over the staleness bound", e: entry(resident, 100), maxStaleness: 0.25},
		{name: "any staleness under the default bound of zero", e: entry(resident, 1)},
		{name: "within the staleness bound", e: entry(resident, 25), maxStaleness: 0.25,
			ok: true, want: bound{inBuffer: true, loaded: true, stale: 0.2}},
		{name: "bound disabled", e: entry(resident, 300), maxStaleness: -1,
			ok: true, want: bound{inBuffer: true, loaded: true, stale: 0.75}},
		{name: "resident in the buffer", e: entry(resident, 0),
			ok: true, want: bound{inBuffer: true, loaded: true}},
		{name: "spilled in the warehouse", e: entry(spilled, 0),
			ok: true, want: bound{}},
		{name: "sketch", e: entry(sketched, 0),
			ok: true, want: bound{}},
	} {
		p.MaxStaleness = tc.maxStaleness
		got, ok := p.bind(ps, tc.e)
		if ok != tc.ok {
			t.Errorf("%s: ok = %v, want %v", tc.name, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if want, _, _ := ps.wh.Get(tc.e.Desc.ID); got.item != want {
			t.Errorf("%s: bound item is not the view's", tc.name)
		}
		if got.inBuffer != tc.want.inBuffer || got.loaded != tc.want.loaded || got.stale != tc.want.stale {
			t.Errorf("%s: bound = {inBuffer:%v loaded:%v stale:%v}, want {inBuffer:%v loaded:%v stale:%v}", tc.name,
				got.inBuffer, got.loaded, got.stale, tc.want.inBuffer, tc.want.loaded, tc.want.stale)
		}
	}
	// bind itself never faults a payload in: the spilled item is still cold.
	if it, _, _ := ps.wh.Get(spilled); it.Loaded() {
		t.Error("bind faulted a spilled payload in")
	}
}

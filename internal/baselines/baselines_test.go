package baselines

import (
	"slices"
	"testing"

	"github.com/tasterdb/taster/internal/core"
	"github.com/tasterdb/taster/internal/meta"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/sqlparser"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
	"github.com/tasterdb/taster/internal/workload"
)

func tpchSmall() *workload.Workload { return workload.TPCH(0.002, 11) }

func TestBlinkDBOfflineBuildsWithinBudget(t *testing.T) {
	w := tpchSmall()
	bytes, rows := w.CostScale()
	model := storage.ScaledCostModel(bytes, rows)
	oracle := w.Queries(30, 5)
	budget := bytes / 2

	eng, off, err := BlinkDBOffline(w.Catalog, oracle, budget, model, 3)
	if err != nil {
		t.Fatal(err)
	}
	if off.SamplesBuilt == 0 {
		t.Fatal("no samples built")
	}
	if off.BytesGenerated > budget {
		t.Fatalf("samples %d bytes exceed budget %d", off.BytesGenerated, budget)
	}
	if off.SimSeconds <= 0 {
		t.Fatal("offline phase must cost time")
	}
	_, wu := eng.Warehouse().Usage()
	if wu != off.BytesGenerated {
		t.Fatalf("warehouse usage %d != generated %d", wu, off.BytesGenerated)
	}

	// Queries covered by the oracle get approximate (reuse) plans; the
	// engine never samples at query time.
	reused, exact := 0, 0
	for _, sql := range w.Queries(20, 6) {
		q, err := sqlparser.Parse(sql, w.Catalog)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Execute(q)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if len(res.Report.CreatedSynopses) != 0 {
			t.Fatal("BlinkDB must not materialize at query time")
		}
		if len(res.Report.UsedSynopses) > 0 {
			reused++
		} else {
			exact++
		}
	}
	if reused == 0 {
		t.Fatal("oracle-covered workload must reuse offline samples")
	}
	t.Logf("blinkdb: %d reused, %d exact, %d samples, offline %.1fs",
		reused, exact, off.SamplesBuilt, off.SimSeconds)
}

func TestBlinkDBSmallBudgetBuildsLess(t *testing.T) {
	w := tpchSmall()
	bytes, rows := w.CostScale()
	model := storage.ScaledCostModel(bytes, rows)
	oracle := w.Queries(30, 5)

	_, offBig, err := BlinkDBOffline(w.Catalog, oracle, bytes, model, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, offSmall, err := BlinkDBOffline(w.Catalog, oracle, bytes/20, model, 3)
	if err != nil {
		t.Fatal(err)
	}
	if offSmall.BytesGenerated > offBig.BytesGenerated {
		t.Fatalf("smaller budget generated more bytes: %d vs %d",
			offSmall.BytesGenerated, offBig.BytesGenerated)
	}
	if offSmall.SimSeconds > offBig.SimSeconds {
		t.Fatal("smaller budget must not cost more offline time")
	}
}

func TestBlinkDBRejectsBadOracle(t *testing.T) {
	w := tpchSmall()
	bytes, rows := w.CostScale()
	model := storage.ScaledCostModel(bytes, rows)
	if _, _, err := BlinkDBOffline(w.Catalog, []string{"NOT SQL"}, bytes, model, 1); err == nil {
		t.Fatal("want parse error")
	}
}

// q1Strat is the grouping of TPC-H q1, the hinted analysis.
var q1Strat = []string{"lineitem.l_returnflag", "lineitem.l_linestatus"}

// hintedQ1 applies one q1 hint on lineitem to a fresh Taster engine.
func hintedQ1(t *testing.T, w *workload.Workload, model storage.CostModel) (*core.Engine, OfflineStats) {
	t.Helper()
	bytes, _ := w.CostScale()
	eng := core.New(w.Catalog, core.Config{
		Mode:          core.ModeTaster,
		StorageBudget: bytes,
		BufferSize:    bytes / 4,
		CostModel:     model,
		Seed:          5,
	})
	off, err := ApplyHints(eng, []Hint{{
		Table:     "lineitem",
		StratCols: q1Strat,
		AggCols:   []string{"lineitem.l_quantity", "lineitem.l_extendedprice", "lineitem.l_discount"},
	}}, model, 5)
	if err != nil {
		t.Fatal(err)
	}
	return eng, off
}

func TestApplyHints(t *testing.T) {
	w := tpchSmall()
	bytes, rows := w.CostScale()
	model := storage.ScaledCostModel(bytes, rows)
	eng, off := hintedQ1(t, w, model)
	if off.SamplesBuilt != 1 || off.ScrambleSecs <= 0 || off.SimSeconds <= off.ScrambleSecs {
		t.Fatalf("offline stats: %+v", off)
	}
	// The pinned hint must serve a q1-style query immediately.
	q, err := sqlparser.Parse(w.QueriesFromTemplates([]string{"q1"}, 1, 2)[0], w.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.UsedSynopses) == 0 {
		t.Fatalf("hinted sample unused; plan = %s", res.Report.PlanDesc)
	}
	// Unknown table errors.
	if _, err := ApplyHints(eng, []Hint{{Table: "nope"}}, model, 1); err == nil {
		t.Fatal("want unknown table error")
	}
}

// A hint declares what it drew: a uniform sample of the table, stratified
// as the hint says, at the accuracy its sizing supports — so it serves a
// default query on its groups and no stricter one — with nothing in its
// payload but the table's columns and the weight.
func TestHintDeclaresWhatItDrew(t *testing.T) {
	w := tpchSmall()
	bytes, rows := w.CostScale()
	eng, _ := hintedQ1(t, w, storage.ScaledCostModel(bytes, rows))
	items := eng.Warehouse().View().WarehouseItems()
	if len(items) != 1 || !items[0].Pinned {
		t.Fatalf("warehouse after the hint: %d items, want one pinned", len(items))
	}
	id := items[0].ID
	ent, ok := eng.Store().Get(id)
	if !ok {
		t.Fatalf("pinned #%d names no entry", id)
	}
	d := ent.Desc
	if d.Kind != plan.UniformSample || d.Accuracy != stats.DefaultAccuracy || !slices.Equal(d.StratCols, q1Strat) {
		t.Fatalf("pinned hint: kind %v, accuracy %+v, stratification %v", d.Kind, d.Accuracy, d.StratCols)
	}
	smp, err := items[0].Sample()
	if err != nil {
		t.Fatal(err)
	}
	lineitem, _ := w.Catalog.Table("lineitem")
	if got, want := smp.Rows.Schema().Names(), synopses.SampleSchema(lineitem.Schema()).Names(); !slices.Equal(got, want) {
		t.Fatalf("payload columns %v, want the table's and the weight: %v", got, want)
	}

	match := func(acc stats.AccuracySpec) []uint64 {
		var ids []uint64
		req := meta.Requirements{Table: "lineitem", StratCols: q1Strat, Accuracy: acc}
		for _, m := range eng.Store().MatchSamples(req, eng.Warehouse().Has) {
			ids = append(ids, m.Entry.Desc.ID)
		}
		return ids
	}
	if got := match(stats.DefaultAccuracy); !slices.Equal(got, []uint64{id}) {
		t.Fatalf("matches at 10%% @ 95%% = %v, want [%d]", got, id)
	}
	if got := match(stats.AccuracySpec{RelError: 0.05, Confidence: 0.99}); len(got) != 0 {
		t.Fatalf("matches at 5%% @ 99%% = %v, want none", got)
	}
}

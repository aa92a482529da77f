package planner_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/tasterdb/taster/internal/exec"
	"github.com/tasterdb/taster/internal/meta"
	"github.com/tasterdb/taster/internal/plan"
	"github.com/tasterdb/taster/internal/planner"
	"github.com/tasterdb/taster/internal/sqlparser"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/synopses"
	"github.com/tasterdb/taster/internal/warehouse"
	"github.com/tasterdb/taster/internal/workload"
)

// factSecond are hand-written TPC-H queries whose FROM clause does not start
// with the fact table (lineitem, the owner of the aggregate column).
var factSecond = []string{
	`SELECT o_orderpriority, SUM(l_extendedprice) FROM orders JOIN lineitem ON o_orderkey = l_orderkey GROUP BY o_orderpriority`,
	`SELECT c_mktsegment, SUM(l_extendedprice) FROM customer JOIN orders ON c_custkey = o_custkey JOIN lineitem ON o_orderkey = l_orderkey GROUP BY c_mktsegment`,
}

// buildTable returns the base table of a build side that is σ(base table) —
// a Scan or a Filter directly over one — and nil for any other shape.
func buildTable(n plan.Node) *storage.Table {
	if f, ok := n.(*plan.Filter); ok {
		n = f.Child
	}
	if s, ok := n.(*plan.Scan); ok {
		return s.Table
	}
	return nil
}

// checkSamplesOnSpine demands the candidate's shape: every join's build side
// and an inline sketch build are σ(base table), and the fact table is the
// spine's leaf — scanned, sampled directly over its scan, or read from a
// stored sample of it — or, for a sketch-join, the build side. A sample has
// no other home: a sampler anywhere but directly on the fact table's Scan,
// or a stored sample of anything but the fact table, fails.
func checkSamplesOnSpine(t *testing.T, label string, c planner.Candidate, fact planner.TableRef) {
	t.Helper()
	n := c.Root
	if s, ok := n.(*plan.Sort); ok {
		n = s.Child
	}
	leafIsFact := true
	switch r := n.(type) {
	case *plan.Aggregate:
		n = r.Child
	case *plan.SketchJoin:
		if r.Sketch == nil && buildTable(r.Build) != fact.Table {
			t.Fatalf("%s: sketch-join build is not σ(%s):\n%s", label, fact.Name, plan.Format(c.Root))
		}
		n, leafIsFact = r.Probe, false
	default:
		t.Fatalf("%s: root %T", label, n)
	}
	for {
		switch s := n.(type) {
		case *plan.Filter:
			n = s.Child
			continue
		case *plan.SynopsisOp:
			if sc, ok := s.Child.(*plan.Scan); !ok || !leafIsFact || sc.Table != fact.Table {
				t.Fatalf("%s: sampler is not directly on the fact table %s's scan:\n%s", label, fact.Name, plan.Format(c.Root))
			}
			n = s.Child
			continue
		case *plan.Join:
			if buildTable(s.Right) == nil {
				t.Fatalf("%s: build side %T is not σ(base table):\n%s", label, s.Right, plan.Format(c.Root))
			}
			n = s.Left
			continue
		case *plan.Scan:
			if leafIsFact && s.Table != fact.Table {
				t.Fatalf("%s: spine leaf scans %s, not the fact table %s:\n%s", label, s.Table.Name, fact.Name, plan.Format(c.Root))
			}
		case *plan.SynopsisScan:
			if !leafIsFact || s.Label != fact.Name {
				t.Fatalf("%s: spine leaf reads a sample of %s, not of the fact table %s", label, s.Label, fact.Name)
			}
		default:
			t.Fatalf("%s: spine leaf %T", label, n)
		}
		return
	}
}

// TestSamplesLiveOnTheSpine plans every template of the three catalogs and
// the fact-second queries cold, stores what each build candidate built, and
// plans again warm: no candidate, exact, build or reuse, samples or reads a
// sample anywhere but on the spine.
func TestSamplesLiveOnTheSpine(t *testing.T) {
	for _, w := range []*workload.Workload{workload.TPCH(0.002, 1), workload.TPCDS(0.03, 1), workload.Instacart(0.02, 1)} {
		store := meta.NewStore(nil)
		wh := warehouse.NewManager(1<<30, 1<<30, nil)
		pl := planner.New(store, wh, storage.DefaultCostModel())
		r := rand.New(rand.NewSource(5))
		var names, sqls []string
		for _, tpl := range w.Templates {
			names, sqls = append(names, tpl.Name), append(sqls, tpl.Instantiate(r))
		}
		if w.Name == "tpch" {
			for i, sql := range factSecond {
				names, sqls = append(names, fmt.Sprintf("fact-second-%d", i)), append(sqls, sql)
			}
		}
		built, reused := 0, 0
		for k, name := range names {
			sql := sqls[k] + " ERROR WITHIN 10% AT CONFIDENCE 95%"
			for _, warm := range []bool{false, true} {
				q, err := sqlparser.Parse(sql, w.Catalog)
				if err != nil {
					t.Fatalf("%s/%s: %v", w.Name, name, err)
				}
				ps, err := pl.PlanWith(q, wh.View())
				if err != nil {
					t.Fatalf("%s/%s: %v", w.Name, name, err)
				}
				for i, c := range ps.Candidates {
					label := fmt.Sprintf("%s/%s warm=%v #%d %s", w.Name, name, warm, i, c.Desc)
					checkSamplesOnSpine(t, label, c, q.FactTable())
					if !warm {
						built += storeBuilt(t, label, c, store, wh)
					} else if len(c.Uses) > 0 {
						reused++
					}
				}
			}
		}
		if built == 0 || reused == 0 {
			t.Fatalf("%s: %d synopses built, %d reuse candidates: the check is vacuous", w.Name, built, reused)
		}
	}
}

// storeBuilt runs a candidate's synopsis builds and puts what they built in
// the warehouse, so the warm plan offers its reuse. It returns how many it
// stored.
func storeBuilt(t *testing.T, label string, c planner.Candidate, store *meta.Store, wh *warehouse.Manager) (stored int) {
	t.Helper()
	if len(c.Creates) == 0 {
		return 0
	}
	ctx := exec.NewContext(0.95)
	for _, cs := range c.Creates {
		ctx.Materialize[cs.Node] = cs.Entry.Desc.ID
	}
	op, err := exec.Compile(c.Root, 1, ctx)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if _, err := exec.Run(op); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for _, b := range ctx.Stats.Built {
		if smp, ok := b.Synopsis.(*synopses.Sample); ok {
			// A reuse plan is priced at the sample's encoded size, which
			// holds its table's name: testdata/plan_costs.txt was pinned
			// over samples named s.
			smp.Rows.Name = "s"
		}
		it := warehouse.NewItem(b.ID, b.Synopsis)
		if wh.Has(it.ID) {
			continue
		}
		if err := wh.PutWarehouse(it); err != nil {
			t.Fatal(err)
		}
		store.SetActualSize(it.ID, it.Size)
		stored++
	}
	return stored
}

// TestFromOrderDoesNotMoveTheAnswer: a fact-second query and its twin with
// the FROM clause swapped get one exact plan and one exact answer, bit for
// bit.
func TestFromOrderDoesNotMoveTheAnswer(t *testing.T) {
	w := workload.TPCH(0.002, 1)
	swapped := `SELECT o_orderpriority, SUM(l_extendedprice) FROM lineitem JOIN orders ON o_orderkey = l_orderkey GROUP BY o_orderpriority`
	var plans, answers []string
	for _, sql := range []string{factSecond[0], swapped} {
		q, err := sqlparser.Parse(sql, w.Catalog)
		if err != nil {
			t.Fatal(err)
		}
		pl := planner.New(meta.NewStore(nil), warehouse.NewManager(1<<30, 1<<30, nil), storage.DefaultCostModel())
		ps, err := pl.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		op, err := exec.Compile(ps.Exact.Root, 1, exec.NewContext(0.95))
		if err != nil {
			t.Fatal(err)
		}
		out, err := exec.Run(op)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for i := 0; i < out.Len(); i++ {
			fmt.Fprintf(&sb, "%s %x\n", out.Vecs[0].Str[i], out.Vecs[1].F64[i])
		}
		plans = append(plans, plan.Format(ps.Exact.Root))
		answers = append(answers, sb.String())
	}
	if plans[0] != plans[1] {
		t.Fatalf("exact plans differ:\n%s\nvs\n%s", plans[0], plans[1])
	}
	if answers[0] != answers[1] || answers[0] == "" {
		t.Fatalf("exact answers differ:\n%s\nvs\n%s", answers[0], answers[1])
	}
}

// TestPlanSetRunsConcurrently: the candidates of one plan set share each
// dimension's σ(base table) node, and a cached plan set is handed to
// concurrent queries, so every candidate of a three-table set runs from
// several goroutines at once (under `make race`), each run answering as a
// lone run of the same candidate does.
func TestPlanSetRunsConcurrently(t *testing.T) {
	w := workload.TPCH(0.002, 1)
	q, err := sqlparser.Parse(factSecond[1]+" ERROR WITHIN 10% AT CONFIDENCE 95%", w.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := planner.New(meta.NewStore(nil), warehouse.NewManager(1<<30, 1<<30, nil), storage.DefaultCostModel()).Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.Candidates) < 2 {
		t.Fatalf("%d candidates: nothing shares a node", len(ps.Candidates))
	}
	run := func(c planner.Candidate) (string, error) {
		ctx := exec.NewContext(0.95)
		ctx.Workers = 2
		op, err := exec.Compile(c.Root, 7, ctx)
		if err != nil {
			return "", err
		}
		out, err := exec.Run(op)
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		for r := 0; r < out.Len(); r++ {
			for _, v := range out.Vecs {
				fmt.Fprintf(&sb, "%+v ", v.Get(r))
			}
			sb.WriteByte('\n')
		}
		return sb.String(), nil
	}
	const runs = 3
	answers := make([][runs]string, len(ps.Candidates))
	errs := make(chan error, runs*len(ps.Candidates))
	var wg sync.WaitGroup
	for i, c := range ps.Candidates {
		for k := 0; k < runs; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				a, err := run(c)
				answers[i][k] = a
				if err != nil {
					errs <- fmt.Errorf("%s: %w", c.Desc, err)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, c := range ps.Candidates {
		lone, err := run(c)
		if err != nil || lone == "" {
			t.Fatalf("%s: alone: %q, %v", c.Desc, lone, err)
		}
		for k := 0; k < runs; k++ {
			if answers[i][k] != lone {
				t.Fatalf("%s: concurrent run %d answered\n%s\nalone\n%s", c.Desc, k, answers[i][k], lone)
			}
		}
	}
}

package sqlparser_test

import (
	"math/rand"
	"testing"

	"github.com/tasterdb/taster/internal/exec"
	"github.com/tasterdb/taster/internal/meta"
	"github.com/tasterdb/taster/internal/planner"
	"github.com/tasterdb/taster/internal/sqlparser"
	"github.com/tasterdb/taster/internal/stats"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/warehouse"
	"github.com/tasterdb/taster/internal/workload"
)

// FuzzParse holds the front door to "no reachable panic": arbitrary bytes
// against the TPC-H catalog either fail to parse, fail Query.Validate, or plan
// and compile — every candidate, so the sampler and sketch-join constructors
// see the query too — without panicking. Planning or compiling may still
// return an error (an ORDER BY naming nothing, a cross join); only a panic is
// a failure. Nothing runs: Validate is what promises the run is type-safe,
// and taster's TestFrontDoor runs the statements that used to break it.
func FuzzParse(f *testing.F) {
	w := workload.TPCH(0.002, 1)
	r := rand.New(rand.NewSource(1))
	for _, t := range w.Templates {
		f.Add(t.Instantiate(r) + " ERROR WITHIN 10% AT CONFIDENCE 95%")
	}
	for _, sql := range []string{
		`SELECT COUNT(*) FROM lineitem WHERE l_shipmode = 5`,
		`SELECT COUNT(*) FROM lineitem WHERE l_quantity = 'abc'`,
		`SELECT COUNT(*) FROM lineitem WHERE l_shipmode BETWEEN 1 AND 2`,
		`SELECT COUNT(*) FROM lineitem WHERE l_shipmode IN (5, 6)`,
		`SELECT COUNT(*) FROM lineitem WHERE l_quantity IN ('a')`,
		`SELECT COUNT(l_shipmode) FROM lineitem`,
		`SELECT o_orderpriority, COUNT(l_shipmode) FROM lineitem JOIN orders ON l_orderkey = o_orderkey GROUP BY o_orderpriority ERROR WITHIN 10% AT CONFIDENCE 95%`,
		`SELECT o_orderpriority, SUM(l_shipmode) FROM lineitem JOIN orders ON l_orderkey = o_orderkey GROUP BY o_orderpriority`,
		`SELECT COUNT(*) FROM lineitem JOIN orders ON l_shipmode = o_orderkey`,
		`SELECT COUNT(*) FROM lineitem JOIN orders ON l_quantity = o_orderkey`,
		`SELECT l_returnflag, MIN(l_discount) AS lo FROM lineitem WHERE l_shipdate <> 7 GROUP BY l_returnflag ORDER BY lo DESC LIMIT 3 EXACT`,
	} {
		f.Add(sql)
	}

	pl := planner.New(meta.NewStore(nil), warehouse.NewManager(1<<20, 1<<20), storage.DefaultCostModel())
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := sqlparser.Parse(sql, w.Catalog)
		if err != nil || q.Validate() != nil {
			return
		}
		if !q.Accuracy.Valid() {
			q.Accuracy = stats.AccuracySpec{RelError: 0.1, Confidence: 0.95} // as core.Execute defaults it
		}
		ps, err := pl.Plan(q)
		if err != nil {
			return
		}
		for _, c := range ps.Candidates {
			_, _ = exec.Compile(c.Root, 1, exec.NewContext(q.Accuracy.Confidence)) // an error is an answer; a panic is the finding
		}
	})
}

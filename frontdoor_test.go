package taster_test

import (
	"fmt"
	"strings"
	"testing"

	taster "github.com/tasterdb/taster"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/workload"
)

// TestFrontDoor drives ill-typed SQL through the public API. Every statement
// in `refused` parses — the grammar checks shape, not types — and used to
// reach the executor, where it either killed the process from inside a morsel
// worker (no caller can recover that) or answered from hash noise. Each must
// now come back as an error naming the offending column; each `control` is
// the same shape well-typed and must still answer; and COUNT(col) — which
// panicked on a string column — is COUNT(*) under its own name. Both tuning
// schedules run the table: they plan through different entries (PlanWith
// directly, or the plan cache in front of it). A boolean column takes no
// filter (no SQL literal is a boolean), and an IN list agrees with = on a
// literal of the other numeric type, whichever text the plan cache saw
// first — the two render alike, so they must answer alike.
func TestFrontDoor(t *testing.T) {
	refused := []struct{ sql, mention string }{
		{`SELECT COUNT(*) FROM lineitem WHERE l_shipmode = 5`, "l_shipmode"},
		{`SELECT COUNT(*) FROM lineitem WHERE l_quantity = 'abc'`, "l_quantity"},
		{`SELECT COUNT(*) FROM lineitem WHERE l_shipmode BETWEEN 1 AND 2`, "l_shipmode"},
		{`SELECT COUNT(*) FROM lineitem WHERE l_shipmode IN (5, 6)`, "l_shipmode"},
		{`SELECT COUNT(*) FROM lineitem WHERE l_quantity IN ('a')`, "l_quantity"},
		{`SELECT COUNT(*) FROM lineitem JOIN orders ON l_shipmode = o_orderkey`, "l_shipmode"},
		{`SELECT COUNT(*) FROM lineitem JOIN orders ON l_quantity = o_orderkey`, "l_quantity"},
		{`SELECT SUM(l_shipmode) FROM lineitem`, "l_shipmode"},
		{`SELECT o_orderpriority, SUM(l_shipmode) FROM lineitem JOIN orders ON l_orderkey = o_orderkey GROUP BY o_orderpriority ERROR WITHIN 10% AT CONFIDENCE 95%`, "l_shipmode"},
		{`SELECT COUNT(*) FROM flags WHERE f_on = 1`, "f_on"},
		{`SELECT COUNT(*) FROM flags WHERE f_on IN (0, 1)`, "f_on"},
	}
	control := []string{
		`SELECT COUNT(*) FROM lineitem WHERE l_shipmode = 'AIR'`,
		`SELECT COUNT(*) FROM lineitem WHERE l_quantity = 7`,
		`SELECT COUNT(*) FROM lineitem WHERE l_shipmode BETWEEN 'A' AND 'N'`,
		`SELECT COUNT(*) FROM lineitem WHERE l_shipmode IN ('AIR', 'RAIL')`,
		`SELECT COUNT(*) FROM lineitem WHERE l_quantity IN (5, 6)`,
		`SELECT COUNT(*) FROM lineitem JOIN orders ON l_orderkey = o_orderkey`,
		`SELECT o_orderpriority, SUM(l_quantity) FROM lineitem JOIN orders ON l_orderkey = o_orderkey GROUP BY o_orderpriority ERROR WITHIN 10% AT CONFIDENCE 95%`,
	}
	// COUNT(col) beside its COUNT(*) twin. Run EXACT the two must agree cell
	// for cell; run approximate they draw different samples (the executor
	// seeds from the plan text, which differs by the aggregate's name), so
	// the COUNT(col) form is held to the exact answer within a tolerance.
	twins := [][2]string{
		{`SELECT COUNT(l_shipmode) FROM lineitem`, `SELECT COUNT(*) FROM lineitem`},
		{`SELECT COUNT(l_quantity) FROM lineitem WHERE l_quantity < 10`, `SELECT COUNT(*) FROM lineitem WHERE l_quantity < 10`},
		{`SELECT SUM(l_quantity), COUNT(o_orderpriority) FROM lineitem JOIN orders ON l_orderkey = o_orderkey`,
			`SELECT SUM(l_quantity), COUNT(*) FROM lineitem JOIN orders ON l_orderkey = o_orderkey`},
		{`SELECT o_orderpriority, COUNT(l_shipmode) FROM lineitem JOIN orders ON l_orderkey = o_orderkey GROUP BY o_orderpriority`,
			`SELECT o_orderpriority, COUNT(*) FROM lineitem JOIN orders ON l_orderkey = o_orderkey GROUP BY o_orderpriority`},
	}
	const approx = " ERROR WITHIN 10% AT CONFIDENCE 95%"
	// One filter written four ways: = and IN, each with an int and a float
	// literal. Every text selects the same parts.
	sizes := []string{
		`SELECT COUNT(*) FROM part WHERE p_size IN (5.0)`,
		`SELECT COUNT(*) FROM part WHERE p_size = 5.0`,
		`SELECT COUNT(*) FROM part WHERE p_size IN (5)`,
		`SELECT COUNT(*) FROM part WHERE p_size = 5`,
	}
	open := func(sync bool) *taster.Engine {
		cat := workload.TPCH(0.002, 1).Catalog
		fb := storage.NewBuilder("flags", storage.Schema{
			{Name: "flags.f_id", Typ: storage.Int64},
			{Name: "flags.f_on", Typ: storage.Bool},
		})
		for i := 0; i < 10; i++ {
			fb.Int(0, int64(i))
			fb.Bool(1, i%2 == 0)
		}
		cat.Register(fb.Build(1))
		return taster.MustOpen(cat, taster.Options{Seed: 1, SynchronousTuning: sync})
	}

	for _, sync := range []bool{true, false} {
		t.Run(fmt.Sprintf("SynchronousTuning=%v", sync), func(t *testing.T) {
			eng := open(sync)
			defer eng.Close()
			for _, c := range refused {
				res, err := eng.Query(c.sql)
				if err == nil {
					t.Errorf("accepted, answered %v: %s", res.Rows, c.sql)
				} else if !strings.Contains(err.Error(), c.mention) {
					t.Errorf("error %q does not name %s: %s", err, c.mention, c.sql)
				}
			}
			for _, sql := range control {
				res, err := eng.Query(sql)
				if err != nil {
					t.Errorf("%v: %s", err, sql)
				} else if len(res.Rows) == 0 || res.Rows[0][len(res.Rows[0])-1].F <= 0 {
					t.Errorf("answered %v: %s", res.Rows, sql)
				}
			}
			for _, pair := range twins {
				want, err := eng.Query(pair[1] + " EXACT")
				if err != nil {
					t.Fatalf("%v: %s", err, pair[1])
				}
				// EXACT first, then approximate until the tuner has kept a
				// synopsis and a run reuses it.
				for i, suffix := range []string{" EXACT", approx, approx, approx} {
					got, err := eng.Query(pair[0] + suffix)
					if err != nil {
						t.Errorf("%v: %s%s", err, pair[0], suffix)
						break
					}
					eng.Drain()
					if len(got.Rows) != len(want.Rows) {
						t.Errorf("%d rows (%s), COUNT(*) twin %d: %s%s", len(got.Rows), got.Stats.Plan, len(want.Rows), pair[0], suffix)
						break
					}
					for r := range want.Rows {
						for c, w := range want.Rows[r] {
							g := got.Rows[r][c]
							if ok := g.Equal(w) || (i > 0 && g.F > 0.8*w.F && g.F < 1.2*w.F); !ok {
								t.Errorf("row %d col %d = %v (%s), COUNT(*) twin %v: %s%s", r, c, g, got.Stats.Plan, w, pair[0], suffix)
							}
						}
					}
				}
			}
			want, err := eng.Query(sizes[3] + " EXACT")
			if err != nil || want.Rows[0][0].F <= 0 {
				t.Fatalf("%v, %v: %s EXACT", want, err, sizes[3])
			}
			for _, order := range [][]string{sizes, {sizes[3], sizes[2], sizes[1], sizes[0]}} {
				fresh := open(sync)
				for _, suffix := range []string{"", " EXACT"} {
					for _, sql := range order {
						got, err := fresh.Query(sql + suffix)
						if err != nil {
							t.Fatalf("%v: %s%s", err, sql, suffix)
						}
						fresh.Drain()
						if g := got.Rows[0][0]; !g.Equal(want.Rows[0][0]) {
							t.Errorf("%v (%s), want %v: %s%s", g, got.Stats.Plan, want.Rows[0][0], sql, suffix)
						}
					}
				}
				fresh.Close()
			}
		})
	}
}

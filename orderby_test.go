package taster_test

import (
	"math"
	"testing"

	taster "github.com/tasterdb/taster"
)

// TestOrderByAggregateLimit: ORDER BY an aggregate's alias, DESC, with a
// LIMIT, through the public API, approximate and EXACT. The rows come back
// in order and cut to the limit, and each row's intervals are that row's:
// every interval's estimate is bit-equal to its aggregate cell, so the sort
// moved the intervals with the rows.
func TestOrderByAggregateLimit(t *testing.T) {
	eng := taster.MustOpen(demoCatalog(), taster.Options{Seed: 5, SynchronousTuning: true})
	defer eng.Close()
	const k = 3
	const sql = `SELECT cust, SUM(amount) AS total, COUNT(*) FROM sales GROUP BY cust ORDER BY total DESC LIMIT 3`
	widths := 0
	for i, suffix := range []string{
		" ERROR WITHIN 10% AT CONFIDENCE 95%",
		" ERROR WITHIN 10% AT CONFIDENCE 95%",
		" ERROR WITHIN 10% AT CONFIDENCE 95%",
		" EXACT",
	} {
		res, err := eng.Query(sql + suffix)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != k || len(res.Intervals) != k {
			t.Fatalf("run %d: %d rows and %d interval rows, want %d", i, len(res.Rows), len(res.Intervals), k)
		}
		for r, row := range res.Rows {
			if r > 0 && row[1].F > res.Rows[r-1][1].F {
				t.Fatalf("run %d: total %v after %v is not descending: %v", i, row[1].F, res.Rows[r-1][1].F, res.Rows)
			}
			if len(res.Intervals[r]) != 2 {
				t.Fatalf("run %d: row %d has %d intervals, want 2", i, r, len(res.Intervals[r]))
			}
			for j, iv := range res.Intervals[r] {
				if cell := row[1+j].F; math.Float64bits(iv.Estimate) != math.Float64bits(cell) {
					t.Fatalf("run %d: row %d interval %d estimates %v, its cell is %v", i, r, j, iv.Estimate, cell)
				}
				if iv.HalfWidth != 0 {
					widths++
				}
			}
		}
	}
	if widths == 0 {
		t.Fatal("no approximate run answered from a sample: every interval has zero width")
	}
}

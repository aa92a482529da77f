package taster_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	taster "github.com/tasterdb/taster"
	"github.com/tasterdb/taster/internal/workload"
)

// The coverage check's declared configuration: the TPC-H catalog at
// coverageSF (data seed 1), the 200 queries Queries(200, 7) draws — each asks
// ERROR WITHIN 10% AT CONFIDENCE 95% — on one engine per coverageSeeds
// value, SynchronousTuning and SimulatedScale on. sf 0.1 is the scale of the
// coverage probe the roadmap's item 2 quotes, and the smallest of 0.01, 0.05
// and 0.1 at which all three sample families answer (at 0.01 and 0.05 no
// plan builds a distinct sample); it runs in about 2 s.
const (
	coverageSF      = 0.1
	coverageQueries = 200
	coverageNominal = 0.95
)

var coverageSeeds = []uint64{1, 2, 3}

// coverageSuffix is the accuracy clause Queries appends to every text.
const coverageSuffix = " ERROR WITHIN 10% AT CONFIDENCE 95%"

// coverageCell tallies one plan family's (or one aggregate's) cells.
type coverageCell struct{ cells, covered int }

func (c coverageCell) share() float64 { return float64(c.covered) / float64(c.cells) }

// TestIntervalCoverage holds the contract a user reads — a 95% interval
// covers the true answer 95% of the time — to the exact answer. Every
// answer of a sample family (a sample built inline, uniform or distinct, or
// a stored one reused), pooled over the family's cells, must cover at least
// 0.95 − 3·√(0.95·0.05/cells) of them: a binomial tolerance of three
// standard deviations around nominal. A sketch-join answers exactly: each of
// its cells equals the truth to 1e-6 relative, with no group missing or
// extra. No family may answer a group the truth does not have. The truth is
// each text run again with EXACT on an engine of its own; exact-plan cells
// are skipped. The family is read from Result.Stats.Plan.
func TestIntervalCoverage(t *testing.T) {
	start := time.Now()
	w := workload.TPCH(coverageSF, 1)
	texts := w.Queries(coverageQueries, 7)

	truthEng := taster.MustOpen(w.Catalog, taster.Options{Seed: 1, SynchronousTuning: true, SimulatedScale: true})
	defer truthEng.Close()
	truth := make(map[string]map[string][]taster.Value) // text → group key → aggregate cells
	for _, q := range texts {
		if _, ok := truth[q]; ok {
			continue
		}
		res, err := truthEng.Query(strings.TrimSuffix(q, coverageSuffix) + " EXACT")
		if err != nil {
			t.Fatalf("%s EXACT: %v", q, err)
		}
		truth[q] = groupsOf(res)
	}

	families := map[string]*coverageCell{}
	byAgg := map[string]*coverageCell{}
	missing := map[string]int{}
	plans := map[string]int{} // queries answered, by family
	exactCells := 0           // sketch-join cells held to the truth
	for _, seed := range coverageSeeds {
		eng := taster.MustOpen(w.Catalog, taster.Options{Seed: seed, SynchronousTuning: true, SimulatedScale: true})
		for _, q := range texts {
			res, err := eng.Query(q)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, q, err)
			}
			fam := planFamily(res.Stats.Plan)
			plans[fam]++
			if fam == "exact" {
				continue
			}
			want := truth[q]
			got := groupsOf(res)
			for key := range got {
				if _, ok := want[key]; !ok {
					t.Fatalf("seed %d, %s: %s answers group %s, which the exact answer does not have", seed, q, res.Stats.Plan, key)
				}
			}
			for key := range want {
				if _, ok := got[key]; !ok {
					if fam == "sketch-join" {
						t.Fatalf("seed %d, %s: %s misses group %s", seed, q, res.Stats.Plan, key)
					}
					missing[fam]++
				}
			}
			g := groupColumns(res)
			for r, row := range res.Rows {
				key := rowKey(row[:g])
				for k, iv := range res.Intervals[r] {
					exact, agg := want[key][k].F, res.Columns[g+k]
					if fam == "sketch-join" {
						if math.Abs(iv.Estimate-exact) > 1e-6*math.Abs(exact) {
							t.Fatalf("seed %d, %s: %s answers %s = %v for group %s, the exact answer %v", seed, q, res.Stats.Plan, agg, iv.Estimate, key, exact)
						}
						exactCells++
						continue
					}
					covered := iv.Lo() <= exact && exact <= iv.Hi()
					for _, c := range []*coverageCell{tally(families, fam), tally(byAgg, fam+" "+agg)} {
						c.cells++
						if covered {
							c.covered++
						}
					}
				}
			}
		}
		eng.Close()
	}

	names := make([]string, 0, len(byAgg))
	for name := range byAgg {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		c := byAgg[name]
		t.Logf("%-60s %5d cells, covered %.3f", name, c.cells, c.share())
	}
	fams := make([]string, 0, len(families))
	for fam := range families {
		fams = append(fams, fam)
	}
	slices.Sort(fams)
	for _, fam := range fams {
		c := families[fam]
		bound := coverageNominal - 3*math.Sqrt(coverageNominal*(1-coverageNominal)/float64(c.cells))
		t.Logf("%-22s %5d cells, covered %.3f (bound %.3f), %d groups missing", fam, c.cells, c.share(), bound, missing[fam])
		if c.share() < bound {
			t.Errorf("%s: pooled coverage %.3f over %d cells, below nominal %.2f less three binomial deviations, %.3f", fam, c.share(), c.cells, coverageNominal, bound)
		}
	}
	t.Logf("sketch-join: %d cells equal the exact answer", exactCells)
	t.Logf("sf %g, %d queries × %d seeds, queries by family %v: %v", coverageSF, coverageQueries, len(coverageSeeds), plans, time.Since(start))
}

// tally returns m's cell named name, added empty on first use.
func tally(m map[string]*coverageCell, name string) *coverageCell {
	c := m[name]
	if c == nil {
		c = &coverageCell{}
		m[name] = c
	}
	return c
}

// planFamily names the family of a plan description: exact, a sample built
// inline (uniform or distinct), a stored sample reused, or a sketch-join,
// built or reused.
func planFamily(desc string) string {
	switch {
	case desc == "exact":
		return "exact"
	case strings.Contains(desc, "sketch-join"):
		return "sketch-join"
	case strings.HasPrefix(desc, "reuse sample"):
		return "reuse sample"
	case strings.HasPrefix(desc, "build uniform"):
		return "build uniform sample"
	case strings.HasPrefix(desc, "build distinct"):
		return "build distinct sample"
	}
	return desc
}

// groupColumns is how many of a result's leading columns are its GROUP BY
// columns: every column but one per aggregate cell.
func groupColumns(res *taster.Result) int {
	if len(res.Intervals) == 0 {
		return 0
	}
	return len(res.Columns) - len(res.Intervals[0])
}

// groupsOf maps each answered group's key to its aggregate cells.
func groupsOf(res *taster.Result) map[string][]taster.Value {
	g := groupColumns(res)
	out := make(map[string][]taster.Value, len(res.Rows))
	for _, row := range res.Rows {
		out[rowKey(row[:g])] = row[g:]
	}
	return out
}

// rowKey renders group values as one comparable key.
func rowKey(vals []taster.Value) string {
	var b strings.Builder
	for _, v := range vals {
		fmt.Fprintf(&b, "%v|", v)
	}
	return b.String()
}

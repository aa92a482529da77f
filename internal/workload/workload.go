// Package workload provides the three benchmark datasets and query
// workloads of the paper's evaluation (§VI): a TPC-H-shaped generator with
// the 18 approximable query templates, a TPC-DS-shaped star schema with 20
// templates (heavy store_sales⋈date_dim reuse), and the instacart grocery
// micro-benchmark with the 8 Table-I templates. All generators are
// deterministic for a given seed and scale.
package workload

import (
	"math/rand"

	"github.com/tasterdb/taster/internal/storage"
)

// Template is one parameterized query: Instantiate returns SQL text with
// randomly chosen predicate values (the paper "generates a new query by
// randomly choosing the predicate value").
type Template struct {
	Name string
	// Epoch groups TPC-H templates for the Fig. 6 workload-shift experiment
	// (0 = not part of any epoch).
	Epoch int
	// Kind is "sample" or "sketch" for the instacart templates (Table I).
	Kind string
	// Instantiate produces SQL with random parameters.
	Instantiate func(r *rand.Rand) string
}

// Workload couples a generated dataset with its query templates.
type Workload struct {
	Name      string
	Catalog   *storage.Catalog
	Templates []Template
	TotalRows int64
}

// CostScale returns (totalBytes, totalRows) for storage.ScaledCostModel.
func (w *Workload) CostScale() (int64, int64) {
	return w.Catalog.TotalBytes(), w.TotalRows
}

// Queries instantiates n queries by uniformly random template choice
// (paper §VI-A methodology), appending the standard accuracy clause.
func (w *Workload) Queries(n int, seed int64) []string {
	r := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		t := w.Templates[r.Intn(len(w.Templates))]
		out[i] = t.Instantiate(r) + " ERROR WITHIN 10% AT CONFIDENCE 95%"
	}
	return out
}

// QueriesFromTemplates instantiates n queries drawn from a template subset.
func (w *Workload) QueriesFromTemplates(names []string, n int, seed int64) []string {
	var pool []Template
	for _, t := range w.Templates {
		for _, name := range names {
			if t.Name == name {
				pool = append(pool, t)
			}
		}
	}
	if len(pool) == 0 {
		return nil
	}
	r := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		t := pool[r.Intn(len(pool))]
		out[i] = t.Instantiate(r) + " ERROR WITHIN 10% AT CONFIDENCE 95%"
	}
	return out
}

// names/pools shared by the generators.
var (
	regionNames   = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nationNames   = []string{"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"}
	segments      = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities    = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipmodes     = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	brands        = []string{"Brand#11", "Brand#12", "Brand#13", "Brand#21", "Brand#22", "Brand#23", "Brand#31", "Brand#32", "Brand#33", "Brand#41"}
	containers    = []string{"SM CASE", "SM BOX", "SM PACK", "MED BAG", "MED BOX", "MED PKG", "LG CASE", "LG BOX", "LG PACK", "JUMBO PKG"}
	partTypes     = []string{"STANDARD TIN", "SMALL BRASS", "MEDIUM COPPER", "LARGE STEEL", "ECONOMY NICKEL", "PROMO ANODIZED"}
	returnFlags   = []string{"A", "N", "R"}
	lineStatuses  = []string{"O", "F"}
	orderStatuses = []string{"O", "F", "P"}
)

func pick[T any](r *rand.Rand, xs []T) T { return xs[r.Intn(len(xs))] }

package storage_test

import (
	"testing"

	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/workload"
)

// TestPerCodeStatsOnTheWorkloadCatalogs: on every table of every generated
// catalog — and on the version an append leaves — statistics counted through
// the group index (coded columns by their codes) equal the frequency
// oracle's field for field, so no plan that reads them can move.
func TestPerCodeStatsOnTheWorkloadCatalogs(t *testing.T) {
	coded := 0
	for _, w := range []*workload.Workload{
		workload.TPCH(0.01, 1), workload.TPCDS(0.01, 1), workload.Instacart(0.01, 1),
	} {
		for _, name := range w.Catalog.Names() {
			tbl, err := w.Catalog.Table(name)
			if err != nil {
				t.Fatal(err)
			}
			next, err := tbl.Append(tbl)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []*storage.Table{tbl, tbl.Repartition(997), next} {
				if got, want := v.Stats(), storage.StatsOracle(v); !storage.SameStats(got, want) {
					t.Errorf("%s.%s: stats differ from the frequency oracle's:\n got %+v\nwant %+v", w.Name, name, got, want)
				}
			}
			for c := range tbl.Schema() {
				if tbl.Column(c).Dict != nil {
					coded++
				}
			}
		}
	}
	if coded < 12 {
		t.Fatalf("only %d coded columns across the three catalogs; the comparison is close to vacuous", coded)
	}
}

package persist_test

import (
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"github.com/tasterdb/taster/internal/persist"
	"github.com/tasterdb/taster/internal/sqlparser"
	"github.com/tasterdb/taster/internal/workload"
)

var updateFilters = flag.Bool("update-filters", false, "rewrite testdata/template_filters.golden")

const filtersGolden = "testdata/template_filters.golden"

// TestTemplateFilterBytes pins the persisted bytes and the rendering of every
// filter a workload template gives a synopsis descriptor — the fact table's
// filter, which samples and sketch-joins record — for three instantiations
// of each TPC-H, TPC-DS and Instacart template. Only a change of the format,
// which comes with a new ManifestVersion, re-records it (-update-filters).
func TestTemplateFilterBytes(t *testing.T) {
	var sb strings.Builder
	for _, w := range []*workload.Workload{
		workload.TPCH(0.002, 1), workload.TPCDS(0.002, 2), workload.Instacart(0.02, 3),
	} {
		for _, tmpl := range w.Templates {
			for seed := int64(1); seed <= 3; seed++ {
				sql := tmpl.Instantiate(rand.New(rand.NewSource(seed)))
				q, err := sqlparser.Parse(sql, w.Catalog)
				if err != nil {
					t.Fatalf("%s/%s: %v\n%s", w.Name, tmpl.Name, err, sql)
				}
				f := q.FilterForTable(q.FactTable().Name)
				b, err := persist.EncodeExpr(nil, f)
				if err != nil {
					t.Fatalf("%s/%s: encode: %v", w.Name, tmpl.Name, err)
				}
				text := "-"
				if f != nil {
					text = f.String()
				}
				fmt.Fprintf(&sb, "%s/%s/%d %s %s\n", w.Name, tmpl.Name, seed, hex.EncodeToString(b), text)
			}
		}
	}
	if *updateFilters {
		if err := os.WriteFile(filtersGolden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(filtersGolden)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(sb.String(), "\n")
	for i, line := range strings.Split(string(want), "\n") {
		if i >= len(got) || got[i] != line {
			t.Fatalf("line %d:\n got %q\nwant %q", i+1, got[min(i, len(got)-1)], line)
		}
	}
	if len(got) != len(strings.Split(string(want), "\n")) {
		t.Fatalf("%d lines, want %d", len(got), len(strings.Split(string(want), "\n")))
	}
}

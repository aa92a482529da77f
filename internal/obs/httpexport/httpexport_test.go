package httpexport

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/tasterdb/taster/internal/obs"
)

// fixtureSnapshot builds a snapshot with a little of everything: counters,
// engine gauges, and one populated histogram.
func fixtureSnapshot() obs.MetricsSnapshot {
	m := obs.NewMetrics()
	m.QueriesServed.Add(3)
	m.QueryErrors.Inc()
	m.QueryLatencySeconds.Observe(0.0002)
	m.QueryLatencySeconds.Observe(0.003)
	m.QueryLatencySeconds.Observe(0.003)
	m.PlanCache.Hit()
	m.PlanCache.Hit()
	m.PlanCache.Miss()
	m.Exec.Pruned(7)
	m.Exec.KeyIndexed(5000)
	m.WarehouseAdmissions.Add(4)
	m.WarehouseRefreshes.Inc()
	m.WarehouseEvictions.Add(2)
	m.WarehousePromotions.Add(3)
	s := m.Snapshot()
	s.PlanCacheEntries = 1
	s.SnapshotVersion = 5
	s.BufferBytes = 4096
	return s
}

// TestWritePromGolden pins the Prometheus text exposition for a counter, a
// gauge and the latency histogram — the scrape format is a public surface.
func TestWritePromGolden(t *testing.T) {
	var sb strings.Builder
	WriteProm(&sb, fixtureSnapshot())
	out := sb.String()

	for _, want := range []string{
		"# HELP taster_queries_total Queries served successfully.\n# TYPE taster_queries_total counter\ntaster_queries_total 3\n",
		"# TYPE taster_query_errors_total counter\ntaster_query_errors_total 1\n",
		"# TYPE taster_plan_cache_entries gauge\ntaster_plan_cache_entries 1\n",
		"taster_snapshot_version 5\n",
		"taster_buffer_bytes 4096\n",
		"taster_plan_cache_hits_total 2\n",
		"taster_plan_cache_misses_total 1\n",
		"taster_exec_pruned_partitions_total 7\n",
		"# HELP taster_exec_key_index_reads_total Leaf reads whose filter took its candidate rows from a key index.\n# TYPE taster_exec_key_index_reads_total counter\ntaster_exec_key_index_reads_total 1\n",
		"taster_exec_key_index_spared_rows_total 5000\n",
		"# HELP taster_warehouse_evictions_total Synopses evicted by tuning rounds and storage-budget shrinks.\n# TYPE taster_warehouse_evictions_total counter\ntaster_warehouse_evictions_total 2\n",
		"taster_warehouse_admissions_total 4\n",
		"taster_warehouse_refreshes_total 1\n",
		"taster_warehouse_promotions_total 3\n",
		// Histogram: cumulative le-buckets. 0.0002 ≤ 0.00025; both 0.003
		// observations land in le=0.005; buckets are cumulative from there.
		"# TYPE taster_query_latency_seconds histogram\n",
		"taster_query_latency_seconds_bucket{le=\"0.0001\"} 0\n",
		"taster_query_latency_seconds_bucket{le=\"0.00025\"} 1\n",
		"taster_query_latency_seconds_bucket{le=\"0.0025\"} 1\n",
		"taster_query_latency_seconds_bucket{le=\"0.005\"} 3\n",
		"taster_query_latency_seconds_bucket{le=\"60\"} 3\n",
		"taster_query_latency_seconds_bucket{le=\"+Inf\"} 3\n",
		// Sum is the exact float64 accumulation 0.0002+0.003+0.003 in
		// shortest round-trip form.
		"taster_query_latency_seconds_sum 0.006200000000000001\n",
		"taster_query_latency_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus output missing %q\nfull output:\n%s", want, out)
		}
	}

	// Every family appears exactly once, in the fixed Families order.
	var prev int
	for _, f := range fixtureSnapshot().Families() {
		idx := strings.Index(out, "# HELP "+f.Name+" ")
		if idx < 0 {
			t.Fatalf("family %s missing from output", f.Name)
		}
		if idx < prev {
			t.Fatalf("family %s out of order", f.Name)
		}
		prev = idx
	}
}

// TestWriteVars checks the expvar JSON surface parses and carries the same
// numbers as the snapshot.
func TestWriteVars(t *testing.T) {
	var sb strings.Builder
	WriteVars(&sb, fixtureSnapshot())
	var vars map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &vars); err != nil {
		t.Fatalf("WriteVars output is not valid JSON: %v", err)
	}
	if got := vars["taster_queries_total"].(float64); got != 3 {
		t.Errorf("taster_queries_total = %v, want 3", got)
	}
	hist, ok := vars["taster_query_latency_seconds"].(map[string]any)
	if !ok {
		t.Fatalf("taster_query_latency_seconds is %T, want object", vars["taster_query_latency_seconds"])
	}
	if got := hist["count"].(float64); got != 3 {
		t.Errorf("histogram count = %v, want 3", got)
	}
	if _, ok := hist["p99"]; !ok {
		t.Error("histogram JSON missing p99")
	}
	buckets, ok := hist["buckets"].(map[string]any)
	if !ok {
		t.Fatalf("histogram buckets missing")
	}
	if got := buckets["0.005"].(float64); got != 2 {
		t.Errorf("bucket le=0.005 = %v, want 2 (non-cumulative per-bucket counts)", got)
	}
}

// TestHandlerRoutes drives the mux end to end: content types, the index,
// and 404s for unknown paths.
func TestHandlerRoutes(t *testing.T) {
	h := Handler(fixtureSnapshot)

	for _, tc := range []struct {
		path, wantType, wantBody string
		wantCode                 int
	}{
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8", "taster_queries_total 3", 200},
		{"/debug/vars", "application/json; charset=utf-8", "taster_queries_total", 200},
		{"/", "", "metrics endpoints", 200},
		{"/nope", "", "", 404},
	} {
		req := httptest.NewRequest("GET", tc.path, nil)
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code != tc.wantCode {
			t.Errorf("%s: status %d, want %d", tc.path, rr.Code, tc.wantCode)
			continue
		}
		if tc.wantType != "" && rr.Header().Get("Content-Type") != tc.wantType {
			t.Errorf("%s: Content-Type %q, want %q", tc.path, rr.Header().Get("Content-Type"), tc.wantType)
		}
		if tc.wantBody != "" && !strings.Contains(rr.Body.String(), tc.wantBody) {
			t.Errorf("%s: body missing %q", tc.path, tc.wantBody)
		}
	}
}

package obs

import (
	"sync"
	"testing"
	"time"
)

// TestCounterNilSafety proves the whole hook surface is safe to call through
// nil receivers — the contract that lets an engine without metrics thread
// nil hooks everywhere.
func TestCounterNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if got := c.Value(); got != 0 {
		t.Fatalf("nil Counter.Value() = %d, want 0", got)
	}
	var g *Gauge
	g.Set(7)
	if got := g.Value(); got != 0 {
		t.Fatalf("nil Gauge.Value() = %d, want 0", got)
	}
	var h *Histogram
	h.Observe(1.0) // no panic
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("nil Histogram snapshot count = %d, want 0", s.Count)
	}

	var pc *PlanCacheObs
	pc.Hit()
	pc.Miss()
	pc.Evict()
	var jc *JoinCacheObs
	jc.Hit()
	jc.Miss()
	jc.Admit()
	jc.Evict()
	jc.Resident(10)
	var po *PoolObs
	po.Get()
	po.Put()
	po.Miss()
	var eo *ExecObs
	eo.Kernel()
	eo.Pruned(3)
	var do *DiskObs
	do.ItemWrite(10)
	do.ItemRead(10)
	do.Manifest(10)

	var m *Metrics
	if s := m.Snapshot(); s.QueriesServed != 0 {
		t.Fatalf("nil Metrics snapshot non-zero")
	}
}

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Counter.Value() = %d, want 5", got)
	}
	var g Gauge
	g.Set(9)
	g.Set(3)
	if got := g.Value(); got != 3 {
		t.Fatalf("Gauge.Value() = %d, want 3", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("Counter.Value() = %d, want %d", got, workers*per)
	}
}

// TestHookGroups exercises every hook through a real registry and checks the
// snapshot reflects each write.
func TestHookGroups(t *testing.T) {
	m := NewMetrics()
	m.PlanCache.Hit()
	m.PlanCache.Hit()
	m.PlanCache.Miss()
	m.PlanCache.Evict()
	m.JoinCache.Hit()
	m.JoinCache.Miss()
	m.JoinCache.Miss()
	m.JoinCache.Admit()
	m.JoinCache.Evict()
	m.JoinCache.Resident(4096)
	m.Pool.Get()
	m.Pool.Put()
	m.Pool.Miss()
	m.Exec.Kernel()
	m.Exec.Pruned(4)
	m.Exec.Pruned(0) // no-op: nothing pruned
	m.Exec.KeyIndexed(900)
	m.Exec.KeyIndexed(0) // a read whose kernels saw every row
	m.Disk.ItemWrite(100)
	m.Disk.ItemRead(40)
	m.Disk.Manifest(7)

	s := m.Snapshot()
	checks := []struct {
		name string
		got  int64
		want int64
	}{
		{"PlanCacheHits", s.PlanCacheHits, 2},
		{"PlanCacheMisses", s.PlanCacheMisses, 1},
		{"PlanCacheEvictions", s.PlanCacheEvictions, 1},
		{"JoinCacheHits", s.JoinCacheHits, 1},
		{"JoinCacheMisses", s.JoinCacheMisses, 2},
		{"JoinCacheAdmissions", s.JoinCacheAdmissions, 1},
		{"JoinCacheEvictions", s.JoinCacheEvictions, 1},
		{"JoinCacheBytes", s.JoinCacheBytes, 4096},
		{"PoolBatchGets", s.PoolBatchGets, 1},
		{"PoolBatchPuts", s.PoolBatchPuts, 1},
		{"PoolAllocMisses", s.PoolAllocMisses, 1},
		{"KernelFilterBatches", s.KernelFilterBatches, 1},
		{"PrunedPartitions", s.PrunedPartitions, 4},
		{"KeyIndexReads", s.KeyIndexReads, 2},
		{"KeyIndexSparedRows", s.KeyIndexSparedRows, 900},
		{"WarehouseSpills", s.WarehouseSpills, 1},
		{"WarehouseFaultIns", s.WarehouseFaultIns, 1},
		{"ManifestWrites", s.ManifestWrites, 1},
		{"DiskWriteBytes", s.DiskWriteBytes, 107}, // 100 payload + 7 manifest
		{"DiskReadBytes", s.DiskReadBytes, 40},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

func TestClocks(t *testing.T) {
	var f Frozen
	if !f.Now().IsZero() {
		t.Fatal("Frozen.Now() not zero time")
	}
	if d := f.Since(time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)); d != 0 {
		t.Fatalf("Frozen.Since() = %v, want 0", d)
	}
	var w Wall
	a := w.Now()
	if a.IsZero() {
		t.Fatal("Wall.Now() returned zero time")
	}
	if d := w.Since(a); d < 0 {
		t.Fatalf("Wall.Since() = %v, want >= 0", d)
	}
}

// TestFamiliesStable pins the exported series set: names are part of the
// scrape surface, so adding/renaming one must be a conscious change here and
// in the httpexport golden test.
func TestFamiliesStable(t *testing.T) {
	fams := MetricsSnapshot{}.Families()
	if len(fams) != 40 {
		t.Fatalf("Families() returned %d series, want 40", len(fams))
	}
	seen := make(map[string]bool, len(fams))
	for _, f := range fams {
		if f.Name == "" || f.Help == "" {
			t.Errorf("family %+v missing name or help", f)
		}
		if seen[f.Name] {
			t.Errorf("duplicate family name %s", f.Name)
		}
		seen[f.Name] = true
		if len(f.Name) < 8 || f.Name[:7] != "taster_" {
			t.Errorf("family %s not in the taster_ namespace", f.Name)
		}
	}
	for _, name := range []string{
		"taster_warehouse_admissions_total",
		"taster_warehouse_refreshes_total",
		"taster_warehouse_evictions_total",
		"taster_warehouse_promotions_total",
		"taster_exec_key_index_reads_total",
		"taster_exec_key_index_spared_rows_total",
	} {
		if !seen[name] {
			t.Errorf("family %s missing", name)
		}
	}
}

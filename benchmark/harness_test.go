package main

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"testing"
	"time"

	"github.com/tasterdb/taster"
	"github.com/tasterdb/taster/internal/workload"
)

var smoke = scale{sf: 0.005, seconds: refSeconds, smoke: true}

// allSpecs is every workload the program runs: the declared and the ungated.
func allSpecs() []spec { return append(append([]spec(nil), specs...), ungated...) }

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{20000, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.90}, {100, 0.90}, {99, 0.5}} {
		p := tailPercentile(c.n)
		if p != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, p, c.want)
		}
		if p > 0.5 && c.n-rank(p, c.n) < 10 {
			t.Errorf("n=%d: p%v has only %d samples beyond it", c.n, 100*p, c.n-rank(p, c.n))
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 0.95); got != 95 {
		t.Errorf("nearest-rank p95 of 1..100 = %v, want 95", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q3 != 4.5 {
		t.Errorf("quartiles = %v, %v; want 1, 4.5", q1, q3)
	}
}

func TestBusyClockPauses(t *testing.T) {
	var c busyClock
	c.start()
	time.Sleep(20 * time.Millisecond)
	c.pause()
	time.Sleep(200 * time.Millisecond) // off the clock
	c.start()
	time.Sleep(20 * time.Millisecond)
	c.pause()
	c.pause() // pausing a paused clock adds nothing
	if s := c.seconds(); s < 0.040 || s > 0.150 {
		t.Errorf("busy seconds = %v, want the two 20 ms stretches only", s)
	}
}

// An interval is normalised by the calibrations on either side of it: a host
// that runs at half speed around it halves its time.
func TestNormaliseUsesTheCalibrationsAroundAnInterval(t *testing.T) {
	ref := time.Duration(calRefMs * float64(time.Millisecond))
	c := &calibrator{samples: []calSample{
		{at: 1 * time.Second, d: ref},
		{at: 2 * time.Second, d: 3 * ref},
		{at: 3 * time.Second, d: ref},
	}}
	for _, tc := range []struct {
		start time.Duration
		want  time.Duration
	}{
		{500 * time.Millisecond, 100 * time.Millisecond},  // before the first: that one alone
		{1500 * time.Millisecond, 50 * time.Millisecond},  // between ref and 3 ref: mean 2 ref
		{2500 * time.Millisecond, 50 * time.Millisecond},  // between 3 ref and ref
		{3500 * time.Millisecond, 100 * time.Millisecond}, // after the last: that one alone
	} {
		if got := c.normalise(tc.start, 100*time.Millisecond); got != tc.want {
			t.Errorf("100 ms from %v on normalises to %v, want %v", tc.start, got, tc.want)
		}
	}
}

// Every lap of a lapClock has a calibration after it, and calibrating is
// not part of any lap.
func TestLapClockKeepsCalibrationsOutOfTheLaps(t *testing.T) {
	start := time.Now()
	l := newLapClock(start)
	time.Sleep(20 * time.Millisecond)
	l.lap()
	time.Sleep(20 * time.Millisecond)
	raw, norm := l.finish()
	wall := time.Since(start)
	if len(l.cal.samples) < 2 || l.cal.since != 0 {
		t.Fatalf("%d calibrations, %v of work after the last", len(l.cal.samples), l.cal.since)
	}
	if raw < 40*time.Millisecond || raw+l.cal.spent > wall {
		t.Errorf("laps %v + calibrations %v within wall %v: the laps must hold the two 20 ms stretches and no calibration", raw, l.cal.spent, wall)
	}
	if norm <= 0 {
		t.Errorf("normalised laps = %v", norm)
	}
}

// The probes run on a core.Engine configured by coreConfig; it must behave
// as the engine taster.Open makes, for every workload's options.
func TestMirrorMatchesTasterOpen(t *testing.T) {
	for _, sp := range allSpecs() {
		w := workload.TPCH(smoke.sf, 1)
		in, err := sp.build(w, 1, smoke)
		if err != nil {
			t.Fatal(err)
		}
		opts := sp.opts(1, w.Catalog.TotalBytes())
		live, err := taster.Open(w.Catalog, opts)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, q := range in.warm {
			res, err := live.Query(q.sql)
			if err != nil {
				t.Fatal(err)
			}
			live.Drain()
			hashResult(h, res)
		}
		live.Close()

		mirror, _, got, err := warmMirror(workload.TPCH(smoke.sf, 1).Catalog, opts, in.warm)
		if err != nil {
			t.Fatal(err)
		}
		mirror.Close()
		if got != h.Sum64() {
			t.Errorf("%s: mirrored engine's warm-up answers hash %x, taster.Open's %x", sp.name, got, h.Sum64())
		}
	}
}

func TestOracleRejectsAWrongCell(t *testing.T) {
	w := workload.TPCH(smoke.sf, 1)
	eng, err := taster.Open(w.Catalog, taster.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	li, _ := w.Catalog.Table("lineitem")
	for _, name := range []string{"q1", "q6", "q15"} {
		texts := w.QueriesFromTemplates([]string{name}, 1, 1)
		want, ok := oracle(texts[0], li)
		if !ok {
			t.Fatalf("%s: oracle does not recognise %q", name, texts[0])
		}
		res, err := eng.Query(texts[0] + exactSuffix)
		if err != nil {
			t.Fatal(err)
		}
		if !matchesOracle(res, want) {
			t.Errorf("%s: exact answer differs from the oracle", name)
		}
		last := res.Rows[0][len(res.Rows[0])-1]
		res.Rows[0][len(res.Rows[0])-1] = taster.Value{Typ: last.Typ, F: last.F * (1 + 1e-6), I: last.I + 1}
		if matchesOracle(res, want) {
			t.Errorf("%s: oracle accepted a cell off by 1e-6", name)
		}
	}
	if _, ok := oracle("SELECT n_name, SUM(l_extendedprice) FROM lineitem JOIN supplier ON l_suppkey = s_suppkey", li); ok {
		t.Error("oracle claims a join template")
	}
}

// Every workload runs clean at smoke scale, traced, and what the program
// emits is what BENCHMARK.json declares.
func TestEmittedNamesEqualDeclaredNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string
		Unit   string
		Better string
		Bound  float64
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(file.Workloads), len(specs))
	}
	for i, w := range file.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: declared %q, program has %q", i, w.Name, specs[i].name)
		}
	}
	same := func(kind string, declared []decl, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: %d declared, %d in the program", kind, len(declared), len(defs))
		}
		for i, d := range declared {
			if got := (decl{defs[i].name, defs[i].unit, defs[i].better, defs[i].bound}); got != d {
				t.Errorf("%s %d: declared %+v, program has %+v", kind, i, d, got)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd)
	same("per_layer", file.PerLayer, perLayer)

	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.name] = true
	}
	set := map[string]bool{}
	for _, sp := range allSpecs() {
		o, err := runWorkload(sp, 1, smoke, true, time.Now())
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if o.failed != 0 || o.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", sp.name, o.failed, o.attempted)
		}
		if o.acc.checked == 0 {
			t.Errorf("%s: no query was checked against the truth engine", sp.name)
		}
		vals, _ := o.endToEndValues()
		if len(vals) != len(endToEnd) {
			t.Fatalf("%s: %d end-to-end values for %d metrics", sp.name, len(vals), len(endToEnd))
		}
		for i, v := range vals {
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", sp.name, endToEnd[i].name, v)
			}
		}
		for name := range o.layer {
			if !declared[name] {
				t.Errorf("%s emits undeclared per-layer metric %q", sp.name, name)
			}
			set[name] = true
		}
		if len(o.spans) == 0 {
			t.Errorf("%s: traced run recorded no spans", sp.name)
		}
	}
	for name := range declared {
		if !set[name] {
			t.Errorf("declared per-layer metric %q is measured by no workload", name)
		}
	}
}

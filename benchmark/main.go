// Command benchmark is the repository's benchmark: one process runs one
// workload once against the public taster package and prints its metrics,
// the last line of standard output being the result record.
//
//	bash benchmark/run.sh --workload dash_repeat --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads, the metrics and the
// devices that make two runs of one build agree.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// metricDef declares a metric as BENCHMARK.json does; a unit test holds the
// two lists equal.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end metrics only
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p95_ms", "ms", "lower", 0.25},
	{"query_tail_ms", "ms", "lower", 0.25},
	{"bound_met_share", "share", "higher", 0.15},
	{"sim_speedup_vs_exact", "x", "higher", 0.15},
}

// value is one metric as the result record carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the last line of standard output.
type record struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// host describes where and on what a run was made; every run prints it and
// every trace file carries it.
type host struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitRev     string  `json:"git_rev"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	ScaleSF    float64 `json:"scale_factor"`
	Clients    int     `json:"clients"`
	Queries    int     `json:"queries"`
	Appends    int     `json:"appends"`
	Checked    int     `json:"checked"`
	HostRefMs  float64 `json:"host_ref_ms"`
}

// gitRev is the commit the binary was built from, as the go tool stamped it;
// "unknown" outside a git checkout.
func gitRev() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func (o *outcome) host() host {
	return host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GitRev: gitRev(),
		Workload: o.sp.name, Seed: o.seed, Seconds: o.sc.seconds, ScaleSF: o.sc.sf, Clients: o.sp.clients,
		Queries: o.queries, Appends: o.appends, Checked: o.acc.checked,
		HostRefMs: o.calMs,
	}
}

// endToEndValues computes the end-to-end metrics of a run, in endToEnd's
// order, and the percentile query_tail_ms stands for.
func (o *outcome) endToEndValues() ([]float64, float64) {
	tail := tailPercentile(len(o.latMs))
	return []float64{
		o.setupS,
		float64(o.queries) / o.busyS,
		percentile(o.latMs, 0.50),
		percentile(o.latMs, 0.95),
		percentile(o.latMs, tail),
		o.acc.boundMetShare(),
		o.acc.simSpeedup(),
	}, tail
}

func main() {
	start := time.Now()
	runtime.GOMAXPROCS(2)

	name := flag.String("workload", "", "workload to run: dash_repeat, explore_cold or scan_exact; ingest_mix runs too, undeclared")
	seed := flag.Int64("seed", 1, "seed of the data, the predicate constants and the engine's sampling")
	seconds := flag.Int("seconds", refSeconds, "run length the fixed operation counts are sized for")
	trace := flag.Int("trace", 0, "1 records spans, counts and probes and prints the per-layer metrics")
	smoke := flag.Bool("smoke", false, "tiny scale (sf=0.005, a tenth of the operations), for tests")
	aa := flag.Int("aa", 0, "A/A self-check: two interleaved sets of this many runs per workload")
	flag.Parse()

	sc := scale{sf: 0.1, seconds: *seconds, smoke: *smoke}
	if *smoke {
		sc.sf = 0.005
	}
	if *aa > 0 {
		os.Exit(runAA(*aa, *seed, sc))
	}
	sp, ok := findSpec(*name)
	if !ok || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q or bad --seconds; see -h\n", *name)
		os.Exit(2)
	}
	o, err := runWorkload(sp, *seed, sc, *trace == 1, start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if o.trace {
		if err := o.writeTrace(filepath.Join("benchmark", "out")); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	if err := o.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// print writes the host line, one line per metric, and the result record.
func (o *outcome) print(w *os.File) error {
	h, err := json.Marshal(o.host())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "host %s\n", h)
	fmt.Fprintf(w, "timed phase: %d queries + %d appends by %d client(s), wall %.3f s; %d calibrations, median host.ref_ms %.3f (reference %.1f)\n",
		o.queries, o.appends, o.sp.clients, o.wallS, o.calSamples, o.calMs, calRefMs)
	fmt.Fprintf(w, "as measured, before normalising to the reference host speed: setup %.3f s, busy %.3f s, %.2f q/s, p50 %.3f ms, p95 %.3f ms\n",
		o.setupRawS, o.busyRawS, float64(o.queries)/o.busyRawS, percentile(o.latRawMs, 0.50), percentile(o.latRawMs, 0.95))
	fmt.Fprintf(w, "failed_share %d/%d\n", o.failed, o.attempted)

	rec := record{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]value{}}
	if o.trace {
		for _, d := range perLayer {
			v := o.layer[d.name]
			fmt.Fprintf(w, "%-32s %14.6g %-8s better=%s\n", d.name, v, d.unit, d.better)
			rec.Metrics[d.name] = value{v, d.unit}
		}
	} else {
		vals, tail := o.endToEndValues()
		for i, d := range endToEnd {
			samples := len(o.latMs)
			note := ""
			switch d.name {
			case "setup_s":
				samples = 1
			case "bound_met_share", "sim_speedup_vs_exact":
				samples = o.acc.checked
			case "query_tail_ms":
				note = fmt.Sprintf(" (p%g)", 100*tail)
			}
			fmt.Fprintf(w, "%-22s %14.6f %-6s better=%-6s bound=%.2f n=%d%s\n", d.name, vals[i], d.unit, d.better, d.bound, samples, note)
			rec.Metrics[d.name] = value{vals[i], d.unit}
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// writeTrace writes the spans, with the host, to <dir>/<workload>.trace.json.
func (o *outcome) writeTrace(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, o.sp.name+".trace.json"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Host  host   `json:"host"`
		Spans []span `json:"spans"`
	}{o.host(), o.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

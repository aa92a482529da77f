// Command tasterbench regenerates the paper's evaluation (§VI): every
// figure and table, printed as ASCII tables of simulated cluster seconds,
// plus the streaming-ingestion, restart-recovery and partition-pruning
// reports.
//
// Usage:
//
//	tasterbench [-experiment all|fig3|fig4|fig5|fig6|fig7|fig8|fig9|tablei|streaming|warmstart|partition]
//	            [-workload tpch|tpcds|instacart] [-sf 0.004] [-queries 200]
//	            [-seed 42]
//
// The command prints its report and writes no file. Every experiment runs
// its engines on the synchronous tuning schedule and reports simulated
// seconds only, so the output is a pure function of the flags: `make
// determinism` runs each report twice and compares the bytes. Wall time is
// measured by benchmark/ (see benchmark/README.md), not here.
//
// The streaming experiment sweeps the staleness bound over an interleaved
// append/query stream. The warmstart experiment measures restart recovery
// from a persistent warehouse directory: cold-start vs warm-start latency
// over the fig3 workload, plus a byte-fidelity check against an
// uninterrupted engine. The partition experiment A/Bs zone-map partition
// pruning on a time-clustered event table under selective range predicates,
// reporting the scan-byte and simulated-seconds ratios (answers are
// bit-equal). -experiment all is the figures and Table I; those three run by
// name.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/tasterdb/taster/internal/experiments"
)

// experimentNames is every value -experiment accepts, in the order the usage
// line prints them; main_test.go holds it to run's switch and to the package
// comment above.
const experimentNames = "all|fig3|fig4|fig5|fig6|fig7|fig8|fig9|tablei|streaming|warmstart|partition"

func main() {
	var (
		exp     = flag.String("experiment", "all", "which experiment to run ("+experimentNames+")")
		wl      = flag.String("workload", "tpch", "workload for fig3/streaming/warmstart (tpch|tpcds|instacart)")
		sf      = flag.Float64("sf", 0.004, "workload scale factor")
		queries = flag.Int("queries", 200, "query sequence length")
		seed    = flag.Int64("seed", 42, "random seed")
	)
	flag.Parse()
	out, err := run(*exp, *wl, experiments.Config{SF: *sf, Queries: *queries, Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tasterbench:", err)
		os.Exit(1)
	}
	fmt.Print(out)
}

// run executes one experiment and returns its rendered report.
func run(exp, wl string, cfg experiments.Config) (string, error) {
	type tabler interface{ Table() string }
	render := func(f tabler, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return f.Table(), nil
	}
	switch exp {
	case "all":
		return experiments.RunAll(cfg)
	case "fig3":
		return render(experiments.Figure3(wl, cfg))
	case "fig4":
		return render(experiments.Figure4(cfg))
	case "fig5":
		return render(experiments.Figure5(cfg))
	case "fig6":
		return render(experiments.Figure6(cfg))
	case "fig7":
		return render(experiments.Figure7(cfg))
	case "fig8":
		return render(experiments.Figure8(cfg))
	case "fig9":
		return render(experiments.Figure9(cfg))
	case "tablei":
		return render(experiments.TableI(cfg))
	case "streaming":
		return render(experiments.Streaming(wl, cfg))
	case "warmstart":
		return render(experiments.WarmStart(wl, cfg))
	case "partition":
		return render(experiments.Partition(cfg))
	}
	return "", fmt.Errorf("unknown experiment %q (want one of %s)", exp, experimentNames)
}

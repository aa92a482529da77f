// Command tastercli is an interactive SQL shell over a generated benchmark
// dataset, answering queries approximately through Taster and printing
// estimates with their confidence intervals and the chosen plan.
//
// Usage:
//
//	tastercli [-workload tpch|tpcds|instacart] [-sf 0.01] [-budget 0.5]
//	          [-warehouse-dir DIR] [-explain] [-metrics-addr :9090]
//
// With -warehouse-dir the synopsis warehouse is disk-backed: quitting the
// shell checkpoints it, and the next start with the same directory warm-
// restarts — the synopses tasted in earlier sessions answer immediately.
//
// The engine tunes in the background, as taster.Open's default does; the
// shell drains each query's tuning round before the prompt returns. As
// there, a synopsis a query builds serves from the second query after it
// on: the first reuse comes one query later than under a Synchronous engine.
//
// -explain prints an EXPLAIN-ANALYZE-style execution trace under every
// query: per-operator rows in/out, selection density, batches, materialized
// synopsis rows and stage durations, timed on the wall clock. -metrics-addr serves the engine's live
// metrics (Prometheus text on /metrics, JSON on /debug/vars) while the
// shell runs.
//
// Commands: plain SQL (terminated by newline), ".synopses", ".budget N",
// ".help", ".quit".
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"

	"github.com/tasterdb/taster/internal/core"
	"github.com/tasterdb/taster/internal/obs"
	"github.com/tasterdb/taster/internal/obs/httpexport"
	"github.com/tasterdb/taster/internal/sqlparser"
	"github.com/tasterdb/taster/internal/storage"
	"github.com/tasterdb/taster/internal/workload"
)

func main() {
	var (
		wl          = flag.String("workload", "tpch", "dataset to load")
		sf          = flag.Float64("sf", 0.01, "scale factor")
		budget      = flag.Float64("budget", 0.5, "storage budget as a fraction of the dataset")
		seed        = flag.Int64("seed", 42, "random seed")
		whDir       = flag.String("warehouse-dir", "", "persistent warehouse directory (empty: in-memory, cold starts)")
		explain     = flag.Bool("explain", false, "print a per-operator execution trace under every query")
		metricsAddr = flag.String("metrics-addr", "", "serve live engine metrics on this address (/metrics, /debug/vars)")
	)
	flag.Parse()

	var w *workload.Workload
	switch *wl {
	case "tpch":
		w = workload.TPCH(*sf, *seed)
	case "tpcds":
		w = workload.TPCDS(*sf, *seed)
	case "instacart":
		w = workload.Instacart(*sf*5, *seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *wl)
		os.Exit(1)
	}
	var mx *obs.Metrics
	if *metricsAddr != "" {
		mx = obs.NewMetrics()
	}
	bytes, rows := w.CostScale()
	eng, err := core.Open(w.Catalog, core.Config{
		Mode:          core.ModeTaster,
		StorageBudget: int64(float64(bytes) * *budget),
		BufferSize:    bytes / 8,
		CostModel:     storage.ScaledCostModel(bytes, rows),
		Seed:          uint64(*seed),
		WarehouseDir:  *whDir,
		Metrics:       mx,
		Trace:         *explain,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tastercli:", err)
		os.Exit(1)
	}
	if *metricsAddr != "" {
		go func() {
			if err := http.ListenAndServe(*metricsAddr, httpexport.Handler(eng.MetricsSnapshot)); err != nil {
				fmt.Fprintln(os.Stderr, "tastercli: metrics-addr:", err)
			}
		}()
		fmt.Printf("taster> serving metrics on %s (/metrics, /debug/vars)\n", *metricsAddr)
	}
	defer func() {
		// Checkpoint the warehouse so the next session warm-restarts.
		if err := eng.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "tastercli: checkpoint:", err)
		}
	}()

	fmt.Printf("taster> loaded %s (%d rows, %.1f MB); tables: %v\n",
		w.Name, rows, float64(bytes)/1e6, w.Catalog.Names())
	if *whDir != "" {
		fmt.Printf("taster> warehouse dir %s: recovered %d synopses\n", *whDir, eng.Recovered())
	}
	fmt.Println(`taster> approximate queries end with "ERROR WITHIN 10% AT CONFIDENCE 95%"; .help for commands`)

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("taster> ")
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == ".quit" || line == ".exit":
			return
		case line == ".help":
			fmt.Println("  <SQL>            run a query (append ERROR WITHIN x% AT CONFIDENCE y% to approximate)")
			fmt.Println("  .synopses        list materialized synopses")
			fmt.Println("  .budget <bytes>  change the storage budget (elasticity)")
			fmt.Println("  .quit            exit")
		case line == ".synopses":
			for _, line := range eng.Synopses() {
				fmt.Printf("  %s\n", line)
			}
		case strings.HasPrefix(line, ".budget "):
			n, err := strconv.ParseInt(strings.TrimSpace(strings.TrimPrefix(line, ".budget ")), 10, 64)
			if err != nil {
				fmt.Println("  bad budget:", err)
				continue
			}
			eng.SetStorageBudget(n)
			fmt.Println("  budget set; warehouse retuned")
		default:
			runSQL(eng, w.Catalog, line)
		}
	}
}

func runSQL(eng *core.Engine, cat *storage.Catalog, sql string) {
	q, err := sqlparser.Parse(sql, cat)
	if err != nil {
		fmt.Println("  parse error:", err)
		return
	}
	res, err := eng.Execute(q)
	eng.Drain() // tuning lands before the prompt returns
	if err != nil {
		fmt.Println("  exec error:", err)
		return
	}
	fmt.Println("  " + strings.Join(res.Columns, " | "))
	for i, row := range res.Rows {
		if i >= 20 {
			fmt.Printf("  ... (%d more rows)\n", len(res.Rows)-20)
			break
		}
		cells := make([]string, len(row))
		for c, v := range row {
			cells[c] = v.String()
		}
		line := "  " + strings.Join(cells, " | ")
		if res.Intervals != nil && i < len(res.Intervals) {
			for _, iv := range res.Intervals[i] {
				if iv.HalfWidth > 0 {
					line += fmt.Sprintf("  (±%.3g)", iv.HalfWidth)
				}
			}
		}
		fmt.Println(line)
	}
	fmt.Printf("  plan: %s  |  simulated %.2fs  |  wall %.1fms\n",
		res.Report.PlanDesc, res.Report.SimSeconds, res.Report.WallSeconds*1000)
	if res.Trace != "" {
		for _, l := range strings.Split(strings.TrimRight(res.Trace, "\n"), "\n") {
			fmt.Println("  " + l)
		}
	}
}

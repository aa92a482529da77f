package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runAA is the A/A self-check: for every workload it makes two interleaved
// sets of n runs of this same binary (A1 B1 A2 B2 ..., run i of both sets on
// seed+i) and compares them the way two commits would be compared. It fails
// if the two medians of any end-to-end metric differ by more than the
// metric's bound, or if a set's interquartile spread exceeds it; either
// means the bound table claims a resolution the benchmark has not got.
// It returns the process's exit code.
func runAA(n int, seed int64, sc scale) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	ok := true
	for _, sp := range specs {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for s := range sets {
				rec, err := runSelf(self, sp.name, seed+int64(i), sc)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", sp.name, seed+int64(i), err)
					return 1
				}
				if !rec.Correct {
					fmt.Printf("%s seed %d: %d of %d operations failed\n", sp.name, seed+int64(i), rec.Failed, rec.Attempted)
					ok = false
				}
				for _, d := range endToEnd {
					sets[s][d.name] = append(sets[s][d.name], rec.Metrics[d.name].Value)
				}
			}
		}
		fmt.Printf("%s: 2 x %d runs, seeds %d..%d\n", sp.name, n, seed, seed+int64(n)-1)
		fmt.Printf("  %-22s %-3s %12s %12s %12s %12s %12s %8s %8s\n", "metric", "set", "min", "q1", "median", "q3", "max", "spread", "bound")
		for _, d := range endToEnd {
			var med [2]float64
			for s, name := range []string{"A", "B"} {
				xs := append([]float64(nil), sets[s][d.name]...)
				sort.Float64s(xs)
				q1, q3 := quartiles(xs)
				med[s] = median(xs)
				spread := (q3 - q1) / med[s]
				verdict := ""
				if spread > d.bound && d.name != "setup_s" {
					verdict, ok = "  SPREAD > BOUND", false
				}
				fmt.Printf("  %-22s %-3s %12.5g %12.5g %12.5g %12.5g %12.5g %7.2f%% %7.0f%%%s\n",
					d.name, name, xs[0], q1, med[s], q3, xs[len(xs)-1], 100*spread, 100*d.bound, verdict)
			}
			diff := (med[1] - med[0]) / med[0]
			if diff < 0 {
				diff = -diff
			}
			verdict := "ok"
			if diff > d.bound {
				verdict, ok = "MEDIANS DIFFER BY MORE THAN THE BOUND", false
			}
			fmt.Printf("  %-22s A/B medians differ %.2f%% (%s)\n", d.name, 100*diff, verdict)
		}
	}
	if !ok {
		fmt.Println("A/A check FAILED")
		return 1
	}
	fmt.Println("A/A check passed")
	return 0
}

// runSelf runs one workload once in a child process and returns the record
// on the last line of its output. cmd.Output waits for the child to end.
func runSelf(self, name string, seed int64, sc scale) (*record, error) {
	args := []string{"--workload", name, "--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.Itoa(sc.seconds), "--trace", "0"}
	if sc.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rec record
	if err := json.Unmarshal(lines[len(lines)-1], &rec); err != nil {
		return nil, fmt.Errorf("last line of output is not a result record: %w", err)
	}
	return &rec, nil
}

// Command benchcmp compares paired benchmark runs of two commits:
//
//	benchcmp [-spec ../BENCHMARK.json] RUNS
//
// RUNS holds one directory per workload with each run's standard output
// as parent-<k>.out and change-<k>.out, where pair k ran both commits
// back to back on one seed and the side that ran first alternated with
// k. It needs at least 10 pairs per workload and prints, per workload
// and metric, both sides' medians and quartiles, the change's wins and
// a verdict (see bench.Compare). It exits 1 when any metric regressed.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"dvfsroofline/bench"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("benchcmp", flag.ContinueOnError)
	specPath := fs.String("spec", "../BENCHMARK.json", "the benchmark's BENCHMARK.json")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp [-spec BENCHMARK.json] RUNS")
		return 2
	}
	spec, err := bench.LoadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		return 1
	}
	entries, err := os.ReadDir(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		return 1
	}
	var workloads []string
	for _, e := range entries {
		if e.IsDir() {
			workloads = append(workloads, e.Name())
		}
	}
	sort.Strings(workloads)
	regressed := false
	for _, w := range workloads {
		runs, err := bench.LoadRuns(fs.Arg(0), w)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcmp:", err)
			return 1
		}
		pf, cf := runs.Failures()
		fmt.Printf("%s: %d pairs; failed operations: parent %d, change %d\n", w, len(runs.Parent), pf, cf)
		rows, err := bench.Compare(spec, runs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcmp:", err)
			return 1
		}
		bench.WriteRows(os.Stdout, rows)
		for _, r := range rows {
			regressed = regressed || r.Verdict == bench.Regressed
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// Command energybench runs one workload of the repository benchmark and
// prints its metrics, one per line with its unit, then the result as
// one JSON line:
//
//	energybench --workload serve-warm --seed 7 --seconds 10 --trace 0
//
// Run it from the repository root (bench/run.sh builds and runs it).
// --trace 1 runs the separate traced pass instead: per-layer metrics, a
// layer ladder, and spans written as JSONL under .bench_build/spans/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"dvfsroofline/bench"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("energybench", flag.ContinueOnError)
	name := fs.String("workload", "", fmt.Sprintf("workload to run: one of %v", bench.Workloads))
	seed := fs.Int64("seed", 7, "seed the workload's inputs derive from")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "energybench: --trace must be 0 or 1")
		return 2
	}
	digests, err := bench.LoadDigests(filepath.Join("bench", "digests.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "energybench:", err)
		return 1
	}
	cfg := bench.Config{
		Workload: *name,
		Seed:     *seed,
		Seconds:  *seconds,
		Trace:    *trace == 1,
		Root:     ".",
		Sizes:    bench.Full,
		Digests:  digests,
	}
	if cfg.Trace {
		cfg.SpansPath = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
	}
	rep, err := bench.Run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "energybench:", err)
		return 1
	}
	fmt.Printf("workload %s seed %d seconds %g trace %d\n", *name, *seed, *seconds, *trace)
	for _, l := range rep.Lines {
		fmt.Println(l)
	}
	b, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "energybench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

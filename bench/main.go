// Command cabench is the repository's benchmark: it runs one workload for
// a fixed time, checks every output, and prints its metrics by name and
// unit, the last line as one JSON object.
//
//	bash bench/run.sh --workload paper-suite --seed 42 --seconds 20 --trace 0
//
// Workloads (see BENCHMARK.json and bench/README.md):
//
//	paper-suite  every cafigures figure at paper scale, empty result cache
//	fleet        cluster.Run on BenchMix(seed, 1024), empty result cache
//	replay-warm  paper-suite and fleet again from the caches they filled
//
// It runs from the repository root, where results/ holds the expected
// paper-suite CSVs and .bench_build/ its scratch state. Each timed body
// runs in a fresh process (this binary with -body), so process set-up,
// peak memory and the cold cache are measured as users meet them.
// --trace 0 reports the end-to-end metrics; --trace 1
// alternates traced and untraced bodies and reports the per-layer
// metrics: CPU time per internal module from a profile, a span per
// public entry point, and counts of simulated work.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workload = flag.String("workload", "", "paper-suite, fleet or replay-warm")
		seed     = flag.Int64("seed", 42, "seed of the fleet's job mix (the paper suite has fixed inputs)")
		seconds  = flag.Float64("seconds", 20, "measure bodies for this long (at least one body runs)")
		trace    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")

		bodyOf    = flag.String("body", "", "run one body of this workload in this process and print its report")
		cacheDir  = flag.String("cache", "", "the body's result-cache directory")
		traced    = flag.Bool("traced", false, "trace the body")
		setupOnly = flag.Bool("setup-only", false, "set the body up, report, and exit without running it")
	)
	flag.Parse()

	var err error
	if *bodyOf != "" {
		err = runBody(*bodyOf, *cacheDir, *seed, *traced, *setupOnly)
	} else {
		err = runBenchmark(*workload, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cabench:", err)
		os.Exit(1)
	}
}

// Command benchmark is the benchmark of this repository: five seeded
// workloads, six end-to-end metrics with a fixed regression bound each, and
// — in a separate traced run — under a hundred per-layer metrics taken from
// outside by timing calls into each module's public functions. README.md
// beside this file says what each is for; BENCHMARK.json at the repository
// root is the contract the driver reads.
//
//	go run ./benchmark -workload scan-ed            # one workload, end-to-end metrics
//	go run ./benchmark -workload scan-ed -trace 1   # its per-layer metrics and latency budget
//	go run ./benchmark -workload all                # every workload, each in its own process
//	go run ./benchmark -workload all -repeat 10     # ten seeds each, with the spread report
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// runners maps each workload to the function that runs it.
var runners = map[string]func(*bench, io.Writer) error{
	"scan-ed":   runScan,
	"scan-dtw":  runScan,
	"index-ed":  runIndex,
	"serve-mix": runServe,
	"store-rw":  runStore,
}

// buildDir is where the benchmark keeps everything it writes; .gitignore
// names it.
const buildDir = ".bench_build"

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run, or all (each in its own child process)")
		seed     = flag.Int64("seed", defaultSeed, "seed the inputs are made from")
		seconds  = flag.Int("seconds", defaultSeconds, "how long the timed phase measures")
		trace    = flag.Int("trace", 0, "1: the separate traced run — per-layer metrics, spans, latency budget")
		repeat   = flag.Int("repeat", 1, "run each workload this many times, on seeds seed, seed+1, …, and report the spread")
		out      = flag.String("out", "", "full JSON report (default "+buildDir+"/out/<workload>-seed<seed>-trace<trace>.json)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments; see -help")
		os.Exit(2)
	}
	if *workload == "all" || *repeat > 1 {
		os.Exit(runChildren(*workload, *seed, *seconds, *trace, *repeat))
	}
	run, ok := runners[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		os.Exit(2)
	}

	// One process per workload, so peak_rss_mb and GC state are its own; two
	// cores at most, and never more load-generating goroutines than that.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	work := filepath.Join(buildDir, "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	b := newBench(*workload, fullSizes[*workload], *seed, *seconds, *trace == 1, work)
	b.outPath = *out
	if b.outPath == "" {
		b.outPath = filepath.Join(buildDir, "out", fmt.Sprintf("%s-seed%d-trace%d.json", *workload, *seed, *trace))
	}
	if err := run(b, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !b.rep.Correct {
		os.Exit(1)
	}
}

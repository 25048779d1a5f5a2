// Command bench regenerates every experiment table (E1–E9, listed in
// the internal/harness package doc) and prints them as markdown.
//
// Usage:
//
//	bench [-quick] [-seed N] [-only E4]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"distmincut/internal/harness"
)

func main() {
	os.Exit(run())
}

func run() int {
	quick := flag.Bool("quick", false, "small workloads (seconds instead of minutes)")
	seed := flag.Int64("seed", 1, "seed for workloads and protocols")
	only := flag.String("only", "", "run a single experiment (E1..E9)")
	flag.Parse()

	cfg := harness.Config{Quick: *quick, Seed: *seed}
	experiments := map[string]func(harness.Config) *harness.Table{
		"E1": harness.E1Correctness,
		"E2": harness.E2Scaling,
		"E3": harness.E3Exact,
		"E4": harness.E4Approx,
		"E5": harness.E5Baselines,
		"E6": harness.E6Diameter,
		"E7": harness.E7Packing,
		"E8": harness.E8Figure1,
		"E9": harness.E9Ablation,
	}

	start := time.Now()
	var tables []*harness.Table
	if *only != "" {
		fn, ok := experiments[*only]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (want E1..E9)\n", *only)
			return 2
		}
		tables = []*harness.Table{fn(cfg)}
	} else {
		tables = harness.RunAll(cfg)
	}
	for _, t := range tables {
		fmt.Print(t.Markdown())
	}
	fmt.Printf("_generated in %s (quick=%v, seed=%d)_\n", time.Since(start).Round(time.Millisecond), *quick, *seed)
	return 0
}

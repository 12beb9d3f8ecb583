// Command tfmccbench measures the simulation engine across the paper's
// figure scenarios and emits a machine-readable BENCH_engine.json so the
// performance trajectory can be tracked across PRs (and uploaded as a CI
// artifact).
//
// Usage:
//
//	tfmccbench [-seeds n] [-workers m] [-only 1,7,15] [-check] [-o BENCH_engine.json]
//	tfmccbench -list
//
// The measured plan is the figure registry in enumeration order (paper
// figures plus scenario presets) and the 100-receiver session
// micro-scenario. -list prints it with tags; -only selects a subset.
// -deterministic strips wall-clock, rate and allocation fields, so two
// runs with the same flags are byte-identical; -check arms the
// invariant checker in every sweep and exits 1 on any violation.
//
// Each scenario is swept across -seeds independent seeds fanned out over
// -workers goroutines; every worker owns a reusable simulation arena, so
// consecutive seeds rewind the cached topology instead of rebuilding it.
// Per scenario the report carries wall time, scheduler events, link-level
// packet counts and Go heap allocations, normalised to aggregate
// events/sec, packets/sec, ns/event and allocs/event. Figures that never
// drive the discrete-event engine are marked "analytic": true instead of
// reporting meaningless zero engine rates. The session scenario
// additionally records setup amortisation: allocations of the first
// (cold, arena-building) run versus a subsequent (warm, rewound) run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/benchreport"
	"repro/internal/sweep"
)

func main() {
	seeds := flag.Int("seeds", 3, "independent seeds per scenario (>= 1)")
	workers := flag.Int("workers", min(4, runtime.NumCPU()), "parallel sweep workers")
	list := flag.Bool("list", false, "list the bench plan (ids, tags) and exit")
	only := flag.String("only", "", "comma-separated scenario ids to run (default: all)")
	det := flag.Bool("deterministic", false, "strip timing-dependent fields so output is byte-comparable across runs")
	check := flag.Bool("check", false, "run the invariant checker during every sweep; exit 1 on violations or failed seeds")
	out := flag.String("o", "BENCH_engine.json", "output file ('-' for stdout)")
	flag.Parse()

	if flag.NArg() > 0 {
		fatalf("unexpected arguments %v", flag.Args())
	}
	if *seeds < 1 {
		fatalf("-seeds must be at least 1, got %d", *seeds)
	}

	var onlyIDs []string
	if *only != "" && *only != "all" {
		onlyIDs = strings.Split(*only, ",")
	}
	plan, err := benchreport.NewPlan(onlyIDs)
	if err != nil {
		fatalf("%v", err)
	}

	if *list {
		for _, it := range plan {
			fmt.Printf("%-14s %-24s %s\n", it.ID, "["+strings.Join(it.Tags, ",")+"]", it.Title)
		}
		return
	}

	cfg := sweep.Config{Seeds: *seeds, Workers: *workers, Base: 1, Check: *check}
	rep := benchreport.Measure(plan, cfg, os.Stderr)
	if *det {
		rep = rep.Strip()
	}
	if err := rep.WriteFile(*out); err != nil {
		fatalf("%v", err)
	}
	if *out != "-" {
		fmt.Fprintf(os.Stderr, "wrote %s (%d scenarios)\n", *out, len(rep.Scenarios))
	}
	bad := false
	for _, m := range rep.Scenarios {
		for _, f := range m.Failures {
			fmt.Fprintf(os.Stderr, "%s FAILED: %s\n", m.ID, f)
			bad = true
		}
		for _, v := range m.Violations {
			fmt.Fprintf(os.Stderr, "%s INVARIANT: %s\n", m.ID, v)
			bad = true
		}
	}
	if bad {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tfmccbench: "+format+"\n", args...)
	os.Exit(1)
}

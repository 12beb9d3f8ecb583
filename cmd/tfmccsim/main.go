// Command tfmccsim regenerates the figures of the TFMCC paper
// (Widmer & Handley, SIGCOMM 2001) from the Go reproduction and runs
// declarative scenarios from the preset registry.
//
// Usage:
//
//	tfmccsim -figure 9                       # run one figure, print summary
//	tfmccsim -figure 9 -tsv                  # dump the series as TSV
//	tfmccsim -figure 9 -seeds 8 -workers 4   # 8-seed sweep, merged bands
//	tfmccsim -all                            # run every figure
//	tfmccsim -list                           # list available figures
//	tfmccsim -scenario flashcrowd            # run a scenario preset
//	tfmccsim -scenario 9 -duration 60 -coreloss 0.01   # overridden figure
//	tfmccsim -figure clrfail -check          # run with the invariant checker
//
// -scenario runs any Spec-backed registry entry — the named presets and
// every single-scenario engine figure — through the generic scenario
// executor, with the override flags (-duration, -corebw, -coredelay,
// -coreloss, -corequeue, -edgeloss, -receivers, -cohort, -fanout,
// -depth, -hops) folded into the declarative spec before the run.
//
// With -seeds > 1 the figure is replicated across that many independent
// seeds (fanned out over -workers goroutines, each reusing one simulation
// arena) and the output carries mean/CI/min/max band columns instead of a
// single trajectory: TSV becomes the long-format table
//
//	series  x  mean  ci_lo  ci_hi  min  max  n
//
// where [ci_lo, ci_hi] is the -ci confidence interval for the mean. The
// merged output is bit-for-bit independent of -workers.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/sweep"
)

func main() {
	var (
		figure   = flag.String("figure", "", "figure or preset id to reproduce (e.g. 9, flashcrowd)")
		scen     = flag.String("scenario", "", "run a Spec-backed entry through the scenario executor (with overrides)")
		scenFile = flag.String("scenario-file", "", "run a JSON spec document through the scenario executor (with overrides)")
		specOut  = flag.String("spec-out", "", "with -scenario: write the spec (overrides applied) as JSON to this file ('-' for stdout) instead of running it")
		all      = flag.Bool("all", false, "run every figure")
		list     = flag.Bool("list", false, "list available figures and presets")
		tsv      = flag.Bool("tsv", false, "print full series as TSV instead of a summary")
		seed     = flag.Int64("seed", 1, "random seed (first seed of a sweep)")
		seeds    = flag.Int("seeds", 1, "number of independent seeds to sweep and merge")
		workers  = flag.Int("workers", runtime.NumCPU(), "parallel sweep workers (capped at -seeds)")
		ci       = flag.Float64("ci", 0.95, "confidence level for the merged bands")
		check    = flag.Bool("check", false, "run the invariant checker alongside the simulation; exit 1 on violations")

		duration  = flag.Float64("duration", 0, "override: simulated seconds")
		corebw    = flag.Float64("corebw", 0, "override: core link bandwidth in Mbit/s")
		coredelay = flag.Float64("coredelay", 0, "override: core link delay in ms")
		coreloss  = flag.Float64("coreloss", -1, "override: core link loss probability")
		corequeue = flag.Int("corequeue", 0, "override: core queue limit in packets")
		edgeloss  = flag.Float64("edgeloss", -1, "override: loss probability on each site's last (edge) hop, towards the receiver")
		receivers = flag.Int("receivers", 0, "override: receiver population size")
		cohort    = flag.Int("cohort", 0, "override: replace the declared receivers with one analytic cohort of this many members")
		fanout    = flag.Int("fanout", 0, "override: tree fan-out")
		depth     = flag.Int("depth", 0, "override: tree depth")
		hops      = flag.Int("hops", 0, "override: chain length")
	)
	flag.Parse()

	cfg := sweep.Config{Seeds: *seeds, Workers: *workers, CI: *ci, Base: *seed, Check: *check}
	ov := scenario.Overrides{
		Duration:  sim.FromSeconds(*duration),
		CoreBW:    *corebw * 125000,
		CoreDelay: sim.Time(*coredelay * float64(sim.Millisecond)),
		CoreLoss:  *coreloss,
		CoreQueue: *corequeue,
		EdgeLoss:  *edgeloss,
		Receivers: *receivers,
		Cohort:    *cohort,
		Fanout:    *fanout,
		Depth:     *depth,
		Hops:      *hops,
	}

	switch {
	case *list:
		for _, e := range experiments.Entries() {
			fmt.Printf("%-10s %-26s %s\n", e.ID, "["+strings.Join(e.Tags, ",")+"]", e.Title)
		}
	case *scenFile != "":
		spec, err := scenario.LoadSpec(*scenFile)
		if err == nil {
			spec, err = spec.Apply(ov)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ctx := experiments.NewRunCtx()
		if *check {
			ctx.EnableInvariants()
		}
		res, err := experiments.RunSpecKeyed(ctx, "file-"+*scenFile, spec, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *tsv {
			fmt.Print(res.TSV())
		} else {
			fmt.Print(res.Summary())
		}
		reportViolations(violationStrings(ctx), nil)
	case *scen != "" && *specOut != "":
		writeSpec(*scen, ov, *specOut)
	case *scen != "":
		ctx := experiments.NewRunCtx()
		if *check {
			ctx.EnableInvariants()
		}
		res, err := experiments.RunOverridden(ctx, *scen, ov, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *tsv {
			fmt.Print(res.TSV())
		} else {
			fmt.Print(res.Summary())
		}
		reportViolations(violationStrings(ctx), nil)
	case *all:
		for _, id := range experiments.Figures() {
			run(id, cfg, *tsv)
		}
	case *figure != "":
		run(*figure, cfg, *tsv)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// run reproduces one figure: a single seeded run (cfg.Base) when
// cfg.Seeds <= 1, otherwise a merged sweep.
func run(id string, cfg sweep.Config, tsv bool) {
	if cfg.Seeds > 1 {
		res, err := experiments.Sweep(id, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if tsv {
			fmt.Print(res.TSV())
		} else {
			fmt.Print(res.Summary())
		}
		reportViolations(res.Violations, res.Failures)
		return
	}
	ctx := experiments.NewRunCtx()
	if cfg.Check {
		ctx.EnableInvariants()
	}
	res, err := experiments.RunWith(ctx, id, cfg.Base)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if tsv {
		fmt.Print(res.TSV())
	} else {
		fmt.Print(res.Summary())
	}
	reportViolations(violationStrings(ctx), nil)
}

// writeSpec exports a registry entry's scenario spec (overrides applied)
// as a JSON document -scenario-file can run.
func writeSpec(id string, ov scenario.Overrides, path string) {
	e, ok := experiments.Lookup(id)
	if !ok || e.Spec == nil {
		fmt.Fprintf(os.Stderr, "%q is not a Spec-backed entry (have %v)\n", id, experiments.ScenarioIDs())
		os.Exit(1)
	}
	spec, err := e.Spec().Apply(ov)
	if err == nil {
		var enc []byte
		if enc, err = spec.Encode(); err == nil {
			if path == "-" {
				_, err = os.Stdout.Write(enc)
			} else {
				err = os.WriteFile(path, enc, 0o644)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func violationStrings(ctx *experiments.RunCtx) []string {
	var out []string
	for _, v := range ctx.Violations() {
		out = append(out, v.String())
	}
	return out
}

// reportViolations surfaces invariant violations and failed (panicked)
// sweep seeds on stderr and exits nonzero, so -check runs gate CI.
func reportViolations(violations, failures []string) {
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "FAILED: %s\n", f)
	}
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "INVARIANT: %s\n", v)
	}
	if len(violations) > 0 || len(failures) > 0 {
		os.Exit(1)
	}
}

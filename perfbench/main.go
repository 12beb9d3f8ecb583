// Command perfbench is the repository benchmark. It runs one workload
// through the simulator's public packages for a fixed host-time budget,
// checks every output, and prints the end-to-end metrics (untraced run)
// or the per-layer metrics (traced run) as the last line of standard
// output, one JSON object.
//
//	bash perfbench/run.sh --workload fanout-1000 --seed 1 --seconds 30 --trace 0
//
// catalog.json lists the workloads, every metric with its unit, and for
// each per-layer metric the end-to-end metric and workload it should move.
// The lines before the JSON object are a readable report: per-unit
// timings and digests, the correctness checks, and every metric by name.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
)

//go:embed catalog.json
var catalogJSON []byte

//go:embed digests.json
var digestsJSON []byte

// catalog holds the parts of catalog.json the benchmark and its tests
// read; the rest is documentation.
type catalog struct {
	Workloads []struct {
		Name          string   `json:"name"`
		Why           string   `json:"why"`
		BusiestLayers []string `json:"busiest_layers"`
		IdleLayers    []string `json:"idle_layers"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name  string   `json:"name"`
	Unit  string   `json:"unit"`
	Layer string   `json:"layer"`
	Moves []string `json:"moves"` // end-to-end metrics a per-layer metric should move
	On    []string `json:"on"`    // workloads it should move them on
}

func loadCatalog() (*catalog, error) {
	var c catalog
	if err := json.Unmarshal(catalogJSON, &c); err != nil {
		return nil, fmt.Errorf("catalog.json: %w", err)
	}
	return &c, nil
}

// committedDigests maps workload -> seed -> digest, as committed in
// digests.json for the seeds the baseline was taken on.
func committedDigests() (map[string]map[string]string, error) {
	var d map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name (see catalog.json)")
	seed := flag.Int64("seed", 1, "first workload seed")
	seconds := flag.Float64("seconds", 30, "host seconds to measure for")
	traceMode := flag.Int("trace", 0, "0: untraced, end-to-end metrics; 1: traced, per-layer metrics")
	flag.Parse()
	if err := run(os.Stdout, *name, *seed, *seconds, *traceMode); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

func run(w *os.File, name string, seed int64, seconds float64, traceMode int) error {
	if traceMode != 0 && traceMode != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceMode)
	}
	cat, err := loadCatalog()
	if err != nil {
		return err
	}
	digests, err := committedDigests()
	if err != nil {
		return err
	}
	wl, ok := workloads[name]
	if !ok {
		var names []string
		for _, c := range cat.Workloads {
			names = append(names, c.Name)
		}
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%d go=%s GOMAXPROCS=%d NumCPU=%d\n",
		name, seed, seconds, traceMode, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	rep := measure(wl, seed, seconds, traceMode == 1, digests[name])
	rep.print(w)

	defs, vals := cat.EndToEnd, rep.endToEnd()
	if traceMode == 1 {
		// The readable report carries the end-to-end figures of the
		// untraced reference unit too, so one command shows every metric.
		for _, d := range defs {
			if v, ok := vals[d.Name]; ok {
				fmt.Fprintf(w, "reference %-28s %14.6g %s\n", d.Name, v, d.Unit)
			}
		}
		defs, vals = cat.PerLayer, rep.perLayer()
	}
	out := output{Correct: rep.correct(), Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if out.Correct {
				return fmt.Errorf("workload %s measured no value for metric %s", name, d.Name)
			}
			v = 0 // a failed run reports what it could not measure as 0
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "metric %-30s %14.6g %s\n", d.Name, v, d.Unit)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Fprintln(w, string(b))
	return nil
}

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestCatalog checks every metric name and that each per-layer metric
// names the end-to-end metric and the workload it should move.
func TestCatalog(t *testing.T) {
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	e2e := map[string]bool{}
	for _, m := range cat.EndToEnd {
		if !metricName.MatchString(m.Name) || m.Unit == "" {
			t.Errorf("end-to-end metric %q (unit %q) is malformed", m.Name, m.Unit)
		}
		e2e[m.Name] = true
	}
	wls := map[string]bool{}
	for _, w := range cat.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("catalog workload %q has no implementation", w.Name)
		}
		if w.Why == "" || len(w.BusiestLayers) == 0 || len(w.IdleLayers) == 0 {
			t.Errorf("workload %s does not record why it was chosen and which layers it loads", w.Name)
		}
		wls[w.Name] = true
	}
	if len(wls) != len(workloads) {
		t.Errorf("catalog lists %d workloads, the benchmark implements %d", len(wls), len(workloads))
	}
	for _, m := range cat.PerLayer {
		if !metricName.MatchString(m.Name) || m.Unit == "" || m.Layer == "" {
			t.Errorf("per-layer metric %q (unit %q, layer %q) is malformed", m.Name, m.Unit, m.Layer)
		}
		if len(m.Moves) == 0 || len(m.On) == 0 {
			t.Errorf("per-layer metric %s names no end-to-end metric or no workload it moves", m.Name)
		}
		for _, e := range m.Moves {
			if !e2e[e] {
				t.Errorf("per-layer metric %s moves unknown end-to-end metric %q", m.Name, e)
			}
		}
		for _, w := range m.On {
			if !wls[w] {
				t.Errorf("per-layer metric %s names unknown workload %q", m.Name, w)
			}
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// catalog's workloads and metrics, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(cat.Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, catalog %d", len(b.Workloads), len(cat.Workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != cat.Workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json %q, catalog %q", i, w.Name, cat.Workloads[i].Name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, catalog %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], catalog %s [%s]", kind, i,
					got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, cat.EndToEnd)
	same("per_layer", b.PerLayer, cat.PerLayer)
}

// TestWorkloadSmoke runs every workload briefly, untraced and traced, and
// checks that its outputs verify and every metric is a finite number.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	pending := map[string]float64{}
	for _, c := range cat.Workloads {
		for _, traced := range []bool{false, true} {
			r := measure(workloads[c.Name], 1, 0, traced, nil)
			if !r.correct() {
				t.Fatalf("%s traced=%v: %v", c.Name, traced, r.problems)
			}
			defs, vals := cat.EndToEnd, r.endToEnd()
			if traced {
				defs, vals = cat.PerLayer, r.perLayer()
				pending[c.Name] = vals["sim.pending_peak"]
			}
			for _, d := range defs {
				if v, ok := vals[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s traced=%v: metric %s = %v (present %v)", c.Name, traced, d.Name, v, ok)
				}
			}
		}
	}
	if f, tc := pending["fanout-1000"], pending["tcp-compete"]; f < 3*tc {
		t.Errorf("sim.pending_peak: fanout-1000 %v is not several times tcp-compete %v", f, tc)
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1
		}
	}
	return x
}

// TestFoldProfile folds a profile of this package spinning and finds the
// samples charged to it.
func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	f, err := foldProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.total < 5 || f.benchShare() < 0.5 {
		t.Errorf("fold: %d samples, bench share %.2f, layers %v", f.total, f.benchShare(), f.byLayer)
	}
}

func TestPackageOf(t *testing.T) {
	for in, want := range map[string]string{
		"repro/internal/sim.(*Scheduler).siftDown":             "repro/internal/sim",
		"repro/internal/scenario.(*Scenario).buildAgg.func1.1": "repro/internal/scenario",
		"runtime.mallocgc": "runtime",
		"main.spin":        "main",
	} {
		if got := packageOf(in); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", in, got, want)
		}
	}
}

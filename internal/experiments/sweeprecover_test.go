package experiments

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// registerPanicEntry adds a registry entry whose runner panics on one
// seed, for exercising sweep degradation end to end. Registered lazily
// from the test body (never init) so registry-census tests — which run
// earlier, in file order — see only the real entries.
var registerPanicEntry = sync.OnceFunc(func() {
	addEntry(Entry{
		ID:    "panictest",
		Title: "injected panicking runner (test only)",
		Tags:  []string{TagEngine, TagSweep},
		Run: func(c *RunCtx, seed int64) *Result {
			if seed == 2 {
				panic("injected: seed 2 is cursed")
			}
			s := &stats.Series{Name: "v"}
			s.Add(sim.Second, float64(seed))
			return &Result{Figure: "panictest", Series: []*stats.Series{s}}
		},
	})
})

func TestSweepSurvivesPanickingSeed(t *testing.T) {
	registerPanicEntry()
	res, err := Sweep("panictest", sweep.Config{Seeds: 4, Workers: 2, Base: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 1 || !strings.Contains(res.Failures[0], "seed 2") ||
		!strings.Contains(res.Failures[0], "cursed") {
		t.Fatalf("failures = %v, want one entry naming seed 2", res.Failures)
	}
	if len(res.Bands) != 1 {
		t.Fatalf("bands = %d, want 1", len(res.Bands))
	}
	p := res.Bands[0].Points[0]
	// Survivors are seeds 1, 3, 4.
	if p.N != 3 || p.Min != 1 || p.Max != 4 {
		t.Fatalf("failed seed leaked into the merge: %+v", p)
	}
}

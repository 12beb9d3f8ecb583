package sweep

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// synthRun is a deterministic per-seed pseudo-scenario: two series whose
// values depend only on the seed.
func synthRun(_ int, seed int64) []*stats.Series {
	a := &stats.Series{Name: "a"}
	b := &stats.Series{Name: "b"}
	for i := 0; i < 5; i++ {
		a.Add(sim.Time(i)*sim.Second, float64(seed*10+int64(i)))
		b.Add(sim.Time(i)*sim.Second, math.Sin(float64(seed)+float64(i)))
	}
	return []*stats.Series{a, b}
}

func bandsTSV(r *Result) string {
	out := ""
	for _, b := range r.Bands {
		out += b.Name + "\n" + b.TSV()
	}
	return out
}

// TestWorkerCountInvariance: the merged output must be byte-identical for
// any worker count.
func TestWorkerCountInvariance(t *testing.T) {
	base := Run(Config{Seeds: 7, Workers: 1, Base: 3}, synthRun)
	for _, w := range []int{2, 3, 7, 16} {
		got := Run(Config{Seeds: 7, Workers: w, Base: 3}, synthRun)
		if bandsTSV(got) != bandsTSV(base) {
			t.Fatalf("workers=%d merged output differs from workers=1", w)
		}
	}
}

func TestSeedAssignment(t *testing.T) {
	var mu sync.Mutex
	seen := map[int64]int{}
	Run(Config{Seeds: 9, Workers: 4, Base: 100}, func(w int, seed int64) []*stats.Series {
		mu.Lock()
		seen[seed]++
		mu.Unlock()
		return nil
	})
	if len(seen) != 9 {
		t.Fatalf("ran %d distinct seeds, want 9", len(seen))
	}
	for i := 0; i < 9; i++ {
		seed := int64(100 + i)
		if seen[seed] != 1 {
			t.Fatalf("seed %d ran %d times", seed, seen[seed])
		}
	}
}

func TestWorkerIndexesDistinct(t *testing.T) {
	var mu sync.Mutex
	workers := map[int]bool{}
	Run(Config{Seeds: 32, Workers: 4}, func(w int, seed int64) []*stats.Series {
		mu.Lock()
		workers[w] = true
		mu.Unlock()
		return nil
	})
	for w := range workers {
		if w < 0 || w >= 4 {
			t.Fatalf("worker index %d out of range", w)
		}
	}
}

func TestScalarsAndMeanSeedOrder(t *testing.T) {
	cfg := Config{Seeds: 5, Workers: 3, Base: 1}
	vals := Scalars(cfg, func(_ int, seed int64) float64 { return float64(seed * seed) })
	for i, v := range vals {
		seed := float64(i + 1)
		if v != seed*seed {
			t.Fatalf("vals[%d] = %v, want %v", i, v, seed*seed)
		}
	}
	if m := Mean(cfg, func(_ int, seed int64) float64 { return float64(seed) }); m != 3 {
		t.Fatalf("Mean = %v, want 3", m)
	}
}

func TestNormalizedDefaults(t *testing.T) {
	c := Config{}.Normalized()
	if c.Seeds != 1 || c.Workers != 1 || c.CI != 0.95 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	c = Config{Seeds: 2, Workers: 8}.Normalized()
	if c.Workers != 2 {
		t.Fatalf("workers not capped at seeds: %+v", c)
	}
	if got := (Config{Base: 5}).Normalized().Seed(2); got != 7 {
		t.Fatalf("Seed(2) = %d, want 7", got)
	}
}

func TestMergedBandContents(t *testing.T) {
	r := Run(Config{Seeds: 3, Workers: 2, Base: 0}, synthRun)
	if len(r.Bands) != 2 || r.Bands[0].Name != "a" || r.Bands[1].Name != "b" {
		t.Fatalf("bands wrong: %+v", r.Bands)
	}
	// Series "a" at x=0 over seeds 0,1,2 is 0,10,20.
	p := r.Bands[0].Points[0]
	if p.Mean != 10 || p.Min != 0 || p.Max != 20 || p.N != 3 {
		t.Fatalf("merged point = %+v", p)
	}
	if r.Seeds != 3 || r.Workers != 2 || r.CI != 0.95 {
		t.Fatalf("result metadata wrong: %+v", r)
	}
}

func TestRunManyWorkersRace(t *testing.T) {
	// Exercised under -race in CI: concurrent workers writing distinct
	// result slots must not conflict.
	r := Run(Config{Seeds: 64, Workers: 16}, func(w int, seed int64) []*stats.Series {
		s := &stats.Series{Name: fmt.Sprintf("only-%d", seed%4)}
		s.Add(0, float64(seed))
		return []*stats.Series{s}
	})
	total := 0
	for _, b := range r.Bands {
		for _, p := range b.Points {
			total += p.N
		}
	}
	if total != 64 {
		t.Fatalf("merged %d contributions, want 64", total)
	}
}

func TestPanickingSeedIsRecoveredAndExcluded(t *testing.T) {
	// One seed in the middle panics: the sweep must finish, report that
	// seed and merge the survivors as if the seed were never requested.
	mk := func(seed int64) []*stats.Series {
		s := &stats.Series{Name: "a"}
		s.Add(0, float64(seed))
		return []*stats.Series{s}
	}
	boom := func(worker int, seed int64) []*stats.Series {
		if seed == 3 {
			panic(fmt.Sprintf("injected failure for seed %d", seed))
		}
		return mk(seed)
	}
	for _, workers := range []int{1, 4} {
		r := Run(Config{Seeds: 5, Workers: workers, Base: 1}, boom)
		if len(r.Errors) != 1 {
			t.Fatalf("workers=%d: errors = %v, want exactly one", workers, r.Errors)
		}
		e := r.Errors[0]
		if e.Seed != 3 || e.Msg != "injected failure for seed 3" {
			t.Fatalf("workers=%d: wrong seed error: %+v", workers, e)
		}
		if len(r.Bands) != 1 {
			t.Fatalf("workers=%d: bands = %d, want 1", workers, len(r.Bands))
		}
		p := r.Bands[0].Points[0]
		// Survivors are seeds 1,2,4,5: mean 3, min 1, max 5, n 4.
		if p.N != 4 || p.Mean != 3 || p.Min != 1 || p.Max != 5 {
			t.Fatalf("workers=%d: failed seed leaked into merge: %+v", workers, p)
		}
	}
}

func TestAllSeedsPanicStillTerminates(t *testing.T) {
	r := Run(Config{Seeds: 3, Workers: 2}, func(w int, seed int64) []*stats.Series {
		panic("total failure")
	})
	if len(r.Errors) != 3 {
		t.Fatalf("errors = %d, want 3", len(r.Errors))
	}
	if len(r.Bands) != 0 {
		t.Fatalf("bands from failed seeds: %v", r.Bands)
	}
}

// Package sweep fans independent seeds of a stochastic scenario across
// worker goroutines and merges the per-seed results into mean/min/max and
// confidence-interval bands. Each simulation stays single-threaded by
// design; the parallelism is entirely across seeds, and per-worker state
// (a simulation arena) is reused from seed to seed so repeated runs skip
// scenario reconstruction.
//
// The merge iterates seeds in seed order regardless of which worker ran
// them, so the merged output is bit-for-bit independent of the worker
// count — the property the determinism tests pin down.
package sweep

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// Config controls a seed sweep.
type Config struct {
	Seeds   int     // number of independent seeds; < 1 means 1
	Workers int     // worker goroutines; < 1 means 1, capped at Seeds
	CI      float64 // confidence level for the merged bands; 0 means 0.95
	Base    int64   // first seed; seed i of the sweep is Base+i
	Check   bool    // enable run-level invariant checking in runners that support it
}

// SeedError records one seed whose run panicked. The sweep recovers,
// excludes the seed from the merged bands and carries on — one broken
// seed must not cost the other N-1.
type SeedError struct {
	Seed   int64
	Worker int
	Msg    string
}

func (e SeedError) Error() string {
	return fmt.Sprintf("seed %d (worker %d) panicked: %s", e.Seed, e.Worker, e.Msg)
}

// Normalized returns the config with defaults applied.
func (c Config) Normalized() Config {
	if c.Seeds < 1 {
		c.Seeds = 1
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.Workers > c.Seeds {
		c.Workers = c.Seeds
	}
	if c.CI == 0 {
		c.CI = 0.95
	}
	return c
}

// Seed returns the i-th seed of the sweep.
func (c Config) Seed(i int) int64 { return c.Base + int64(i) }

// Index returns the sweep index of a seed produced by Seed — the inverse
// mapping callers use to file per-seed results in seed order.
func (c Config) Index(seed int64) int { return int(seed - c.Base) }

// RunFunc produces one seed's series. worker identifies the executing
// worker (0..Workers-1) so implementations can reuse per-worker arenas; a
// RunFunc must be callable concurrently for distinct worker values.
type RunFunc func(worker int, seed int64) []*stats.Series

// Result is a merged sweep.
type Result struct {
	Bands   []*stats.Band
	Seeds   int
	Workers int
	CI      float64
	Errors  []SeedError // seeds that panicked, excluded from Bands
}

// Run executes fn for every seed across the configured workers and merges
// the per-seed series into bands. Seeds whose run panics are recovered,
// reported in Errors and excluded from the merge.
func Run(cfg Config, fn RunFunc) *Result {
	cfg = cfg.Normalized()
	runs, errs := RunRaw(cfg, fn)
	return &Result{
		Bands:   stats.MergeRuns(runs, cfg.CI),
		Seeds:   cfg.Seeds,
		Workers: cfg.Workers,
		CI:      cfg.CI,
		Errors:  errs,
	}
}

// RunRaw executes fn for every seed and returns the raw per-seed series
// in seed order, for callers that inspect each seed's run or merge the
// bands themselves: stats.MergeRuns over the result is exactly what Run
// returns.
//
// A seed whose fn panics is recovered: its slot stays nil (MergeRuns
// skips nil runs) and a SeedError is returned. The error list is in seed
// order, independent of worker scheduling.
func RunRaw(cfg Config, fn RunFunc) ([][]*stats.Series, []SeedError) {
	cfg = cfg.Normalized()
	runs := make([][]*stats.Series, cfg.Seeds)
	fails := make([]*SeedError, cfg.Seeds)
	forEach(cfg, func(worker, i int) {
		seed := cfg.Seed(i)
		defer func() {
			if r := recover(); r != nil {
				runs[i] = nil
				fails[i] = &SeedError{Seed: seed, Worker: worker, Msg: fmt.Sprint(r)}
			}
		}()
		runs[i] = fn(worker, seed)
	})
	var errs []SeedError
	for _, f := range fails {
		if f != nil {
			errs = append(errs, *f)
		}
	}
	return runs, errs
}

// Scalars evaluates a scalar metric for every seed and returns the values
// in seed order.
func Scalars(cfg Config, fn func(worker int, seed int64) float64) []float64 {
	cfg = cfg.Normalized()
	out := make([]float64, cfg.Seeds)
	forEach(cfg, func(worker, i int) { out[i] = fn(worker, cfg.Seed(i)) })
	return out
}

// Mean averages a scalar metric over the sweep's seeds. Summation is in
// seed order, so the value is independent of worker scheduling.
func Mean(cfg Config, fn func(worker int, seed int64) float64) float64 {
	vals := Scalars(cfg, fn)
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// forEach dispatches seed indices to workers. With one worker everything
// runs inline on the calling goroutine, which lets callers close over
// non-thread-safe state (e.g. a figure runner's own arena).
func forEach(cfg Config, do func(worker, i int)) {
	if cfg.Workers == 1 {
		for i := 0; i < cfg.Seeds; i++ {
			do(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= cfg.Seeds {
					return
				}
				do(worker, i)
			}
		}(w)
	}
	wg.Wait()
}

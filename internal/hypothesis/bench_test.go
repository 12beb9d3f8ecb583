package hypothesis

import (
	"testing"

	"repro/internal/experiments"
)

// BenchmarkPlainRun is the baseline for the judged-run overhead claim in
// PERFORMANCE.md: the clrfail preset, one seed, no invariant checker.
func BenchmarkPlainRun(b *testing.B) {
	ctx := experiments.NewRunCtx()
	for b.Loop() {
		if _, err := experiments.RunWith(ctx, "clrfail", 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJudgedRun runs the same workload through the full hypothesis
// pipeline — invariant checker armed, every committed expectation judged
// — so the delta against BenchmarkPlainRun is the end-to-end cost of
// judging.
func BenchmarkJudgedRun(b *testing.B) {
	h, ok := ByID("clrfail-reelection")
	if !ok {
		b.Fatal("suite hypothesis missing")
	}
	h.Seeds = SeedSet{Base: 1, Count: 1}
	for b.Loop() {
		v, err := Run(h, 1)
		if err != nil {
			b.Fatal(err)
		}
		if !v.Pass {
			b.Fatal("hypothesis failed mid-benchmark")
		}
	}
}

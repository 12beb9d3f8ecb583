package experiments

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/tfmcc"
)

// miniSession is a fast real-engine scenario used to pin down arena
// determinism: a TFMCC session to a handful of receivers over a lossy
// bottleneck, short enough to run many times in a unit test. It returns
// the metered per-second throughput series plus a counters series, so a
// byte-level comparison covers event timing, loss draws and feedback.
func miniSession(c *RunCtx, seed int64) *Result {
	defer c.begin("miniSession")()
	e := c.newEnv(seed)
	r1 := e.net.AddNode("r1")
	r2 := e.net.AddNode("r2")
	e.net.AddDuplex(r1, r2, 1*mbit, 10*sim.Millisecond, 20)
	snd := e.net.AddNode("src")
	e.net.AddDuplex(snd, r1, 0, sim.Millisecond, 0)
	sess := tfmcc.NewSession(e.net, snd, 1, 100, tfmcc.DefaultConfig(), e.rng)
	var m *stats.Meter
	for i := 0; i < 6; i++ {
		leaf := e.net.AddNode(fmt.Sprintf("leaf%d", i))
		down, _ := e.net.AddDuplex(r2, leaf, 0, sim.Time(2+i)*sim.Millisecond, 0)
		down.LossProb = 0.01
		rcv := sess.AddReceiver(leaf)
		if i == 0 {
			m = e.meterReceiver("rate", rcv)
		}
	}
	sess.Start()
	e.sch.RunUntil(8 * sim.Second)

	res := &Result{Figure: "mini", Title: "mini session"}
	res.Series = append(res.Series, m.Series)
	cnt := &stats.Series{Name: "counters"}
	cnt.Add(0, float64(sess.Sender.Rate()))
	cnt.Add(0, float64(e.sch.Processed()))
	for _, r := range sess.Receivers {
		st := r.Stats()
		cnt.Add(0, float64(st.PacketsRecv))
		cnt.Add(0, float64(st.Losses))
		cnt.Add(0, float64(st.ReportsSent))
	}
	res.Series = append(res.Series, cnt)
	return res
}

// TestArenaRunDeterministic: rerunning a scenario on a rewound arena must
// be byte-identical to running it on a fresh context — across repeated
// rewinds and across different seeds through the same arena.
func TestArenaRunDeterministic(t *testing.T) {
	warm := NewRunCtx()
	for _, seed := range []int64{1, 5, 1, 9, 5} {
		got := miniSession(warm, seed).TSV()
		want := miniSession(NewRunCtx(), seed).TSV()
		if got != want {
			t.Fatalf("seed %d: rewound arena run differs from fresh context", seed)
		}
	}
}

// TestArenaCrossScenarioReuse: reusing one context for different
// scenarios must stay correct (the arena is keyed per scenario).
func TestArenaCrossScenarioReuse(t *testing.T) {
	ctx := NewRunCtx()
	a1 := miniSession(ctx, 1).TSV()
	s1 := ctx.SessionThroughput(8, 3)
	a2 := miniSession(ctx, 1).TSV()
	s2 := ctx.SessionThroughput(8, 3)
	if a1 != a2 {
		t.Fatal("miniSession changed after interleaved scenario")
	}
	if s1 != s2 {
		t.Fatalf("SessionThroughput not reproducible on shared context: %v vs %v", s1, s2)
	}
}

// TestSweepWorkerInvariance: the merged sweep output must be
// byte-identical for -workers 1 and any larger worker count, even though
// each worker's arena sees a different seed subsequence.
func TestSweepWorkerInvariance(t *testing.T) {
	run := func(workers int) string {
		ctxs := make([]*RunCtx, workers)
		for i := range ctxs {
			ctxs[i] = NewRunCtx()
		}
		merged := sweep.Run(sweep.Config{Seeds: 6, Workers: workers, Base: 2},
			func(w int, seed int64) []*stats.Series {
				return miniSession(ctxs[w], seed).Series
			})
		out := ""
		for _, b := range merged.Bands {
			out += b.Name + "\n" + b.TSV()
		}
		return out
	}
	base := run(1)
	for _, w := range []int{2, 3, 6} {
		if got := run(w); got != base {
			t.Fatalf("workers=%d sweep output differs from workers=1", w)
		}
	}
}

// TestSweepRegisteredFigure exercises the public Sweep API end to end on
// an analytic figure (cheap) and checks the metadata and band columns.
func TestSweepRegisteredFigure(t *testing.T) {
	res, err := Sweep("17", sweep.Config{Seeds: 3, Workers: 2, Base: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Figure != "17" || res.Seeds != 3 || res.Workers != 2 || res.CI != 0.95 {
		t.Fatalf("sweep metadata wrong: %+v", res)
	}
	if len(res.Bands) == 0 || len(res.Bands[0].Points) == 0 {
		t.Fatal("sweep produced no bands")
	}
	// Figure 17 is deterministic in the seed, so the band must collapse:
	// min == mean == max and a zero-width CI at every point.
	for _, p := range res.Bands[0].Points {
		if p.N != 3 || p.Min != p.Mean || p.Max != p.Mean || p.Lo != p.Mean || p.Hi != p.Mean {
			t.Fatalf("seed-independent figure produced a non-degenerate band: %+v", p)
		}
	}
	tsv := res.TSV()
	if len(tsv) == 0 || tsv[:len("series\tx\tmean")] != "series\tx\tmean" {
		t.Fatalf("sweep TSV header wrong: %.60q", tsv)
	}
}

// TestSweepCheckedWorkers runs a registry sweep the way tfmccbench -check
// does — seeds fanned over two workers, each with an armed invariant
// checker — so the race detector sees the fan-out, the per-worker
// checkers and the harvest of violations and engine counters. The checked
// parallel sweep must stay clean and equal an unchecked serial one: same
// band TSV, same event count (checker ticks are not counted).
func TestSweepCheckedWorkers(t *testing.T) {
	const id = "clrfail"
	if e, ok := Lookup(id); !ok || e.Spec == nil {
		t.Fatalf("%s is not a Spec-backed entry", id)
	}
	checked, err := Sweep(id, sweep.Config{Seeds: 4, Workers: 2, Base: 1, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if checked.Workers != 2 {
		t.Fatalf("sweep ran on %d workers, want 2", checked.Workers)
	}
	if len(checked.Violations) != 0 || len(checked.Failures) != 0 {
		t.Fatalf("checked sweep: violations %v, failures %v", checked.Violations, checked.Failures)
	}
	serial, err := Sweep(id, sweep.Config{Seeds: 4, Workers: 1, Base: 1})
	if err != nil {
		t.Fatal(err)
	}
	if checked.TSV() != serial.TSV() {
		t.Fatal("checked 2-worker sweep TSV differs from unchecked serial sweep")
	}
	if checked.Engine.Events == 0 || checked.Engine.Events != serial.Engine.Events {
		t.Fatalf("events: checked 2-worker %d, unchecked serial %d",
			checked.Engine.Events, serial.Engine.Events)
	}
}

// TestSweepUnknownFigure mirrors Run's error contract.
func TestSweepUnknownFigure(t *testing.T) {
	if _, err := Sweep("999", sweep.Config{Seeds: 2}); err == nil {
		t.Fatal("unknown figure should error")
	}
}

// TestEngineStatsAccumulate: context stats must accumulate across runs
// and reset on demand.
func TestEngineStatsAccumulate(t *testing.T) {
	ctx := NewRunCtx()
	miniSession(ctx, 1)
	one := ctx.Stats()
	if one.Events == 0 || one.PacketsDelivered == 0 {
		t.Fatalf("no engine counters harvested: %+v", one)
	}
	miniSession(ctx, 1)
	two := ctx.Stats()
	if two.Events != 2*one.Events || two.PacketsDelivered != 2*one.PacketsDelivered {
		t.Fatalf("identical reruns should double the counters: %+v vs %+v", one, two)
	}
	ctx.ResetStats()
	if ctx.Stats() != (EngineStats{}) {
		t.Fatal("ResetStats left counters behind")
	}
}

// TestAnalyticRegistry: the engine-less figures must be flagged so
// benchmark reports can explain their zero event counts.
func TestAnalyticRegistry(t *testing.T) {
	for _, id := range []string{"1", "2", "3", "4", "5", "6", "7", "17"} {
		if !Analytic(id) {
			t.Fatalf("figure %s should be analytic", id)
		}
	}
	for _, id := range []string{"9", "12", "14", "15", "21"} {
		if Analytic(id) {
			t.Fatalf("figure %s wrongly marked analytic", id)
		}
	}
}

// TestSeedRangeFragmentsMergeRuns: running a figure's seed range as
// disjoint sub-ranges (each on its own arena) and merging the raw
// per-seed series with stats.MergeRuns reproduces the single full-range
// sweep bit for bit — seeds carry no state across arenas.
func TestSeedRangeFragmentsMergeRuns(t *testing.T) {
	runner := func(ctx *RunCtx) sweep.RunFunc {
		return func(_ int, seed int64) []*stats.Series {
			return miniSession(ctx, seed).Series
		}
	}
	full, _ := sweep.RunRaw(sweep.Config{Seeds: 5, Base: 1}, runner(NewRunCtx()))
	partA, _ := sweep.RunRaw(sweep.Config{Seeds: 3, Base: 1}, runner(NewRunCtx()))
	partB, _ := sweep.RunRaw(sweep.Config{Seeds: 2, Base: 4}, runner(NewRunCtx()))

	want := stats.MergeRuns(full, 0.95)
	got := stats.MergeRuns(append(partA, partB...), 0.95)
	if len(got) != len(want) {
		t.Fatalf("band count %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name || len(got[i].Points) != len(want[i].Points) {
			t.Fatalf("band %d shape differs", i)
		}
		for j := range want[i].Points {
			if got[i].Points[j] != want[i].Points[j] {
				t.Fatalf("band %q point %d: fragment merge %+v, full sweep %+v",
					want[i].Name, j, got[i].Points[j], want[i].Points[j])
			}
		}
	}
}

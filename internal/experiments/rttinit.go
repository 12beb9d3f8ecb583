package experiments

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

func init() {
	registerSpec("12", "Rate of initial RTT measurements (1000 receivers)", Figure12Spec, Figure12)
	register("13", "Responsiveness to changes in the RTT", Figure13)
}

// Figure12Spec declares the 1000-receiver RTT-measurement scenario: a
// modest dumbbell bottleneck (perfectly correlated loss), receiver tails
// with randomised 9..49 ms one-way delay, and a 2 s valid-RTT sampler.
func Figure12Spec() *scenario.Spec {
	return &scenario.Spec{
		Name:  "figure12",
		Title: "Rate of initial RTT measurements (1000 receivers)",
		Topology: scenario.Topology{Kind: scenario.Dumbbell,
			Core: scenario.LinkP{BW: 1 * mbit, Delay: 20 * sim.Millisecond, Queue: 30}},
		Pop: &scenario.Population{
			Count:  1000,
			Parent: scenario.AttachPoint(0),
			// Tail one-way delay 9..49 ms => link RTTs ~60..140 ms.
			Jitter: &scenario.Jitter{MinMs: 9, SpanMs: 41},
		},
		Steps: []scenario.Step{{Sample: &scenario.SampleSpec{
			Name: "receivers with valid RTT", What: scenario.SampleValidRTT, Every: 2 * sim.Second}}},
		Duration: 200 * sim.Second,
	}
}

// Figure12 tracks how many of 1000 receivers behind a single bottleneck
// (perfectly correlated loss — the worst case for RTT measurement,
// because every receiver keeps wanting to report) have obtained a valid
// RTT measurement over time. Link RTTs vary between 60 and 140 ms; the
// initial RTT is 500 ms.
func Figure12(c *RunCtx, seed int64) *Result {
	sc := c.runScenario(Figure12Spec(), seed)
	counts := sc.Samples[0]

	res := &Result{Figure: "12", Title: "Rate of initial RTT measurements (1000 receivers)"}
	res.Series = append(res.Series, counts)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"valid-RTT receivers after 50s: %.0f, 100s: %.0f, 200s: %.0f (paper: ~700 at 200s)",
		counts.MeanBetween(48*sim.Second, 52*sim.Second),
		counts.MeanBetween(98*sim.Second, 102*sim.Second),
		counts.MeanBetween(196*sim.Second, 200*sim.Second)))
	return res
}

// Figure13 measures how long TFMCC needs to find a receiver whose RTT
// suddenly increases, among n receivers with independent equal loss. The
// x axis is the instant of the RTT change; the y value the delay until
// that receiver becomes CLR.
func Figure13(c *RunCtx, seed int64) *Result {
	res := &Result{Figure: "13", Title: "Responsiveness to changes in the RTT"}
	changeTimes := []sim.Time{0, 10 * sim.Second, 20 * sim.Second, 40 * sim.Second, 80 * sim.Second}
	for _, n := range []int{40, 200} {
		s := &stats.Series{Name: fmt.Sprintf("%d receivers", n)}
		for _, tc := range changeTimes {
			// Average over a few seeds: a single run's suppression
			// lottery dominates otherwise.
			var sum float64
			const seeds = 3
			for k := int64(0); k < seeds; k++ {
				sum += rttChangeReaction(c, n, tc, seed+1000*k).Seconds()
			}
			s.Add(tc, sum/seeds)
		}
		res.Series = append(res.Series, s)
	}
	res.Notes = append(res.Notes,
		"y = delay (s) until the high-RTT receiver is selected as CLR",
		"1000-receiver variant omitted from the default run for time; see bench")
	return res
}

// rttStarSpec declares an equal-loss star of n receivers with 28 ms tail
// delays — the figure 13 substrate (the runner drives the clock itself).
func rttStarSpec(n int) *scenario.Spec {
	var steps []scenario.Step
	for i := 0; i < n; i++ {
		steps = append(steps, scenario.Step{Site: &scenario.SiteSpec{
			Parent: scenario.AttachPoint(0),
			Hops: []scenario.Hop{{
				Down: scenario.LinkP{Delay: 28 * sim.Millisecond, Loss: 0.02},
				Up:   scenario.LinkP{Delay: 28 * sim.Millisecond},
			}}}})
	}
	for i := 0; i < n; i++ {
		steps = append(steps, scenario.Step{Recv: &scenario.RecvSpec{At: scenario.Site(i)}})
	}
	return &scenario.Spec{
		Name:     fmt.Sprintf("figure13-n%d", n),
		Title:    "Responsiveness to changes in the RTT",
		Topology: scenario.Topology{Kind: scenario.Star},
		Steps:    steps,
	}
}

// rttChangeReaction builds a star of n receivers with equal independent
// loss, raises receiver 0's tail delay from 28 ms to 148 ms (one way) at
// changeAt via the runtime link-mutation API, and returns how long until
// it is selected CLR.
func rttChangeReaction(c *RunCtx, n int, changeAt sim.Time, seed int64) sim.Time {
	sc := mustScenario(scenario.Build(c.ScenarioEnv(seed+int64(n)), rttStarSpec(n)))
	sc.Start()
	sc.RunUntil(changeAt)
	sc.SiteLinks[0][0].SetDelay(148 * sim.Millisecond)
	// Watch for receiver 0 becoming CLR.
	sch := sc.Env.Sch
	deadline := changeAt + 200*sim.Second
	for sch.Now() < deadline {
		sc.RunUntil(sch.Now() + 100*sim.Millisecond)
		if sc.Sess.Sender.CLR() == 0 {
			return sch.Now() - changeAt
		}
	}
	return deadline - changeAt
}

package experiments

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"
)

func init() {
	registerSpec("18", "Competing TCP traffic on return paths", Figure18Spec, Figure18)
	registerSpec("19", "Lossy return paths", Figure19Spec, Figure19)
}

var fig18ReverseCounts = []int{0, 1, 2, 4}

// Figure18Spec declares four two-hop tail circuits, each with a forward
// reference TCP and 0/1/2/4 reverse TCP flows congesting the tail's
// return direction.
func Figure18Spec() *scenario.Spec {
	var steps []scenario.Step
	port := 10
	for i, revN := range fig18ReverseCounts {
		steps = append(steps,
			scenario.Step{Site: &scenario.SiteSpec{
				Parent: scenario.AttachPoint(0),
				Hops: []scenario.Hop{
					scenario.FastHop(),
					scenario.SymHop(scenario.LinkP{BW: 2 * mbit, Delay: 10 * sim.Millisecond, Queue: 40}),
				}}},
			scenario.Step{Recv: &scenario.RecvSpec{At: scenario.Site(i), Meter: scenario.MeterFirst(i, "TFMCC")}},
			scenario.Step{TCP: &scenario.TCPSpec{
				Name: fmt.Sprintf("TCP (%d)", revN), From: scenario.Core(0), To: scenario.Site(i),
				Port: simnet.Port(port), Meter: fmt.Sprintf("TCP (%d rev)", revN)}})
		port++
		// Reverse TCP flows: leaf -> tail direction.
		for k := 0; k < revN; k++ {
			steps = append(steps, scenario.Step{TCP: &scenario.TCPSpec{
				Name: fmt.Sprintf("rev%d-%d", i, k), From: scenario.Site(i), To: scenario.SiteMid(i),
				Port: simnet.Port(port)}})
			port++
		}
	}
	return &scenario.Spec{
		Name:  "figure18",
		Title: "Competing TCP traffic on return paths",
		Topology: scenario.Topology{Kind: scenario.Dumbbell,
			Core: scenario.LinkP{BW: 4 * mbit, Delay: 20 * sim.Millisecond, Queue: 60}},
		Steps:    steps,
		Duration: 120 * sim.Second,
	}
}

// Figure18 runs a TFMCC session to four receivers alongside four forward
// TCP flows, with 0, 1, 2 and 4 additional TCP flows on the *return*
// paths from the receivers. TFMCC (and, thanks to cumulative ACKs, TCP)
// should be essentially unaffected by moderate reverse congestion.
func Figure18(c *RunCtx, seed int64) *Result {
	sc := c.runScenario(Figure18Spec(), seed)
	mT := sc.Recvs[0].Meter

	res := &Result{Figure: "18", Title: "Competing TCP traffic on return paths"}
	res.Series = append(res.Series, mT.Series)
	for _, revN := range fig18ReverseCounts {
		res.Series = append(res.Series, sc.Flow(fmt.Sprintf("TCP (%d)", revN)).Meter.Series)
	}
	for _, revN := range fig18ReverseCounts {
		m := sc.Flow(fmt.Sprintf("TCP (%d)", revN)).Meter
		res.Notes = append(res.Notes, fmt.Sprintf(
			"forward TCP with %d reverse flows: %.0f Kbit/s (steady 40-120s)",
			revN, m.Series.MeanBetween(40*sim.Second, 120*sim.Second)))
	}
	res.Notes = append(res.Notes, fmt.Sprintf("TFMCC: %.0f Kbit/s",
		mT.Series.MeanBetween(40*sim.Second, 120*sim.Second)))
	return res
}

var fig19LossLevels = []float64{0, 0.10, 0.20, 0.30}

// Figure19Spec declares four tail circuits whose return (up) hops drop
// 0/10/20/30% of packets at random, each with a forward reference TCP.
func Figure19Spec() *scenario.Spec {
	var steps []scenario.Step
	for i, lp := range fig19LossLevels {
		steps = append(steps,
			scenario.Step{Site: &scenario.SiteSpec{
				Parent: scenario.AttachPoint(0),
				Hops: []scenario.Hop{
					scenario.FastHop(),
					{Down: scenario.LinkP{Delay: 10 * sim.Millisecond},
						Up: scenario.LinkP{Delay: 10 * sim.Millisecond, Loss: lp}},
				}}},
			scenario.Step{Recv: &scenario.RecvSpec{At: scenario.Site(i), Meter: scenario.MeterFirst(i, "TFMCC")}},
			scenario.Step{TCP: &scenario.TCPSpec{
				Name: fmt.Sprintf("tcp%d", i), From: scenario.Core(0), To: scenario.Site(i),
				Port: simnet.Port(10 + i), Meter: fmt.Sprintf("TCP (%d%% rev loss)", int(lp*100))}})
	}
	return &scenario.Spec{
		Name:  "figure19",
		Title: "Lossy return paths",
		Topology: scenario.Topology{Kind: scenario.Dumbbell,
			Core: scenario.LinkP{BW: 8 * mbit, Delay: 20 * sim.Millisecond, Queue: 80}},
		Steps:    steps,
		Duration: 120 * sim.Second,
	}
}

// Figure19 puts pure random loss of 0%, 10%, 20% and 30% on the receivers'
// return paths. TCP ACKs survive moderate loss (cumulative), but heavy
// reverse loss degrades TCP, while TFMCC is insensitive to lost receiver
// reports.
func Figure19(c *RunCtx, seed int64) *Result {
	sc := c.runScenario(Figure19Spec(), seed)
	mT := sc.Recvs[0].Meter

	res := &Result{Figure: "19", Title: "Lossy return paths"}
	res.Series = append(res.Series, mT.Series)
	for _, f := range sc.Flows {
		res.Series = append(res.Series, f.Meter.Series)
	}
	for i, f := range sc.Flows {
		res.Notes = append(res.Notes, fmt.Sprintf("TCP with %.0f%% reverse loss: %.0f Kbit/s",
			fig19LossLevels[i]*100, f.Meter.Series.MeanBetween(40*sim.Second, 120*sim.Second)))
	}
	res.Notes = append(res.Notes, fmt.Sprintf("TFMCC (reports cross the lossiest path): %.0f Kbit/s",
		mT.Series.MeanBetween(40*sim.Second, 120*sim.Second)))
	return res
}

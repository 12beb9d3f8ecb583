package experiments

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tfmcc"
)

func init() {
	registerSpec("11", "Responsiveness to changes in the loss rate", Figure11Spec, Figure11)
	registerSpec("20", "Responsiveness to network delay", Figure20Spec, Figure20)
}

// starSession builds the star topology used by the responsiveness
// figures: sender -- hub -- receiver_i, with per-receiver loss and delay
// on the tails (one-way delay = delay/2 each way is approximated by
// putting the whole delay on the downstream link and 1ms upstream).
type star struct {
	e     *env
	sess  *tfmcc.Session
	leafs []simnet.NodeID
	hub   simnet.NodeID
}

func buildStar(e *env, loss []float64, delay []sim.Time, bw float64, qlen int) *star {
	hub := e.net.AddNode("hub")
	snd := e.net.AddNode("tfmcc-src")
	e.net.AddDuplex(snd, hub, 0, sim.Millisecond, 0)
	sess := tfmcc.NewSession(e.net, snd, 1, 100, tfmcc.DefaultConfig(), e.rng)
	st := &star{e: e, sess: sess, hub: hub}
	for i := range loss {
		leaf := e.net.AddNode(fmt.Sprintf("leaf%d", i))
		down, _ := e.net.AddDuplex(hub, leaf, bw, delay[i], qlen)
		down.LossProb = loss[i]
		st.leafs = append(st.leafs, leaf)
	}
	return st
}

// Figure11 reproduces the join/leave experiment: four receivers with loss
// rates 0.1%, 0.5%, 2.5% and 12.5% (RTT 60 ms) join the session 50 s
// apart and later leave in reverse order. A TCP flow to each receiver
// runs throughout as the fairness reference.
func Figure11(c *RunCtx, seed int64) *Result {
	return joinLeaveExperiment(c, "11", "Responsiveness to changes in the loss rate",
		Figure11Spec(), seed)
}

// Figure20 is the same experiment with the loss rate held at 0.5% and the
// one-way tail delays set to 30/60/120/240 ms-equivalent RTTs, receivers
// joining in RTT order.
func Figure20(c *RunCtx, seed int64) *Result {
	return joinLeaveExperiment(c, "20", "Responsiveness to network delay",
		Figure20Spec(), seed)
}

// joinLeaveSpec declares the figure 11/20 churn script: per-receiver
// lossy star tails with one reference TCP each; receiver 0 stays for the
// whole run, the rest join 50 s apart and leave in reverse order.
func joinLeaveSpec(name, title string, loss []float64, delay []sim.Time) *scenario.Spec {
	var steps []scenario.Step
	for i := range loss {
		steps = append(steps, scenario.Step{Site: &scenario.SiteSpec{
			Parent: scenario.AttachPoint(0),
			Hops: []scenario.Hop{{
				Down: scenario.LinkP{Delay: delay[i], Loss: loss[i]},
				Up:   scenario.LinkP{Delay: delay[i]},
			}}}})
	}
	for i := range loss {
		steps = append(steps, scenario.Step{TCP: &scenario.TCPSpec{
			Name: fmt.Sprintf("tcp%d", i), From: scenario.AttachPoint(0), To: scenario.Site(i),
			Port: simnet.Port(10 + i), Meter: fmt.Sprintf("TCP %d", i+1)}})
	}
	n := len(loss)
	for i := 0; i < n; i++ {
		r := &scenario.RecvSpec{At: scenario.Site(i), Meter: "TFMCC"}
		if i > 0 {
			r.JoinAt = sim.Time(50+50*i) * sim.Second
			r.LeaveAt = sim.Time(250+50*(n-1-i)) * sim.Second
		}
		steps = append(steps, scenario.Step{Recv: r})
	}
	return &scenario.Spec{
		Name:     name,
		Title:    title,
		Topology: scenario.Topology{Kind: scenario.Star},
		Steps:    steps,
		Duration: 400 * sim.Second,
	}
}

// Figure11Spec declares the loss-rate churn scenario.
func Figure11Spec() *scenario.Spec {
	return joinLeaveSpec("figure11", "Responsiveness to changes in the loss rate",
		[]float64{0.001, 0.005, 0.025, 0.125},
		[]sim.Time{28 * sim.Millisecond, 28 * sim.Millisecond, 28 * sim.Millisecond, 28 * sim.Millisecond})
}

// Figure20Spec declares the delay churn scenario.
func Figure20Spec() *scenario.Spec {
	return joinLeaveSpec("figure20", "Responsiveness to network delay",
		[]float64{0.005, 0.005, 0.005, 0.005},
		[]sim.Time{13 * sim.Millisecond, 28 * sim.Millisecond, 58 * sim.Millisecond, 118 * sim.Millisecond})
}

func joinLeaveExperiment(c *RunCtx, fig, title string, spec *scenario.Spec, seed int64) *Result {
	sc := c.runScenario(spec, seed)

	res := &Result{Figure: fig, Title: title}
	for _, f := range sc.Flows {
		res.Series = append(res.Series, f.Meter.Series)
	}
	// The TFMCC rate as observed at the always-present receiver 0.
	res.Series = append(res.Series, sc.Recvs[0].Meter.Series)
	// Shape notes: mean TFMCC vs mean of the worst-receiver TCP in each
	// phase where that receiver is the CLR.
	phases := []struct {
		name     string
		from, to sim.Time
		tcpIdx   int
	}{
		{"only r0", 40 * sim.Second, 100 * sim.Second, 0},
		{"r0-r1", 120 * sim.Second, 150 * sim.Second, 1},
		{"r0-r2", 170 * sim.Second, 200 * sim.Second, 2},
		{"all", 220 * sim.Second, 250 * sim.Second, 3},
		{"after leaves", 370 * sim.Second, 400 * sim.Second, 0},
	}
	for _, ph := range phases {
		tf := sc.Recvs[0].Meter.Series.MeanBetween(ph.from, ph.to)
		tcp := sc.Flows[ph.tcpIdx].Meter.Series.MeanBetween(ph.from, ph.to)
		ratio := 0.0
		if tcp > 0 {
			ratio = tf / tcp
		}
		res.Notes = append(res.Notes, fmt.Sprintf(
			"phase %-12s TFMCC=%7.0f Kbit/s, limiting TCP=%7.0f Kbit/s, ratio=%.2f",
			ph.name, tf, tcp, ratio))
	}
	return res
}

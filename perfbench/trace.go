package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// layerCounts are the per-layer counters of one traced seed run (or their
// sum over a unit's seeds; peaks take the maximum).
type layerCounts struct {
	batches                         uint64
	pendingPeak, ringPeak, livePeak int64
	sent, delivered, queueDrops     int64
	unreachable                     int64
	recvCalls, recvNS               int64
	reports, reelections            int64
	tcpCalls                        int64
}

func (a *layerCounts) add(b layerCounts) {
	a.batches += b.batches
	a.pendingPeak = max(a.pendingPeak, b.pendingPeak)
	a.ringPeak = max(a.ringPeak, b.ringPeak)
	a.livePeak = max(a.livePeak, b.livePeak)
	a.sent += b.sent
	a.delivered += b.delivered
	a.queueDrops += b.queueDrops
	a.unreachable += b.unreachable
	a.recvCalls += b.recvCalls
	a.recvNS += b.recvNS
	a.reports += b.reports
	a.reelections += b.reelections
	a.tcpCalls += b.tcpCalls
}

// sampleEvery is the simulated-time slice a traced run advances between
// samples of the scheduler and network high-water marks. Slicing RunUntil
// adds no events and leaves the dispatch order unchanged.
const sampleEvery = 100 * sim.Millisecond

// probe traces one scenario run from outside the program: it times every
// TFMCC receiver's Recv through a wrapper bound with Network.Bind (the
// wrapper calls the same handler, so dispatch is unchanged) and samples
// the scheduler and network between RunUntil slices.
type probe struct {
	sc      *scenario.Scenario
	nodes   []simnet.NodeID // node of each receiver slot
	wrapped []bool
	c       layerCounts
}

func newProbe(sc *scenario.Scenario) (*probe, error) {
	nodes, err := receiverNodes(sc)
	if err != nil {
		return nil, err
	}
	p := &probe{sc: sc, nodes: nodes, wrapped: make([]bool, len(nodes))}
	p.sample()
	return p, nil
}

// timedRecv times one receiver's Recv.
type timedRecv struct {
	h simnet.Handler
	c *layerCounts
}

func (t *timedRecv) Recv(pkt *simnet.Packet) {
	t0 := time.Now()
	t.h.Recv(pkt)
	t.c.recvNS += int64(time.Since(t0))
	t.c.recvCalls++
}

// sample wraps receivers that have joined since the last sample and
// raises the high-water marks.
func (p *probe) sample() {
	sc := p.sc
	for i, slot := range sc.Recvs {
		if p.wrapped[i] || slot.R == nil {
			continue
		}
		if h, ok := slot.R.(simnet.Handler); ok && p.nodes[i] >= 0 {
			sc.Env.Net.Bind(simnet.Addr{Node: p.nodes[i], Port: sc.Sess.Port}, &timedRecv{h: h, c: &p.c})
		}
		p.wrapped[i] = true
	}
	net := sc.Env.Net
	p.c.pendingPeak = max(p.c.pendingPeak, int64(sc.Env.Sch.Pending()))
	p.c.ringPeak = max(p.c.ringPeak, net.RingHeld())
	p.c.livePeak = max(p.c.livePeak, net.LivePackets())
}

// run advances the clock to end in sampled slices. Receivers that join
// mid-run are timed from the end of the slice they join in.
func (p *probe) run(end sim.Time) {
	sch := p.sc.Env.Sch
	for t := sch.Now() + sampleEvery; ; t += sampleEvery {
		p.sc.RunUntil(min(t, end))
		p.sample()
		if t >= end {
			return
		}
	}
}

// counts finishes the run's counters from the network and protocol state.
func (p *probe) counts() layerCounts {
	sc, c := p.sc, p.c
	net := sc.Env.Net
	c.batches = sc.Env.Sch.Batches()
	// TCP endpoints sit alone on their flow's -src and -dst nodes, so the
	// packets links deliver there are exactly the TCP handlers' calls.
	tcpNode := map[simnet.NodeID]bool{}
	names := map[string]bool{}
	for _, f := range sc.Flows {
		if f.TCP != nil {
			names[f.Name+"-src"], names[f.Name+"-dst"] = true, true
		}
	}
	for id := 0; id < net.NumNodes() && len(names) > 0; id++ {
		if names[net.NodeName(simnet.NodeID(id))] {
			tcpNode[simnet.NodeID(id)] = true
		}
	}
	for _, l := range net.Links() {
		c.sent += l.Stats.Sent
		c.delivered += l.Stats.Deliver
		c.queueDrops += l.Stats.DropQ
		if tcpNode[l.To] {
			c.tcpCalls += l.Stats.Deliver
		}
	}
	c.unreachable = net.Faults().Unreachable
	for _, slot := range sc.Recvs {
		if slot.R != nil {
			c.reports += slot.R.Stats().ReportsSent
		}
	}
	c.reelections = sc.Sess.Sender.Reelections
	return c
}

// receiverNodes resolves the node of every receiver slot from the spec:
// population receivers first, each on its own site, then Recv steps in
// order. Cohort slots resolve to -1 and are not timed.
func receiverNodes(sc *scenario.Scenario) ([]simnet.NodeID, error) {
	var out []simnet.NodeID
	if p := sc.Spec.Pop; p != nil {
		if p.Direct {
			return nil, fmt.Errorf("scenario %s: tracing a direct population is not supported", sc.Spec.Name)
		}
		n := p.Count
		if p.PerAttach && n == 0 {
			n = len(sc.Topo.Attach)
		}
		out = append(out, sc.SiteLeaf[:n]...)
	}
	for _, st := range sc.Spec.Steps {
		if st.Recv == nil {
			continue
		}
		id, err := resolve(sc, st.Recv.At)
		if err != nil {
			return nil, err
		}
		out = append(out, id)
	}
	if sc.Spec.Cohort != nil {
		out = append(out, -1)
	}
	if len(out) != len(sc.Recvs) {
		return nil, fmt.Errorf("scenario %s: resolved %d receiver nodes for %d slots", sc.Spec.Name, len(out), len(sc.Recvs))
	}
	return out, nil
}

func resolve(sc *scenario.Scenario, r scenario.NodeRef) (simnet.NodeID, error) {
	var ids []simnet.NodeID
	switch r.Kind {
	case scenario.RefCore:
		ids = sc.Topo.Nodes
	case scenario.RefAttach:
		ids = sc.Topo.Attach
	case scenario.RefSite:
		ids = sc.SiteLeaf
	case scenario.RefSiteMid:
		ids = sc.SiteMid
	}
	if r.Index < 0 || r.Index >= len(ids) || ids[r.Index] < 0 {
		return 0, fmt.Errorf("scenario %s: cannot resolve receiver node %+v", sc.Spec.Name, r)
	}
	return ids[r.Index], nil
}

// layerOf maps a package path of this module to its benchmark layer.
func layerOf(pkg string) (string, bool) {
	rest, ok := strings.CutPrefix(pkg, "repro/internal/")
	if !ok {
		if pkg == "main" || strings.HasPrefix(pkg, "repro/") {
			return "bench", true // this benchmark, its trace wrappers included
		}
		return "", false
	}
	switch rest {
	case "sim", "simnet", "tcpsim", "scenario":
		return rest, true
	case "tfmcc", "feedback", "lossrate", "rtt", "tcpmodel":
		return "tfmcc", true
	case "stats", "invariant", "trace":
		return "stats", true
	case "sweep", "experiments":
		return "sweep", true
	}
	return "other", true
}

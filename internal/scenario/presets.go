package scenario

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/tfmcc"
)

// Preset is a named, registrable scenario: the experiments registry
// turns each into an entry with a generic runner so tfmccbench measures
// and gates it like any figure, and tfmccsim runs it via -scenario.
type Preset struct {
	ID    string
	Title string
	Make  func() *Spec
}

// Presets enumerates the built-in scenario presets, each probing a TFMCC
// behaviour no paper figure isolates. IDs are stable; tools list them
// after the numeric figures.
func Presets() []Preset {
	return []Preset{
		{ID: "chainloss", Title: "Multi-hop lossy chain with mid-path cross traffic", Make: ChainLoss},
		{ID: "clrfail", Title: "CLR crash, silence halving and re-election", Make: CLRFail},
		{ID: "cohort16", Title: "Cohort of 16 receivers in the figure 9 setting", Make: CohortFig9(16)},
		{ID: "cohort64", Title: "Cohort of 64 receivers in the figure 9 setting", Make: CohortFig9(64)},
		{ID: "cohort256", Title: "Cohort of 256 receivers in the figure 9 setting", Make: CohortFig9(256)},
		{ID: "corruptfb", Title: "Corrupted and reordered feedback path", Make: CorruptFB},
		{ID: "deeptree", Title: "Deep binary-tree fan-out with lossy interior", Make: DeepTree},
		{ID: "degrade", Title: "Mid-run bottleneck degradation and recovery", Make: Degrade},
		{ID: "flashcrowd", Title: "Flash-crowd join burst", Make: FlashCrowd},
		{ID: "massleave", Title: "Mass leave including the CLR", Make: MassLeave},
		{ID: "partition", Title: "Core partition and heal", Make: Partition},
		{ID: "tcpburst", Title: "Competing TCP burst over CBR background", Make: TCPBurst},
		{ID: "wireless", Title: "Lossy-edge (wireless-like) receivers on a transit-stub", Make: Wireless},
	}
}

// FaultSessionConfig is the session config the fault presets (and the
// chaos schedule generator) share: the default parameter set plus the
// section 5 no-feedback failure mode, so total feedback silence degrades
// the rate instead of freezing it.
func FaultSessionConfig() *tfmcc.Config {
	cfg := tfmcc.DefaultConfig()
	cfg.HalveOnSilence = true
	return &cfg
}

// CLRFail puts eight receivers on a star with the last one behind a much
// lossier edge — the CLR — and crashes it at t=60s without a Leave
// report. The sender must ride out CLRTimeoutRounds of silence, halve on
// the report-free rounds that follow (section 5), re-elect a survivor
// and ramp back up; the fine-grained sender-rate sample makes each phase
// visible in the TSV.
func CLRFail() *Spec {
	var steps []Step
	const n = 8
	for i := 0; i < n; i++ {
		loss := 0.002
		if i == n-1 {
			loss = 0.05 // the CLR-to-be
		}
		steps = append(steps, Step{Site: &SiteSpec{
			Parent: AttachPoint(0),
			Hops: []Hop{{
				Down: LinkP{Delay: 28 * sim.Millisecond, Loss: loss},
				Up:   LinkP{Delay: 28 * sim.Millisecond},
			}}}})
	}
	for i := 0; i < n; i++ {
		steps = append(steps, Step{Recv: &RecvSpec{At: Site(i), Meter: MeterFirst(i, "TFMCC")}})
	}
	steps = append(steps,
		Step{Sample: &SampleSpec{Name: "sender rate", What: SampleSenderRate, Every: 500 * sim.Millisecond}},
		Step{Sample: &SampleSpec{Name: "group members", What: SampleMembers}})
	return &Spec{
		Name:     "clrfail",
		Title:    "CLR crash, silence halving and re-election",
		Topology: Topology{Kind: Star},
		Session:  Session{Cfg: FaultSessionConfig()},
		Steps:    steps,
		Events: []Event{
			CrashEvent(60*sim.Second, n-1),
		},
		Duration: 120 * sim.Second,
	}
}

// Partition severs the dumbbell core in both directions from t=60s to
// t=90s: data becomes counted Unreachable/DropDown losses, the CLR times
// out, silence halves the rate towards the floor, and after the heal the
// receiver's reports re-elect it and the rate recovers. A mid-path TCP
// rides only the left core node so the healed route re-derivation is
// also exercised by unicast.
func Partition() *Spec {
	steps := []Step{
		{Site: &SiteSpec{Parent: AttachPoint(0), Hops: []Hop{{
			Down: LinkP{Delay: 10 * sim.Millisecond, Loss: 0.002},
			Up:   LinkP{Delay: 10 * sim.Millisecond},
		}}}},
		{Recv: &RecvSpec{At: Site(0), Meter: "TFMCC"}},
		{TCP: &TCPSpec{Name: "tcp", From: Core(0), To: Core(1), Port: 10, Meter: "TCP"}},
		{Sample: &SampleSpec{Name: "sender rate", What: SampleSenderRate, Every: 500 * sim.Millisecond}},
	}
	return &Spec{
		Name:  "partition",
		Title: "Core partition and heal",
		Topology: Topology{Kind: Dumbbell,
			Core: LinkP{BW: 4 * 125000, Delay: 20 * sim.Millisecond, Queue: 60}},
		Session: Session{Cfg: FaultSessionConfig()},
		Steps:   steps,
		Events: []Event{
			PartitionEvent(60*sim.Second, DuplexRefs(CoreLink(0))...),
			HealEvent(90*sim.Second, DuplexRefs(CoreLink(0))...),
		},
		Duration: 180 * sim.Second,
	}
}

// CorruptFB impairs the CLR's feedback path from t=60s to t=120s:
// 30% of its upstream packets are corrupted away (checksum-drop model),
// 10% duplicated and 20% reordered by up to four link delays. TFMCC must
// tolerate the mangled feedback stream — surviving reports hold the CLR,
// duplicates and stragglers are absorbed or discarded — without the
// rate collapsing or running away.
func CorruptFB() *Spec {
	steps := []Step{
		{Site: &SiteSpec{Parent: AttachPoint(0), Hops: []Hop{{
			Down: LinkP{Delay: 28 * sim.Millisecond, Loss: 0.02},
			Up:   LinkP{Delay: 28 * sim.Millisecond},
		}}}},
		{Site: &SiteSpec{Parent: AttachPoint(0), Hops: []Hop{{
			Down: LinkP{Delay: 28 * sim.Millisecond, Loss: 0.002},
			Up:   LinkP{Delay: 28 * sim.Millisecond},
		}}}},
		{Recv: &RecvSpec{At: Site(0), Meter: "TFMCC (CLR)"}},
		{Recv: &RecvSpec{At: Site(1)}},
		{Sample: &SampleSpec{Name: "sender rate", What: SampleSenderRate}},
	}
	return &Spec{
		Name:     "corruptfb",
		Title:    "Corrupted and reordered feedback path",
		Topology: Topology{Kind: Star},
		Session:  Session{Cfg: FaultSessionConfig()},
		Steps:    steps,
		Events: []Event{
			ImpairEvent(60*sim.Second, Impair{
				Link: SiteLink(0, 0, true), Corrupt: 0.3, Duplicate: 0.1, Reorder: 0.2}),
			ImpairEvent(120*sim.Second, Impair{Link: SiteLink(0, 0, true)}),
		},
		Duration: 180 * sim.Second,
	}
}

// DeepTree spans a depth-6 binary distribution tree (64 leaves) whose
// interior links share capacity and drop at random, so losses high in
// the tree are correlated across whole subtrees — the section 3
// structure at protocol level, far deeper than any figure topology.
func DeepTree() *Spec {
	return &Spec{
		Name:  "deeptree",
		Title: "Deep binary-tree fan-out with lossy interior",
		Topology: Topology{Kind: Tree, Fanout: 2, Depth: 6,
			Core: LinkP{BW: 20 * 125000, Delay: 5 * sim.Millisecond, Loss: 0.001, Queue: 50}},
		Pop: &Population{PerAttach: true, Direct: true, Meter: "TFMCC (leaf 0)"},
		Steps: []Step{
			{Sample: &SampleSpec{Name: "sender rate", What: SampleSenderRate}},
		},
		Duration: 120 * sim.Second,
	}
}

// Degrade halves the dumbbell bottleneck mid-run, then quadruples its
// delay, then restores both — the runtime link-mutation path end to end.
// TFMCC must track each regime shift against three competing TCPs.
func Degrade() *Spec {
	var steps []Step
	steps = append(steps,
		Step{Site: &SiteSpec{Parent: AttachPoint(0), Hops: []Hop{FastHop()}}},
		Step{Recv: &RecvSpec{At: Site(0), Meter: "TFMCC"}})
	for i := 0; i < 3; i++ {
		n := fmt.Sprintf("tcp%d", i)
		steps = append(steps, Step{TCP: &TCPSpec{Name: n, From: Core(0), To: Core(1), Port: 10 + Port(i), Meter: n}})
	}
	return &Spec{
		Name:  "degrade",
		Title: "Mid-run bottleneck degradation and recovery",
		Topology: Topology{Kind: Dumbbell,
			Core: LinkP{BW: 8 * 125000, Delay: 20 * sim.Millisecond, Queue: 80}},
		Steps: steps,
		Events: []Event{
			SetBWEvent(60*sim.Second, CoreLink(0), 2*125000),
			SetDelayEvent(120*sim.Second, CoreLink(0), 80*sim.Millisecond),
			SetDelayEvent(120*sim.Second, LinkRef{Site: -1, Hop: 0, Up: true}, 80*sim.Millisecond),
			SetBWEvent(180*sim.Second, CoreLink(0), 8*125000),
			SetDelayEvent(180*sim.Second, CoreLink(0), 20*sim.Millisecond),
			SetDelayEvent(180*sim.Second, LinkRef{Site: -1, Hop: 0, Up: true}, 20*sim.Millisecond),
		},
		Duration: 240 * sim.Second,
	}
}

// FlashCrowd starts a two-member session and floods it with 30 more
// receivers joining within ten seconds — the feedback-suppression and
// RTT-initialisation stress the responsiveness figures only approach
// gradually.
func FlashCrowd() *Spec {
	var steps []Step
	const n = 32
	for i := 0; i < n; i++ {
		steps = append(steps, Step{Site: &SiteSpec{
			Parent: AttachPoint(0),
			Hops: []Hop{{
				Down: LinkP{Delay: 28 * sim.Millisecond, Loss: 0.005},
				Up:   LinkP{Delay: 28 * sim.Millisecond},
			}}}})
	}
	for i := 0; i < n; i++ {
		r := &RecvSpec{At: Site(i), Meter: MeterFirst(i, "TFMCC")}
		if i >= 2 {
			// 30 receivers join spread over t in [20s, 30s).
			r.JoinAt = 20*sim.Second + sim.Time(i-2)*333*sim.Millisecond
		}
		steps = append(steps, Step{Recv: r})
	}
	steps = append(steps, Step{Sample: &SampleSpec{Name: "group members", What: SampleMembers}})
	return &Spec{
		Name:     "flashcrowd",
		Title:    "Flash-crowd join burst",
		Topology: Topology{Kind: Star},
		Steps:    steps,
		Duration: 120 * sim.Second,
	}
}

// MassLeave joins 32 receivers — the last one behind a much lossier
// edge, so it becomes the CLR — then has 24 of them, including the CLR,
// leave within [60s, 70s). The sender must re-select a CLR and the rate
// must recover to the survivors' fair share.
func MassLeave() *Spec {
	var steps []Step
	const n = 32
	for i := 0; i < n; i++ {
		loss := 0.002
		if i == n-1 {
			loss = 0.05 // the current-limited receiver everyone loses
		}
		steps = append(steps, Step{Site: &SiteSpec{
			Parent: AttachPoint(0),
			Hops: []Hop{{
				Down: LinkP{Delay: 28 * sim.Millisecond, Loss: loss},
				Up:   LinkP{Delay: 28 * sim.Millisecond},
			}}}})
	}
	for i := 0; i < n; i++ {
		r := &RecvSpec{At: Site(i), Meter: MeterFirst(i, "TFMCC")}
		if i >= 8 {
			// 24 receivers (8..31, incl. the lossy CLR) leave over 10 s.
			r.LeaveAt = 60*sim.Second + sim.Time(i-8)*416*sim.Millisecond
		}
		steps = append(steps, Step{Recv: r})
	}
	steps = append(steps,
		Step{Sample: &SampleSpec{Name: "group members", What: SampleMembers}},
		Step{Sample: &SampleSpec{Name: "sender rate", What: SampleSenderRate}})
	return &Spec{
		Name:     "massleave",
		Title:    "Mass leave including the CLR",
		Topology: Topology{Kind: Star},
		Steps:    steps,
		Duration: 120 * sim.Second,
	}
}

// Wireless places twelve receivers behind high-loss "wireless" edges of
// a three-transit transit-stub topology, loss cycling 1-10% per edge,
// with one wired reference TCP. TFMCC must track the minimum calculated
// rate across heterogeneous noisy paths without collapsing.
func Wireless() *Spec {
	lossCycle := []float64{0.01, 0.03, 0.05, 0.10}
	var steps []Step
	const n = 12
	for i := 0; i < n; i++ {
		steps = append(steps, Step{Site: &SiteSpec{
			Parent: AttachPoint(i % 6),
			Hops: []Hop{{
				Down: LinkP{Delay: 10 * sim.Millisecond, Loss: lossCycle[i%len(lossCycle)]},
				Up:   LinkP{Delay: 10 * sim.Millisecond, Loss: lossCycle[i%len(lossCycle)] / 2},
			}}}})
	}
	for i := 0; i < n; i++ {
		steps = append(steps, Step{Recv: &RecvSpec{At: Site(i), Meter: MeterFirst(i, "TFMCC (wireless)")}})
	}
	steps = append(steps, Step{TCP: &TCPSpec{
		Name: "tcp-wired", From: Core(0), To: AttachPoint(5), Port: 10, Meter: "TCP (wired)"}})
	return &Spec{
		Name:  "wireless",
		Title: "Lossy-edge (wireless-like) receivers on a transit-stub",
		Topology: Topology{Kind: TransitStub, Transit: 3, Stubs: 2,
			Core:     LinkP{BW: 10 * 125000, Delay: 10 * sim.Millisecond, Queue: 60},
			StubLink: LinkP{BW: 4 * 125000, Delay: 5 * sim.Millisecond, Queue: 40}},
		Steps:    steps,
		Duration: 120 * sim.Second,
	}
}

// TCPBurst runs TFMCC over a 4 Mbit/s dumbbell shared with a steady
// 500 Kbit/s CBR stream, then fires a burst of six TCP flows from t=60s
// to t=120s. TFMCC must back off for the burst and reclaim the capacity
// after it stops.
func TCPBurst() *Spec {
	steps := []Step{
		{Site: &SiteSpec{Parent: AttachPoint(0), Hops: []Hop{FastHop()}}},
		{Recv: &RecvSpec{At: Site(0), Meter: "TFMCC"}},
		{CBR: &CBRSpec{Name: "cbr", From: Core(0), To: Core(1), Port: 9,
			Rate: 500 * 125, Size: 1000, Meter: "CBR background"}},
	}
	var burst []string
	for i := 0; i < 6; i++ {
		n := fmt.Sprintf("burst%d", i)
		steps = append(steps, Step{TCP: &TCPSpec{
			Name: n, From: Core(0), To: Core(1), Port: 10 + Port(i), Meter: n,
			StartAt: 60 * sim.Second, StopAt: 120 * sim.Second}})
		burst = append(burst, n)
	}
	steps = append(steps, Step{Agg: &AggSpec{Name: "TCP burst (n=6)", Flows: burst}})
	return &Spec{
		Name:  "tcpburst",
		Title: "Competing TCP burst over CBR background",
		Topology: Topology{Kind: Dumbbell,
			Core: LinkP{BW: 4 * 125000, Delay: 20 * sim.Millisecond, Queue: 60}},
		Steps:    steps,
		Duration: 180 * sim.Second,
	}
}

// ChainLoss sends TFMCC over a six-hop chain whose every link drops a
// little at random (accumulated path loss ~1.2%), with a TCP flow
// crossing only the middle segment — a long-RTT, distributed-loss path
// no figure covers.
func ChainLoss() *Spec {
	steps := []Step{
		{Site: &SiteSpec{Parent: AttachPoint(0), Hops: []Hop{FastHop()}}},
		{Recv: &RecvSpec{At: Site(0), Meter: "TFMCC (end)"}},
		{Recv: &RecvSpec{At: Core(3), Meter: "TFMCC (mid)"}},
		{TCP: &TCPSpec{Name: "tcp-mid", From: Core(2), To: Core(4), Port: 10, Meter: "TCP (mid-path)"}},
	}
	return &Spec{
		Name:  "chainloss",
		Title: "Multi-hop lossy chain with mid-path cross traffic",
		Topology: Topology{Kind: Chain, Hops: 6,
			Core: LinkP{BW: 4 * 125000, Delay: 10 * sim.Millisecond, Loss: 0.002, Queue: 40}},
		Steps:    steps,
		Duration: 120 * sim.Second,
	}
}

// CohortFig9 returns a maker for the cohort convergence scenarios: the
// figure 9 setting — an 8 Mbit/s dumbbell shared with 15 TCP flows —
// with the explicit receiver replaced by one analytic cohort of n
// members behind a fast access hop. The cohortconv figure compares each
// against its explicit-population twin; the committed hypothesis suite
// bands the sampled sender rate.
func CohortFig9(n int) func() *Spec {
	return func() *Spec {
		var steps []Step
		for i := 0; i < 15; i++ {
			name := fmt.Sprintf("tcp%d", i)
			steps = append(steps, Step{TCP: &TCPSpec{
				Name: name, From: Core(0), To: Core(1),
				Port: 10 + Port(i), Meter: MeterFirst(i, "TCP 1")}})
		}
		steps = append(steps, Step{Sample: &SampleSpec{Name: "sender rate", What: SampleSenderRate}})
		hop := FastHop()
		return &Spec{
			Name:  fmt.Sprintf("cohort%d", n),
			Title: fmt.Sprintf("Cohort of %d receivers in the figure 9 setting", n),
			Topology: Topology{Kind: Dumbbell,
				Core: LinkP{BW: 8 * 125000, Delay: 20 * sim.Millisecond, Queue: 80}},
			Cohort:   &CohortSpec{Size: n, At: AttachPoint(0), Hop: &hop, Meter: "TFMCC"},
			Steps:    steps,
			Duration: 200 * sim.Second,
		}
	}
}

// MeterFirst returns name for index 0 and "" (unmetered) otherwise —
// the "meter the first receiver" convention most specs use.
func MeterFirst(i int, name string) string {
	if i == 0 {
		return name
	}
	return ""
}

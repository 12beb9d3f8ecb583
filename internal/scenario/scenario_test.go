package scenario

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/simnet"
)

func testEnv(seed int64) Env {
	sch := sim.NewScheduler()
	net := simnet.New(sch, sim.NewRand(seed))
	return Env{Sch: sch, Net: net, Rng: sim.NewRand(seed + 7)}
}

func mustLink(t *testing.T, sc *Scenario, ref LinkRef) *simnet.Link {
	t.Helper()
	l, err := sc.link(ref)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestTopologyGenerators(t *testing.T) {
	cases := []struct {
		top           Topology
		nodes, attach int
		links         int // core link pairs
	}{
		{Topology{Kind: Dumbbell, Core: LinkP{BW: 1000, Delay: sim.Millisecond, Queue: 10}}, 2, 1, 1},
		{Topology{Kind: Star}, 1, 1, 0},
		{Topology{Kind: Tree, Fanout: 2, Depth: 3, Core: LinkP{Delay: sim.Millisecond}}, 15, 8, 14},
		{Topology{Kind: Chain, Hops: 5, Core: LinkP{Delay: sim.Millisecond}}, 6, 1, 5},
		{Topology{Kind: TransitStub, Transit: 3, Stubs: 2,
			Core: LinkP{Delay: sim.Millisecond}, StubLink: LinkP{Delay: sim.Millisecond}}, 9, 6, 8},
	}
	for _, c := range cases {
		env := testEnv(1)
		topo, err := buildTopology(env.Net, c.top)
		if err != nil {
			t.Fatalf("%s: %v", c.top.Kind, err)
		}
		if len(topo.Nodes) != c.nodes {
			t.Errorf("%s: %d core nodes, want %d", c.top.Kind, len(topo.Nodes), c.nodes)
		}
		if len(topo.Attach) != c.attach {
			t.Errorf("%s: %d attach points, want %d", c.top.Kind, len(topo.Attach), c.attach)
		}
		if len(topo.Links) != 2*c.links {
			t.Errorf("%s: %d core links, want %d", c.top.Kind, len(topo.Links), 2*c.links)
		}
	}
}

// TestEventScript checks SetLink events mutate the referenced links at
// the scripted instants and flow start/stop toggles traffic.
func TestEventScript(t *testing.T) {
	spec := &Spec{
		Name:     "evt-test",
		Topology: Topology{Kind: Dumbbell, Core: LinkP{BW: 4 * 125000, Delay: 10 * sim.Millisecond, Queue: 40}},
		Steps: []Step{
			{Site: &SiteSpec{Parent: AttachPoint(0), Hops: []Hop{FastHop()}}},
			{Recv: &RecvSpec{At: Site(0), Meter: "tfmcc"}},
			{CBR: &CBRSpec{Name: "cbr", From: Core(0), To: Core(1), Port: 9,
				Rate: 125000, Size: 1000, StartAt: 2 * sim.Second, StopAt: 4 * sim.Second, Meter: "cbr"}},
		},
		Events: []Event{
			SetBWEvent(3*sim.Second, CoreLink(0), 2*125000),
			SetDelayEvent(3*sim.Second, CoreLink(0), 40*sim.Millisecond),
			SetLossEvent(3*sim.Second, SiteLink(0, 0, false), 0.5),
		},
		Duration: 6 * sim.Second,
	}
	env := testEnv(1)
	sc, err := Build(env, spec)
	if err != nil {
		t.Fatal(err)
	}
	core := mustLink(t, sc, CoreLink(0))
	edge := mustLink(t, sc, SiteLink(0, 0, false))

	sc.Start()
	sc.RunUntil(2500 * sim.Millisecond)
	if core.Bandwidth != 4*125000 || core.Delay != 10*sim.Millisecond || edge.LossProb != 0 {
		t.Fatal("links mutated before the scripted instant")
	}
	if sc.Flow("cbr").CBR.SentPackets == 0 {
		t.Fatal("CBR did not start at its StartAt")
	}
	sc.RunUntil(5 * sim.Second)
	if core.Bandwidth != 2*125000 || core.Delay != 40*sim.Millisecond || edge.LossProb != 0.5 {
		t.Fatalf("event script not applied: bw=%v delay=%v loss=%v",
			core.Bandwidth, core.Delay, edge.LossProb)
	}
	sent := sc.Flow("cbr").CBR.SentPackets
	// ~2s at 125 packets/s, minus pacing edge effects.
	if sent < 200 || sent > 260 {
		t.Fatalf("CBR sent %d packets in its 2s window, want ~250", sent)
	}
	sc.RunUntil(6 * sim.Second)
	if sc.Flow("cbr").CBR.SentPackets != sent {
		t.Fatal("CBR kept sending after StopAt")
	}
	if sc.Flow("cbr").CBRSink.DeliveredPackets == 0 {
		t.Fatal("CBR sink saw no traffic")
	}
}

// TestChurnScript checks scheduled joins and leaves move group
// membership as declared.
func TestChurnScript(t *testing.T) {
	spec := &Spec{
		Name:     "churn-test",
		Topology: Topology{Kind: Star},
		Steps: []Step{
			{Site: &SiteSpec{Parent: AttachPoint(0), Hops: []Hop{FastHop()}}},
			{Site: &SiteSpec{Parent: AttachPoint(0), Hops: []Hop{FastHop()}}},
			{Recv: &RecvSpec{At: Site(0), Meter: "r0"}},
			{Recv: &RecvSpec{At: Site(1), JoinAt: 2 * sim.Second, LeaveAt: 4 * sim.Second}},
		},
		Duration: 6 * sim.Second,
	}
	env := testEnv(1)
	sc, err := Build(env, spec)
	if err != nil {
		t.Fatal(err)
	}
	g := sc.Sess.Group
	sc.Start()
	sc.RunUntil(sim.Second)
	if n := env.Net.Members(g); n != 1 {
		t.Fatalf("members at 1s = %d, want 1", n)
	}
	if sc.Recvs[1].R != nil {
		t.Fatal("scheduled receiver instantiated early")
	}
	sc.RunUntil(3 * sim.Second)
	if n := env.Net.Members(g); n != 2 {
		t.Fatalf("members at 3s = %d, want 2", n)
	}
	if sc.Recvs[1].R == nil {
		t.Fatal("scheduled receiver missing after JoinAt")
	}
	sc.RunUntil(5 * sim.Second)
	if n := env.Net.Members(g); n != 1 {
		t.Fatalf("members at 5s = %d, want 1 after leave", n)
	}
}

func TestOverridesApply(t *testing.T) {
	base := DeepTree()
	ov := None()
	ov.Duration = 10 * sim.Second
	ov.Fanout = 3
	ov.Depth = 2
	ov.Receivers = 5
	ov.CoreLoss = 0.02
	out, err := base.Apply(ov)
	if err != nil {
		t.Fatal(err)
	}
	if out.Duration != 10*sim.Second || out.Topology.Fanout != 3 || out.Topology.Depth != 2 {
		t.Fatalf("topology overrides not applied: %+v", out.Topology)
	}
	if out.Topology.Core.Loss != 0.02 {
		t.Fatalf("core loss override not applied: %v", out.Topology.Core.Loss)
	}
	if out.Pop.Count != 5 {
		t.Fatalf("receiver override not applied: %+v", out.Pop)
	}
	// The base spec must be untouched.
	if base.Duration == out.Duration || base.Pop.Count != 0 || base.Topology.Fanout != 2 {
		t.Fatal("Apply mutated the receiver spec")
	}

	// Receivers on a steps-only spec is an error, not silence.
	if _, err := Degrade().Apply(Overrides{CoreLoss: -1, EdgeLoss: -1, Receivers: 3}); err == nil {
		t.Fatal("Receivers override on a steps-only spec should error")
	}

	// EdgeLoss must copy-on-write the site steps.
	fc := FlashCrowd()
	out2, err := fc.Apply(Overrides{CoreLoss: -1, EdgeLoss: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	var checked bool
	for i, st := range out2.Steps {
		if st.Site == nil {
			continue
		}
		if st.Site.Hops[0].Down.Loss != 0.2 {
			t.Fatalf("edge loss not applied to site step %d", i)
		}
		if fc.Steps[i].Site.Hops[0].Down.Loss == 0.2 {
			t.Fatalf("edge loss mutated the base spec at step %d", i)
		}
		checked = true
	}
	if !checked {
		t.Fatal("no site steps found in flashcrowd")
	}
}

// TestPresetSpecsBuild builds every preset spec (no run) so reference
// errors — bad site indices, unknown flows in aggregates — fail fast.
func TestPresetSpecsBuild(t *testing.T) {
	for _, p := range Presets() {
		env := testEnv(1)
		env.Net.EnableReuse()
		sc, err := Build(env, p.Make())
		if err != nil {
			t.Fatalf("%s: %v", p.ID, err)
		}
		if sc.Sess == nil {
			t.Fatalf("%s: no session", p.ID)
		}
	}
}

// TestBuildRejectsInvalidLinks: every place a spec supplies link
// parameters — core and stub links, site hops in both directions,
// population and cohort hops, SetLink events and the loss overrides —
// must fail Build with an error naming the bad value, never hang in
// route computation or run with a nonsense link.
func TestBuildRejectsInvalidLinks(t *testing.T) {
	base := func() *Spec {
		return &Spec{
			Name:     "links",
			Topology: Topology{Kind: Dumbbell, Core: LinkP{BW: BW(1), Delay: 20 * sim.Millisecond, Queue: 20}},
			Pop:      &Population{Count: 1},
			Steps: []Step{
				{Site: &SiteSpec{Hops: []Hop{FastHop(), FastHop()}}},
				{Recv: &RecvSpec{At: Site(1)}},
			},
			Duration: sim.Second,
		}
	}
	override := func(o Overrides) func(*Spec) *Spec {
		return func(s *Spec) *Spec {
			out, err := s.Apply(o)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
	}
	coreLoss, edgeLoss := None(), None()
	coreLoss.CoreLoss = 1.5
	edgeLoss.EdgeLoss = 2
	cases := []struct {
		name string
		edit func(*Spec) *Spec
		want string
	}{
		{"core delay", func(s *Spec) *Spec { s.Topology.Core.Delay = -20 * sim.Millisecond; return s }, "core link: negative delay"},
		{"core bw", func(s *Spec) *Spec { s.Topology.Core.BW = -BW(1); return s }, "core link: bandwidth"},
		{"core loss", func(s *Spec) *Spec { s.Topology.Core.Loss = 2; return s }, "core link: loss 2 outside"},
		{"core queue", func(s *Spec) *Spec { s.Topology.Core.Queue = -5; return s }, "core link: negative queue"},
		{"stub delay", func(s *Spec) *Spec {
			s.Topology = Topology{Kind: TransitStub, Transit: 2, Stubs: 1, StubLink: LinkP{Delay: -1}}
			return s
		}, "stub link: negative delay"},
		{"site down delay", func(s *Spec) *Spec { s.Steps[0].Site.Hops[1].Down.Delay = -sim.Millisecond; return s }, "site 1 hop 1 down link: negative delay"},
		{"site up loss", func(s *Spec) *Spec { s.Steps[0].Site.Hops[0].Up.Loss = -0.1; return s }, "site 1 hop 0 up link: loss"},
		{"site jitter", func(s *Spec) *Spec { s.Steps[0].Site.Jitter = &Jitter{MinMs: -50, SpanMs: 1}; return s }, "site 1 hop 0 down link: negative delay"},
		{"population hop", func(s *Spec) *Spec { s.Pop.Hop = SymHop(LinkP{Delay: sim.Millisecond, Queue: -1}); return s }, "site 0 hop 0 down link: negative queue"},
		{"cohort hop", func(s *Spec) *Spec {
			s.Cohort = &CohortSpec{Size: 10, Hop: &Hop{Down: LinkP{BW: -1}}}
			return s
		}, "site 2 hop 0 down link: bandwidth"},
		{"set_link delay", func(s *Spec) *Spec {
			s.Events = []Event{SetDelayEvent(sim.Second/2, CoreLink(0), -sim.Millisecond)}
			return s
		}, "set_link: negative delay"},
		{"set_link bw", func(s *Spec) *Spec { s.Events = []Event{SetBWEvent(sim.Second/2, CoreLink(0), -1)}; return s }, "set_link: bandwidth"},
		{"set_link loss", func(s *Spec) *Spec { s.Events = []Event{SetLossEvent(sim.Second/2, CoreLink(0), 1.5)}; return s }, "set_link: loss 1.5 outside"},
		{"coreloss override", override(coreLoss), "core link: loss 1.5 outside"},
		{"edgeloss override", override(edgeLoss), "site 0 hop 0 down link: loss 2 outside"},
	}
	if _, err := Build(testEnv(1), base()); err != nil {
		t.Fatalf("valid base spec: %v", err)
	}
	for _, c := range cases {
		_, err := Build(testEnv(1), c.edit(base()))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

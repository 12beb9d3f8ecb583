// Package scenario turns experiment setups into data. A Spec declares a
// topology (generated from one of the standard shapes), an ordered list
// of construction steps — access links, TFMCC receivers with join/leave
// times, TCP and CBR cross-traffic — and a timed event script that
// mutates link properties or toggles flows mid-run. The executor
// (Build/Run) wires the spec onto a simulation environment in a single
// deterministic order, so a scenario is reproducible from its data alone
// and rewindable through the simnet arena like any hand-built setup.
//
// The paper's figure runners build their setups from Specs (each figure
// is a named preset of this package's vocabulary), and new scenarios —
// churn scripts, mid-run bottleneck degradation, wireless-like lossy
// edges — are added by declaring data, not by writing plumbing.
package scenario

import (
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/tcpsim"
	"repro/internal/tfmcc"
)

// Port aliases simnet.Port for compact spec literals.
type Port = simnet.Port

// LinkP are the per-direction properties of one link.
//
// The json tags on this and every other spec type define the scenario
// wire format (see json.go): times are integer nanoseconds with an _ns
// suffix, zero-valued fields are omitted, and the zero value of every
// omitted field is its meaning — so Marshal→Unmarshal→Marshal is a
// byte-level fixpoint.
type LinkP struct {
	BW    float64  `json:"bw,omitempty"`       // bytes/second; 0 = infinite
	Delay sim.Time `json:"delay_ns,omitempty"` // propagation delay
	Loss  float64  `json:"loss,omitempty"`     // Bernoulli drop probability on entry
	Queue int      `json:"queue,omitempty"`    // queue limit in packets (ignored for infinite links)
}

// Hop is one duplex segment of an access path: Down carries traffic
// towards the receiver, Up back towards the core.
type Hop struct {
	Down LinkP `json:"down,omitzero"`
	Up   LinkP `json:"up,omitzero"`
}

// FastHop is the standard uncongested access link: infinite bandwidth,
// 1 ms each way, no loss — what every figure uses for plain attachments.
func FastHop() Hop {
	p := LinkP{Delay: sim.Millisecond}
	return Hop{Down: p, Up: p}
}

// SymHop builds a symmetric hop from one set of properties.
func SymHop(p LinkP) Hop { return Hop{Down: p, Up: p} }

// Jitter draws a site's first-hop delay (both directions) uniformly from
// {Min, Min+1, ..., Min+Span-1} milliseconds using the environment's
// protocol RNG, one draw per site in step order.
type Jitter struct {
	MinMs  int `json:"min_ms,omitempty"`
	SpanMs int `json:"span_ms,omitempty"`
}

// Kind selects a topology generator.
type Kind int

const (
	// Dumbbell is the classic two-router shape: node 0 (left) and node 1
	// (right) joined by the Core bottleneck duplex.
	Dumbbell Kind = iota
	// Star is a single hub (node 0); capacity lives on per-site access
	// links declared as steps. Core is unused.
	Star
	// Tree is a k-ary distribution tree of interior Core duplexes; the
	// attach points are its leaves.
	Tree
	// Chain is a linear sequence of Hops+1 routers joined by Core
	// duplexes — a long multi-hop path; the attach point is the far end.
	Chain
	// TransitStub is a chain of Transit core routers, each serving Stubs
	// stub routers over StubLink duplexes; the attach points are the stub
	// routers, round-robin across transit nodes.
	TransitStub
)

func (k Kind) String() string {
	switch k {
	case Dumbbell:
		return "dumbbell"
	case Star:
		return "star"
	case Tree:
		return "tree"
	case Chain:
		return "chain"
	case TransitStub:
		return "transit-stub"
	}
	return "unknown"
}

// Topology declares the generated core of a scenario.
type Topology struct {
	Kind Kind  `json:"kind,omitempty"`
	Core LinkP `json:"core,omitzero"` // bottleneck (Dumbbell) / interior links (Tree, Chain, TransitStub)

	Fanout int `json:"fanout,omitempty"` // Tree
	Depth  int `json:"depth,omitempty"`  // Tree

	Hops int `json:"hops,omitempty"` // Chain: number of core links

	Transit  int   `json:"transit,omitempty"`  // TransitStub: transit routers
	Stubs    int   `json:"stubs,omitempty"`    // TransitStub: stub routers per transit node
	StubLink LinkP `json:"stub_link,omitzero"` // TransitStub: transit->stub duplex properties
}

// CoreLinkPairs returns the number of core link pairs the topology will
// generate — the valid CoreLink indices — applying the same parameter
// clamping as buildTopology. Chaos schedule generators use it to target
// core links without building the topology first.
func (t Topology) CoreLinkPairs() int {
	switch t.Kind {
	case Dumbbell:
		return 1
	case Star:
		return 0
	case Tree:
		fanout := t.Fanout
		if fanout < 2 {
			fanout = 2
		}
		pairs, width := 0, 1
		for d := 0; d < t.Depth; d++ {
			width *= fanout
			pairs += width
			if pairs > maxCoreNodes {
				return pairs
			}
		}
		return pairs
	case Chain:
		return max(t.Hops, 1)
	case TransitStub:
		transit := max(t.Transit, 1)
		return (transit - 1) + transit*max(t.Stubs, 1)
	}
	return 0
}

// Session configures the TFMCC session every scenario carries. The
// source node hangs off the topology's sender attach point over a fast
// access duplex, exactly like the hand-wired figures.
type Session struct {
	Group simnet.GroupID `json:"group,omitempty"` // default 1
	Port  simnet.Port    `json:"port,omitempty"`  // default 100
	Cfg   *tfmcc.Config  `json:"cfg,omitempty"`   // nil = tfmcc.DefaultConfig()
}

// RefKind discriminates NodeRef targets.
type RefKind int

const (
	// RefCore indexes the topology's core nodes in creation order.
	RefCore RefKind = iota
	// RefAttach indexes the topology's canonical attach points (dumbbell:
	// right router; star: hub; tree: leaves; chain: far end; transit-stub:
	// stub routers).
	RefAttach
	// RefSite is the leaf node of the Index-th Site step.
	RefSite
	// RefSiteMid is the intermediate node of a two-hop Site step.
	RefSiteMid
)

// NodeRef names a node of the built scenario symbolically.
type NodeRef struct {
	Kind  RefKind `json:"kind,omitempty"`
	Index int     `json:"index,omitempty"`
}

// Core references the i-th core node of the topology.
func Core(i int) NodeRef { return NodeRef{RefCore, i} }

// AttachPoint references the i-th canonical attach point.
func AttachPoint(i int) NodeRef { return NodeRef{RefAttach, i} }

// Site references the leaf node of the i-th Site step.
func Site(i int) NodeRef { return NodeRef{RefSite, i} }

// SiteMid references the intermediate node of the i-th (two-hop) Site.
func SiteMid(i int) NodeRef { return NodeRef{RefSiteMid, i} }

// LinkRef names a link of the built scenario symbolically.
type LinkRef struct {
	Site int  `json:"site,omitempty"` // site index, or -1 for a core link
	Hop  int  `json:"hop,omitempty"`  // hop index within the site, or core-link index
	Up   bool `json:"up,omitempty"`   // reverse (towards-core / right-to-left) direction
}

// CoreLink references the i-th core link pair (down direction unless Up).
func CoreLink(i int) LinkRef { return LinkRef{Site: -1, Hop: i} }

// SiteLink references hop h of site s (down direction unless up).
func SiteLink(s, h int, up bool) LinkRef { return LinkRef{Site: s, Hop: h, Up: up} }

// SiteSpec attaches an access path (1 or 2 hops) to the topology,
// creating this scenario's next site. Sites are numbered in step order.
type SiteSpec struct {
	Parent NodeRef `json:"parent,omitzero"`  // where the first hop hangs; zero value = AttachPoint(0)
	Hops   []Hop   `json:"hops,omitempty"`   // 1 or 2 hops; the last node created is the site leaf
	Jitter *Jitter `json:"jitter,omitempty"` // optional randomised first-hop delay
}

// RecvSpec joins a TFMCC receiver. Receivers are numbered in step order;
// scheduled joins (JoinAt > 0) instantiate the receiver when the event
// fires, exactly like the hand-wired figures did.
type RecvSpec struct {
	At      NodeRef  `json:"at,omitzero"`           // attachment node, typically Site(i)
	JoinAt  sim.Time `json:"join_at_ns,omitempty"`  // 0 = join during construction
	LeaveAt sim.Time `json:"leave_at_ns,omitempty"` // 0 = never leave
	Meter   string   `json:"meter,omitempty"`       // series name; "" = unmetered
}

// TCPSpec wires a TCP NewReno flow: a fresh source node fast-linked to
// From, a fresh sink node fast-linked behind To.
type TCPSpec struct {
	Name    string         `json:"name"` // unique flow key (events, aggregates)
	From    NodeRef        `json:"from,omitzero"`
	To      NodeRef        `json:"to,omitzero"`
	Port    simnet.Port    `json:"port,omitempty"`
	StartAt sim.Time       `json:"start_at_ns,omitempty"` // 0 = start during construction
	StopAt  sim.Time       `json:"stop_at_ns,omitempty"`  // 0 = never stop
	Meter   string         `json:"meter,omitempty"`       // goodput series name; "" = unmetered
	Cfg     *tcpsim.Config `json:"cfg,omitempty"`
}

// CBRSpec wires a constant-bit-rate background source between fresh
// endpoint nodes, like TCPSpec.
type CBRSpec struct {
	Name    string      `json:"name"`
	From    NodeRef     `json:"from,omitzero"`
	To      NodeRef     `json:"to,omitzero"`
	Port    simnet.Port `json:"port,omitempty"`
	Rate    float64     `json:"rate,omitempty"` // bytes/second
	Size    int         `json:"size,omitempty"` // packet size in bytes
	StartAt sim.Time    `json:"start_at_ns,omitempty"`
	StopAt  sim.Time    `json:"stop_at_ns,omitempty"`
	Meter   string      `json:"meter,omitempty"`
}

// AggSpec samples the sum of the named flows' most recent meter readings
// once per Every (default 1 s) into a new series — the "aggregated TCP"
// curves of figures 15/16/21.
type AggSpec struct {
	Name  string   `json:"name"`
	Flows []string `json:"flows,omitempty"`
	Every sim.Time `json:"every_ns,omitempty"`
}

// SampleKind selects what a SampleSpec records.
type SampleKind int

const (
	// SampleValidRTT counts receivers holding a real RTT measurement.
	SampleValidRTT SampleKind = iota
	// SampleSenderRate records the TFMCC sender's current rate (bytes/s).
	SampleSenderRate
	// SampleMembers records the multicast group's member count.
	SampleMembers
)

// SampleSpec periodically samples a session-level quantity into a series.
type SampleSpec struct {
	Name  string     `json:"name"`
	What  SampleKind `json:"what,omitempty"`
	Every sim.Time   `json:"every_ns,omitempty"` // default 1 s
}

// Step is one ordered construction action. Exactly one field is set.
// Step order is the construction order, which pins node/link identity,
// RNG consumption and same-instant event ordering — the properties that
// make a scenario byte-reproducible.
type Step struct {
	Site   *SiteSpec   `json:"site,omitempty"`
	Recv   *RecvSpec   `json:"recv,omitempty"`
	TCP    *TCPSpec    `json:"tcp,omitempty"`
	CBR    *CBRSpec    `json:"cbr,omitempty"`
	Agg    *AggSpec    `json:"agg,omitempty"`
	Sample *SampleSpec `json:"sample,omitempty"`
}

// LossModel declares how a cohort's member loss rates spread around its
// probe's measurement. The zero value is a homogeneous cohort: every
// member sees the probe's loss process exactly. Spread > 0 models mild
// heterogeneity: the worst member's loss event rate is the probe's
// inflated by (1 + Spread·log2(size)).
type LossModel struct {
	Spread float64 `json:"spread,omitempty"`
}

// CohortSpec declares an aggregate receiver block: Size homogeneous
// receivers modelled analytically by a single probe endpoint
// (tfmcc.CohortReceiver), so a spec can declare a million receivers and
// run in bounded memory. The cohort attaches at At — typically an access
// site or attach point of a dumbbell/transit-stub topology — either
// directly (Hop nil) or behind a dedicated single access hop. It is
// built after the explicit Steps (so At may reference any declared
// site) and occupies the last RecvSlot.
//
// A cohort twin is only valid for members genuinely sharing the probe's
// path; heterogeneous-RTT populations must be split into one cohort per
// access site.
type CohortSpec struct {
	Size      int       `json:"size"`
	LossModel LossModel `json:"loss_model,omitzero"`
	At        NodeRef   `json:"at,omitzero"`
	Hop       *Hop      `json:"hop,omitempty"`        // optional dedicated access hop below At
	JoinAt    sim.Time  `json:"join_at_ns,omitempty"` // 0 = join during construction
	Meter     string    `json:"meter,omitempty"`      // probe throughput series; "" = unmetered
}

// Population declares a uniform receiver block: Count single-hop sites
// (or direct attachments) with one receiver each, expanded before the
// explicit Steps. It exists so large uniform scenarios stay compact and
// so the receiver count is overridable from the command line.
type Population struct {
	Count     int     `json:"count,omitempty"`
	Parent    NodeRef `json:"parent,omitzero"`      // zero value = AttachPoint(0)
	PerAttach bool    `json:"per_attach,omitempty"` // round-robin receivers over all attach points
	Direct    bool    `json:"direct,omitempty"`     // no access hop: join on the parent node itself
	Hop       Hop     `json:"hop,omitzero"`         // access hop (ignored when Direct); zero value = FastHop
	Jitter    *Jitter `json:"jitter,omitempty"`
	Meter     string  `json:"meter,omitempty"` // meter name for receiver 0; "" = none
}

// SetLink is a timed link-property mutation. Nil fields stay unchanged.
type SetLink struct {
	Link  LinkRef   `json:"link,omitzero"`
	BW    *float64  `json:"bw,omitempty"`
	Delay *sim.Time `json:"delay_ns,omitempty"`
	Loss  *float64  `json:"loss,omitempty"`
}

// Impair configures a link's fault-injection modules (see
// simnet.Link.SetImpairments). Rates are Bernoulli probabilities drawn
// from the network's seeded RNG; zero rates disable a module and consume
// no randomness. ReorderDelay bounds the extra propagation delay of a
// reordered packet; 0 means four times the link's delay at event time
// (at least 1 ms).
type Impair struct {
	Link         LinkRef  `json:"link,omitzero"`
	Corrupt      float64  `json:"corrupt,omitempty"`
	Duplicate    float64  `json:"duplicate,omitempty"`
	Reorder      float64  `json:"reorder,omitempty"`
	ReorderDelay sim.Time `json:"reorder_delay_ns,omitempty"`
}

// Event is one entry of the timed script. Exactly one action is set.
type Event struct {
	At      sim.Time `json:"at_ns,omitempty"`
	SetLink *SetLink `json:"set_link,omitempty"`
	Start   string   `json:"start,omitempty"` // start the named flow
	Stop    string   `json:"stop,omitempty"`  // stop the named flow

	// Fault-injection verbs.
	Down      *LinkRef  `json:"down,omitempty"`      // take one link down
	Up        *LinkRef  `json:"up,omitempty"`        // bring one link back up
	Partition []LinkRef `json:"partition,omitempty"` // take a set of links down at once
	Heal      []LinkRef `json:"heal,omitempty"`      // bring a set of links back up at once
	Crash     *int      `json:"crash,omitempty"`     // crash the i-th declared receiver (no Leave report)
	Impair    *Impair   `json:"impair,omitempty"`    // set a link's corrupt/duplicate/reorder modules
}

// Spec is a complete declarative scenario.
type Spec struct {
	Name     string      `json:"name,omitempty"`
	Title    string      `json:"title,omitempty"`
	Topology Topology    `json:"topology,omitzero"`
	Session  Session     `json:"session,omitzero"`
	Pop      *Population `json:"pop,omitempty"`
	Cohort   *CohortSpec `json:"cohort,omitempty"`
	Steps    []Step      `json:"steps,omitempty"`
	Events   []Event     `json:"events,omitempty"`
	Duration sim.Time    `json:"duration_ns"`
}

// DeclaredReceivers returns how many receivers the spec will declare —
// cohort members included, so summaries and size guards reflect the
// modelled population, not the endpoint count: the population block
// (applying expandPopulation's per-attach defaulting), the explicit Recv
// steps, and the cohort's full membership.
func (s *Spec) DeclaredReceivers() int {
	n := s.DeclaredEndpoints()
	if s.Cohort != nil && s.Cohort.Size > 1 {
		n += s.Cohort.Size - 1 // the cohort endpoint stands for Size members
	}
	return n
}

// DeclaredEndpoints returns how many receiver endpoints (RecvSlots) the
// spec will build — the valid CrashEvent indices: the population block
// first, then the explicit Recv steps, then the cohort (one slot
// regardless of membership). Equal to DeclaredReceivers for cohort-free
// specs.
func (s *Spec) DeclaredEndpoints() int {
	n := 0
	if s.Pop != nil {
		n = s.Pop.Count
		if s.Pop.PerAttach && n == 0 {
			n = s.Topology.AttachPoints()
		}
	}
	for _, st := range s.Steps {
		if st.Recv != nil {
			n++
		}
	}
	if s.Cohort != nil {
		n++
	}
	return n
}

// AttachPoints returns how many canonical attach points the topology
// will generate, applying buildTopology's clamping (companion to
// CoreLinkPairs).
func (t Topology) AttachPoints() int {
	switch t.Kind {
	case Dumbbell, Star, Chain:
		return 1
	case Tree:
		fanout := max(t.Fanout, 2)
		width := 1
		for d := 0; d < t.Depth; d++ {
			width *= fanout
			if width > maxCoreNodes {
				return width
			}
		}
		return width
	case TransitStub:
		return max(t.Transit, 1) * max(t.Stubs, 1)
	}
	return 0
}

// BW converts Mbit/s to the bytes/second links use.
func BW(mbit float64) float64 { return mbit * 125000 }

// KbitBW converts Kbit/s to bytes/second.
func KbitBW(kbit float64) float64 { return kbit * 125 }

func ptrF(v float64) *float64   { return &v }
func ptrT(v sim.Time) *sim.Time { return &v }

// SetBWEvent mutates a link's bandwidth at time t.
func SetBWEvent(at sim.Time, l LinkRef, bw float64) Event {
	return Event{At: at, SetLink: &SetLink{Link: l, BW: ptrF(bw)}}
}

// SetDelayEvent mutates a link's propagation delay at time t.
func SetDelayEvent(at sim.Time, l LinkRef, d sim.Time) Event {
	return Event{At: at, SetLink: &SetLink{Link: l, Delay: ptrT(d)}}
}

// SetLossEvent mutates a link's random-loss probability at time t.
func SetLossEvent(at sim.Time, l LinkRef, p float64) Event {
	return Event{At: at, SetLink: &SetLink{Link: l, Loss: ptrF(p)}}
}

// LinkDownEvent takes a link down at time t: routes re-derive around it,
// and traffic with no remaining path becomes counted Unreachable drops.
func LinkDownEvent(at sim.Time, l LinkRef) Event {
	ref := l
	return Event{At: at, Down: &ref}
}

// LinkUpEvent brings a downed link back up at time t.
func LinkUpEvent(at sim.Time, l LinkRef) Event {
	ref := l
	return Event{At: at, Up: &ref}
}

// PartitionEvent takes every listed link down at time t — the idiom for
// cutting a duplex (pass both directions) or severing a whole subtree.
func PartitionEvent(at sim.Time, links ...LinkRef) Event {
	return Event{At: at, Partition: links}
}

// HealEvent brings every listed link back up at time t.
func HealEvent(at sim.Time, links ...LinkRef) Event {
	return Event{At: at, Heal: links}
}

// DuplexRefs returns both directions of a link reference — convenience
// for PartitionEvent/HealEvent cutting whole duplexes.
func DuplexRefs(l LinkRef) []LinkRef {
	down, up := l, l
	down.Up, up.Up = false, true
	return []LinkRef{down, up}
}

// CrashEvent kills the i-th declared receiver at time t: it stops
// processing traffic and leaves the multicast group without sending the
// Leave report a graceful departure would — the sender must discover the
// silence through its CLR feedback timeout.
func CrashEvent(at sim.Time, recv int) Event {
	i := recv
	return Event{At: at, Crash: &i}
}

// ImpairEvent configures a link's corruption/duplication/reordering
// modules at time t.
func ImpairEvent(at sim.Time, im Impair) Event {
	cp := im
	return Event{At: at, Impair: &cp}
}

// Package experiments contains one scenario builder per figure of the
// TFMCC paper's evaluation. Each builder returns a Result whose series
// reproduce the corresponding plot; cmd/tfmccsim prints them as TSV and
// the root bench_test.go wraps each in a testing.B benchmark.
//
// Runners execute against a RunCtx, which owns an arena of reusable
// simulation environments: rerunning the same scenario (another seed of a
// sweep, another benchmark iteration) rewinds the cached scheduler,
// network topology and pooled protocol state instead of rebuilding them.
// A RunCtx is single-goroutine; seed sweeps hand one RunCtx to each
// worker (see Sweep).
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/invariant"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/tcpsim"
	"repro/internal/tfmcc"
)

// Result is the reproduced data behind one figure.
type Result struct {
	Figure string
	Title  string
	Series []*stats.Series
	Notes  []string
}

// Summary returns a short textual digest: per-series mean (and max).
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s: %s\n", r.Figure, r.Title)
	for _, s := range r.Series {
		fmt.Fprintf(&b, "  %-28s mean=%10.3f max=%10.3f n=%d\n",
			s.Name, s.Mean(), s.Max(), len(s.Points))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// TSV renders all series as a long-format table: series, x, y.
func (r *Result) TSV() string {
	var b strings.Builder
	b.WriteString("series\tx\ty\n")
	for _, s := range r.Series {
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%s\t%.4f\t%.4f\n", s.Name, p.T.Seconds(), p.V)
		}
	}
	return b.String()
}

// Runner produces a figure's Result. seed selects the deterministic
// random stream; the RunCtx supplies (and recycles) the simulation
// environments.
type Runner func(c *RunCtx, seed int64) *Result

// mustScenario unwraps a scenario.Run/Build result for the hand-wired
// figure runners: their specs are compile-time constants, so a build
// error is a programmer bug, not an input problem.
func mustScenario(sc *scenario.Scenario, err error) *scenario.Scenario {
	if err != nil {
		panic(err)
	}
	return sc
}

// Run executes the runner for a figure id on a fresh context.
func Run(id string, seed int64) (*Result, error) {
	return RunWith(NewRunCtx(), id, seed)
}

// RunWith executes the runner for a figure id on c, reusing whatever
// simulation state c has cached from earlier runs of the same scenario.
func RunWith(c *RunCtx, id string, seed int64) (*Result, error) {
	e, ok := Lookup(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown figure %q (have %v)", id, Figures())
	}
	defer c.begin("figure" + id)()
	return e.Run(c, seed), nil
}

// --- run context and environment arena ---------------------------------

// RunCtx carries the per-worker state behind figure runs: an arena of
// reusable simulation environments keyed by scenario, plus the engine
// counters accumulated across runs. It must be used from one goroutine at
// a time; parallel sweeps give each worker its own RunCtx.
type RunCtx struct {
	key        string
	envs       map[string][]*env
	next       int
	check      bool
	stats      EngineStats
	violations []invariant.Violation
}

// NewRunCtx returns a context with an empty environment arena.
func NewRunCtx() *RunCtx { return &RunCtx{envs: map[string][]*env{}} }

// EnableInvariants arms the run-level invariant checker on every
// environment this context hands out: engine-level predicates (packet
// pool conservation, scheduler monotonicity) on all runs, plus
// protocol-level ones (sender rate bound, CLR liveness) on scenario-spec
// runs. Violations accumulate across runs; see Violations. The checker's
// sampling ticks are subtracted from the EngineStats event count, so
// deterministic engine reports are unchanged by enabling it.
func (c *RunCtx) EnableInvariants() { c.check = true }

// Violations returns the invariant violations observed across every run
// executed with this context since the last ResetStats.
func (c *RunCtx) Violations() []invariant.Violation { return c.violations }

// begin starts a run of the named scenario and returns the harvest
// function to defer: it folds the run's engine counters into the context
// totals and restores the enclosing scenario, so a runner invoked from
// within another run (e.g. a begin-calling helper registered as a
// figure) neither corrupts the outer arena cursor nor double-harvests.
func (c *RunCtx) begin(key string) func() {
	prevKey, prevNext := c.key, c.next
	c.key = key
	c.next = 0
	return func() {
		c.endRun()
		c.key, c.next = prevKey, prevNext
	}
}

func (c *RunCtx) endRun() {
	for _, e := range c.envs[c.key][:c.next] {
		events := e.sch.Processed()
		if e.check != nil {
			// The checker's sampling ticks are bookkeeping, not simulation:
			// subtracting them keeps the deterministic event count identical
			// with and without -check.
			events -= e.check.Ticks()
			c.violations = append(c.violations, e.check.Violations()...)
		}
		// Batch occupancy: one batch may dispatch many same-timestamp
		// events. The count differs with and without -check (checker ticks
		// add events), so reports strip it; history records it.
		c.stats.Batches += e.sch.Batches()
		c.stats.Events += events
		for _, l := range e.net.Links() {
			c.stats.PacketsSent += l.Stats.Sent
			c.stats.PacketsDelivered += l.Stats.Deliver
		}
		f := e.net.Faults()
		c.stats.Unreachable += f.Unreachable
		c.stats.Corrupted += f.Corrupted
		c.stats.Duplicated += f.Duplicated
	}
}

// Stats returns the engine counters accumulated over every run executed
// with this context since the last ResetStats.
func (c *RunCtx) Stats() EngineStats { return c.stats }

// harvestRecovery folds a sender's CLR-loss recovery counters into the
// context totals. Called by the scenario-spec runner right after the run,
// before any arena rewind can reset the sender.
func (c *RunCtx) harvestRecovery(s *tfmcc.Sender) {
	c.stats.CLRLosses += s.CLRLosses
	c.stats.Reelections += s.Reelections
	c.stats.RateRecoveries += s.RateRecoveries
	if s.ReelectTime > c.stats.ReelectNS {
		c.stats.ReelectNS = s.ReelectTime
	}
	if s.RateRecovery > c.stats.RateRecoverNS {
		c.stats.RateRecoverNS = s.RateRecovery
	}
}

// ResetStats zeroes the accumulated engine counters and violations.
func (c *RunCtx) ResetStats() {
	c.stats = EngineStats{}
	c.violations = nil
}

// env bundles the per-scenario simulation plumbing.
type env struct {
	sch    *sim.Scheduler
	net    *simnet.Network
	rng    *sim.Rand
	netRng *sim.Rand
	check  *invariant.Checker
}

// newEnv returns the next simulation environment of the current run:
// either the environment built at the same point of a previous run of
// this scenario — rewound to a pristine state for the new seed — or a
// freshly built one that joins the arena.
func (c *RunCtx) newEnv(seed int64) *env {
	list := c.envs[c.key]
	if c.next < len(list) {
		e := list[c.next]
		c.next++
		e.rewind(seed)
		c.armChecker(e)
		return e
	}
	sch := sim.NewScheduler()
	netRng := sim.NewRand(seed)
	e := &env{sch: sch, net: simnet.New(sch, netRng), rng: sim.NewRand(seed + 7), netRng: netRng}
	e.net.EnableReuse()
	c.envs[c.key] = append(list, e)
	c.next++
	c.armChecker(e)
	return e
}

// armChecker resets and starts the environment's invariant checker for a
// new run when checking is enabled, registering the engine-level
// predicates. Protocol-level predicates join in scenario.Build when the
// run is scenario-spec driven.
func (c *RunCtx) armChecker(e *env) {
	if !c.check {
		return
	}
	if e.check == nil {
		e.check = invariant.New(e.sch, 0)
	} else {
		e.check.Reset()
	}
	net := e.net
	e.check.Register("pkt-conservation", func() string {
		if live := net.LivePackets(); live < 0 {
			return fmt.Sprintf("packet pool conservation broken: %d live packets (double release)", live)
		}
		return ""
	})
	// A ring entry holds a packet reference, so parked arrivals imply live
	// packets. The converse bound (held <= live) does NOT hold: a multicast
	// packet fans one live allocation out to many link rings.
	e.check.Register("ring-conservation", func() string {
		if held, live := net.RingHeld(), net.LivePackets(); held > 0 && live == 0 {
			return fmt.Sprintf("link ring conservation broken: %d ring-held arrivals with no live packets", held)
		}
		return ""
	})
	e.check.Start()
}

// ScenarioEnv returns the next pooled simulation environment of the
// current run, wrapped for the scenario executor. Scenario-spec runners
// get the same arena reuse as hand-wired ones: rerunning the same figure
// rewinds the cached topology and pooled protocol state.
func (c *RunCtx) ScenarioEnv(seed int64) scenario.Env {
	e := c.newEnv(seed)
	return scenario.Env{Sch: e.sch, Net: e.net, Rng: e.rng, Check: e.check}
}

// rewind restores the environment to the state newEnv would have built
// fresh for seed. When the network cannot be rewound (a
// replay-incompatible construction), it is rebuilt from scratch — always
// correct, just without the reuse speedup.
func (e *env) rewind(seed int64) {
	e.sch.Reset()
	if !e.net.Reset() {
		e.netRng = sim.NewRand(seed)
		e.net = simnet.New(e.sch, e.netRng)
		e.net.EnableReuse()
	}
	e.netRng.Reseed(seed)
	e.rng.Reseed(seed + 7)
}

// newMeter returns a per-second throughput meter, pooled through the
// network arena when the environment is reusable. It delegates to the
// scenario executor's helper so hand-wired runners and scenario-built
// setups share one pool key and rewind recipe.
func (e *env) newMeter(name string) *stats.Meter {
	return scenario.Env{Sch: e.sch, Net: e.net, Rng: e.rng}.NewMeter(name)
}

// addTCP wires a TCP flow from a fresh source node through `in` to a
// fresh sink node hanging off `out`, metering goodput.
func (e *env) addTCP(name string, in, out simnet.NodeID, port simnet.Port) (*tcpsim.Sender, *stats.Meter) {
	a := e.net.AddNode(name + "-src")
	b := e.net.AddNode(name + "-dst")
	e.net.AddDuplex(a, in, 0, sim.Millisecond, 0)
	e.net.AddDuplex(out, b, 0, sim.Millisecond, 0)
	snd, snk := tcpsim.NewFlow(name, e.net, a, b, port, tcpsim.DefaultConfig())
	m := e.newMeter(name)
	snk.Meter = m
	m.Start()
	return snd, m
}

// meterReceiver attaches a throughput meter to a TFMCC receiver model.
func (e *env) meterReceiver(name string, r tfmcc.ReceiverModel) *stats.Meter {
	m := e.newMeter(name)
	r.SetMeter(m)
	m.Start()
	return m
}

const (
	mbit = 125000.0 // bytes/s per Mbit/s
	kbit = 125.0    // bytes/s per Kbit/s
)

// --- seed sweeps -------------------------------------------------------

// SweepResult is a figure reproduced as the merged behaviour of many
// independent seeds.
type SweepResult struct {
	Figure     string
	Title      string
	Bands      []*stats.Band
	Notes      []string // notes of the first seed's run, for orientation
	Seeds      int
	Workers    int
	CI         float64
	Engine     EngineStats // accumulated across all seeds and workers
	Failures   []string    // seeds that panicked (excluded from Bands), in seed order
	Violations []string    // invariant violations, when checking was enabled
}

// Summary returns a per-band digest of the sweep.
func (r *SweepResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s: %s (%d seeds, %d workers, %.0f%% CI)\n",
		r.Figure, r.Title, r.Seeds, r.Workers, r.CI*100)
	for _, bd := range r.Bands {
		var mean stats.Welford
		for _, p := range bd.Points {
			mean.Add(p.Mean)
		}
		fmt.Fprintf(&b, "  %-28s mean=%10.3f points=%d\n", bd.Name, mean.Mean(), len(bd.Points))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note (first seed): %s\n", n)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "  FAILED: %s\n", f)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  INVARIANT: %s\n", v)
	}
	return b.String()
}

// TSV renders the merged bands as a long-format table with band columns.
func (r *SweepResult) TSV() string {
	var b strings.Builder
	b.WriteString("series\tx\tmean\tci_lo\tci_hi\tmin\tmax\tn\n")
	for _, bd := range r.Bands {
		for _, p := range bd.Points {
			fmt.Fprintf(&b, "%s\t%.4f\t%.4f\t%.4f\t%.4f\t%.4f\t%.4f\t%d\n",
				bd.Name, p.T.Seconds(), p.Mean, p.Lo, p.Hi, p.Min, p.Max, p.N)
		}
	}
	return b.String()
}

// Sweep runs a registered figure across cfg.Seeds independent seeds on
// cfg.Workers workers and merges the per-seed series into bands. Each
// worker owns one RunCtx, so consecutive seeds on a worker reuse the
// scenario's cached topology and pooled protocol state; the merged output
// is bit-for-bit independent of the worker count.
func Sweep(id string, cfg sweep.Config) (*SweepResult, error) {
	entry, ok := Lookup(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown figure %q (have %v)", id, Figures())
	}
	cfg = cfg.Normalized()
	ctxs := make([]*RunCtx, cfg.Workers)
	for i := range ctxs {
		ctxs[i] = NewRunCtx()
		if cfg.Check {
			ctxs[i].EnableInvariants()
		}
	}
	notes := make([][]string, cfg.Seeds)
	merged := sweep.Run(cfg, func(worker int, seed int64) []*stats.Series {
		res, err := RunWith(ctxs[worker], id, seed)
		if err != nil {
			panic(err) // unreachable: id was validated above
		}
		notes[cfg.Index(seed)] = res.Notes
		return res.Series
	})
	out := &SweepResult{
		Figure:  id,
		Title:   entry.Title,
		Bands:   merged.Bands,
		Seeds:   merged.Seeds,
		Workers: merged.Workers,
		CI:      merged.CI,
	}
	if len(notes) > 0 {
		out.Notes = notes[0]
	}
	for _, e := range merged.Errors {
		out.Failures = append(out.Failures, e.Error())
	}
	for _, c := range ctxs {
		out.Engine.Add(c.Stats())
		for _, v := range c.Violations() {
			out.Violations = append(out.Violations, v.String())
		}
	}
	return out, nil
}

// --- engine benchmarking hooks -----------------------------------------

// EngineStats aggregates raw simulation-engine counters over one or more
// scenario runs, for cmd/tfmccbench and the root benchmarks. The fault
// counters stay zero unless a scenario injects faults (down links,
// corruption, duplication), so reports for healthy scenarios are
// unchanged by the fault layer.
type EngineStats struct {
	Events           uint64 // scheduler events executed
	PacketsSent      int64  // packets handed to links
	PacketsDelivered int64  // packets delivered by links
	Unreachable      int64  // sends dropped for lack of a route (partitions, down links)
	Corrupted        int64  // packets dropped as corrupted by link impairment
	Duplicated       int64  // extra copies injected by link impairment

	// Recovery counters, harvested from the TFMCC sender of scenario-spec
	// runs (RunSpec). Counts sum across runs; the durations are maxima, so
	// a merged sweep reports the worst episode of any seed. All zero — and
	// omitted from BENCH_engine.json — unless a run actually lost its CLR.
	CLRLosses      int64    // CLR lost with no immediately elected successor
	Reelections    int64    // successors elected after such a loss
	RateRecoveries int64    // losses whose rate re-attained the pre-loss level
	ReelectNS      sim.Time // max loss-to-re-election sim-time
	RateRecoverNS  sim.Time // max loss-to-rate-re-attainment sim-time

	// Batches counts dispatch batches (mean occupancy = Events/Batches).
	// It varies with -check (checker ticks add events), so the
	// deterministic report form strips it — benchdiff history is where
	// it surfaces.
	Batches uint64
}

// Add folds another stats sample into s.
func (s *EngineStats) Add(o EngineStats) {
	s.Events += o.Events
	s.PacketsSent += o.PacketsSent
	s.PacketsDelivered += o.PacketsDelivered
	s.Unreachable += o.Unreachable
	s.Corrupted += o.Corrupted
	s.Duplicated += o.Duplicated
	s.CLRLosses += o.CLRLosses
	s.Reelections += o.Reelections
	s.RateRecoveries += o.RateRecoveries
	if o.ReelectNS > s.ReelectNS {
		s.ReelectNS = o.ReelectNS
	}
	if o.RateRecoverNS > s.RateRecoverNS {
		s.RateRecoverNS = o.RateRecoverNS
	}
	s.Batches += o.Batches
}

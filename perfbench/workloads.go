package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/sweep"
)

var workloads = map[string]*workload{
	"fanout-1000": {cycle: 5, stride: 1, setupReps: 11,
		setup: func(seed int64) (setupSample, error) { return timeBuilds(seed, fanoutSpec) },
		unit:  func(seed int64, traced bool) unit { return singleUnit(fanoutSpec(), seed, traced, nil) },
		check: func(seed int64) checkResult { return checkSpec(fanoutSpec(), seed) }},
	"tcp-compete": {cycle: 4, stride: 1, setupReps: 101,
		setup: func(seed int64) (setupSample, error) { return timeBuilds(seed, experiments.Figure10Spec) },
		unit: func(seed int64, traced bool) unit {
			return singleUnit(experiments.Figure10Spec(), seed, traced, figure10PaperError)
		},
		check: func(seed int64) checkResult { return checkSpec(experiments.Figure10Spec(), seed) }},
	"churn-sweep": {cycle: 6, stride: churnSeeds, setupReps: 51, sweepSetup: true,
		setup: func(seed int64) (setupSample, error) { return timeBuilds(seed, churnSpecs()...) },
		unit:  churnUnit,
		check: churnCheck},
}

// fanoutHorizon cuts Figure 12 to the slow-start ramp plus 20 s of
// steady 1,000-way fan-out, so a run holds several units.
const fanoutHorizon = 40 * sim.Second

func fanoutSpec() *scenario.Spec {
	s := experiments.Figure12Spec()
	s.Duration = fanoutHorizon
	return s
}

// churnPresets are the membership and fault presets churn-sweep runs.
var churnPresets = []string{"flashcrowd", "massleave", "partition", "clrfail", "degrade", "corruptfb"}

// churnSeeds is how many seeds one churn-sweep unit sweeps per preset.
const churnSeeds = 4

// churnSweep is the sweep configuration of one churn-sweep unit.
func churnSweep(seed int64, check bool) sweep.Config {
	return sweep.Config{Seeds: churnSeeds, Workers: 2, Base: seed, Check: check}.Normalized()
}

func churnSpecs() []func() *scenario.Spec {
	out := make([]func() *scenario.Spec, len(churnPresets))
	for i, id := range churnPresets {
		e, _ := experiments.Lookup(id)
		out[i] = e.Spec
	}
	return out
}

// env is a simulation environment built the way experiments.RunCtx builds
// its own: network stream seeded with seed, protocol stream with seed+7,
// arena reuse on, batching at its default (on).
type env struct {
	sch         *sim.Scheduler
	net         *simnet.Network
	rng, netRng *sim.Rand
}

func newEnv(seed int64) *env {
	sch := sim.NewScheduler()
	netRng := sim.NewRand(seed)
	e := &env{sch: sch, net: simnet.New(sch, netRng), rng: sim.NewRand(seed + 7), netRng: netRng}
	e.net.EnableReuse()
	return e
}

// rewind restores e to the state newEnv(seed) builds, reusing the
// recorded topology where the network allows it.
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

func (e *env) scenario() scenario.Env {
	return scenario.Env{Sch: e.sch, Net: e.net, Rng: e.rng}
}

// timeBuilds times a cold build of each spec and then a rebuild on the
// rewound environment, summed over the specs.
func timeBuilds(seed int64, specs ...func() *scenario.Spec) (setupSample, error) {
	var s setupSample
	for _, mk := range specs {
		spec := mk()
		t0 := time.Now()
		e := newEnv(seed)
		if _, err := scenario.Build(e.scenario(), spec); err != nil {
			return s, err
		}
		t1 := time.Now()
		e.rewind(seed)
		if _, err := scenario.Build(e.scenario(), spec); err != nil {
			return s, err
		}
		s.cold += t1.Sub(t0).Seconds()
		s.rewound += time.Since(t1).Seconds()
		s.nodes += e.net.NumNodes()
	}
	return s, nil
}

// seedRun is one seed of one scenario run on an own environment.
type seedRun struct {
	sc        *scenario.Scenario
	series    []*stats.Series
	wall, cpu float64
	events    uint64
	layers    layerCounts
}

// runOn builds spec on e, starts the session and runs it to the spec's
// duration; traced runs go through a probe.
func runOn(e *env, spec *scenario.Spec, traced bool) (seedRun, error) {
	sc, err := scenario.Build(e.scenario(), spec)
	if err != nil {
		return seedRun{}, err
	}
	var p *probe
	if traced {
		if p, err = newProbe(sc); err != nil {
			return seedRun{}, err
		}
	}
	sp := startSpan()
	sc.Start()
	if p != nil {
		p.run(spec.Duration)
	} else {
		sc.RunUntil(spec.Duration)
	}
	r := seedRun{sc: sc, series: sc.Series(), events: e.sch.Processed()}
	r.wall, r.cpu = sp.end()
	if p != nil {
		r.layers = p.counts()
	}
	return r, nil
}

func seriesTSV(s []*stats.Series) string { return (&experiments.Result{Series: s}).TSV() }

// singleUnit runs one seed of spec, built cold, as a one-worker sweep of
// one seed. paperErr, when set, scores the run against the paper.
func singleUnit(spec *scenario.Spec, seed int64, traced bool, paperErr func(*scenario.Scenario) float64) unit {
	r, err := runOn(newEnv(seed), spec, traced)
	if err != nil {
		return unit{seed: seed, err: err}
	}
	// Collect while the finished scenario is still referenced, so the
	// sampled live heap holds its state even when the run itself never
	// triggered a collection.
	runtime.GC()
	runtime.KeepAlive(r.sc)
	u := unit{seed: seed, wall: r.wall, cpu: r.cpu, events: r.events, layers: r.layers,
		digest: digest(seriesTSV(r.series), r.events), paperErr: math.NaN(),
		seedWalls: []float64{r.wall}, workers: 1, sweepWall: r.wall}
	if paperErr != nil {
		u.paperErr = paperErr(r.sc)
	}
	t0 := time.Now()
	stats.MergeRuns([][]*stats.Series{r.series}, 0.95)
	u.mergeS = time.Since(t0).Seconds()
	return u
}

// figure10PaperError is the relative error of Figure 10's TFMCC/TCP
// throughput ratio over 60-200 s against the paper's ~0.70.
func figure10PaperError(sc *scenario.Scenario) float64 {
	const paper = 0.70
	var tcp float64
	for _, f := range sc.Flows {
		tcp += f.Meter.Series.MeanBetween(60*sim.Second, 200*sim.Second)
	}
	tcp /= float64(len(sc.Flows))
	tf := sc.Recvs[0].Meter.Series.MeanBetween(60*sim.Second, 200*sim.Second)
	return math.Abs(tf/tcp-paper) / paper
}

// checkSpec reruns seed through experiments with the invariant checker on.
func checkSpec(spec *scenario.Spec, seed int64) checkResult {
	ctx := experiments.NewRunCtx()
	ctx.EnableInvariants()
	t0 := time.Now()
	res, err := experiments.RunSpecKeyed(ctx, spec.Name, spec, seed)
	c := checkResult{wall: time.Since(t0).Seconds(), err: err}
	if err == nil {
		c.digest = digest(res.TSV(), ctx.Stats().Events)
		for _, v := range ctx.Violations() {
			c.violations = append(c.violations, v.String())
		}
	}
	return c
}

// churnUnit sweeps every churn preset. Untraced, it is the users' path,
// experiments.Sweep; traced, the same fan-out rebuilt from sweep.RunRaw,
// rewound environments and stats.MergeRuns, so each seed can be probed.
// Both must give the same digest.
func churnUnit(seed int64, traced bool) unit {
	if traced {
		return churnTraced(seed)
	}
	sp := startSpan()
	tsv, events, _, err := sweepPresets(seed, false)
	wall, cpu := sp.end()
	if err != nil {
		return unit{seed: seed, err: err}
	}
	return unit{seed: seed, wall: wall, cpu: cpu, events: events, digest: digest(tsv, events), paperErr: math.NaN()}
}

func churnCheck(seed int64) checkResult {
	t0 := time.Now()
	tsv, events, violations, err := sweepPresets(seed, true)
	return checkResult{digest: digest(tsv, events), violations: violations, wall: time.Since(t0).Seconds(), err: err}
}

// sweepPresets runs experiments.Sweep over every churn preset and returns
// the merged bands as TSV, the events, and any invariant violations.
func sweepPresets(seed int64, check bool) (string, uint64, []string, error) {
	var tsv strings.Builder
	var events uint64
	var violations []string
	for _, id := range churnPresets {
		res, err := experiments.Sweep(id, churnSweep(seed, check))
		if err == nil && len(res.Failures) > 0 {
			err = fmt.Errorf("%s: %s", id, strings.Join(res.Failures, "; "))
		}
		if err != nil {
			return "", 0, nil, err
		}
		tsv.WriteString(res.TSV())
		events += res.Engine.Events
		violations = append(violations, res.Violations...)
	}
	return tsv.String(), events, violations, nil
}

func churnTraced(seed int64) unit {
	u := unit{seed: seed, paperErr: math.NaN()}
	cfg := churnSweep(seed, false)
	u.workers = cfg.Workers
	var tsv strings.Builder
	sp := startSpan()
	for _, mk := range churnSpecs() {
		envs := make([]*env, cfg.Workers) // one arena per worker, as in experiments.Sweep
		walls := make([]float64, cfg.Seeds)
		layers := make([]layerCounts, cfg.Seeds)
		events := make([]uint64, cfg.Seeds)
		t0 := time.Now()
		runs, fails := sweep.RunRaw(cfg, func(worker int, s int64) []*stats.Series {
			e := envs[worker]
			if e == nil {
				e = newEnv(s)
				envs[worker] = e
			} else {
				e.rewind(s)
			}
			r, err := runOn(e, mk(), true)
			if err != nil {
				panic(err) // RunRaw reports it as the seed's failure
			}
			i := cfg.Index(s)
			walls[i], layers[i], events[i] = r.wall, r.layers, r.events
			return r.series
		})
		u.sweepWall += time.Since(t0).Seconds()
		if len(fails) > 0 {
			return unit{seed: seed, err: fails[0]}
		}
		t1 := time.Now()
		bands := stats.MergeRuns(runs, cfg.CI)
		u.mergeS += time.Since(t1).Seconds()
		tsv.WriteString((&experiments.SweepResult{Bands: bands}).TSV())
		for i := range walls {
			u.seedWalls = append(u.seedWalls, walls[i])
			u.layers.add(layers[i])
			u.events += events[i]
		}
	}
	u.wall, u.cpu = sp.end()
	u.digest = digest(tsv.String(), u.events)
	return u
}

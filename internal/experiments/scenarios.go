package experiments

import (
	"fmt"

	"repro/internal/scenario"
)

// The scenario presets ride in the same registry as the paper figures —
// stable IDs and tags — so tfmccbench lists, measures and
// regression-gates them like any figure, and tfmccsim runs them via
// -scenario with parameter overrides.
func init() {
	for _, p := range scenario.Presets() {
		p := p
		addEntry(Entry{
			ID:    p.ID,
			Title: p.Title,
			Tags:  []string{TagEngine, TagSweep, TagScenario},
			Spec:  p.Make,
			Run: func(c *RunCtx, seed int64) *Result {
				return RunSpec(c, p.ID, p.Make(), seed)
			},
		})
	}
}

// runScenario executes a compile-time figure spec on the context's
// pooled environment. Build failures panic: these specs are
// compile-time constants, so failure is a programmer bug (the
// mustScenario contract).
func (c *RunCtx) runScenario(spec *scenario.Spec, seed int64) *scenario.Scenario {
	return mustScenario(scenario.Run(c.ScenarioEnv(seed), spec))
}

// RunSpec executes a declarative scenario spec and renders a generic
// Result: every collected series plus steady-state digest notes. Figure
// runners do their own post-processing; presets (and command-line
// override runs) share this one.
func RunSpec(c *RunCtx, id string, spec *scenario.Spec, seed int64) *Result {
	res, err := RunSpecErr(c, id, spec, seed)
	if err != nil {
		panic(err)
	}
	return res
}

// RunSpecErr is RunSpec with build failures as structured errors instead
// of panics — the form data-loaded specs (JSON files, fuzz inputs,
// hypothesis workloads) go through, where a malformed spec is an input
// problem rather than a programmer bug.
func RunSpecErr(c *RunCtx, id string, spec *scenario.Spec, seed int64) (*Result, error) {
	sc, err := scenario.Run(c.ScenarioEnv(seed), spec)
	if err != nil {
		return nil, err
	}
	c.harvestRecovery(sc.Sess.Sender)
	res := &Result{Figure: id, Title: spec.Title, Series: sc.Series()}
	half := spec.Duration / 2
	for _, s := range res.Series {
		res.Notes = append(res.Notes, fmt.Sprintf("%-24s mean=%10.1f, second half=%10.1f",
			s.Name, s.Mean(), s.MeanBetween(half, spec.Duration)))
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"topology %s, %d receivers declared, %d flows, %d timed events, %.0fs",
		spec.Topology.Kind, spec.DeclaredReceivers(), len(sc.Flows), len(spec.Events), spec.Duration.Seconds()))
	return res, nil
}

// RunSpecKeyed runs an arbitrary (typically data-loaded) spec under its
// own arena key, the way RunOverridden does for registry-backed specs:
// repeated runs of the same key rewind the cached topology.
func RunSpecKeyed(c *RunCtx, key string, spec *scenario.Spec, seed int64) (*Result, error) {
	defer c.begin("spec-" + key)()
	return RunSpecErr(c, key, spec, seed)
}

// RunOverridden runs a Spec-backed registry entry with command-line
// overrides applied; the RunCtx arena key includes the entry id so
// repeated runs reuse the cached topology.
func RunOverridden(c *RunCtx, id string, ov scenario.Overrides, seed int64) (*Result, error) {
	e, ok := Lookup(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown scenario %q (have %v)", id, ScenarioIDs())
	}
	if e.Spec == nil {
		return nil, fmt.Errorf("experiments: %q is not scenario-backed (have %v)", id, ScenarioIDs())
	}
	spec, err := e.Spec().Apply(ov)
	if err != nil {
		return nil, err
	}
	defer c.begin("scenario-" + id)()
	return RunSpecErr(c, id, spec, seed)
}

// ScenarioIDs returns the ids of every Spec-backed entry (figures with a
// single declarative scenario, plus all presets) in enumeration order.
func ScenarioIDs() []string {
	var out []string
	for _, e := range Entries() {
		if e.Spec != nil {
			out = append(out, e.ID)
		}
	}
	return out
}

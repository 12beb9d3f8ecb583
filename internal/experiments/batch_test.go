package experiments

import (
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// driveScenario builds spec on a fresh seed-1 environment, starts it,
// lets drive advance the clock to the spec's end and returns the run's
// series TSV and processed event count.
func driveScenario(t *testing.T, spec *scenario.Spec, drive func(sc *scenario.Scenario, end sim.Time)) (string, uint64) {
	t.Helper()
	env := NewRunCtx().ScenarioEnv(1)
	sc, err := scenario.Build(env, spec)
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	sc.Start()
	drive(sc, spec.Duration)
	res := &Result{Figure: spec.Name, Series: sc.Series()}
	return res.TSV(), env.Sch.Processed()
}

// TestBatchModeScenarioIdentity pins batched dispatch at the scenario
// level: burst dispatch and coalesced link delivery change no output
// byte. Each preset runs once through Scenario.RunUntil, the batched
// path every run takes, and once with the clock advanced event by event
// through Scheduler.Step, which never opens a run window, so no link
// arrival is drained inline. Both must render identical series from
// the same number of events. The presets cover runtime link mutation
// (degrade), receiver churn against tree caching (flashcrowd) and the
// pooled cohort (cohort64).
func TestBatchModeScenarioIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full-simulation scenarios")
	}
	batched := func(sc *scenario.Scenario, end sim.Time) { sc.RunUntil(end) }
	stepped := func(sc *scenario.Scenario, end sim.Time) {
		sch := sc.Env.Sch
		for {
			at, ok := sch.PeekTime()
			if !ok || at > end {
				break
			}
			sch.Step()
		}
		sc.RunUntil(end) // nothing left to run; moves the clock to end
	}
	for _, id := range []string{"degrade", "flashcrowd", "cohort64"} {
		e, ok := Lookup(id)
		if !ok || e.Spec == nil {
			t.Fatalf("%s: not a scenario-backed registry entry", id)
		}
		bTSV, bEvents := driveScenario(t, e.Spec(), batched)
		sTSV, sEvents := driveScenario(t, e.Spec(), stepped)
		if bTSV != sTSV {
			t.Errorf("%s: batched output differs from event-at-a-time output", id)
		}
		if bEvents != sEvents {
			t.Errorf("%s: batched run processed %d events, event-at-a-time %d", id, bEvents, sEvents)
		}
	}
}

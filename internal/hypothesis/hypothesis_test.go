package hypothesis

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestSuiteJSONRoundTrip pins the wire format of every committed-suite
// hypothesis: Encode -> Decode -> Encode must be a byte fixpoint, so
// hypothesis documents exported from the suite can be committed, hand
// edited and re-run without drift.
func TestSuiteJSONRoundTrip(t *testing.T) {
	for _, h := range Suite() {
		enc, err := h.Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", h.ID, err)
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", h.ID, err)
		}
		enc2, err := dec.Encode()
		if err != nil {
			t.Fatalf("%s: re-encode: %v", h.ID, err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Errorf("%s: Encode->Decode->Encode is not a fixpoint", h.ID)
		}
	}
}

func TestDecodeRejectsUnknownAndTrailing(t *testing.T) {
	if _, err := Decode([]byte(`{"id":"x","bogus_field":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := Decode([]byte(`{"id":"x"}{"id":"y"}`)); err == nil {
		t.Error("trailing document accepted")
	}
}

// TestChaosScheduleDeterministic pins the chaos generator contract: the
// same plan over the same spec always appends the same fault script,
// independent of how often or where it is applied; a different schedule
// seed draws a different script.
func TestChaosScheduleDeterministic(t *testing.T) {
	p := &ChaosPlan{Level: 2, Seed: 5}
	a, err := p.Apply(scenario.Partition())
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Apply(scenario.Partition())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Error("same plan and spec produced different schedules")
	}
	c, err := (&ChaosPlan{Level: 2, Seed: 6}).Apply(scenario.Partition())
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Error("different schedule seeds drew identical schedules")
	}
	if a.Name == "partition" || a.Session.Cfg == nil {
		t.Errorf("applied spec not renamed/configured: name=%q cfg=%v", a.Name, a.Session.Cfg)
	}
	if len(a.Events) <= len(scenario.Partition().Events) {
		t.Error("no chaos events appended")
	}
}

// TestChaosHealsInsideRun checks every drawn outage heals strictly
// before the end of the run, so post-chaos expectations always observe a
// fully healed network.
func TestChaosHealsInsideRun(t *testing.T) {
	for lvl := 1; lvl <= 3; lvl++ {
		for seed := int64(1); seed <= 20; seed++ {
			sp, err := (&ChaosPlan{Level: lvl, Seed: seed}).Apply(scenario.Partition())
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range sp.Events {
				if e.At >= sp.Duration {
					t.Fatalf("level %d seed %d: event at %v >= duration %v", lvl, seed, e.At, sp.Duration)
				}
			}
		}
	}
}

// brokenHypothesis is a cheap workload with a deliberately impossible
// bound: the sender rate of a short partition run can never reach
// 1e12 B/s.
func brokenHypothesis() *Hypothesis {
	sp := scenario.Partition()
	sp.Name = "partition-short"
	sp.Duration = 20 * sim.Second
	return &Hypothesis{
		ID:       "broken-bound",
		Workload: Workload{Spec: sp},
		Seeds:    SeedSet{Base: 1, Count: 1},
		Expect: []Expectation{
			{RateFloor: &RateBound{Series: "sender rate", Bound: 1e12}},
		},
	}
}

// TestBrokenBoundFails pins the failure path end to end: an impossible
// bound must produce a failing verdict whose report carries the measured
// value against the bound it was judged by.
func TestBrokenBoundFails(t *testing.T) {
	if testing.Short() {
		t.Skip("full-simulation run")
	}
	v, err := Run(brokenHypothesis(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Pass {
		t.Fatal("impossible bound passed")
	}
	rep := v.Report()
	if !strings.Contains(rep, "FAIL") || !strings.Contains(rep, "vs floor 1000000000000.00") {
		t.Errorf("report lacks measured-vs-bound detail:\n%s", rep)
	}
	m := v.Expectations[0].PerSeed[0]
	if m.Pass || m.Bound != 1e12 || m.Measured >= 1e12 || m.Measured < 0 {
		t.Errorf("per-seed measure = %+v, want failing measured<bound", m)
	}
}

// TestJudgedRunDeterministic runs the same hypothesis twice and expects
// verdicts identical down to every measured value.
func TestJudgedRunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full-simulation run")
	}
	h := brokenHypothesis()
	a, err := Run(h, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(h, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("verdicts differ across runs/worker counts:\n%+v\nvs\n%+v", a, b)
	}
}

// TestExpectationOneOf rejects empty and doubly-populated expectations.
func TestExpectationOneOf(t *testing.T) {
	h := &Hypothesis{
		ID:       "bad",
		Workload: Workload{Scenario: "partition"},
		Expect:   []Expectation{{}},
	}
	if _, err := Run(h, 0); err == nil {
		t.Error("empty expectation accepted")
	}
	h.Expect = []Expectation{{
		RateFloor:             &RateBound{Series: "x"},
		NoInvariantViolations: &NoInvariantViolations{},
	}}
	if _, err := Run(h, 0); err == nil {
		t.Error("doubly-populated expectation accepted")
	}
}

// TestWorkloadOneOf rejects workloads with zero or two sources.
func TestWorkloadOneOf(t *testing.T) {
	if _, _, err := (Workload{}).Resolve(); err == nil {
		t.Error("empty workload resolved")
	}
	w := Workload{Scenario: "partition", Spec: scenario.Partition()}
	if _, _, err := w.Resolve(); err == nil {
		t.Error("doubly-populated workload resolved")
	}
}

package benchreport

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/sweep"
)

// cheapOnly is a selection that exercises analytic figures, one real
// engine figure and the session scenario while staying fast enough to
// measure repeatedly in a unit test.
var cheapOnly = []string{"1", "2", "14", "17", "session100x10"}

func TestPlanEnumeration(t *testing.T) {
	plan, err := NewPlan(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 35 { // 21 figures + 13 scenario presets + session
		t.Fatalf("full plan has %d items, want 35", len(plan))
	}
	for i, it := range plan {
		if it.Seq != i {
			t.Fatalf("item %d (%s) has seq %d", i, it.ID, it.Seq)
		}
	}
	if plan[len(plan)-1].ID != SessionID {
		t.Fatalf("session not last: %s", plan[len(plan)-1].ID)
	}
	// Scenario presets keep their names as report ids and are selectable.
	sel, err := NewPlan([]string{"flashcrowd"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 1 || sel[0].ID != "flashcrowd" || sel[0].FigureID != "flashcrowd" {
		t.Fatalf("preset selection wrong: %+v", sel)
	}
}

func TestPlanOnlySelection(t *testing.T) {
	// Bare figure ids, report ids and the session alias all resolve, and
	// selection keeps enumeration order regardless of argument order.
	plan, err := NewPlan([]string{"session", "figure9", "1"})
	if err != nil {
		t.Fatal(err)
	}
	got := []string{plan[0].ID, plan[1].ID, plan[2].ID}
	want := []string{"figure1", "figure9", SessionID}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("selection order %v, want %v", got, want)
	}
}

func TestPlanOnlyErrors(t *testing.T) {
	if _, err := NewPlan([]string{"999"}); err == nil {
		t.Fatal("unknown id must error")
	}
	if _, err := NewPlan([]string{"9", "9"}); err == nil {
		t.Fatal("duplicate id must error")
	}
	if _, err := NewPlan([]string{"9", "figure9"}); err == nil {
		t.Fatal("duplicate id via alias must error")
	}
}

// measure runs a real (small) measurement of a cheap selection.
func measure(t *testing.T, only []string, seeds int) *Report {
	t.Helper()
	plan, err := NewPlan(only)
	if err != nil {
		t.Fatal(err)
	}
	return Measure(plan, sweep.Config{Seeds: seeds, Workers: 1, Base: 1}, io.Discard)
}

// TestMeasureNormalizesSeeds: a seed count below one is normalized once,
// so the header, every scenario's runs and the session loop all count
// the same single seed, and the report equals a one-seed measurement.
func TestMeasureNormalizesSeeds(t *testing.T) {
	only := []string{"14", "session"}
	zero := measure(t, only, 0).Strip()
	if zero.Seeds != 1 {
		t.Fatalf("header seeds = %d, want 1", zero.Seeds)
	}
	for _, m := range zero.Scenarios {
		if m.Runs != 1 || m.Events == 0 {
			t.Fatalf("%s: runs %d, events %d; want one seed swept", m.ID, m.Runs, m.Events)
		}
	}
	if got, want := mustEncode(t, zero), mustEncode(t, measure(t, only, 1).Strip()); string(got) != string(want) {
		t.Fatalf("seeds 0 report differs from seeds 1:\n%s\nvs\n%s", got, want)
	}
}

func TestCompareGatesRegressions(t *testing.T) {
	mk := func(ns, allocs float64) *Report {
		return &Report{Scenarios: []Metrics{
			{ID: "figure9", NSPerEvent: ns, AllocsPerEvt: allocs},
			{ID: "figure1", Analytic: true, WallNS: 1},
		}}
	}
	base := mk(100, 0.010)
	if regs, _ := Compare(base, mk(110, 0.011), 0.15); len(regs) != 0 {
		t.Fatalf("10%% drift gated: %v", regs)
	}
	regs, _ := Compare(base, mk(120, 0.012), 0.15)
	if len(regs) != 2 {
		t.Fatalf("20%% regression not gated on both metrics: %v", regs)
	}
	// Analytic figures are exempt however much their wall time moves.
	slow := mk(100, 0.010)
	slow.Scenarios[1].WallNS = 1e12
	if regs, _ := Compare(base, slow, 0.15); len(regs) != 0 {
		t.Fatalf("analytic figure gated: %v", regs)
	}
	// A scenario missing on either side is a note, not a silent pass.
	missing := &Report{Scenarios: []Metrics{{ID: "figure9", NSPerEvent: 100, AllocsPerEvt: 0.01}}}
	if _, notes := Compare(base, missing, 0.15); len(notes) == 0 {
		t.Fatal("missing scenario must be noted")
	}
}

// TestCompareNormalizesMachineSpeed: with enough scenarios the ns gate is
// relative to the suite-wide median ratio, so a uniformly slower CI
// runner does not fail the build, while one scenario regressing against
// the rest still does. allocs/event stays an absolute gate.
func TestCompareNormalizesMachineSpeed(t *testing.T) {
	mk := func(scale float64, slowOne bool) *Report {
		r := &Report{}
		for i := 0; i < 5; i++ {
			ns := 100.0 * scale
			if slowOne && i == 0 {
				ns *= 1.4
			}
			r.Scenarios = append(r.Scenarios, Metrics{
				ID: fmt.Sprintf("figure%d", 9+i), NSPerEvent: ns, AllocsPerEvt: 0.01,
			})
		}
		return r
	}
	base := mk(1, false)
	// Whole suite 2x slower (different machine): no ns regression gated.
	if regs, _ := Compare(base, mk(2, false), 0.15); len(regs) != 0 {
		t.Fatalf("uniform machine slowdown gated: %v", regs)
	}
	// Same slow machine, but one scenario regressed 40% beyond the rest.
	regs, _ := Compare(base, mk(2, true), 0.15)
	if len(regs) != 1 || regs[0].ID != "figure9" || regs[0].Metric != "ns/event" {
		t.Fatalf("relative ns regression not gated: %v", regs)
	}
	// allocs/event is machine-independent: raw 20% regression gates even
	// though ns is uniform.
	worse := mk(1, false)
	for i := range worse.Scenarios {
		worse.Scenarios[i].AllocsPerEvt = 0.012
	}
	if regs, _ := Compare(base, worse, 0.15); len(regs) != 5 {
		t.Fatalf("allocs regression not gated absolutely: %v", regs)
	}
}

func TestStripDropsTimingFields(t *testing.T) {
	rep := measure(t, cheapOnly, 2)
	s := rep.Strip()
	if !s.Deterministic || s.Generated != "" {
		t.Fatalf("strip left header fields: %+v", s)
	}
	for _, m := range s.Scenarios {
		if m.WallNS != 0 || m.Allocs != 0 || m.NSPerEvent != 0 || m.Setup != nil {
			t.Fatalf("strip left timing fields on %s: %+v", m.ID, m)
		}
	}
	// The original is untouched and engine scenarios kept their counters.
	hasEvents := false
	for _, m := range rep.Scenarios {
		if m.Events > 0 {
			hasEvents = true
		}
	}
	if !hasEvents {
		t.Fatal("measurement produced no engine events at all")
	}
	if strings.Contains(string(mustEncode(t, s)), "wall_ns") {
		t.Fatal("stripped encoding still mentions wall_ns")
	}
}

func mustEncode(t *testing.T, r *Report) []byte {
	t.Helper()
	enc, err := r.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestRecoveryFieldsJSON pins the recovery metrics' report contract:
// zero values vanish from the JSON, so BENCH_engine.json stays
// byte-stable for fault-free scenarios.
func TestRecoveryFieldsJSON(t *testing.T) {
	zero, err := json.Marshal(Metrics{ID: "x"})
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"clr_losses", "reelections", "rate_recoveries", "reelect_ns", "rate_recover_ns"} {
		if strings.Contains(string(zero), field) {
			t.Errorf("zero recovery field %q serialised: %s", field, zero)
		}
	}
}

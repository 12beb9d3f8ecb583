// Package hypothesis turns protocol predictions into judged runs: a
// Hypothesis names a workload (a registry scenario, a JSON spec file, an
// inline spec — optionally perturbed by a seeded chaos fault schedule),
// a seed set, and a list of typed Expectations ("after the heal at
// t=90s the sender re-attains 80% of its steady rate within 30s", "the
// rate never leaves [floor, ceiling]", "no invariant violations"). The
// judge executes the workload over the seed set through the existing
// sweep/RunCtx machinery with the run-level invariant checker armed, and
// produces a structured Verdict: pass/fail per expectation, measured vs
// bound, per-seed breakdown.
//
// Hypotheses serialise to JSON like scenario specs, so prediction suites
// ship as data (`tfmcchyp -run spec.json`); the committed suite
// (suite.go) gates CI through `tfmcchyp -suite`.
package hypothesis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Workload selects what a hypothesis runs. Exactly one of Scenario, File
// or Spec is set; Chaos optionally layers a seeded fault schedule over
// the selected spec.
type Workload struct {
	Scenario string         `json:"scenario,omitempty"` // Spec-backed registry entry id
	File     string         `json:"file,omitempty"`     // JSON spec document path
	Spec     *scenario.Spec `json:"spec,omitempty"`     // inline spec
	Chaos    *ChaosPlan     `json:"chaos,omitempty"`    // seeded fault schedule on top
}

// SeedSet is a contiguous seed range, the same shape sweep.Config fans
// out. Zero values mean base 1, count 1.
type SeedSet struct {
	Base  int64 `json:"base,omitempty"`
	Count int   `json:"count,omitempty"`
}

func (s SeedSet) normalized() SeedSet {
	if s.Base == 0 {
		s.Base = 1
	}
	if s.Count < 1 {
		s.Count = 1
	}
	return s
}

// Hypothesis is one judged prediction: workload + seeds + expectations.
type Hypothesis struct {
	ID       string        `json:"id"`
	Title    string        `json:"title,omitempty"`
	Workload Workload      `json:"workload,omitzero"`
	Seeds    SeedSet       `json:"seeds,omitzero"`
	Expect   []Expectation `json:"expect,omitempty"`
}

// Expectation is one typed pass criterion. Exactly one field is set,
// mirroring the one-of convention of scenario.Step and scenario.Event.
type Expectation struct {
	RecoverWithin         *RecoverWithin         `json:"recover_within,omitempty"`
	RateFloor             *RateBound             `json:"rate_floor,omitempty"`
	RateCeiling           *RateBound             `json:"rate_ceiling,omitempty"`
	NoInvariantViolations *NoInvariantViolations `json:"no_invariant_violations,omitempty"`
	CLRReelectedBy        *CLRReelectedBy        `json:"clr_reelected_by,omitempty"`
	CounterBound          *CounterBound          `json:"counter_bound,omitempty"`
	SeriesWithinBand      *SeriesWithinBand      `json:"series_within_band,omitempty"`
}

// RecoverWithin asserts that a sampled series re-attains a fraction of
// its pre-fault baseline within a deadline of a trigger instant — the
// "after the heal at t=After the rate recovers within Within" shape.
// The baseline is the series mean over [BaselineFrom, BaselineTo)
// (BaselineTo 0 means After, so the default baseline window ends at the
// trigger).
type RecoverWithin struct {
	Series       string   `json:"series"`
	After        sim.Time `json:"after_ns"`       // trigger instant (crash, heal)
	Within       sim.Time `json:"within_ns"`      // recovery deadline from After
	Frac         float64  `json:"frac,omitempty"` // required baseline fraction; default 0.8
	BaselineFrom sim.Time `json:"baseline_from_ns,omitempty"`
	BaselineTo   sim.Time `json:"baseline_to_ns,omitempty"` // 0 = After
}

// RateBound asserts that every sample of a series inside [From, To)
// stays above (RateFloor) or below (RateCeiling) Bound. To 0 means the
// end of the run. A NaN sample fails either direction, so a floor of
// zero doubles as a "rate never NaNs" check.
type RateBound struct {
	Series string   `json:"series"`
	From   sim.Time `json:"from_ns,omitempty"`
	To     sim.Time `json:"to_ns,omitempty"`
	Bound  float64  `json:"bound"`
}

// NoInvariantViolations asserts the run-level invariant checker (always
// armed on judged runs) recorded at most Allow violations for the seed.
type NoInvariantViolations struct {
	Allow int `json:"allow,omitempty"`
}

// CLRReelectedBy asserts the sender lost its CLR at least MinLosses
// times (default 1) and that every loss found a successor, the worst
// episode taking at most Within of simulated time.
type CLRReelectedBy struct {
	Within    sim.Time `json:"within_ns"`
	MinLosses int64    `json:"min_losses,omitempty"`
}

// CounterBound brackets one engine counter for the seed's run. Nil ends
// are unbounded; Counter is one of events, packets_sent,
// packets_delivered, unreachable, corrupted, duplicated, clr_losses,
// reelections, rate_recoveries.
type CounterBound struct {
	Counter string `json:"counter"`
	Min     *int64 `json:"min,omitempty"`
	Max     *int64 `json:"max,omitempty"`
}

// SeriesWithinBand compares a collected series point-for-point against a
// golden trajectory: the timestamps must match exactly and each value
// must stay within Abs + Rel·|golden| of the golden value.
type SeriesWithinBand struct {
	Series string    `json:"series"`
	Golden []GoldenP `json:"golden,omitempty"`
	Abs    float64   `json:"abs,omitempty"`
	Rel    float64   `json:"rel,omitempty"`
}

// GoldenP is one golden sample (integer-nanosecond timestamp, value).
type GoldenP struct {
	T sim.Time `json:"t_ns"`
	V float64  `json:"v"`
}

// GoldenFromSeries converts a collected series into golden points.
func GoldenFromSeries(s *stats.Series) []GoldenP {
	out := make([]GoldenP, len(s.Points))
	for i, p := range s.Points {
		out[i] = GoldenP{T: p.T, V: p.V}
	}
	return out
}

// kind returns the one-of discriminator and its payload description for
// verdict labelling, or an error when the one-of is mis-populated.
func (e Expectation) kind() (string, string, error) {
	var kinds []string
	var desc string
	if e.RecoverWithin != nil {
		kinds = append(kinds, "recover_within")
		desc = fmt.Sprintf("%q recovers to %.0f%% of baseline within %v of t=%v",
			e.RecoverWithin.Series, e.RecoverWithin.frac()*100, e.RecoverWithin.Within, e.RecoverWithin.After)
	}
	if e.RateFloor != nil {
		kinds = append(kinds, "rate_floor")
		desc = fmt.Sprintf("%q stays >= %.1f over %s", e.RateFloor.Series, e.RateFloor.Bound, e.RateFloor.window())
	}
	if e.RateCeiling != nil {
		kinds = append(kinds, "rate_ceiling")
		desc = fmt.Sprintf("%q stays <= %.1f over %s", e.RateCeiling.Series, e.RateCeiling.Bound, e.RateCeiling.window())
	}
	if e.NoInvariantViolations != nil {
		kinds = append(kinds, "no_invariant_violations")
		desc = fmt.Sprintf("at most %d invariant violations", e.NoInvariantViolations.Allow)
	}
	if e.CLRReelectedBy != nil {
		kinds = append(kinds, "clr_reelected_by")
		desc = fmt.Sprintf("every CLR loss (>= %d) re-elects within %v",
			e.CLRReelectedBy.minLosses(), e.CLRReelectedBy.Within)
	}
	if e.CounterBound != nil {
		kinds = append(kinds, "counter_bound")
		desc = fmt.Sprintf("counter %q in %s", e.CounterBound.Counter, e.CounterBound.bounds())
	}
	if e.SeriesWithinBand != nil {
		kinds = append(kinds, "series_within_band")
		desc = fmt.Sprintf("%q within abs=%.3g rel=%.3g of %d golden points",
			e.SeriesWithinBand.Series, e.SeriesWithinBand.Abs, e.SeriesWithinBand.Rel, len(e.SeriesWithinBand.Golden))
	}
	if len(kinds) != 1 {
		return "", "", fmt.Errorf("hypothesis: expectation must set exactly one kind, has %v", kinds)
	}
	return kinds[0], desc, nil
}

func (r *RecoverWithin) frac() float64 {
	if r.Frac == 0 {
		return 0.8
	}
	return r.Frac
}

func (r *RateBound) window() string {
	if r.To == 0 {
		return fmt.Sprintf("[%v, end)", r.From)
	}
	return fmt.Sprintf("[%v, %v)", r.From, r.To)
}

func (c *CLRReelectedBy) minLosses() int64 {
	if c.MinLosses == 0 {
		return 1
	}
	return c.MinLosses
}

func (c *CounterBound) bounds() string {
	lo, hi := "-inf", "+inf"
	if c.Min != nil {
		lo = fmt.Sprint(*c.Min)
	}
	if c.Max != nil {
		hi = fmt.Sprint(*c.Max)
	}
	return fmt.Sprintf("[%s, %s]", lo, hi)
}

// --- JSON codec (same strictness contract as scenario specs) -----------

type hypAlias Hypothesis

// MarshalJSON renders the hypothesis in its canonical wire form.
func (h *Hypothesis) MarshalJSON() ([]byte, error) {
	return json.Marshal((*hypAlias)(h))
}

// UnmarshalJSON decodes a hypothesis strictly: unknown fields are errors.
func (h *Hypothesis) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var a hypAlias
	if err := dec.Decode(&a); err != nil {
		return err
	}
	*h = Hypothesis(a)
	return nil
}

// Encode renders the hypothesis as an indented JSON document.
func (h *Hypothesis) Encode() ([]byte, error) {
	enc, err := json.MarshalIndent(h, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(enc, '\n'), nil
}

// Decode parses one hypothesis document, rejecting unknown fields and
// trailing content.
func Decode(data []byte) (*Hypothesis, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	h := &Hypothesis{}
	if err := dec.Decode(h); err != nil {
		return nil, fmt.Errorf("hypothesis: decode: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("hypothesis: trailing content after document")
	}
	return h, nil
}

// Load reads a hypothesis document from disk.
func Load(path string) (*Hypothesis, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	h, err := Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return h, nil
}

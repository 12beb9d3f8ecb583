package hypothesis

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// SeedMeasure is one seed's judgement of one expectation.
type SeedMeasure struct {
	Seed     int64   `json:"seed"`
	Pass     bool    `json:"pass"`
	Measured float64 `json:"measured"` // what the run produced (units per kind)
	Bound    float64 `json:"bound"`    // the bound it was judged against
	Detail   string  `json:"detail,omitempty"`
}

// ExpectationVerdict is one expectation judged across every seed.
type ExpectationVerdict struct {
	Kind    string        `json:"kind"`
	Desc    string        `json:"desc"`
	Pass    bool          `json:"pass"`
	PerSeed []SeedMeasure `json:"per_seed"`
}

// Verdict is the structured report of one judged hypothesis.
type Verdict struct {
	ID           string               `json:"id"`
	Title        string               `json:"title,omitempty"`
	Workload     string               `json:"workload"`
	SeedBase     int64                `json:"seed_base"`
	SeedCount    int                  `json:"seed_count"`
	Pass         bool                 `json:"pass"`
	Expectations []ExpectationVerdict `json:"expectations"`
}

// Report renders the verdict for terminals: one line per expectation
// with the worst seed's measured-vs-bound, plus per-seed failure lines.
func (v *Verdict) Report() string {
	var b strings.Builder
	status := "PASS"
	if !v.Pass {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "%s %s (%s, seeds %d..%d)\n", status, v.ID, v.Workload,
		v.SeedBase, v.SeedBase+int64(v.SeedCount)-1)
	for _, ev := range v.Expectations {
		mark := "pass"
		if !ev.Pass {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "  [%s] %s: %s\n", mark, ev.Kind, ev.Desc)
		for _, m := range ev.PerSeed {
			if !m.Pass || !ev.Pass {
				fmt.Fprintf(&b, "         seed %d: %s\n", m.Seed, m.Detail)
			}
		}
	}
	return b.String()
}

// outcome is everything one seed's run exposes to the judges.
type outcome struct {
	seed       int64
	err        error
	series     map[string]*stats.Series
	stats      experiments.EngineStats
	violations []string
	duration   sim.Time
}

// Resolve materialises the workload's scenario spec (chaos applied) and
// a stable arena key for it.
func (w Workload) Resolve() (*scenario.Spec, string, error) {
	var spec *scenario.Spec
	var key string
	set := 0
	if w.Scenario != "" {
		set++
		e, ok := experiments.Lookup(w.Scenario)
		if !ok || e.Spec == nil {
			return nil, "", fmt.Errorf("hypothesis: workload scenario %q is not a Spec-backed registry entry", w.Scenario)
		}
		spec, key = e.Spec(), w.Scenario
	}
	if w.File != "" {
		set++
		s, err := scenario.LoadSpec(w.File)
		if err != nil {
			return nil, "", err
		}
		spec, key = s, "file-"+w.File
	}
	if w.Spec != nil {
		set++
		spec, key = w.Spec, "inline-"+w.Spec.Name
	}
	if set != 1 {
		return nil, "", fmt.Errorf("hypothesis: workload must set exactly one of scenario, file, spec (has %d)", set)
	}
	if w.Chaos != nil {
		perturbed, err := w.Chaos.Apply(spec)
		if err != nil {
			return nil, "", err
		}
		spec = perturbed
		key = fmt.Sprintf("%s-chaos%d-s%d", key, w.Chaos.Level, w.Chaos.seed())
	}
	return spec, key, nil
}

// Run executes and judges one hypothesis. The workload runs once per
// seed, fanned over workers (< 1 means 1) through the sweep machinery —
// each worker owns one RunCtx with the invariant checker armed, so repeated
// seeds rewind the cached topology exactly like figure sweeps — and
// every expectation is then judged against the per-seed outcomes in
// seed order, making the verdict independent of the worker count.
// The returned error covers malformed hypotheses (bad workload ref,
// mis-populated expectation); workload build/run failures are judged
// (they fail every expectation), not returned.
func Run(h *Hypothesis, workers int) (*Verdict, error) {
	if h.ID == "" {
		return nil, fmt.Errorf("hypothesis: missing id")
	}
	if len(h.Expect) == 0 {
		return nil, fmt.Errorf("hypothesis %s: no expectations", h.ID)
	}
	spec, key, err := h.Workload.Resolve()
	if err != nil {
		return nil, fmt.Errorf("hypothesis %s: %w", h.ID, err)
	}
	for _, e := range h.Expect {
		if _, _, err := e.kind(); err != nil {
			return nil, fmt.Errorf("hypothesis %s: %w", h.ID, err)
		}
	}

	seeds := h.Seeds.normalized()
	cfg := sweep.Config{Seeds: seeds.Count, Workers: workers, Base: seeds.Base}.Normalized()
	ctxs := make([]*experiments.RunCtx, cfg.Workers)
	for i := range ctxs {
		ctxs[i] = experiments.NewRunCtx()
		ctxs[i].EnableInvariants()
	}
	outcomes := make([]*outcome, cfg.Seeds)
	_, seedErrs := sweep.RunRaw(cfg, func(worker int, seed int64) []*stats.Series {
		ctx := ctxs[worker]
		ctx.ResetStats()
		o := &outcome{seed: seed, duration: spec.Duration}
		outcomes[cfg.Index(seed)] = o
		res, err := experiments.RunSpecKeyed(ctx, key, spec, seed)
		o.stats = ctx.Stats()
		for _, v := range ctx.Violations() {
			o.violations = append(o.violations, v.String())
		}
		if err != nil {
			o.err = err
			return nil
		}
		o.series = map[string]*stats.Series{}
		for _, s := range res.Series {
			o.series[s.Name] = s
		}
		return nil
	})
	for _, se := range seedErrs {
		i := cfg.Index(se.Seed)
		if outcomes[i] == nil {
			outcomes[i] = &outcome{seed: se.Seed, duration: spec.Duration}
		}
		if outcomes[i].err == nil {
			outcomes[i].err = fmt.Errorf("%s", se.Msg)
		}
	}

	v := &Verdict{
		ID: h.ID, Title: h.Title, Workload: key,
		SeedBase: seeds.Base, SeedCount: seeds.Count, Pass: true,
	}
	for _, e := range h.Expect {
		kind, desc, _ := e.kind()
		ev := ExpectationVerdict{Kind: kind, Desc: desc, Pass: true}
		for _, o := range outcomes {
			m := e.judge(o)
			m.Seed = o.seed
			if !m.Pass {
				ev.Pass = false
			}
			ev.PerSeed = append(ev.PerSeed, m)
		}
		if !ev.Pass {
			v.Pass = false
		}
		v.Expectations = append(v.Expectations, ev)
	}
	return v, nil
}

// judge evaluates the expectation against one seed's outcome.
func (e Expectation) judge(o *outcome) SeedMeasure {
	if o.err != nil {
		return SeedMeasure{Detail: fmt.Sprintf("run failed: %v", o.err)}
	}
	switch {
	case e.RecoverWithin != nil:
		return e.RecoverWithin.judge(o)
	case e.RateFloor != nil:
		return e.RateFloor.judgeFloor(o)
	case e.RateCeiling != nil:
		return e.RateCeiling.judgeCeiling(o)
	case e.NoInvariantViolations != nil:
		return e.NoInvariantViolations.judge(o)
	case e.CLRReelectedBy != nil:
		return e.CLRReelectedBy.judge(o)
	case e.CounterBound != nil:
		return e.CounterBound.judge(o)
	case e.SeriesWithinBand != nil:
		return e.SeriesWithinBand.judge(o)
	}
	return SeedMeasure{Detail: "empty expectation"} // unreachable: kind() validated
}

func (o *outcome) lookup(name string) (*stats.Series, SeedMeasure, bool) {
	s, ok := o.series[name]
	if !ok || len(s.Points) == 0 {
		return nil, SeedMeasure{Detail: fmt.Sprintf("series %q not collected (or empty)", name)}, false
	}
	return s, SeedMeasure{}, true
}

func (r *RecoverWithin) judge(o *outcome) SeedMeasure {
	s, fail, ok := o.lookup(r.Series)
	if !ok {
		return fail
	}
	to := r.BaselineTo
	if to == 0 {
		to = r.After
	}
	baseline := s.MeanBetween(r.BaselineFrom, to)
	target := r.frac() * baseline
	bound := r.Within.Seconds()
	for _, p := range s.Points {
		if p.T >= r.After && p.V >= target {
			rec := (p.T - r.After).Seconds()
			return SeedMeasure{
				Pass: rec <= bound, Measured: rec, Bound: bound,
				Detail: fmt.Sprintf("re-attained %.1f (%.0f%% of baseline %.1f) after %.2fs vs bound %.2fs",
					target, r.frac()*100, baseline, rec, bound),
			}
		}
	}
	return SeedMeasure{
		Pass: false, Measured: -1, Bound: bound,
		Detail: fmt.Sprintf("never re-attained %.1f (%.0f%% of baseline %.1f) after t=%v vs bound %.2fs",
			target, r.frac()*100, baseline, r.After, bound),
	}
}

// extreme scans the window for the min (floor) or max (ceiling) sample;
// any NaN poisons the result.
func (r *RateBound) extreme(o *outcome, wantMin bool) (float64, int, bool) {
	s, _, ok := o.lookup(r.Series)
	if !ok {
		return 0, 0, false
	}
	to := r.To
	if to == 0 {
		to = sim.MaxTime
	}
	ext, n := math.NaN(), 0
	for _, p := range s.Points {
		if p.T < r.From || p.T >= to {
			continue
		}
		n++
		if math.IsNaN(p.V) {
			return math.NaN(), n, true
		}
		if n == 1 || (wantMin && p.V < ext) || (!wantMin && p.V > ext) {
			ext = p.V
		}
	}
	return ext, n, true
}

func (r *RateBound) judgeFloor(o *outcome) SeedMeasure {
	lo, n, ok := r.extreme(o, true)
	if !ok {
		_, fail, _ := o.lookup(r.Series)
		return fail
	}
	if n == 0 {
		return SeedMeasure{Detail: fmt.Sprintf("series %q has no samples in %s", r.Series, r.window())}
	}
	return SeedMeasure{
		Pass: lo >= r.Bound, Measured: sanitize(lo), Bound: r.Bound,
		Detail: fmt.Sprintf("min %.2f vs floor %.2f over %s (%d samples)", lo, r.Bound, r.window(), n),
	}
}

func (r *RateBound) judgeCeiling(o *outcome) SeedMeasure {
	hi, n, ok := r.extreme(o, false)
	if !ok {
		_, fail, _ := o.lookup(r.Series)
		return fail
	}
	if n == 0 {
		return SeedMeasure{Detail: fmt.Sprintf("series %q has no samples in %s", r.Series, r.window())}
	}
	return SeedMeasure{
		Pass: hi <= r.Bound, Measured: sanitize(hi), Bound: r.Bound,
		Detail: fmt.Sprintf("max %.2f vs ceiling %.2f over %s (%d samples)", hi, r.Bound, r.window(), n),
	}
}

func (nv *NoInvariantViolations) judge(o *outcome) SeedMeasure {
	n := len(o.violations)
	m := SeedMeasure{
		Pass: n <= nv.Allow, Measured: float64(n), Bound: float64(nv.Allow),
		Detail: fmt.Sprintf("%d violations vs allowed %d", n, nv.Allow),
	}
	if !m.Pass {
		m.Detail += ": " + o.violations[0]
	}
	return m
}

func (c *CLRReelectedBy) judge(o *outcome) SeedMeasure {
	st := o.stats
	worst := st.ReelectNS.Seconds()
	bound := c.Within.Seconds()
	switch {
	case st.CLRLosses < c.minLosses():
		return SeedMeasure{Measured: float64(st.CLRLosses), Bound: float64(c.minLosses()),
			Detail: fmt.Sprintf("%d CLR losses vs required >= %d", st.CLRLosses, c.minLosses())}
	case st.Reelections < st.CLRLosses:
		return SeedMeasure{Measured: float64(st.Reelections), Bound: float64(st.CLRLosses),
			Detail: fmt.Sprintf("only %d of %d CLR losses re-elected a successor", st.Reelections, st.CLRLosses)}
	default:
		return SeedMeasure{
			Pass: worst <= bound, Measured: worst, Bound: bound,
			Detail: fmt.Sprintf("%d losses all re-elected, worst %.2fs vs bound %.2fs", st.CLRLosses, worst, bound),
		}
	}
}

func (c *CounterBound) judge(o *outcome) SeedMeasure {
	var v int64
	switch c.Counter {
	case "events":
		v = int64(o.stats.Events)
	case "packets_sent":
		v = o.stats.PacketsSent
	case "packets_delivered":
		v = o.stats.PacketsDelivered
	case "unreachable":
		v = o.stats.Unreachable
	case "corrupted":
		v = o.stats.Corrupted
	case "duplicated":
		v = o.stats.Duplicated
	case "clr_losses":
		v = o.stats.CLRLosses
	case "reelections":
		v = o.stats.Reelections
	case "rate_recoveries":
		v = o.stats.RateRecoveries
	default:
		return SeedMeasure{Detail: fmt.Sprintf("unknown counter %q", c.Counter)}
	}
	pass := (c.Min == nil || v >= *c.Min) && (c.Max == nil || v <= *c.Max)
	return SeedMeasure{
		Pass: pass, Measured: float64(v),
		Detail: fmt.Sprintf("%s = %d vs bounds %s", c.Counter, v, c.bounds()),
	}
}

func (b *SeriesWithinBand) judge(o *outcome) SeedMeasure {
	s, fail, ok := o.lookup(b.Series)
	if !ok {
		return fail
	}
	if len(s.Points) != len(b.Golden) {
		return SeedMeasure{Measured: float64(len(s.Points)), Bound: float64(len(b.Golden)),
			Detail: fmt.Sprintf("%d samples vs %d golden points", len(s.Points), len(b.Golden))}
	}
	// measured is the worst deviation as a multiple of its local
	// allowance Abs + Rel·|golden|; the bound is therefore 1.
	worst := 0.0
	detail := "all points within band"
	for i, g := range b.Golden {
		p := s.Points[i]
		if p.T != g.T {
			return SeedMeasure{Detail: fmt.Sprintf("point %d at t=%v, golden at t=%v", i, p.T, g.T)}
		}
		allow := b.Abs + b.Rel*math.Abs(g.V)
		dev := math.Abs(p.V - g.V)
		ratio := math.Inf(1)
		if allow > 0 {
			ratio = dev / allow
		} else if dev == 0 {
			ratio = 0
		}
		if ratio > worst || math.IsNaN(ratio) {
			worst = ratio
			detail = fmt.Sprintf("worst point t=%v: %.3f vs golden %.3f (deviation %.3g, allowed %.3g)",
				p.T, p.V, g.V, dev, allow)
		}
	}
	return SeedMeasure{Pass: worst <= 1 && !math.IsNaN(worst), Measured: sanitize(worst), Bound: 1, Detail: detail}
}

// sanitize maps non-finite measurements to -1 so verdicts always
// marshal to valid JSON; the detail string carries the real story.
func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}

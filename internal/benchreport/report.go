// Package benchreport produces and compares the BENCH_engine.json
// engine-benchmark reports emitted by cmd/tfmccbench.
//
// A report measures a *plan*: the registry's figures (in enumeration
// order) plus the session micro-scenario, each stamped with its
// plan-relative sequence number. Once timing-dependent fields are
// stripped (Deterministic), two reports of the same plan, seeds and
// worker count are byte-identical.
package benchreport

import (
	"encoding/json"
	"fmt"
	"os"
)

// SetupAmort quantifies how arena reuse amortises scenario construction:
// cold is the first run on a fresh arena, warm the mean of the rewound
// reruns.
type SetupAmort struct {
	ColdAllocs     uint64  `json:"cold_allocs"`
	WarmAllocs     float64 `json:"warm_allocs_per_run"`
	AllocReduction float64 `json:"alloc_reduction"`
}

// Metrics is one scenario's aggregate engine measurement. Events and
// packet counts are simulation-deterministic (same seeds ⇒ same values
// on any machine); wall time and allocation fields are not, and are the
// ones Deterministic strips.
type Metrics struct {
	ID           string   `json:"id"`
	Seq          int      `json:"seq"` // position in the measured plan
	Title        string   `json:"title"`
	Tags         []string `json:"tags,omitempty"`
	Runs         int      `json:"runs"` // seeds swept
	Analytic     bool     `json:"analytic,omitempty"`
	WallNS       int64    `json:"wall_ns,omitempty"`
	Events       uint64   `json:"events"`
	PacketsSent  int64    `json:"packets_sent"`
	PacketsDeliv int64    `json:"packets_delivered"`
	// Fault-injection counters (simulation-deterministic, zero — and
	// omitted — unless the scenario schedules faults).
	Unreachable int64 `json:"unreachable,omitempty"`
	Corrupted   int64 `json:"corrupted,omitempty"`
	Duplicated  int64 `json:"duplicated,omitempty"`
	// Batch-dispatch diagnostics. Batches counts dispatch batches;
	// MeanBatch = Events/Batches is the mean occupancy. Unlike the
	// counters above these vary with -check (checker ticks add events),
	// so Strip removes them: they are measurement diagnostics for
	// benchdiff history, not part of the deterministic identity.
	Batches   uint64  `json:"batches,omitempty"`
	MeanBatch float64 `json:"mean_batch,omitempty"`
	// Recovery-time counters (simulation-deterministic, zero — and
	// omitted — unless a run lost its CLR without an immediate successor).
	// Counts sum across the sweep's seeds; the _ns fields are the worst
	// (maximum) episode of any seed, in simulated nanoseconds.
	CLRLosses      int64 `json:"clr_losses,omitempty"`
	Reelections    int64 `json:"reelections,omitempty"`
	RateRecoveries int64 `json:"rate_recoveries,omitempty"`
	ReelectNS      int64 `json:"reelect_ns,omitempty"`
	RateRecoverNS  int64 `json:"rate_recover_ns,omitempty"`
	// Violations holds run-level invariant violations (only collected
	// when the run enables checking); Failures records seeds whose run
	// panicked and was excluded from the merge. Both deterministic.
	Violations    []string    `json:"violations,omitempty"`
	Failures      []string    `json:"failures,omitempty"`
	Allocs        uint64      `json:"allocs,omitempty"`
	EventsPerSec  float64     `json:"events_per_sec,omitempty"`
	PacketsPerSec float64     `json:"packets_per_sec,omitempty"`
	NSPerEvent    float64     `json:"ns_per_event,omitempty"`
	AllocsPerEvt  float64     `json:"allocs_per_event,omitempty"`
	Setup         *SetupAmort `json:"setup_amortization,omitempty"`
}

// Report is the BENCH_engine.json document.
type Report struct {
	Generated string `json:"generated,omitempty"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Seeds     int    `json:"seeds"` // seeds swept per scenario (tfmccbench: 1..Seeds)
	Workers   int    `json:"workers"`
	// PlanSize and PlanIDs record the measured plan — its size and every
	// scenario id in order — so a reader can tell which selection
	// (tfmccbench -only) a report covers.
	PlanSize int      `json:"plan_size"`
	PlanIDs  []string `json:"plan,omitempty"`
	// WallNS is the whole measurement's wall time, recorded in the bench
	// history. Stripped in the deterministic form.
	WallNS int64 `json:"wall_ns,omitempty"`
	// Deterministic marks a report stripped of timing-dependent fields,
	// the form compared byte-for-byte across runs.
	Deterministic bool      `json:"deterministic,omitempty"`
	Scenarios     []Metrics `json:"scenarios"`
}

// Encode renders the report exactly as tfmccbench writes it to disk.
func (r *Report) Encode() ([]byte, error) {
	enc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(enc, '\n'), nil
}

// WriteFile writes the encoded report to path ("-" for stdout).
func (r *Report) WriteFile(path string) error {
	enc, err := r.Encode()
	if err != nil {
		return err
	}
	if path == "-" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(path, enc, 0o644)
}

// Load reads a report from disk.
func Load(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &Report{}
	if err := json.Unmarshal(raw, r); err != nil {
		return nil, fmt.Errorf("benchreport: %s: %w", path, err)
	}
	return r, nil
}

// Strip returns a deterministic copy stripped of every field that depends on
// wall time, the allocator or the clock — generated stamp, wall/rate
// metrics, allocation counts and setup amortisation — leaving only
// simulation-deterministic counters. Two deterministic reports of the
// same plan, seeds and worker count are byte-identical.
func (r *Report) Strip() *Report {
	out := *r
	out.Generated = ""
	out.Deterministic = true
	out.WallNS = 0
	out.Scenarios = make([]Metrics, len(r.Scenarios))
	for i, m := range r.Scenarios {
		m.WallNS = 0
		m.Allocs = 0
		m.EventsPerSec = 0
		m.PacketsPerSec = 0
		m.NSPerEvent = 0
		m.AllocsPerEvt = 0
		m.Setup = nil
		m.Batches = 0
		m.MeanBatch = 0
		out.Scenarios[i] = m
	}
	return &out
}

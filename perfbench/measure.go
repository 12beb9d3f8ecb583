package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"syscall"
	"time"
)

// workload is one benchmark input family. A run cycles its units through
// the unit seeds seed, seed+stride, ..., seed+(cycle-1)*stride, so every
// unit seed repeats and its digest can be compared with its earlier units.
type workload struct {
	cycle      int  // distinct unit seeds a run cycles through
	stride     int  // seeds one unit covers
	setupReps  int  // scenario builds timed before measuring
	sweepSetup bool // users pay rewound builds (a sweep), not cold ones

	// setup times one cold and one rewound build of the unit's scenarios.
	setup func(seed int64) (setupSample, error)
	// unit runs one measured unit, traced or not.
	unit func(seed int64, traced bool) unit
	// check reruns seed through the library path with the invariant
	// checker on.
	check func(seed int64) checkResult
}

type setupSample struct {
	cold, rewound float64 // host seconds
	nodes         int
}

// unit is one measured unit of work.
type unit struct {
	seed      int64
	wall, cpu float64 // host and process CPU seconds of the simulated run
	events    uint64
	digest    string
	paperErr  float64 // relative error against the paper's statement; NaN when not reached

	// Traced units only.
	layers    layerCounts
	seedWalls []float64 // host seconds of each seed run in the unit
	workers   int
	sweepWall float64 // host seconds of the unit's seed fan-out
	mergeS    float64 // host seconds merging per-seed series

	// Filled in by measure.
	heapPeak           float64 // bytes
	allocs, allocBytes uint64

	err error
}

type checkResult struct {
	digest     string
	violations []string
	wall       float64
	err        error
}

// digest fingerprints a run's output: every series as TSV plus the event
// count.
func digest(tsv string, events uint64) string {
	h := sha256.Sum256(fmt.Appendf([]byte(tsv), "events=%d\n", events))
	return hex.EncodeToString(h[:8])
}

// report is everything one benchmark run measured.
type report struct {
	traced     bool
	sweepSetup bool
	setups     []setupSample
	units      []unit
	ref        *unit // untraced reference unit of a traced run
	check      checkResult
	fold       *profileFold
	gcShare    float64
	notes      []string // readable lines: digests, failures
	problems   []string // failed checks
	attempted  int
	failed     int
}

func (r *report) correct() bool { return r.failed == 0 }

// fail records a failed attempt.
func (r *report) fail(format string, a ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

// measure runs the set-up phase, the measured units for the budget, and
// the correctness passes of one benchmark run.
func measure(w *workload, seed int64, seconds float64, traced bool, committed map[string]string) *report {
	r := &report{traced: traced, sweepSetup: w.sweepSetup}
	for i := 0; i < w.setupReps; i++ {
		runtime.GC()
		s, err := w.setup(seed)
		if err != nil {
			r.attempted++
			r.fail("setup: %v", err)
			return r
		}
		r.setups = append(r.setups, s)
	}

	first := map[int64]string{} // seed -> digest of its first unit
	seen := func(u *unit, what string) {
		r.attempted++
		switch {
		case u.err != nil:
			r.fail("%s seed %d: %v", what, u.seed, u.err)
		case first[u.seed] == "":
			first[u.seed] = u.digest
			status := "none committed"
			if c, ok := committed[fmt.Sprint(u.seed)]; ok {
				status = "committed match"
				if c != u.digest {
					status = "DIFFERS from committed " + c
				}
			}
			r.notes = append(r.notes, fmt.Sprintf("digest seed=%d %s events=%d (%s)", u.seed, u.digest, u.events, status))
		case first[u.seed] != u.digest:
			r.fail("%s seed %d: digest %s differs from the run's first %s", what, u.seed, u.digest, first[u.seed])
		}
	}

	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			r.attempted++
			r.fail("cpu profile: %v", err)
			return r
		}
	}
	cpu0 := cpuMetrics()
	start := time.Now()
	for i := 0; i < 2 || time.Since(start).Seconds() < seconds; i++ {
		u := runUnit(w, seed+int64(i%w.cycle*w.stride), traced)
		seen(&u, "unit")
		r.units = append(r.units, u)
		if u.err != nil {
			break
		}
	}
	if traced {
		pprof.StopCPUProfile()
		cpu1 := cpuMetrics()
		if total := cpu1[1] - cpu0[1]; total > 0 {
			r.gcShare = (cpu1[0] - cpu0[0]) / total
		}
		f, err := foldProfile(&prof)
		if err != nil {
			r.fail("cpu profile: %v", err)
		}
		r.fold = f
		ref := runUnit(w, seed, false)
		seen(&ref, "untraced reference")
		r.ref = &ref
	}

	runtime.GC()
	r.check = w.check(seed)
	r.attempted++
	switch c := r.check; {
	case c.err != nil:
		r.fail("checked run seed %d: %v", seed, c.err)
	case len(c.violations) > 0:
		r.fail("checked run seed %d: %d invariant violations, first: %s", seed, len(c.violations), c.violations[0])
	case c.digest != first[seed]:
		r.fail("checked run seed %d: digest %s differs from the measured %s", seed, c.digest, first[seed])
	default:
		r.notes = append(r.notes, fmt.Sprintf("checked run seed=%d: 0 invariant violations, digest matches", seed))
	}
	return r
}

// runUnit runs one unit with a fresh heap and samples its heap peak and
// allocations.
func runUnit(w *workload, seed int64, traced bool) (u unit) {
	runtime.GC()
	a0 := allocMetrics()
	stop := sampleHeapPeak()
	defer func() {
		if p := recover(); p != nil {
			u = unit{seed: seed, err: fmt.Errorf("panic: %v", p)}
		}
		u.heapPeak = stop()
		a1 := allocMetrics()
		u.allocs, u.allocBytes = a1[0]-a0[0], a1[1]-a0[1]
	}()
	return w.unit(seed, traced)
}

// span measures host and process CPU seconds of a stretch of work.
type span struct {
	t0   time.Time
	cpu0 float64
}

func startSpan() span { return span{time.Now(), processCPU()} }

func (s span) end() (wall, cpu float64) {
	return time.Since(s.t0).Seconds(), processCPU() - s.cpu0
}

func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func readMetrics(names ...string) []metrics.Sample {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// allocMetrics returns cumulative heap allocations: objects, bytes.
func allocMetrics() [2]uint64 {
	s := readMetrics("/gc/heap/allocs:objects", "/gc/heap/allocs:bytes")
	return [2]uint64{s[0].Value.Uint64(), s[1].Value.Uint64()}
}

// cpuMetrics returns the runtime's cumulative CPU estimates: GC, total.
func cpuMetrics() [2]float64 {
	s := readMetrics("/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds")
	return [2]float64{s[0].Value.Float64(), s[1].Value.Float64()}
}

// sampleHeapPeak samples the live heap, as the last garbage collection
// marked it, every 5 ms until the returned function is called; that
// function stops the sampler, waits for it and returns the highest
// reading. The live heap, unlike the allocated one, does not swing with
// the phase of the collector.
func sampleHeapPeak() func() float64 {
	var peak uint64 // written by one goroutine at a time, ordered by wg
	s := readMetrics("/gc/heap/live:bytes")
	read := func() {
		metrics.Read(s)
		peak = max(peak, s[0].Value.Uint64())
	}
	read()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				read()
			}
		}
	}()
	return func() float64 {
		close(done)
		wg.Wait()
		read()
		return float64(peak)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// over collects f over units.
func over(us []unit, f func(u *unit) float64) []float64 {
	out := make([]float64, len(us))
	for i := range us {
		out[i] = f(&us[i])
	}
	return out
}

// endToEnd returns the end-to-end metrics: from the measured units of an
// untraced run, from the untraced reference unit of a traced one.
func (r *report) endToEnd() map[string]float64 {
	us := r.units
	if r.traced {
		if r.ref == nil {
			return nil
		}
		us = []unit{*r.ref}
	}
	setup := make([]float64, len(r.setups))
	for i, su := range r.setups {
		setup[i] = su.cold
		if r.sweepSetup {
			setup[i] = su.rewound
		}
	}
	return map[string]float64{
		"run_s":        median(over(us, func(u *unit) float64 { return u.wall })),
		"setup_s":      median(setup),
		"ns_per_event": median(over(us, func(u *unit) float64 { return u.wall * 1e9 / float64(u.events) })),
		"cpu_s":        median(over(us, func(u *unit) float64 { return u.cpu })),
		"peak_heap_mb": median(over(us, func(u *unit) float64 { return u.heapPeak / (1 << 20) })),
	}
}

// perLayer returns the per-layer metrics of a traced run.
func (r *report) perLayer() map[string]float64 {
	us := r.units
	med := func(f func(l *layerCounts) float64) float64 {
		return median(over(us, func(u *unit) float64 { return f(&u.layers) }))
	}
	// Recv cost and worker occupancy are ratios of sums over the run.
	var calls, ns, busy, workerWall float64
	var seedWalls []float64
	for i := range us {
		calls += float64(us[i].layers.recvCalls)
		ns += float64(us[i].layers.recvNS)
		seedWalls = append(seedWalls, us[i].seedWalls...)
		for _, s := range us[i].seedWalls {
			busy += s
		}
		workerWall += float64(us[i].workers) * us[i].sweepWall
	}
	perEvent := func(f func(u *unit) float64) float64 {
		return median(over(us, func(u *unit) float64 { return f(u) / float64(u.events) }))
	}
	m := map[string]float64{
		"sim.events":                    median(over(us, func(u *unit) float64 { return float64(u.events) })),
		"sim.batches":                   med(func(l *layerCounts) float64 { return float64(l.batches) }),
		"sim.mean_batch":                median(over(us, func(u *unit) float64 { return float64(u.events) / math.Max(1, float64(u.layers.batches)) })),
		"sim.pending_peak":              med(func(l *layerCounts) float64 { return float64(l.pendingPeak) }),
		"simnet.packets_sent":           med(func(l *layerCounts) float64 { return float64(l.sent) }),
		"simnet.packets_delivered":      med(func(l *layerCounts) float64 { return float64(l.delivered) }),
		"simnet.queue_drops":            med(func(l *layerCounts) float64 { return float64(l.queueDrops) }),
		"simnet.ring_held_peak":         med(func(l *layerCounts) float64 { return float64(l.ringPeak) }),
		"simnet.live_packets_peak":      med(func(l *layerCounts) float64 { return float64(l.livePeak) }),
		"simnet.unreachable":            med(func(l *layerCounts) float64 { return float64(l.unreachable) }),
		"tfmcc.recv_calls":              med(func(l *layerCounts) float64 { return float64(l.recvCalls) }),
		"tfmcc.recv_s":                  med(func(l *layerCounts) float64 { return float64(l.recvNS) / 1e9 }),
		"tfmcc.recv_ns_per_call":        ns / math.Max(1, calls),
		"tfmcc.reports_sent":            med(func(l *layerCounts) float64 { return float64(l.reports) }),
		"tfmcc.reelections":             med(func(l *layerCounts) float64 { return float64(l.reelections) }),
		"tcpsim.recv_calls":             med(func(l *layerCounts) float64 { return float64(l.tcpCalls) }),
		"sweep.seed_s_p50":              median(seedWalls),
		"sweep.seed_s_max":              maxOf(seedWalls),
		"sweep.worker_busy_share":       busy / workerWall,
		"sweep.merge_s":                 median(over(us, func(u *unit) float64 { return u.mergeS })),
		"runtime.gc_cpu_share":          r.gcShare,
		"runtime.allocs_per_event":      perEvent(func(u *unit) float64 { return float64(u.allocs) }),
		"runtime.alloc_bytes_per_event": perEvent(func(u *unit) float64 { return float64(u.allocBytes) }),
		"invariant.check_overhead":      r.overhead(r.check.wall),
		"trace.overhead":                r.overhead(median(r.refSeedWalls())),
	}
	var cold, rewound, nodes []float64
	for _, s := range r.setups {
		cold = append(cold, s.cold)
		rewound = append(rewound, s.rewound)
		nodes = append(nodes, float64(s.nodes))
	}
	m["scenario.build_s"] = median(cold)
	m["scenario.rewind_build_s"] = median(rewound)
	m["simnet.nodes"] = median(nodes)
	if f := r.fold; f != nil {
		for _, l := range []string{"sim", "simnet", "tfmcc", "tcpsim", "stats"} {
			m[l+".cpu_share"] = f.share(l)
		}
		m["tcpsim.recv_s"] = f.tcpRecvSeconds / float64(len(us))
	}
	return m
}

// overhead is the extra host time of wall over the untraced reference
// unit, as a share of the reference.
func (r *report) overhead(wall float64) float64 {
	if r.ref == nil {
		return math.NaN()
	}
	return wall/r.ref.wall - 1
}

// refSeedWalls returns the host seconds of the traced units that ran the
// reference unit's seed.
func (r *report) refSeedWalls() []float64 {
	var walls []float64
	for _, u := range r.units {
		if r.ref != nil && u.seed == r.ref.seed {
			walls = append(walls, u.wall)
		}
	}
	return walls
}

func (r *report) print(w io.Writer) {
	for _, s := range r.setups {
		fmt.Fprintf(w, "setup cold_s=%.6f rewound_s=%.6f nodes=%d\n", s.cold, s.rewound, s.nodes)
	}
	for i, u := range r.units {
		fmt.Fprintf(w, "unit %d seed=%d run_s=%.4f cpu_s=%.4f events=%d ns_per_event=%.1f heap_mb=%.1f digest=%s",
			i, u.seed, u.wall, u.cpu, u.events, u.wall*1e9/math.Max(1, float64(u.events)), u.heapPeak/(1<<20), u.digest)
		if !math.IsNaN(u.paperErr) {
			fmt.Fprintf(w, " paper_error=%.4f", u.paperErr)
		}
		fmt.Fprintln(w)
	}
	if len(r.units) > 0 {
		var pe []float64
		for _, u := range r.units {
			if !math.IsNaN(u.paperErr) {
				pe = append(pe, u.paperErr)
			}
		}
		if len(pe) > 0 {
			fmt.Fprintf(w, "paper_error median=%.4f over %d units\n", median(pe), len(pe))
		} else {
			fmt.Fprintln(w, "paper_error not reported: the run does not reach a point the paper states")
		}
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
	fmt.Fprintf(w, "attempted=%d failed=%d failed_share=%.4f\n", r.attempted, r.failed,
		float64(r.failed)/math.Max(1, float64(r.attempted)))
	if f := r.fold; f != nil {
		fmt.Fprintf(w, "cpu profile: %d samples, %.3f of them in the benchmark's probes; program samples by layer:", f.total, f.benchShare())
		for _, l := range f.layers() {
			fmt.Fprintf(w, " %s=%.3f", l, f.share(l))
		}
		fmt.Fprintln(w)
	}
}

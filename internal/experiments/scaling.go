package experiments

import (
	"math"

	"repro/internal/lossrate"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcpmodel"
)

// Figure 7 operates at the estimator level (no discrete-event engine),
// so it is registered as analytic.
func init() { registerAnalytic("7", "Scaling: throughput vs number of receivers", true, Figure7) }

// Figure7 reproduces the throughput-degradation analysis of section 3:
// with n receivers seeing independent loss, TFMCC tracks the minimum of
// the receivers' calculated rates, which shrinks with n. Two loss
// distributions are compared: every receiver at a constant 10% loss
// (worst case), and a multicast-tree-like distribution where only
// c·log(n) receivers have high loss. RTT 50 ms, so the one-receiver fair
// rate is ~300 Kbit/s.
//
// The simulation operates at the estimator level, like the paper's own
// analysis: each receiver maintains a TFMCC loss-interval history fed by
// geometric inter-loss gaps, and each "round" the sender adopts the
// minimum calculated rate.
func Figure7(_ *RunCtx, seed int64) *Result {
	res := &Result{Figure: "7", Title: "Scaling: throughput vs number of receivers"}
	model := tcpmodel.Default()
	const rtt = 0.050
	ns := logSpace(1, 10000, 9)

	constant := &stats.Series{Name: "constant"}
	distrib := &stats.Series{Name: "distrib."}
	for _, n := range ns {
		constant.Add(sim.FromSeconds(float64(n)), minRateSim(model, rtt, constantLoss(n, 0.10), seed))
		distrib.Add(sim.FromSeconds(float64(n)), minRateSim(model, rtt, treeLoss(n), seed+1))
	}
	toKbit(constant)
	toKbit(distrib)
	res.Series = append(res.Series, constant, distrib)
	res.Notes = append(res.Notes,
		"x axis = number of receivers (time column); y = sustained rate in Kbit/s",
		"single receiver fair rate at p=10%, RTT=50ms is ~300 Kbit/s")
	return res
}

func toKbit(s *stats.Series) {
	for i := range s.Points {
		s.Points[i].V = s.Points[i].V * 8 / 1000
	}
}

// constantLoss gives every receiver the same loss probability.
func constantLoss(n int, p float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = p
	}
	return out
}

// treeLoss mimics a multicast distribution tree (section 3): a small
// number (~2·log n) of receivers in the 5-10% range, a few more at 2-5%,
// and the vast majority between 0.5% and 2%.
func treeLoss(n int) []float64 {
	out := make([]float64, n)
	rng := sim.NewRand(int64(n) * 13)
	high := int(2 * math.Log(float64(n)+1))
	mid := 2 * high
	for i := range out {
		switch {
		case i < high:
			out[i] = rng.Uniform(0.05, 0.10)
		case i < high+mid:
			out[i] = rng.Uniform(0.02, 0.05)
		default:
			out[i] = rng.Uniform(0.005, 0.02)
		}
	}
	return out
}

// minRateSim runs the estimator-level minimum-tracking simulation: each
// receiver's loss history advances by geometric gaps; every round the
// minimum calculated rate over all receivers is sampled. Returns the mean
// of the minimum rate in bytes/s.
func minRateSim(model tcpmodel.Params, rtt float64, loss []float64, seed int64) float64 {
	n := len(loss)
	rng := sim.NewRand(seed)
	ests := make([]*lossrate.Estimator, n)
	now := sim.Time(0)
	const rounds = 260
	const warmup = 60
	for i := range ests {
		ests[i] = lossrate.NewEstimator(lossrate.DefaultWeights)
		// Prime each history with 8 intervals.
		for k := 0; k < 9; k++ {
			gap := rng.Geometric(loss[i])
			for j := 0; j < gap-1; j++ {
				ests[i].OnPacket()
			}
			now += sim.Second
			ests[i].OnLoss(now, sim.FromSeconds(rtt))
		}
	}
	var sum float64
	for r := 0; r < rounds; r++ {
		minRate := math.Inf(1)
		for i := range ests {
			// Advance one loss interval per round.
			gap := rng.Geometric(loss[i])
			for j := 0; j < gap-1; j++ {
				ests[i].OnPacket()
			}
			now += sim.Second
			ests[i].OnLoss(now, sim.FromSeconds(rtt))
			p := ests[i].LossEventRate()
			rate := model.Throughput(p, rtt)
			if rate < minRate {
				minRate = rate
			}
		}
		if r >= warmup {
			sum += minRate
		}
	}
	return sum / float64(rounds-warmup)
}

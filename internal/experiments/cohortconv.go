package experiments

import (
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sim"
)

func init() {
	register("cohortconv", "Cohort-of-N receivers track N explicit receivers (figure 9 setting)", CohortConv)
}

// cohortTwinSpec is the explicit-population twin of the cohort%d preset:
// the identical figure 9 setting with the analytic cohort replaced by n
// explicit receivers, each behind its own fast access hop.
func cohortTwinSpec(n int) *scenario.Spec {
	sp := scenario.CohortFig9(n)()
	sp.Name = fmt.Sprintf("cohorttwin%d", n)
	sp.Cohort = nil
	sp.Pop = &scenario.Population{Count: n, Parent: scenario.AttachPoint(0), Meter: "TFMCC"}
	return sp
}

// CohortConv validates the cohort receiver model: for each N in
// {16, 64, 256} it runs the cohort%d preset and its explicit-population
// twin on the same seed and compares (a) the steady-state sender rate
// and (b) the analytic expected-reports-per-round against the twin's
// measured feedback volume. Paper shape: the suppression mechanism makes
// session behaviour nearly independent of N, so each pair should agree
// within a narrow band.
func CohortConv(c *RunCtx, seed int64) *Result {
	res := &Result{Figure: "cohortconv",
		Title: "Cohort-of-N receivers track N explicit receivers (figure 9 setting)"}
	const from, to = 60 * sim.Second, 120 * sim.Second
	for _, n := range []int{16, 64, 256} {
		cs := scenario.CohortFig9(n)()
		cs.Duration = to
		csc := c.runScenario(cs, seed)
		cRate := csc.Samples[0].MeanBetween(from, to)
		cThr := csc.Recvs[0].Meter.Series
		cThr.Name = fmt.Sprintf("TFMCC cohort n=%d", n)

		ts := cohortTwinSpec(n)
		ts.Duration = to
		tsc := c.runScenario(ts, seed)
		tRate := tsc.Samples[0].MeanBetween(from, to)
		tThr := tsc.Recvs[0].Meter.Series
		tThr.Name = fmt.Sprintf("TFMCC explicit n=%d", n)

		res.Series = append(res.Series, cThr, tThr)
		res.Notes = append(res.Notes, fmt.Sprintf(
			"n=%-4d steady sender rate (60-120s): cohort=%.0f B/s, explicit=%.0f B/s, ratio=%.2f",
			n, cRate, tRate, cRate/tRate))

		// Feedback volume: the suppression expectation the cohort accrues
		// per solicited round, and the wire cost of each representation —
		// one endpoint's reports vs the whole explicit population's.
		var twinReports int64
		for _, slot := range tsc.Recvs {
			if slot.R != nil {
				twinReports += slot.R.Stats().ReportsSent
			}
		}
		if cr, ok := csc.Recvs[0].R.(interface {
			ExpectedReportsPerRound() (float64, int64)
		}); ok {
			em, rounds := cr.ExpectedReportsPerRound()
			if rounds > 0 {
				res.Notes = append(res.Notes, fmt.Sprintf(
					"n=%-4d feedback: analytic E[M]=%.2f per solicited round (%d rounds); reports sent cohort=%d vs explicit population=%d",
					n, em/float64(rounds), rounds, csc.Recvs[0].R.Stats().ReportsSent, twinReports))
			}
		}
	}
	return res
}

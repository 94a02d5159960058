package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/heuristics"
	"repro/internal/model"
	"repro/internal/overload"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// OverloadStudy (E21) is the demand-surge counterpart of the chaos study
// (E19): instead of removing resources, it multiplies per-string demand with
// seeded stochastic bursts and lets the worth-aware degradation controller
// shed and re-admit strings on the surge timeline. Comparing initial
// allocations from IMR (identity order), MWF, TF, and GENITOR (Seeded PSG)
// under identical surge traces tests the slackness argument under workload
// growth at runtime: the higher-slackness mapping should ride out more of
// the surge before shedding, and retain more worth through it.
type OverloadStudy struct {
	Runs    int
	Factors []float64
	// Rows[heuristic][factorIndex].
	Rows map[string][]OverloadPoint
	// InitialSlackness per heuristic.
	InitialSlackness map[string]*stats.Sample
}

// OverloadPoint aggregates one (heuristic, peak surge factor) cell.
type OverloadPoint struct {
	MaxFactor   float64
	Retained    stats.Sample // worth retained at the end of the timeline, in [0, 1]
	MinRetained stats.Sample // worth trough during the surge
	Slackness   stats.Sample // post-surge slackness
	Shed        stats.Sample // shed actions per scenario
	Readmitted  stats.Sample // re-admissions per scenario
	OverTime    stats.Sample // seconds the carried allocation was over capacity
}

// RunOverloadStudy executes E21 on scenario-3 instances. factors defaults to
// peak burst factors {1.5, 2, 3, 4}. The context is also threaded into the
// GENITOR searches; a canceled study holds only whole runs.
func RunOverloadStudy(ctx context.Context, opts Options, factors []float64) (*OverloadStudy, error) {
	if len(factors) == 0 {
		factors = []float64{1.5, 2, 3, 4}
	}
	out := &OverloadStudy{Factors: factors}
	out.Rows, out.InitialSlackness = panelRows(Panel, len(factors), func(pt *OverloadPoint, i int) { pt.MaxFactor = factors[i] })
	var err error
	out.Runs, err = eachPanel(ctx, opts, "overload study", Panel, out.InitialSlackness, func(run int, seed int64, sys *model.System, initial map[string]*heuristics.Result) error {
		for fi, f := range factors {
			burst := overload.DefaultBurst()
			burst.MaxFactor = f
			// One surge trace per (run, factor) cell, shared verbatim across
			// the heuristics so they face identical demand timelines.
			sc, err := burst.Sample(len(sys.Strings), scenarioSeed(seed, "experiments/overload", fi))
			if err != nil {
				return err
			}
			for _, name := range Panel {
				res, err := overload.Run(initial[name].Alloc, sc, overload.Config{})
				if err != nil {
					return err
				}
				if !res.Feasible {
					return fmt.Errorf("experiments: overload run %d: %s left infeasible after surge factor %v", run, name, f)
				}
				pt := &out.Rows[name][fi]
				pt.Retained.Add(res.Retained)
				pt.MinRetained.Add(res.MinRetained)
				pt.Slackness.Add(res.SlacknessAfter)
				pt.Shed.Add(float64(res.Shed))
				pt.Readmitted.Add(float64(res.Readmitted))
				pt.OverTime.Add(res.TimeOverCapacity)
			}
		}
		if telemetry.Enabled() {
			telemetry.C("experiments.overload_runs").Inc()
		}
		return nil
	})
	return out, err
}

// WriteTable renders the overload study: worth retained (final and trough)
// and post-surge slackness versus the peak surge factor.
func (c *OverloadStudy) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Study E21: worth-aware degradation under demand surges (scenario 3, %d runs)\n", c.Runs)
	for _, name := range Panel {
		fmt.Fprintf(w, "%s (initial slackness %s):\n", name, c.InitialSlackness[name].String())
		fmt.Fprintf(w, "  %6s  %22s  %14s  %22s  %6s  %9s  %10s\n",
			"factor", "retained worth", "worth trough", "slackness after", "shed", "readmits", "over-cap s")
		for _, pt := range c.Rows[name] {
			fmt.Fprintf(w, "  %6.2f  %22s  %14.3f  %22s  %6.2f  %9.2f  %10.2f\n",
				pt.MaxFactor, pt.Retained.String(), pt.MinRetained.Mean(), pt.Slackness.String(),
				pt.Shed.Mean(), pt.Readmitted.Mean(), pt.OverTime.Mean())
		}
	}
}

package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/dynamic"
	"repro/internal/faults"
	"repro/internal/heuristics"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// ChaosStudy (E19) is the Monte Carlo survivability experiment: how much
// worth does an initial allocation retain, and how much slackness is left,
// after f simultaneous compartment hits are repaired by the failover
// controller? Comparing initial allocations from IMR (identity order), MWF,
// TF, and GENITOR (Seeded PSG) tests the paper's slackness argument under
// resource loss rather than workload growth: the higher-slackness mapping
// should shed less worth when the suite shrinks.
type ChaosStudy struct {
	Runs int
	Hits []int
	// Rows[heuristic][hitIndex].
	Rows map[string][]ChaosPoint
	// InitialSlackness per heuristic.
	InitialSlackness map[string]*stats.Sample
}

// ChaosPoint aggregates one (heuristic, hit-count) cell.
type ChaosPoint struct {
	Hits      int
	Retained  stats.Sample // worth retained after failover, in [0, 1]
	Slackness stats.Sample // post-repair slackness
	Cost      stats.Sample // recovery cost in re-executed nominal seconds
	Evictions stats.Sample // strings lost per scenario
}

// RunChaosStudy executes E19 on scenario-3 instances. hits defaults to
// {1, 2, 4, 6} simultaneous compartment hits (up to half the 12-machine
// suite). The context is also threaded into the GENITOR searches; a canceled
// study holds only whole runs — every sample is complete across heuristics
// and hit counts.
func RunChaosStudy(ctx context.Context, opts Options, hits []int) (*ChaosStudy, error) {
	if len(hits) == 0 {
		hits = []int{1, 2, 4, 6}
	}
	out := &ChaosStudy{Hits: hits}
	out.Rows, out.InitialSlackness = panelRows(Panel, len(hits), func(pt *ChaosPoint, i int) { pt.Hits = hits[i] })
	var err error
	out.Runs, err = eachPanel(ctx, opts, "chaos study", Panel, out.InitialSlackness, func(run int, seed int64, sys *model.System, initial map[string]*heuristics.Result) error {
		for fi, f := range hits {
			mc := faults.MonteCarlo{CompartmentHits: f}
			sc, err := mc.Sample(sys.Machines, scenarioSeed(seed, "experiments/chaos", f))
			if err != nil {
				return err
			}
			down := faults.SetFromScenario(sc, sys.Machines)
			for _, name := range Panel {
				alloc := initial[name].Alloc.Clone()
				res, err := dynamic.Survive(alloc, down)
				if err != nil {
					return err
				}
				if !res.Feasible {
					return fmt.Errorf("experiments: chaos run %d: %s failover infeasible after %d hits", run, name, f)
				}
				if dynamic.UsesFailed(alloc, down) {
					return fmt.Errorf("experiments: chaos run %d: %s failover kept a failed resource", run, name)
				}
				pt := &out.Rows[name][fi]
				pt.Retained.Add(res.Retained)
				pt.Slackness.Add(res.SlacknessAfter)
				pt.Cost.Add(res.CostSeconds)
				pt.Evictions.Add(float64(res.NetEvictions()))
			}
		}
		if telemetry.Enabled() {
			telemetry.C("experiments.chaos_runs").Inc()
		}
		return nil
	})
	return out, err
}

// WriteTable renders the chaos study: worth-retained and slackness-after-
// repair curves versus the number of simultaneous compartment hits.
func (c *ChaosStudy) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Study E19: Monte Carlo survivability under compartment hits (scenario 3, %d runs)\n", c.Runs)
	for _, name := range Panel {
		fmt.Fprintf(w, "%s (initial slackness %s):\n", name, c.InitialSlackness[name].String())
		fmt.Fprintf(w, "  %6s  %22s  %22s  %14s  %12s\n",
			"hits", "retained worth", "slackness after", "cost (s)", "evictions")
		for _, pt := range c.Rows[name] {
			fmt.Fprintf(w, "  %6d  %22s  %22s  %14.2f  %12.2f\n",
				pt.Hits, pt.Retained.String(), pt.Slackness.String(), pt.Cost.Mean(), pt.Evictions.Mean())
		}
	}
}

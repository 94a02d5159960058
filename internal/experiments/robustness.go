package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/heuristics"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// RobustnessPoint is one workload-scale step of the robustness sweep.
type RobustnessPoint struct {
	Scale float64
	// MeanViolations is the mean QoS violation count across runs at this
	// scale; ViolatingRuns counts runs with at least one violation.
	MeanViolations float64
	ViolatingRuns  int
}

// RobustnessResult is the outcome of the slackness-absorption experiment
// (E7): the paper motivates system slackness as "the system's potential to
// absorb unpredictable increases in input workload"; this experiment
// quantifies that claim by replaying allocations in the discrete-event
// simulator under scaled workloads. The first-stage analysis predicts that
// utilizations scale linearly, so violations must appear once the scale
// exceeds 1/(1 - Λ).
type RobustnessResult struct {
	Heuristic string
	Runs      int
	// Slackness and PredictedLimit aggregate Λ and 1/(1-Λ) across runs.
	Slackness      stats.Sample
	PredictedLimit stats.Sample
	// FirstViolation aggregates, per run, the smallest swept scale with a
	// QoS violation (runs that never violate contribute nothing).
	FirstViolation stats.Sample
	CleanRuns      int // runs with no violation at any swept scale
	Points         []RobustnessPoint
}

// Robustness runs the workload-scale sweep on scenario-3 instances allocated
// by the given heuristic.
func Robustness(ctx context.Context, opts Options, heuristic string, scales []float64) (*RobustnessResult, error) {
	if len(scales) == 0 {
		scales = []float64{1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.4, 2.8, 3.2}
	}
	res := &RobustnessResult{Heuristic: heuristic, Points: make([]RobustnessPoint, len(scales))}
	for i, s := range scales {
		res.Points[i].Scale = s
	}
	cfg := opts.scenarioConfig(workload.LightlyLoaded)
	var err error
	res.Runs, err = eachSystem(ctx, opts, cfg, "robustness", func(_ int, sys *model.System, pcfg heuristics.PSGConfig) error {
		r := heuristics.Run(heuristic, sys, pcfg)
		lam := r.Metric.Slackness
		res.Slackness.Add(lam)
		if lam < 1 {
			res.PredictedLimit.Add(1 / (1 - lam))
		}
		first := 0.0
		for i, scale := range scales {
			out, err := sim.Run(r.Alloc, sim.Config{Periods: 8, WorkloadScale: scale})
			if err != nil {
				return err
			}
			res.Points[i].MeanViolations += float64(out.QoSViolations)
			if out.QoSViolations > 0 {
				res.Points[i].ViolatingRuns++
				if first == 0 {
					first = scale
				}
			}
		}
		if first > 0 {
			res.FirstViolation.Add(first)
		} else {
			res.CleanRuns++
		}
		return nil
	})
	if res.Runs > 0 { // a study canceled before its first run has no means
		for i := range res.Points {
			res.Points[i].MeanViolations /= float64(res.Runs)
		}
	}
	return res, err
}

// WriteTable renders the robustness sweep.
func (r *RobustnessResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Robustness (E7): workload-scale sweep of %s allocations on scenario 3 (%d runs)\n", r.Heuristic, r.Runs)
	fmt.Fprintf(w, "slackness Λ = %s; predicted absorption limit 1/(1-Λ) = %s\n",
		r.Slackness.String(), r.PredictedLimit.String())
	if r.FirstViolation.N() > 0 {
		fmt.Fprintf(w, "first violating scale (simulated) = %s; %d runs stayed clean across the sweep\n",
			r.FirstViolation.String(), r.CleanRuns)
	} else {
		fmt.Fprintf(w, "no run violated at any swept scale (%d clean runs)\n", r.CleanRuns)
	}
	fmt.Fprintf(w, "%8s  %16s  %14s\n", "scale", "mean violations", "violating runs")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%8.2f  %16.2f  %14d\n", p.Scale, p.MeanViolations, p.ViolatingRuns)
	}
}

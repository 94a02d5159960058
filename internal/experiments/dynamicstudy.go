package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/dynamic"
	"repro/internal/feasibility"
	"repro/internal/heuristics"
	"repro/internal/model"
	"repro/internal/stats"
)

// DynamicStudy (E16) exercises the dynamic-reallocation layer the paper's
// introduction motivates: after the input workload grows by a factor γ, the
// repair controller migrates or evicts strings until the two-stage analysis
// passes again. The study reports, per growth factor, the fraction of worth
// retained and the disruption (migrations and evictions), for initial
// allocations produced by MWF and by Seeded PSG — quantifying how the
// higher-slackness initial mapping defers disruption.
type DynamicStudy struct {
	Runs   int
	Scales []float64
	// Rows[heuristic][scaleIndex].
	Rows map[string][]DynamicPoint
	// InitialSlackness per heuristic.
	InitialSlackness map[string]*stats.Sample
}

// DynamicPoint aggregates one (heuristic, scale) cell.
type DynamicPoint struct {
	Scale          float64
	RetainedWorth  stats.Sample // WorthAfter / WorthBefore
	Migrations     stats.Sample
	Evictions      stats.Sample
	RepairFeasible int // runs where repair reached feasibility (always, by construction)
}

// dynamicPanel names the initial mappings E16 compares.
var dynamicPanel = []string{"MWF", "SeededPSG"}

// RunDynamicStudy executes E16 on scenario-3 instances.
func RunDynamicStudy(ctx context.Context, opts Options, scales []float64) (*DynamicStudy, error) {
	if len(scales) == 0 {
		scales = []float64{1.5, 2.0, 2.5, 3.0}
	}
	out := &DynamicStudy{Scales: scales}
	out.Rows, out.InitialSlackness = panelRows(dynamicPanel, len(scales), func(pt *DynamicPoint, i int) { pt.Scale = scales[i] })
	var err error
	out.Runs, err = eachPanel(ctx, opts, "dynamic study", dynamicPanel, out.InitialSlackness, func(_ int, seed int64, sys *model.System, initial map[string]*heuristics.Result) error {
		for _, name := range dynamicPanel {
			for si, scale := range scales {
				scaled, err := dynamic.ScaleWorkload(sys, scale)
				if err != nil {
					return err
				}
				alloc, err := feasibility.FromSnapshot(scaled, initial[name].Alloc.Snapshot())
				if err != nil {
					return err
				}
				res := dynamic.Repair(alloc)
				pt := &out.Rows[name][si]
				if res.WorthBefore > 0 {
					pt.RetainedWorth.Add(res.WorthAfter / res.WorthBefore)
				}
				mig, _, _ := res.Counts()
				pt.Migrations.Add(float64(mig))
				pt.Evictions.Add(float64(res.NetEvictions()))
				if res.Feasible {
					pt.RepairFeasible++
				}
			}
		}
		return nil
	})
	return out, err
}

// WriteTable renders the dynamic study.
func (d *DynamicStudy) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Study E16: dynamic reallocation after workload growth (scenario 3, %d runs)\n", d.Runs)
	for _, name := range dynamicPanel {
		fmt.Fprintf(w, "%s (initial slackness %s):\n", name, d.InitialSlackness[name].String())
		fmt.Fprintf(w, "  %8s  %22s  %14s  %14s\n", "scale", "retained worth", "migrations", "evictions")
		for _, pt := range d.Rows[name] {
			fmt.Fprintf(w, "  %8.2f  %22s  %14.2f  %14.2f\n",
				pt.Scale, pt.RetainedWorth.String(), pt.Migrations.Mean(), pt.Evictions.Mean())
		}
	}
}

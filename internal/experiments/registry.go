package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/workload"
)

// Studies is the registry behind cmd/experiments: every -exp name with its
// DESIGN.md section-4 experiment ID, in the order "-exp all" prints them. Run
// executes the study and writes its table, followed by a blank line, to w.
var Studies = []struct {
	Name, ID string
	Run      func(ctx context.Context, opts Options, w io.Writer) error
}{
	{"table1", "E2", func(_ context.Context, _ Options, w io.Writer) error {
		writeTable1(w)
		return nil
	}},
	{"fig2", "E1", func(_ context.Context, _ Options, w io.Writer) error {
		cases, err := Figure2()
		if err != nil {
			return err
		}
		WriteFigure2(w, cases)
		fmt.Fprintln(w)
		return nil
	}},
	{"fig3", "E3", tabled(Figure3)},
	{"fig4", "E4", tabled(Figure4)},
	{"fig5", "E5", tabled(Figure5)},
	{"timing", "E6", tabled(Timing)},
	{"seeding", "E8", tabled(SeedingStudy)},
	{"worthmix", "E15", tabled(WorthMixStudy)},
	{"ssg", "E10", tabled(SSGStudy)},
	{"worthscheme", "E14", tabled(WorthSchemeStudy)},
	{"termination", "E11", tabled(TerminationStudy)},
	{"heterogeneity", "E12", tabled(HeterogeneityStudy)},
	{"bias", "E8", swept(BiasSweep)},
	{"population", "E8", swept(PopulationSweep)},
	{"relaxation", "E13", tabled(AuditRelaxation)},
	{"phasing", "E17", tabled(RunPhasingStudy)},
	{"pooling", "E18", swept(RunPoolingStudy)},
	{"dynamic", "E16", swept(RunDynamicStudy)},
	{"chaos", "E19", swept(RunChaosStudy)},
	{"overload", "E21", swept(RunOverloadStudy)},
	{"robustness", "E7", tabled(func(ctx context.Context, opts Options) (*RobustnessResult, error) {
		return Robustness(ctx, opts, "SeededPSG", nil)
	})},
}

// table is what every study result can do: render itself.
type table interface{ WriteTable(io.Writer) }

// tabled adapts a study to a registry entry. A study canceled mid-batch still
// has its partial table (the completed runs) written before ErrCanceled is
// passed on.
func tabled[T table](study func(context.Context, Options) (T, error)) func(context.Context, Options, io.Writer) error {
	return func(ctx context.Context, opts Options, w io.Writer) error {
		res, err := study(ctx, opts)
		if err != nil && !errors.Is(err, ErrCanceled) {
			return err
		}
		res.WriteTable(w)
		fmt.Fprintln(w)
		return err
	}
}

// swept adapts a study that takes a list of sweep points, run at its
// default points.
func swept[T table, P any](study func(context.Context, Options, []P) (T, error)) func(context.Context, Options, io.Writer) error {
	return tabled(func(ctx context.Context, opts Options) (T, error) { return study(ctx, opts, nil) })
}

// StudyNames lists the names Run accepts: every registry entry in print
// order, then "all".
func StudyNames() []string {
	names := make([]string, 0, len(Studies)+1)
	for _, s := range Studies {
		names = append(names, s.Name)
	}
	return append(names, "all")
}

// Run executes the named study, or every study in registry order for "all",
// writing the tables to w. It stops at the first error; ErrCanceled means the
// interrupted study's partial table was still written.
func Run(ctx context.Context, w io.Writer, name string, opts Options) error {
	if !slices.Contains(StudyNames(), name) {
		return fmt.Errorf("experiments: unknown experiment %q, want %s", name, strings.Join(StudyNames(), "|"))
	}
	for _, s := range Studies {
		if name == "all" || name == s.Name {
			if err := s.Run(ctx, opts, w); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeTable1 prints Table 1: the generator's µ ranges and string counts per
// scenario.
func writeTable1(w io.Writer) {
	fmt.Fprintln(w, "Table 1: range specifications for the random variable µ")
	fmt.Fprintf(w, "%-28s  %-16s  %-16s  %8s\n", "scenario", "µ for Lmax[k]", "µ for P[k]", "strings")
	for _, s := range []workload.Scenario{workload.HighlyLoaded, workload.QoSLimited, workload.LightlyLoaded} {
		cfg := workload.ScenarioConfig(s)
		fmt.Fprintf(w, "%-28v  [%.2f, %.2f]      [%.2f, %.2f]      %8d\n",
			s, cfg.MuLatency.Min, cfg.MuLatency.Max, cfg.MuPeriod.Min, cfg.MuPeriod.Max, cfg.Strings)
	}
	fmt.Fprintln(w)
}

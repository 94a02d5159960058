package experiments

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/heuristics"
)

// fastOpts keeps experiment tests quick: tiny instances and GA budgets.
func fastOpts() Options {
	psg := heuristics.DefaultPSGConfig()
	psg.PopulationSize = 20
	psg.MaxIterations = 40
	psg.StallLimit = 30
	psg.Trials = 1
	return Options{Runs: 2, Seed: 11, PSG: psg, Strings: 20}
}

func checkFigure(t *testing.T, f *Figure, wantSeries []string) {
	t.Helper()
	if len(f.Series) != len(wantSeries) {
		t.Fatalf("%s: %d series, want %d", f.Title, len(f.Series), len(wantSeries))
	}
	for i, name := range wantSeries {
		if f.Series[i].Name != name {
			t.Errorf("%s: series %d = %q, want %q", f.Title, i, f.Series[i].Name, name)
		}
		if f.Series[i].Sample.N() != f.Runs {
			t.Errorf("%s: series %q has %d samples, want %d", f.Title, name, f.Series[i].Sample.N(), f.Runs)
		}
	}
	var buf bytes.Buffer
	f.WriteTable(&buf)
	out := buf.String()
	if !strings.Contains(out, f.Title) || !strings.Contains(out, "95% CI") {
		t.Errorf("table render missing pieces:\n%s", out)
	}
}

// mustGet fetches a series the test requires the figure to contain.
func mustGet(t *testing.T, f *Figure, name string) *Series {
	t.Helper()
	s, ok := f.Get(name)
	if !ok {
		t.Fatalf("%s: series %q missing", f.Title, name)
	}
	return s
}

func TestFigure3SmallScale(t *testing.T) {
	f, err := Figure3(context.Background(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f, []string{"PSG", "MWF", "TF", "SeededPSG", "UB"})
	ub := mustGet(t, f, "UB").Sample.Mean()
	for _, name := range heuristics.Names {
		if mean := mustGet(t, f, name).Sample.Mean(); mean > ub+1e-6 {
			t.Errorf("%s mean %v exceeds UB mean %v", name, mean, ub)
		}
	}
	// Seeded PSG dominates MWF and TF by construction.
	sp := mustGet(t, f, "SeededPSG").Sample.Mean()
	if mustGet(t, f, "MWF").Sample.Mean() > sp+1e-9 || mustGet(t, f, "TF").Sample.Mean() > sp+1e-9 {
		t.Error("SeededPSG mean below a one-shot heuristic")
	}
	if s, ok := f.Get("UB"); !ok || s == nil {
		t.Error("Get failed to find an existing series")
	}
	if s, ok := f.Get("missing"); ok || s != nil {
		t.Error("Get reported a missing series as present")
	}
}

func TestFigure4SmallScale(t *testing.T) {
	f, err := Figure4(context.Background(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f, []string{"PSG", "MWF", "TF", "SeededPSG", "UB"})
}

func TestFigure5SmallScale(t *testing.T) {
	opts := fastOpts()
	opts.Strings = 6 // keep the complete mapping achievable
	f, err := Figure5(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f, []string{"PSG", "MWF", "TF", "SeededPSG", "UB"})
	ub := mustGet(t, f, "UB").Sample.Mean()
	for _, name := range heuristics.Names {
		got := mustGet(t, f, name).Sample
		if got.Mean() > ub+1e-6 {
			t.Errorf("%s slackness %v exceeds UB %v", name, got.Mean(), ub)
		}
		if got.Min() < -1 || got.Max() > 1 {
			t.Errorf("%s slackness outside [-1, 1]: [%v, %v]", name, got.Min(), got.Max())
		}
	}
}

func TestTimingSmallScale(t *testing.T) {
	f, err := Timing(context.Background(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f, []string{"PSG", "MWF", "TF", "SeededPSG", "UB"})
	for _, s := range f.Series {
		if s.Sample.Min() < 0 {
			t.Errorf("negative duration for %s", s.Name)
		}
	}
	// The GA must cost more than the one-shot heuristics.
	if mustGet(t, f, "PSG").Sample.Mean() <= mustGet(t, f, "MWF").Sample.Mean() {
		t.Error("PSG not slower than MWF (suspicious)")
	}
}

func TestSkipUB(t *testing.T) {
	opts := fastOpts()
	opts.SkipUB = true
	f, err := Figure3(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f, []string{"PSG", "MWF", "TF", "SeededPSG"})
}

func TestProgressWriter(t *testing.T) {
	opts := fastOpts()
	var buf bytes.Buffer
	opts.Progress = &buf
	if _, err := Figure3(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "run 1/2 done") {
		t.Errorf("no progress lines:\n%s", buf.String())
	}
}

func TestFigure2Experiment(t *testing.T) {
	cases, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 3 {
		t.Fatalf("%d cases, want 3", len(cases))
	}
	wantEst := []float64{6, 4, 3}
	for i, c := range cases {
		if math.Abs(c.Estimated-wantEst[i]) > 1e-9 {
			t.Errorf("%s: estimate %v, want %v", c.Name, c.Estimated, wantEst[i])
		}
		if math.Abs(c.Estimated-c.Simulated) > 1e-6 {
			t.Errorf("%s: simulated %v deviates from estimate %v", c.Name, c.Simulated, c.Estimated)
		}
	}
	var buf bytes.Buffer
	WriteFigure2(&buf, cases)
	if !strings.Contains(buf.String(), "case 3") {
		t.Error("table render incomplete")
	}
}

func TestRobustnessSmallScale(t *testing.T) {
	opts := fastOpts()
	opts.Strings = 5
	res, err := Robustness(context.Background(), opts, "MWF", []float64{1.0, 3.0, 8.0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Slackness.N() != opts.Runs {
		t.Errorf("slackness samples %d, want %d", res.Slackness.N(), opts.Runs)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points %d, want 3", len(res.Points))
	}
	// Violations must be monotone-ish: scale 1 of a feasible mapping is
	// clean, and by scale 8 the CPU demand alone exceeds capacity.
	if res.Points[0].ViolatingRuns != 0 {
		t.Errorf("scale 1.0 violated in %d runs", res.Points[0].ViolatingRuns)
	}
	if res.Points[2].ViolatingRuns != opts.Runs {
		t.Errorf("scale 8.0 clean in %d runs", opts.Runs-res.Points[2].ViolatingRuns)
	}
	var buf bytes.Buffer
	res.WriteTable(&buf)
	if !strings.Contains(buf.String(), "Robustness") {
		t.Error("table render incomplete")
	}
}

func TestBiasSweepSmallScale(t *testing.T) {
	f, err := BiasSweep(context.Background(), fastOpts(), []float64{1.0, 1.6})
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f, []string{"bias 1.0", "bias 1.6"})
}

func TestSeedingStudySmallScale(t *testing.T) {
	f, err := SeedingStudy(context.Background(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f, []string{"MWF", "TF", "PSG", "SeededPSG"})
	sp := mustGet(t, f, "SeededPSG").Sample
	if mustGet(t, f, "MWF").Sample.Mean() > sp.Mean()+1e-9 {
		t.Error("SeededPSG below MWF despite seeding")
	}
}

func TestPopulationSweepSmallScale(t *testing.T) {
	f, err := PopulationSweep(context.Background(), fastOpts(), []int{8, 16})
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f, []string{"pop 8", "pop 16"})
}

func TestSSGStudySmallScale(t *testing.T) {
	f, err := SSGStudy(context.Background(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f, []string{"SSG", "PSG", "SeededPSG"})
}

func TestTerminationStudySmallScale(t *testing.T) {
	f, err := TerminationStudy(context.Background(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f, []string{"MWF-stop", "MWF-skip", "TF-stop", "TF-skip"})
	// Skip dominates stop for the same ordering.
	if mustGet(t, f, "MWF-skip").Sample.Mean() < mustGet(t, f, "MWF-stop").Sample.Mean()-1e-9 {
		t.Error("MWF-skip below MWF-stop")
	}
	if mustGet(t, f, "TF-skip").Sample.Mean() < mustGet(t, f, "TF-stop").Sample.Mean()-1e-9 {
		t.Error("TF-skip below TF-stop")
	}
}

func TestHeterogeneityStudySmallScale(t *testing.T) {
	f, err := HeterogeneityStudy(context.Background(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f, []string{"MWF/inconsistent", "SeededPSG/inconsistent", "MWF/consistent", "SeededPSG/consistent"})
}

func TestAuditRelaxationSmallScale(t *testing.T) {
	opts := fastOpts()
	opts.Strings = 4
	res, err := AuditRelaxation(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Full.N() != opts.Runs || res.Relaxed.N() != opts.Runs {
		t.Fatalf("sample counts %d/%d, want %d", res.Full.N(), res.Relaxed.N(), opts.Runs)
	}
	// Relaxed is a relaxation of full: per-run gap >= 0, hence min >= 0.
	if res.Gap.Min() < -1e-9 {
		t.Errorf("negative relaxation gap %v", res.Gap.Min())
	}
	var buf bytes.Buffer
	res.WriteTable(&buf)
	if !strings.Contains(buf.String(), "relative gap") {
		t.Error("table render incomplete")
	}
}

func TestWorthSchemeStudySmallScale(t *testing.T) {
	f, err := WorthSchemeStudy(context.Background(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f, []string{"std/total", "std/high", "classed/total", "classed/high"})
	// The classed scheme can never preserve less high-class worth than it
	// could by simply keeping the std mapping... that is not guaranteed
	// per-run with tiny GA budgets, so only check sanity bounds here.
	for _, s := range f.Series {
		if s.Sample.Min() < 0 {
			t.Errorf("%s: negative worth", s.Name)
		}
	}
}

func TestDynamicStudySmallScale(t *testing.T) {
	opts := fastOpts()
	opts.Strings = 8
	d, err := RunDynamicStudy(context.Background(), opts, []float64{1.5, 4.0})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"MWF", "SeededPSG"} {
		pts := d.Rows[name]
		if len(pts) != 2 {
			t.Fatalf("%s: %d points, want 2", name, len(pts))
		}
		for _, pt := range pts {
			if pt.RepairFeasible != opts.Runs {
				t.Errorf("%s scale %v: repair feasible in %d/%d runs", name, pt.Scale, pt.RepairFeasible, opts.Runs)
			}
			if pt.RetainedWorth.Min() < 0 || pt.RetainedWorth.Max() > 1+1e-9 {
				t.Errorf("%s scale %v: retained worth outside [0,1]: [%v,%v]",
					name, pt.Scale, pt.RetainedWorth.Min(), pt.RetainedWorth.Max())
			}
		}
		// More growth can only hurt retention on average... not strictly
		// guaranteed per-sample, but 1.5x vs 4x should order the means.
		if pts[1].RetainedWorth.Mean() > pts[0].RetainedWorth.Mean()+1e-9 {
			t.Errorf("%s: retention at 4x (%v) above 1.5x (%v)",
				name, pts[1].RetainedWorth.Mean(), pts[0].RetainedWorth.Mean())
		}
		if d.InitialSlackness[name].N() != opts.Runs {
			t.Errorf("%s: slackness samples %d", name, d.InitialSlackness[name].N())
		}
	}
	var buf bytes.Buffer
	d.WriteTable(&buf)
	if !strings.Contains(buf.String(), "retained worth") {
		t.Error("table render incomplete")
	}
}

func TestWorthMixStudySmallScale(t *testing.T) {
	f, err := WorthMixStudy(context.Background(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, f, []string{"uniform mix", "high-heavy mix"})
	// The gap is never negative: SeededPSG dominates MWF by construction.
	for _, s := range f.Series {
		if s.Sample.Min() < -1e-9 {
			t.Errorf("%s: negative worth gap %v", s.Name, s.Sample.Min())
		}
	}
}

func TestPhasingStudySmallScale(t *testing.T) {
	opts := fastOpts()
	opts.Strings = 15
	res, err := RunPhasingStudy(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.AlignedViolations.N() != opts.Runs || res.RandomViolations.N() != opts.Runs {
		t.Fatalf("sample counts wrong: %d/%d", res.AlignedViolations.N(), res.RandomViolations.N())
	}
	var buf bytes.Buffer
	res.WriteTable(&buf)
	if !strings.Contains(buf.String(), "aligned") {
		t.Error("table render incomplete")
	}
}

func TestPoolingStudySmallScale(t *testing.T) {
	opts := fastOpts()
	opts.Strings = 20
	res, err := RunPoolingStudy(context.Background(), opts, []int{3, 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Flat.N() != opts.Runs || len(res.Worth) != 2 {
		t.Fatalf("structure wrong: %d flat samples, %d sizes", res.Flat.N(), len(res.Worth))
	}
	var buf bytes.Buffer
	res.WriteTable(&buf)
	if !strings.Contains(buf.String(), "pool size") {
		t.Error("table render incomplete")
	}
}

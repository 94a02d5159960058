package report

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/feasibility"
	"repro/internal/heuristics"
	"repro/internal/model"
	"repro/internal/workload"
)

func TestBar(t *testing.T) {
	if got := bar(0); strings.Contains(got, "#") {
		t.Errorf("empty bar has fill: %q", got)
	}
	if got := bar(1); strings.Contains(got, ".") {
		t.Errorf("full bar has gaps: %q", got)
	}
	if got := bar(0.5); strings.Count(got, "#") != barWidth/2 {
		t.Errorf("half bar: %q", got)
	}
	// Out-of-range inputs are clamped, not panicking.
	if len(bar(-1)) != len(bar(2)) {
		t.Error("clamping broken")
	}
}

func TestWriteFullReport(t *testing.T) {
	cfg := workload.ScenarioConfig(workload.LightlyLoaded)
	cfg.Strings = 8
	sys := workload.MustGenerate(cfg, 4)
	r := heuristics.MWF(sys)
	var buf bytes.Buffer
	Write(&buf, r.Alloc)
	out := buf.String()
	for _, want := range []string{
		"machine utilization:", "m0", "system slackness:",
		"string", "headroom", "feasible, no violations",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Every mapped string appears.
	for k := range sys.Strings {
		if r.Alloc.Complete(k) && !strings.Contains(out, "S"+itoa(k)) {
			t.Errorf("mapped string %d missing from report", k)
		}
	}
}

func itoa(k int) string { return string(rune('0' + k)) }

func TestWriteViolationsReportsOverloads(t *testing.T) {
	sys := model.NewUniformSystem(1, 5)
	for k := 0; k < 2; k++ {
		sys.AddString(model.AppString{Worth: 10, Period: 10, MaxLatency: 9,
			Apps: []model.Application{model.UniformApp(1, 8, 1, 0)}})
	}
	a := feasibility.New(sys)
	a.Assign(0, 0, 0)
	a.Assign(1, 0, 0) // utilization 1.6, and the looser string misses QoS
	var buf bytes.Buffer
	WriteViolations(&buf, a)
	out := buf.String()
	if !strings.Contains(out, "stage 1: machine 0 over capacity") {
		t.Errorf("stage-1 overload missing:\n%s", out)
	}
	if !strings.Contains(out, "stage 2:") {
		t.Errorf("stage-2 violation missing:\n%s", out)
	}
}

func TestWriteStringsCountsUnmapped(t *testing.T) {
	sys := model.NewUniformSystem(2, 5)
	for k := 0; k < 3; k++ {
		sys.AddString(model.AppString{Worth: 10, Period: 20, MaxLatency: 100,
			Apps: []model.Application{model.UniformApp(2, 2, 0.4, 10)}})
	}
	a := feasibility.New(sys)
	a.Assign(0, 0, 0)
	var buf bytes.Buffer
	WriteStrings(&buf, a)
	if !strings.Contains(buf.String(), "(2 strings unmapped)") {
		t.Errorf("unmapped count missing:\n%s", buf.String())
	}
}

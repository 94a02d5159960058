package report

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func TestWriteTelemetryEmptySnapshotPrintsNothing(t *testing.T) {
	var buf bytes.Buffer
	WriteTelemetry(&buf, telemetry.Snapshot{})
	if buf.Len() != 0 {
		t.Errorf("empty snapshot rendered %q, want nothing", buf.String())
	}
}

func TestWriteTelemetryDerivedRatios(t *testing.T) {
	r := telemetry.NewRegistry()
	r.Counter("feasibility.check_string").Add(1000)
	r.Counter("heuristics.decode.memo_hit").Add(75)
	r.Counter("heuristics.decode.memo_miss").Add(25)
	r.Counter("pool.busy_ns").Add(800)
	r.Counter("pool.capacity_ns").Add(1000)
	r.Counter("feasibility.delta.evals").Add(200)
	r.Counter("feasibility.delta.dirty_strings").Add(450)
	r.Counter("feasibility.delta.recheck_strings").Add(900)
	r.Counter("feasibility.delta.wait_terms").Add(25000)
	var buf bytes.Buffer
	WriteTelemetry(&buf, r.Snapshot())
	out := buf.String()
	for _, want := range []string{
		"telemetry:",
		"feasibility.check_string",
		"derived:",
		"decode memo hit rate",
		"75.0%",
		"worker utilization",
		"80.0%",
		"delta dirty strings/eval",
		"2.25",
		"delta recheck strings/eval",
		"4.50",
		"delta wait terms/eval",
		"125.00",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteTelemetrySkipsDerivedWithoutInputs(t *testing.T) {
	r := telemetry.NewRegistry()
	r.Counter("sim.runs").Inc()
	var buf bytes.Buffer
	WriteTelemetry(&buf, r.Snapshot())
	out := buf.String()
	if strings.Contains(out, "derived:") {
		t.Errorf("derived section rendered without its inputs:\n%s", out)
	}
	if !strings.Contains(out, "sim.runs") {
		t.Errorf("raw counters missing:\n%s", out)
	}
}

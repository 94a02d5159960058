package telemetry_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func TestJSONLTraceRoundTrip(t *testing.T) {
	r := enabled(t)
	var buf bytes.Buffer
	sink := telemetry.NewJSONLSink(&buf)
	r.SetSink(sink)

	span := telemetry.BeginSpan("psg.trial")
	if !span.Active() {
		t.Fatal("span must be active while a sink is attached")
	}
	span.End(telemetry.F("iterations", 42), telemetry.F("evaluations", 126))
	telemetry.EmitEvent("checkpoint", telemetry.F("run", 3))
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	var events []telemetry.Event
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		var e telemetry.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		events = append(events, e)
	}
	if len(events) != 2 {
		t.Fatalf("%d events, want 2", len(events))
	}
	sp := events[0]
	if sp.Kind != "span" || sp.Name != "psg.trial" {
		t.Errorf("span event = %+v", sp)
	}
	if sp.Dur < 0 {
		t.Errorf("span duration %v, want >= 0", sp.Dur)
	}
	if sp.Attrs["iterations"] != 42 || sp.Attrs["evaluations"] != 126 {
		t.Errorf("span attrs = %v", sp.Attrs)
	}
	ev := events[1]
	if ev.Kind != "event" || ev.Name != "checkpoint" || ev.Attrs["run"] != 3 {
		t.Errorf("point event = %+v", ev)
	}
	if ev.T < sp.T {
		t.Errorf("event timestamps out of order: %v then %v", sp.T, ev.T)
	}
}

func TestSpanInertWithoutSink(t *testing.T) {
	// Metrics on, tracing off: spans must be inert and free.
	enabled(t)
	span := telemetry.BeginSpan("x")
	if span.Active() {
		t.Fatal("span must be inert without a sink")
	}
	span.End(telemetry.F("ignored", 1))
	if allocs := testing.AllocsPerRun(200, func() {
		telemetry.BeginSpan("x").End()
	}); allocs != 0 {
		t.Errorf("inert span costs %v allocations, want 0", allocs)
	}
}

func TestSinkAttachDetach(t *testing.T) {
	r := enabled(t)
	col := &telemetry.CollectorSink{}
	r.SetSink(col)
	if !telemetry.BeginSpan("probe").Active() {
		t.Fatal("spans must be active with a sink")
	}
	telemetry.EmitEvent("one")
	r.SetSink(nil)
	if telemetry.BeginSpan("probe").Active() {
		t.Fatal("spans must be inert after detaching")
	}
	telemetry.EmitEvent("two") // dropped
	got := col.Events()
	if len(got) != 1 || got[0].Name != "one" {
		t.Errorf("collector saw %+v, want just the first event", got)
	}
}

func TestCollectorSinkCopiesEvents(t *testing.T) {
	col := &telemetry.CollectorSink{}
	col.Emit(telemetry.Event{Kind: "event", Name: "a"})
	first := col.Events()
	col.Emit(telemetry.Event{Kind: "event", Name: "b"})
	if len(first) != 1 {
		t.Errorf("earlier snapshot grew to %d events; Events must copy", len(first))
	}
	if got := col.Events(); len(got) != 2 || got[1].Name != "b" {
		t.Errorf("collector = %+v", got)
	}
}

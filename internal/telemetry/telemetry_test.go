// External test package so the pool-backed race test can import
// repro/internal/workers (which itself imports telemetry) without a cycle.
package telemetry_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/workers"
)

// disabled forces the package-global registry off for the duration of the
// test, restoring whatever was active afterwards.
func disabled(t testing.TB) {
	t.Helper()
	prev := telemetry.Active()
	telemetry.Disable()
	t.Cleanup(func() { telemetry.EnableRegistry(prev) })
}

// enabled installs a fresh registry for the duration of the test.
func enabled(t testing.TB) *telemetry.Registry {
	t.Helper()
	prev := telemetry.Active()
	r := telemetry.Enable()
	t.Cleanup(func() { telemetry.EnableRegistry(prev) })
	return r
}

func TestCounterGaugeHistogramValues(t *testing.T) {
	r := telemetry.NewRegistry()
	c := r.Counter("test.count")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	g := r.Gauge("test.gauge")
	g.Set(3.5)
	g.Set(-1.25)
	if got := g.Value(); got != -1.25 {
		t.Errorf("gauge = %v, want -1.25 (last write wins)", got)
	}
	h := r.Histogram("test.hist", 1, 2, 4)
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Errorf("histogram count = %d, want 5", got)
	}
	snap := r.Snapshot()
	hs := snap.Histograms["test.hist"]
	if hs.Sum != 106 {
		t.Errorf("histogram sum = %v, want 106", hs.Sum)
	}
	// Buckets: v <= 1 gets {0.5, 1}; v <= 2 gets {1.5}; v <= 4 gets {3};
	// overflow gets {100}.
	want := []int64{2, 1, 1, 1}
	if len(hs.Counts) != len(want) {
		t.Fatalf("bucket counts %v, want %v", hs.Counts, want)
	}
	for i := range want {
		if hs.Counts[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, hs.Counts[i], want[i])
		}
	}
}

func TestRegistrySharesInstrumentsByName(t *testing.T) {
	r := telemetry.NewRegistry()
	a := r.Counter("shared")
	b := r.Counter("shared")
	if a != b {
		t.Fatal("same name must return the same counter")
	}
	a.Inc()
	b.Inc()
	if got := r.Snapshot().Counter("shared"); got != 2 {
		t.Errorf("shared counter = %d, want 2", got)
	}
	// Histogram bounds are fixed on first creation; later requests with
	// different bounds get the existing instrument.
	h1 := r.Histogram("h", 1, 2)
	h2 := r.Histogram("h", 5, 10, 20)
	if h1 != h2 {
		t.Fatal("same name must return the same histogram")
	}
	if got := len(r.Snapshot().Histograms["h"].Bounds); got != 2 {
		t.Errorf("histogram kept %d bounds, want the original 2", got)
	}
}

func TestNilRegistryAndInstrumentsAreNoOps(t *testing.T) {
	var r *telemetry.Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x", 1) != nil {
		t.Error("nil registry must hand out nil instruments")
	}
	if !r.Snapshot().Empty() {
		t.Error("nil registry snapshot must be empty")
	}
	r.SetSink(&telemetry.CollectorSink{}) // must not panic
	var c *telemetry.Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter must read zero")
	}
	var g *telemetry.Gauge
	g.Set(1)
	if g.Value() != 0 {
		t.Error("nil gauge must read zero")
	}
	var h *telemetry.Histogram
	h.Observe(1)
	if h.Count() != 0 {
		t.Error("nil histogram must read zero")
	}
}

// TestDisabledInstrumentsAllocateNothing pins the core promise the hot paths
// rely on: with telemetry disabled, every instrument call is a nil check and
// nothing else — zero allocations.
func TestDisabledInstrumentsAllocateNothing(t *testing.T) {
	disabled(t)
	var c *telemetry.Counter
	var g *telemetry.Gauge
	var h *telemetry.Histogram
	cases := []struct {
		name string
		fn   func()
	}{
		{"nil counter Inc", func() { c.Inc() }},
		{"nil counter Add", func() { c.Add(7) }},
		{"nil gauge Set", func() { g.Set(1.5) }},
		{"nil histogram Observe", func() { h.Observe(2) }},
		{"C while disabled", func() { telemetry.C("x").Inc() }},
		{"G while disabled", func() { telemetry.G("x").Set(1) }},
		{"inert span", func() { telemetry.BeginSpan("x").End() }},
		{"EmitEvent while disabled", func() { telemetry.EmitEvent("x") }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(200, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocations per call, want 0", tc.name, allocs)
		}
	}
	if !telemetry.Capture().Empty() {
		t.Error("Capture while disabled must be empty")
	}
}

// TestWriteTextEmptyRegistry: a registry that never handed out an instrument
// snapshots to the all-nil-maps form and renders as nothing — no stray
// section headers.
func TestWriteTextEmptyRegistry(t *testing.T) {
	r := telemetry.NewRegistry()
	snap := r.Snapshot()
	if !snap.Empty() {
		t.Fatalf("fresh registry snapshot not empty: %+v", snap)
	}
	var buf bytes.Buffer
	snap.WriteText(&buf)
	if buf.Len() != 0 {
		t.Errorf("empty registry rendered %q, want nothing", buf.String())
	}
	var nilReg *telemetry.Registry
	if !nilReg.Snapshot().Empty() {
		t.Error("nil registry snapshot not empty")
	}
}

// TestHistogramBucketBoundaries pins the boundary rule: an observation equal
// to a bucket bound lands in that bucket (counts[i] tallies v <= bounds[i]),
// and only values strictly above the last bound overflow.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := telemetry.NewRegistry()
	h := r.Histogram("bounds.exact", 1, 10, 100)
	for _, v := range []float64{1, 10, 100} { // each exactly on a bound
		h.Observe(v)
	}
	h.Observe(100.000001) // just past the last bound: overflow
	h.Observe(0)          // below the first bound: first bucket
	hs := r.Snapshot().Histograms["bounds.exact"]
	wantCounts := []int64{2, 1, 1, 1} // {0,1}, {10}, {100}, {overflow}
	if len(hs.Counts) != len(wantCounts) {
		t.Fatalf("%d buckets, want %d", len(hs.Counts), len(wantCounts))
	}
	for i, want := range wantCounts {
		if hs.Counts[i] != want {
			t.Errorf("bucket %d holds %d, want %d (bounds %v)", i, hs.Counts[i], want, hs.Bounds)
		}
	}
	if hs.Count != 5 {
		t.Errorf("total count %d, want 5", hs.Count)
	}
	var buf bytes.Buffer
	r.Snapshot().WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"le1:2", "le10:1", "le100:1", "inf:1"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output missing bucket %q:\n%s", want, out)
		}
	}
}

func TestSnapshotWriteText(t *testing.T) {
	r := telemetry.NewRegistry()
	r.Counter("b.second").Add(2)
	r.Counter("a.first").Add(1)
	r.Gauge("g.level").Set(7.5)
	h := r.Histogram("h.sizes", 1, 3)
	h.Observe(1)
	h.Observe(5)
	var buf bytes.Buffer
	r.Snapshot().WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"counters:", "a.first", "b.second", "gauges:", "g.level", "histograms:", "h.sizes", "n=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output missing %q:\n%s", want, out)
		}
	}
	// Counters render sorted by name.
	if strings.Index(out, "a.first") > strings.Index(out, "b.second") {
		t.Errorf("counters not sorted:\n%s", out)
	}
	var empty bytes.Buffer
	telemetry.Snapshot{}.WriteText(&empty)
	if empty.Len() != 0 {
		t.Errorf("empty snapshot rendered %q, want nothing", empty.String())
	}
}

func TestEnableDisableLifecycle(t *testing.T) {
	r := enabled(t)
	if !telemetry.Enabled() || telemetry.Active() != r {
		t.Fatal("Enable must install the returned registry")
	}
	telemetry.C("life.count").Inc()
	if got := telemetry.Capture().Counter("life.count"); got != 1 {
		t.Errorf("captured %d, want 1", got)
	}
	telemetry.Disable()
	if telemetry.Enabled() || telemetry.C("life.count") != nil {
		t.Error("Disable must hand out nil instruments again")
	}
	// The orphaned registry keeps its state.
	if got := r.Snapshot().Counter("life.count"); got != 1 {
		t.Errorf("orphaned registry lost its count: %d", got)
	}
}

// TestCountersRaceCleanUnderPool exercises shared instruments from the PR 2
// worker pool — the exact concurrency shape the heuristics use — and is run
// under -race in CI.
func TestCountersRaceCleanUnderPool(t *testing.T) {
	r := enabled(t)
	const tasks = 256
	c := telemetry.C("race.count")
	h := telemetry.H("race.sizes", 64, 128)
	workers.Map(8, tasks, func(i int) {
		c.Inc()
		telemetry.C("race.count").Inc() // same counter via the accessor
		telemetry.G("race.gauge").Set(float64(i))
		h.Observe(float64(i))
	})
	snap := r.Snapshot()
	if got := snap.Counter("race.count"); got != 2*tasks {
		t.Errorf("race.count = %d, want %d", got, 2*tasks)
	}
	hs := snap.Histograms["race.sizes"]
	if hs.Count != tasks {
		t.Errorf("histogram count = %d, want %d", hs.Count, tasks)
	}
	var sum int64
	for _, n := range hs.Counts {
		sum += n
	}
	if sum != tasks {
		t.Errorf("bucket counts sum to %d, want %d", sum, tasks)
	}
}

// TestConcurrentInstrumentCreation hammers the registry's create-on-first-use
// path from many goroutines; -race verifies the locking.
func TestConcurrentInstrumentCreation(t *testing.T) {
	r := telemetry.NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Counter("c.same").Inc()
				r.Gauge("g.same").Set(1)
				r.Histogram("h.same", 1, 2).Observe(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Snapshot().Counter("c.same"); got != 800 {
		t.Errorf("c.same = %d, want 800", got)
	}
}

// BenchmarkCounterDisabled measures the disabled-telemetry overhead a hot
// path pays per instrument call: one nil check, zero allocations.
func BenchmarkCounterDisabled(b *testing.B) {
	disabled(b)
	var c *telemetry.Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterEnabled(b *testing.B) {
	enabled(b)
	c := telemetry.C("bench.count")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

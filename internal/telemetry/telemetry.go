// Package telemetry is the zero-dependency metrics and tracing substrate the
// allocator's compute packages report into: atomic counters, gauges, and
// fixed-bucket histograms aggregated in a Registry, plus a span/event sink
// emitting JSONL (trace.go). It exists so a production run can answer "why is
// this fast or slow" — feasibility evaluations, decode-memo hit rates, worker
// utilization, repair work — without attaching a profiler.
//
// Telemetry is disabled by default and every instrument is nil-safe: a nil
// *Counter, *Gauge, or *Histogram ignores all method calls, and the package
// accessors (C, G, H) return nil while no registry is enabled. Instrumented
// hot paths therefore pay one predictable nil check and zero allocations when
// telemetry is off — a property pinned by TestDisabledInstrumentsAllocateNothing
// and BenchmarkCounterDisabled. Enabling telemetry must never perturb results:
// instruments observe, they do not decide, and none of them consume RNG state
// (the PR 2 parallel-equals-serial determinism tests run with a live registry
// and sink attached to enforce this).
//
// Metric names are dot-separated, lowercase, prefixed by the owning package
// ("feasibility.delta.evals", "heuristics.decode.memo_hit"); the full registry
// of names lives in DESIGN.md under "Telemetry & instrumentation".
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. All methods are
// nil-safe no-ops so disabled telemetry costs only the nil check.
type Counter struct {
	name string
	v    atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n may be negative only to correct an overcount; counters are
// reported as totals, not rates).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current total; zero for a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically stored float64 holding the most recent observation
// of some level (worker count, lane occupancy). Nil-safe like Counter.
type Gauge struct {
	name string
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the stored value; zero for a nil gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets: counts[i] tallies values
// v <= bounds[i] (first matching bound), counts[len(bounds)] is the overflow
// bucket. Bounds are fixed at creation; Observe is lock-free.
type Histogram struct {
	name   string
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value. Nil-safe no-op.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations; zero for a nil histogram.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Registry holds named instruments and the active trace sink. Instruments are
// created on first request and shared by name, so every Allocation, decoder
// lane, and worker pool incrementing "feasibility.check_string" updates the
// same counter.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
	sink   atomic.Pointer[sinkBox]
	clock  clock
}

// NewRegistry returns an empty registry with no sink attached.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
		clock:  newClock(),
	}
}

// Counter returns the named counter, creating it if needed. A nil registry
// returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{name: name}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed; nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds (which must be sorted ascending) if needed; the bounds of an
// existing histogram are kept. Nil-safe.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{
			name:   name,
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// HistogramSnapshot is the frozen state of one histogram. Counts has one
// entry per bound plus a final overflow bucket.
type HistogramSnapshot struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

// Snapshot is a frozen, name-keyed dump of every instrument in a registry,
// JSON-marshalable as-is and renderable as text with WriteText.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Empty reports whether the snapshot holds no instruments at all.
func (s Snapshot) Empty() bool {
	return len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Histograms) == 0
}

// Counter returns the named counter total (zero when absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Snapshot freezes the registry's current instrument values. A nil registry
// yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counts) > 0 {
		s.Counters = make(map[string]int64, len(r.counts))
		for n, c := range r.counts {
			s.Counters[n] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for n, g := range r.gauges {
			s.Gauges[n] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for n, h := range r.hists {
			hs := HistogramSnapshot{
				Count:  h.count.Load(),
				Sum:    math.Float64frombits(h.sum.Load()),
				Bounds: append([]float64(nil), h.bounds...),
				Counts: make([]int64, len(h.counts)),
			}
			for i := range h.counts {
				hs.Counts[i] = h.counts[i].Load()
			}
			s.Histograms[n] = hs
		}
	}
	return s
}

// WriteText renders the snapshot sorted by instrument name — the dump behind
// `shipsched -metrics` and the report appendix.
func (s Snapshot) WriteText(w io.Writer) {
	if len(s.Counters) > 0 {
		fmt.Fprintln(w, "counters:")
		for _, n := range sortedKeys(s.Counters) {
			fmt.Fprintf(w, "  %-42s %12d\n", n, s.Counters[n])
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintln(w, "gauges:")
		for _, n := range sortedKeys(s.Gauges) {
			fmt.Fprintf(w, "  %-42s %12.4g\n", n, s.Gauges[n])
		}
	}
	if len(s.Histograms) > 0 {
		fmt.Fprintln(w, "histograms:")
		for _, n := range sortedKeys(s.Histograms) {
			h := s.Histograms[n]
			mean := 0.0
			if h.Count > 0 {
				mean = h.Sum / float64(h.Count)
			}
			fmt.Fprintf(w, "  %-42s n=%d mean=%.4g", n, h.Count, mean)
			for i, c := range h.Counts {
				if c == 0 {
					continue
				}
				if i < len(h.Bounds) {
					fmt.Fprintf(w, " le%.4g:%d", h.Bounds[i], c)
				} else {
					fmt.Fprintf(w, " inf:%d", c)
				}
			}
			fmt.Fprintln(w)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// active is the process-wide registry; nil means telemetry is disabled and
// every accessor hands out nil (no-op) instruments.
var active atomic.Pointer[Registry]

// Enable installs a fresh registry as the active one and returns it.
func Enable() *Registry {
	r := NewRegistry()
	active.Store(r)
	return r
}

// EnableRegistry installs an existing registry (tests, embedders).
func EnableRegistry(r *Registry) { active.Store(r) }

// Disable removes the active registry; instruments already handed out keep
// counting into the orphaned registry, new requests get no-ops.
func Disable() { active.Store(nil) }

// Active returns the enabled registry, or nil.
func Active() *Registry { return active.Load() }

// Enabled reports whether a registry is active.
func Enabled() bool { return active.Load() != nil }

// C returns the named counter of the active registry; nil when disabled.
func C(name string) *Counter { return active.Load().Counter(name) }

// G returns the named gauge of the active registry; nil when disabled.
func G(name string) *Gauge { return active.Load().Gauge(name) }

// H returns the named histogram of the active registry; nil when disabled.
func H(name string, bounds ...float64) *Histogram {
	return active.Load().Histogram(name, bounds...)
}

// Capture snapshots the active registry; empty when disabled.
func Capture() Snapshot { return active.Load().Snapshot() }

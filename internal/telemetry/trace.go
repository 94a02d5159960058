// Tracing: spans and point events emitted to a Sink as JSONL. Counters answer
// "how much"; the trace answers "when and in what order" — one line per span
// (PSG trial, failover repair, simulator run) with a wall-clock duration and
// a small set of numeric attributes. The sink is attached to the registry so
// `shipsched -trace out.jsonl` and a metrics snapshot share one lifecycle.

package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event is one trace line. T is seconds since the registry's clock started;
// Dur is the span duration in seconds (zero for point events). Attrs carries
// numeric attributes only, keeping every line schema-free but parseable.
type Event struct {
	T     float64            `json:"t"`
	Kind  string             `json:"kind"` // "span" or "event"
	Name  string             `json:"name"`
	Dur   float64            `json:"dur,omitempty"`
	Attrs map[string]float64 `json:"attrs,omitempty"`
}

// Sink consumes trace events. Implementations must be safe for concurrent
// Emit calls: spans end on whatever goroutine ran the work.
type Sink interface {
	Emit(Event)
}

// sinkBox wraps a Sink for atomic.Pointer storage (interfaces cannot be
// stored atomically without a concrete carrier).
type sinkBox struct{ s Sink }

// SetSink attaches a sink to the registry; nil detaches. Nil-safe.
func (r *Registry) SetSink(s Sink) {
	if r == nil {
		return
	}
	if s == nil {
		r.sink.Store(nil)
		return
	}
	r.sink.Store(&sinkBox{s: s})
}

// tracing reports whether the registry has a sink attached.
func (r *Registry) tracing() bool { return r != nil && r.sink.Load() != nil }

// emit stamps and forwards an event; dropped when no sink is attached.
func (r *Registry) emit(e Event) {
	if r == nil {
		return
	}
	box := r.sink.Load()
	if box == nil {
		return
	}
	if e.T == 0 {
		e.T = r.clock.now()
	}
	box.s.Emit(e)
}

// SetSink attaches a sink to the active registry; no-op when disabled.
func SetSink(s Sink) { active.Load().SetSink(s) }

// Attr is one numeric span/event attribute.
type Attr struct {
	Key string
	Val float64
}

// F builds an Attr.
func F(key string, val float64) Attr { return Attr{Key: key, Val: val} }

// Span measures one timed region. The zero Span (returned by BeginSpan when
// tracing is off) is inert: End does nothing and reads no clock.
type Span struct {
	name  string
	start time.Time
	reg   *Registry
}

// BeginSpan starts a span against the active registry, or returns an inert
// span when tracing is disabled.
func BeginSpan(name string) Span {
	r := active.Load()
	if !r.tracing() {
		return Span{}
	}
	return Span{name: name, start: time.Now(), reg: r}
}

// Active reports whether the span will be emitted, so call sites can gate
// expensive attribute computation.
func (s Span) Active() bool { return s.reg != nil }

// End emits the span with its wall-clock duration and attributes. Inert
// spans return immediately.
func (s Span) End(attrs ...Attr) {
	if s.reg == nil {
		return
	}
	s.reg.emit(Event{Kind: "span", Name: s.name, Dur: time.Since(s.start).Seconds(), Attrs: attrMap(attrs)})
}

// EmitEvent emits a point event against the active registry; dropped when
// tracing is disabled.
func EmitEvent(name string, attrs ...Attr) {
	r := active.Load()
	if !r.tracing() {
		return
	}
	r.emit(Event{Kind: "event", Name: name, Attrs: attrMap(attrs)})
}

func attrMap(attrs []Attr) map[string]float64 {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]float64, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Val
	}
	return m
}

// clock measures seconds since registry creation, giving every trace line a
// common, monotonic time base.
type clock struct{ start time.Time }

func newClock() clock        { return clock{start: time.Now()} }
func (c clock) now() float64 { return time.Since(c.start).Seconds() }

// JSONLSink writes one JSON object per line. Safe for concurrent Emit; Flush
// (or Close on the underlying writer) must be called by the owner — the CLIs
// close the file on exit.
type JSONLSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	enc *json.Encoder
}

// NewJSONLSink wraps w in a buffered JSONL emitter.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriter(w)
	return &JSONLSink{w: bw, enc: json.NewEncoder(bw)}
}

// Emit writes one line; encoding errors are deliberately swallowed (telemetry
// must never fail the run it observes).
func (s *JSONLSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.enc.Encode(e)
}

// Flush drains the buffer to the underlying writer.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Flush()
}

// CollectorSink appends events into memory; the in-process sink tests and
// determinism checks use.
type CollectorSink struct {
	mu     sync.Mutex
	events []Event
}

// Emit appends the event.
func (c *CollectorSink) Emit(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, e)
}

// Events returns a copy of everything collected so far.
func (c *CollectorSink) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

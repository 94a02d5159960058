// Package overload models demand surges in the Total Ship Computing
// Environment and the worth-aware degradation controller that rides them out.
// The paper maximizes system slackness Λ precisely so an allocation can
// "absorb unpredictable workload increases without rescheduling"; package
// dynamic models a single post-hoc workload change (γ-scaling plus repair),
// and package faults models the failure side of robustness. This package
// supplies the missing surge side:
//
//   - Event: one timed demand surge — a step or a ramp — scaling the CPU work
//     and transfer sizes of a subset of strings by a factor for a while;
//   - Scenario: a named set of surge events, loadable from JSON, composable
//     with faults.Scenario outage traces so chaos runs can mix both;
//   - Burst (burst.go): seeded stochastic surge generation;
//   - Run (controller.go): the hysteresis shed/re-admit degradation
//     controller that keeps the allocation feasible through the surge,
//     shedding the lowest worth-per-utilization strings first and
//     re-admitting them once slack recovers.
package overload

import (
	"fmt"
	"math"
	"os"
	"sort"

	"repro/internal/jsonscan"
	"repro/internal/scenario"
)

// Kind discriminates the surge shapes.
type Kind string

const (
	// Step jumps the demand factor to Factor at At and back to 1 when the
	// event ends.
	Step Kind = "step"
	// Ramp grows the demand factor linearly from 1 at At to Factor over Rise
	// seconds, holds it, and drops back to 1 when the event ends.
	Ramp Kind = "ramp"
)

// Event is one timed demand surge: between At and At+Duration the CPU work
// and transfer sizes of the affected strings are multiplied by (up to)
// Factor. Duration <= 0 means the surge never subsides. Factor > 1 models a
// demand increase; factors in (0, 1) model a lull.
type Event struct {
	// ID optionally names the event; scenario files with IDs are checked for
	// duplicates at load time.
	ID   string `json:"id,omitempty"`
	Kind Kind   `json:"kind"`
	// Strings lists the affected string indices; empty means every string
	// (a fleet-wide demand swell).
	Strings  []int   `json:"strings,omitempty"`
	At       float64 `json:"at"`
	Duration float64 `json:"duration,omitempty"`
	Factor   float64 `json:"factor"`
	// Rise is the ramp time in seconds from onset to full Factor (Ramp only;
	// ignored for Step).
	Rise float64 `json:"rise,omitempty"`
}

// Permanent reports whether the surge never subsides.
func (e Event) Permanent() bool { return e.Duration <= 0 }

// UpAt returns the time the surge ends, or +Inf for a permanent surge.
func (e Event) UpAt() float64 {
	if e.Permanent() {
		return math.Inf(1)
	}
	return e.At + e.Duration
}

// Applies reports whether the event affects string k.
func (e Event) Applies(k int) bool {
	if len(e.Strings) == 0 {
		return true
	}
	for _, s := range e.Strings {
		if s == k {
			return true
		}
	}
	return false
}

// FactorAt returns the demand multiplier the event contributes at time t
// (1 outside [At, UpAt)).
func (e Event) FactorAt(t float64) float64 {
	if t < e.At || t >= e.UpAt() {
		return 1
	}
	if e.Kind == Ramp && e.Rise > 0 && t < e.At+e.Rise {
		return 1 + (e.Factor-1)*(t-e.At)/e.Rise
	}
	return e.Factor
}

// validate checks one event against a system of n strings; idx and the
// event's ID label the error.
func (e Event) validate(idx, n int) error {
	label := fmt.Sprintf("overload: event %d", idx)
	if e.ID != "" {
		label = fmt.Sprintf("overload: event %d (id %q)", idx, e.ID)
	}
	if e.Kind != Step && e.Kind != Ramp {
		return fmt.Errorf("%s: unknown surge kind %q", label, e.Kind)
	}
	if e.At < 0 || math.IsNaN(e.At) || math.IsInf(e.At, 0) {
		return fmt.Errorf("%s: at = %v, want finite non-negative", label, e.At)
	}
	if math.IsNaN(e.Duration) || math.IsInf(e.Duration, 0) {
		return fmt.Errorf("%s: duration = %v, want finite", label, e.Duration)
	}
	if e.Factor <= 0 || math.IsNaN(e.Factor) || math.IsInf(e.Factor, 0) {
		return fmt.Errorf("%s: factor = %v, want finite positive", label, e.Factor)
	}
	if e.Rise < 0 || math.IsNaN(e.Rise) || math.IsInf(e.Rise, 0) {
		return fmt.Errorf("%s: rise = %v, want finite non-negative", label, e.Rise)
	}
	for _, k := range e.Strings {
		if k < 0 || (n > 0 && k >= n) {
			return fmt.Errorf("%s: string %d out of range [0,%d): %w", label, k, n, scenario.ErrOutOfRange)
		}
	}
	return nil
}

// Scenario is a named surge scenario: a set of demand events applied to one
// system. Scenarios serialize to JSON so experiments and the CLIs can share
// hand-written or sampled surge files.
type Scenario struct {
	// Version is the scenario file version (0 for pre-versioned files); the
	// shared loader rejects files newer than scenario.MaxVersion.
	Version int    `json:"version,omitempty"`
	Name    string `json:"name,omitempty"`
	// Seed records the generator seed a sampled scenario came from (0 for
	// hand-written scenarios); informational only.
	Seed   int64   `json:"seed,omitempty"`
	Events []Event `json:"events"`
}

// Validate checks every event against a system of n strings (n <= 0 skips the
// string-range check, for files validated before a system exists) and rejects
// duplicate non-empty event IDs, each with a per-event error.
func (sc *Scenario) Validate(n int) error {
	seen := make(map[string]int)
	for idx, e := range sc.Events {
		if err := e.validate(idx, n); err != nil {
			return err
		}
		if e.ID != "" {
			if prev, dup := seen[e.ID]; dup {
				return fmt.Errorf("overload: event %d (id %q): duplicate id (first used by event %d)", idx, e.ID, prev)
			}
			seen[e.ID] = idx
		}
	}
	return nil
}

// FactorAt returns the combined demand multiplier on string k at time t:
// the product over all active events that affect k.
func (sc *Scenario) FactorAt(t float64, k int) float64 {
	f := 1.0
	for _, e := range sc.Events {
		if e.Applies(k) {
			f *= e.FactorAt(t)
		}
	}
	return f
}

// FactorsAt returns the per-string demand multipliers at time t for a system
// of n strings.
func (sc *Scenario) FactorsAt(t float64, n int) []float64 {
	out := make([]float64, n)
	for k := range out {
		out[k] = sc.FactorAt(t, k)
	}
	return out
}

// Breakpoints returns the sorted, de-duplicated finite times at which the
// scenario's factor function changes shape: every onset, ramp knee, and
// subsidence. Permanent surges contribute no end time.
func (sc *Scenario) Breakpoints() []float64 {
	var ts []float64
	for _, e := range sc.Events {
		ts = append(ts, e.At)
		if e.Kind == Ramp && e.Rise > 0 {
			ts = append(ts, e.At+e.Rise)
		}
		if !e.Permanent() {
			ts = append(ts, e.UpAt())
		}
	}
	sort.Float64s(ts)
	out := ts[:0]
	for i, t := range ts {
		if i == 0 || t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}

// Horizon returns the last finite breakpoint (0 for an empty scenario): after
// it, every non-permanent surge has subsided.
func (sc *Scenario) Horizon() float64 {
	bps := sc.Breakpoints()
	if len(bps) == 0 {
		return 0
	}
	return bps[len(bps)-1]
}

// LoadFile reads a surge scenario file (Parse).
func LoadFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("overload: %w", err)
	}
	return Parse(data)
}

var eventFields = []string{"id", "kind", "strings", "at", "duration", "factor", "rise"}

// Parse reads a surge scenario — the fields of Scenario and Event under
// exactly their json names, each at most once (scenario.Parse) — and runs
// Validate with the string-range check skipped: there is no system yet. It is
// the one reader of a surge, from a -surge file, a POST /v1/surge body and a
// journaled surge record alike.
func Parse(data []byte) (*Scenario, error) {
	sc := new(Scenario)
	err := scenario.Parse(data, "overload", &sc.Version, &sc.Name, &sc.Seed, &sc.Events, func(c *jsonscan.Cursor, e *Event) error {
		floats := [...]*float64{3: &e.At, 4: &e.Duration, 5: &e.Factor, 6: &e.Rise}
		return c.Object(eventFields, false, func(f int) (err error) {
			switch f {
			case 0:
				e.ID, err = c.String()
			case 1:
				var kind string
				kind, err = c.String()
				e.Kind = Kind(kind)
			case 2:
				e.Strings = []int{}
				err = c.Array(func() error {
					e.Strings = append(e.Strings, 0)
					return c.Number(&e.Strings[len(e.Strings)-1])
				})
			default:
				err = c.Number(floats[f])
			}
			return err
		})
	})
	if err == nil {
		err = sc.Validate(0)
	}
	if err != nil {
		return nil, err
	}
	return sc, nil
}

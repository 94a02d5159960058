// Package faults models resource failures in the Total Ship Computing
// Environment. The paper motivates system slackness Λ as headroom against
// "unpredictable changes" in a shipboard environment; beyond workload surges
// (package dynamic's γ-scaling), the change a ship actually plans for is
// battle damage and equipment outage — losing machines and communication
// routes. This package provides the failure vocabulary shared by the failover
// controller (dynamic.Survive), the discrete-event simulator (sim.Config
// failure traces), and the chaos experiment (experiments.RunChaosStudy):
//
//   - Resource: a machine or a directed inter-machine route;
//   - Event: a timed outage of one resource (optionally repaired later);
//   - Scenario: a named set of events, loadable from JSON scenario files;
//   - Set: the instantaneous "what is down" view consumed by the static
//     failover analysis;
//   - CompartmentHit: the correlated failure of a machine together with all
//     of its incident routes, modeling physical damage to one compartment;
//   - MonteCarlo (montecarlo.go): seeded random scenario generation.
package faults

import (
	"fmt"
	"math"
	"os"
	"sort"

	"repro/internal/jsonscan"
	"repro/internal/model"
	"repro/internal/scenario"
)

// ResourceKind discriminates the two failable resource classes.
type ResourceKind string

const (
	// MachineResource is a compute machine of the suite.
	MachineResource ResourceKind = "machine"
	// RouteResource is a directed virtual point-to-point route.
	RouteResource ResourceKind = "route"
)

// Resource identifies one failable hardware resource. For machines only
// Machine is meaningful; for routes, From and To name the directed route.
type Resource struct {
	Kind    ResourceKind `json:"kind"`
	Machine int          `json:"machine,omitempty"`
	From    int          `json:"from,omitempty"`
	To      int          `json:"to,omitempty"`
}

// Machine returns a machine resource.
func Machine(j int) Resource { return Resource{Kind: MachineResource, Machine: j} }

// Route returns a directed route resource.
func Route(from, to int) Resource { return Resource{Kind: RouteResource, From: from, To: to} }

func (r Resource) String() string {
	if r.Kind == MachineResource {
		return fmt.Sprintf("machine %d", r.Machine)
	}
	return fmt.Sprintf("route %d->%d", r.From, r.To)
}

// ErrOutOfRange is the sentinel wrapped by resource validation errors when a
// scenario names a machine or route outside the suite; callers test it with
// errors.Is. It aliases the shared scenario.ErrOutOfRange, so either spelling
// matches.
var ErrOutOfRange = scenario.ErrOutOfRange

// Validate checks the resource against a suite of m machines: a known kind,
// the machine or both route endpoints in [0, m) (else ErrOutOfRange), and
// distinct route endpoints.
func (r Resource) Validate(m int) error {
	switch r.Kind {
	case MachineResource:
		if r.Machine < 0 || r.Machine >= m {
			return fmt.Errorf("faults: machine %d out of range [0,%d): %w", r.Machine, m, ErrOutOfRange)
		}
	case RouteResource:
		if r.From < 0 || r.From >= m || r.To < 0 || r.To >= m {
			return fmt.Errorf("faults: route %d->%d out of range [0,%d): %w", r.From, r.To, m, ErrOutOfRange)
		}
		if r.From == r.To {
			return fmt.Errorf("faults: route %d->%d is intra-machine and cannot fail", r.From, r.To)
		}
	default:
		return fmt.Errorf("faults: unknown resource kind %q", r.Kind)
	}
	return nil
}

// Event is one timed outage: the resource goes down at time At (seconds of
// simulated time) and comes back up after Duration seconds. Duration <= 0
// means the outage is permanent — the resource is never repaired.
type Event struct {
	// ID optionally names the event; scenario files with IDs are checked for
	// duplicates when loaded (LoadFile rejects them per event).
	ID       string   `json:"id,omitempty"`
	Resource Resource `json:"resource"`
	At       float64  `json:"at"`
	Duration float64  `json:"duration,omitempty"`
}

// Permanent reports whether the outage is never repaired.
func (e Event) Permanent() bool { return e.Duration <= 0 }

// UpAt returns the repair time, or +Inf for a permanent outage.
func (e Event) UpAt() float64 {
	if e.Permanent() {
		return math.Inf(1)
	}
	return e.At + e.Duration
}

// Scenario is a named failure scenario: a set of outage events applied to one
// system. Scenarios serialize to JSON so chaos experiments and the shipsched
// fault mode can share hand-written or sampled scenario files.
type Scenario struct {
	// Version is the scenario file version (0 for pre-versioned files); the
	// shared loader rejects files newer than scenario.MaxVersion.
	Version int    `json:"version,omitempty"`
	Name    string `json:"name,omitempty"`
	// Seed records the Monte Carlo seed a sampled scenario came from
	// (0 for hand-written scenarios); informational only.
	Seed   int64   `json:"seed,omitempty"`
	Events []Event `json:"events"`
}

// Validate checks every event against a suite of m machines. Event times must
// be finite and non-negative, durations finite, and non-empty event IDs
// unique; each failure is reported with a per-event error.
func (sc *Scenario) Validate(m int) error {
	for idx, e := range sc.Events {
		if err := e.Resource.Validate(m); err != nil {
			return fmt.Errorf("faults: event %d: %w", idx, err)
		}
	}
	return sc.ValidateStructure()
}

// EventsOrNil returns the scenario's events; nil-safe, for callers holding an
// optional scenario.
func (sc *Scenario) EventsOrNil() []Event {
	if sc == nil {
		return nil
	}
	return sc.Events
}

// ValidateFor checks the scenario against a concrete system.
func (sc *Scenario) ValidateFor(sys *model.System) error { return sc.Validate(sys.Machines) }

// Sorted returns a copy of the events ordered by failure time (ties keep the
// scenario's order), the canonical order the simulator processes them in.
func (sc *Scenario) Sorted() []Event {
	out := append([]Event(nil), sc.Events...)
	sort.SliceStable(out, func(a, b int) bool { return out[a].At < out[b].At })
	return out
}

// ActiveAt returns the set of resources down at time t in a suite of m
// machines.
func (sc *Scenario) ActiveAt(t float64, m int) *Set {
	s := NewSet(m)
	for _, e := range sc.Events {
		if e.At <= t && t < e.UpAt() {
			s.Fail(e.Resource)
		}
	}
	return s
}

// CompartmentHit returns the correlated events of a physical hit on the
// compartment holding machine j at time at: the machine and every incident
// route (both directions) go down together. Duration <= 0 makes the hit
// permanent.
func CompartmentHit(m, j int, at, duration float64) []Event {
	events := []Event{{Resource: Machine(j), At: at, Duration: duration}}
	for other := 0; other < m; other++ {
		if other == j {
			continue
		}
		events = append(events,
			Event{Resource: Route(j, other), At: at, Duration: duration},
			Event{Resource: Route(other, j), At: at, Duration: duration})
	}
	return events
}

// ValidateStructure runs the machine-count-independent event checks shared by
// Parse and Validate.
func (sc *Scenario) ValidateStructure() error {
	seen := make(map[string]int)
	for idx, e := range sc.Events {
		if e.At < 0 || math.IsNaN(e.At) || math.IsInf(e.At, 0) {
			return fmt.Errorf("faults: event %d (%v): at = %v, want finite non-negative", idx, e.Resource, e.At)
		}
		if math.IsNaN(e.Duration) || math.IsInf(e.Duration, 0) {
			return fmt.Errorf("faults: event %d (%v): duration = %v, want finite", idx, e.Resource, e.Duration)
		}
		if e.ID != "" {
			if prev, dup := seen[e.ID]; dup {
				return fmt.Errorf("faults: event %d (%v): duplicate id %q (first used by event %d)", idx, e.Resource, e.ID, prev)
			}
			seen[e.ID] = idx
		}
	}
	return nil
}

// LoadFile reads a scenario file (Parse).
func LoadFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	return Parse(data)
}

// The grammar below the envelope: an event and the resource it takes down.
var (
	eventFields    = []string{"id", "resource", "at", "duration"}
	resourceFields = []string{"kind", "machine", "from", "to"}
)

// Parse reads a failure scenario — the fields of Scenario, Event and Resource
// under exactly their json names, each at most once (scenario.Parse) — and
// applies the structural checks that need no machine count: event times must
// be finite and non-negative, durations finite, and non-empty event IDs
// unique, each refused with a per-event error. Callers still validate
// resource ranges against their system with ValidateFor (the machine count is
// not part of the scenario file).
func Parse(data []byte) (*Scenario, error) {
	sc := new(Scenario)
	err := scenario.Parse(data, "faults", &sc.Version, &sc.Name, &sc.Seed, &sc.Events, func(c *jsonscan.Cursor, e *Event) error {
		return c.Object(eventFields, false, func(f int) (err error) {
			switch f {
			case 0:
				e.ID, err = c.String()
			case 1:
				e.Resource, err = ReadResource(c)
			case 2:
				err = c.Number(&e.At)
			case 3:
				err = c.Number(&e.Duration)
			}
			return err
		})
	})
	if err == nil {
		err = sc.ValidateStructure()
	}
	if err != nil {
		return nil, err
	}
	return sc, nil
}

// ReadResource reads the Resource object at c: the one reader of a resource,
// in a scenario file's event and in the daemon's faults request alike.
func ReadResource(c *jsonscan.Cursor) (r Resource, err error) {
	err = c.Object(resourceFields, false, func(f int) error {
		if f > 0 {
			return c.Number([...]*int{&r.Machine, &r.From, &r.To}[f-1])
		}
		kind, err := c.String()
		r.Kind = ResourceKind(kind)
		return err
	})
	return r, err
}

// Set is the instantaneous outage state of a suite: which machines and which
// directed routes are currently down. It is the static view the failover
// controller plans against.
type Set struct {
	machines []bool
	routes   [][]bool
	// How many cells of machines and routes are true, kept by Fail and Repair
	// so the counts (a state read asks for both) cost no scan.
	machinesDown, routesDown int
}

// NewSet returns an empty outage set for a suite of m machines.
func NewSet(m int) *Set {
	s := &Set{machines: make([]bool, m), routes: make([][]bool, m)}
	for j := range s.routes {
		s.routes[j] = make([]bool, m)
	}
	return s
}

// SetFromScenario collapses a scenario to the outage set of every resource
// that fails at any point (ignoring repair times) — the planning view for a
// static survivability analysis, which must hold even while everything listed
// is down at once.
func SetFromScenario(sc *Scenario, m int) *Set {
	s := NewSet(m)
	for _, e := range sc.Events {
		s.Fail(e.Resource)
	}
	return s
}

// Fail marks a resource down. Failing a machine does not implicitly fail its
// routes; use CompartmentHit for correlated loss. Failing a down resource is
// a no-op.
func (s *Set) Fail(r Resource) { s.set(r, true) }

// set moves a resource's cell to down.
func (s *Set) set(r Resource, down bool) {
	if r.Kind == MachineResource {
		flip(&s.machines[r.Machine], &s.machinesDown, down)
	} else {
		flip(&s.routes[r.From][r.To], &s.routesDown, down)
	}
}

// flip moves cell to down and, only when that changes it, count with it.
func flip(cell *bool, count *int, down bool) {
	if *cell == down {
		return
	}
	*cell = down
	if down {
		*count++
	} else {
		*count--
	}
}

// Down reports whether the resource is down.
func (s *Set) Down(r Resource) bool {
	if r.Kind == MachineResource {
		return s.machines[r.Machine]
	}
	return s.routes[r.From][r.To]
}

// Machines returns the size of the suite the set was built for.
func (s *Set) Machines() int { return len(s.machines) }

// MachineDown reports whether machine j is down.
func (s *Set) MachineDown(j int) bool { return s.machines[j] }

// RouteDown reports whether the directed route j1 -> j2 is down.
// Intra-machine "routes" never fail.
func (s *Set) RouteDown(j1, j2 int) bool {
	if j1 == j2 {
		return false
	}
	return s.routes[j1][j2]
}

// MachinesDown returns the number of failed machines.
func (s *Set) MachinesDown() int { return s.machinesDown }

// RoutesDown returns the number of failed directed routes.
func (s *Set) RoutesDown() int { return s.routesDown }

// Repair marks a resource up again, undoing a Fail. Repairing an up resource
// is a no-op.
func (s *Set) Repair(r Resource) { s.set(r, false) }

// Resources enumerates every resource currently down, machines first, then
// routes in (from, to) order — a canonical order suitable for serialization.
func (s *Set) Resources() []Resource {
	var out []Resource
	for j, d := range s.machines {
		if d {
			out = append(out, Machine(j))
		}
	}
	for j1, row := range s.routes {
		for j2, d := range row {
			if d {
				out = append(out, Route(j1, j2))
			}
		}
	}
	return out
}

// Scenario collapses the set into a permanent-outage scenario (every down
// resource fails at t=0 and is never repaired) — the form consumed by
// controllers that take a faults.Scenario, e.g. overload.Config.Faults.
// An empty set yields nil.
func (s *Set) Scenario() *Scenario {
	rs := s.Resources()
	if len(rs) == 0 {
		return nil
	}
	sc := &Scenario{Name: "live-outages"}
	for _, r := range rs {
		sc.Events = append(sc.Events, Event{Resource: r, At: 0})
	}
	return sc
}

// Empty reports whether nothing is down.
func (s *Set) Empty() bool { return s.machinesDown == 0 && s.routesDown == 0 }

// Masks returns the set as the two masks the IMR takes (machine j allowed,
// route j1 -> j2 allowed), reading the set as it stands when they are called.
// Both are nil while nothing is down — "allow everything" without a call per
// candidate — so take them again after a Fail or Repair.
func (s *Set) Masks() (machineOK func(j int) bool, routeOK func(j1, j2 int) bool) {
	if s.Empty() {
		return nil, nil
	}
	return func(j int) bool { return !s.MachineDown(j) },
		func(j1, j2 int) bool { return !s.RouteDown(j1, j2) }
}

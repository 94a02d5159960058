package faults

import (
	"fmt"
	"math/rand"

	"repro/internal/rng"
	"repro/internal/telemetry"
)

// MonteCarlo parameterizes seeded random scenario generation. Each sampled
// scenario draws the configured number of compartment hits, isolated machine
// outages, and isolated route outages, without replacement within each class
// (a machine is hit at most once per scenario). Failure times are uniform in
// [0, Window]; Window = 0 makes every failure strike at time zero, the
// worst-case simultaneous loss the static survivability analysis plans for.
type MonteCarlo struct {
	// CompartmentHits is the number of correlated machine-plus-incident-route
	// losses per scenario.
	CompartmentHits int
	// MachineOutages is the number of isolated machine failures (routes stay
	// up) per scenario.
	MachineOutages int
	// RouteOutages is the number of isolated directed-route failures per
	// scenario.
	RouteOutages int
	// Window is the width in seconds of the uniform failure-time window.
	Window float64
	// MeanDowntime is the mean of the exponentially distributed repair delay
	// in seconds; 0 makes every outage permanent.
	MeanDowntime float64
}

// Validate checks the generator against a suite of m machines.
func (mc MonteCarlo) Validate(m int) error {
	switch {
	case mc.CompartmentHits < 0 || mc.MachineOutages < 0 || mc.RouteOutages < 0:
		return fmt.Errorf("faults: negative failure count in %+v", mc)
	case mc.CompartmentHits+mc.MachineOutages > m:
		return fmt.Errorf("faults: %d machine-level failures for %d machines",
			mc.CompartmentHits+mc.MachineOutages, m)
	case mc.RouteOutages > m*(m-1):
		return fmt.Errorf("faults: %d route outages for %d directed routes", mc.RouteOutages, m*(m-1))
	case mc.Window < 0:
		return fmt.Errorf("faults: negative window %v", mc.Window)
	case mc.MeanDowntime < 0:
		return fmt.Errorf("faults: negative mean downtime %v", mc.MeanDowntime)
	}
	return nil
}

// Sample draws one scenario for a suite of m machines, deterministically for
// a given seed.
func (mc MonteCarlo) Sample(m int, seed int64) (*Scenario, error) {
	if err := mc.Validate(m); err != nil {
		return nil, err
	}
	if telemetry.Enabled() {
		telemetry.C("faults.scenarios").Inc()
		telemetry.C("faults.events").Add(int64(mc.CompartmentHits + mc.MachineOutages + mc.RouteOutages))
	}
	rnd := rng.NewRand(seed, rng.SubsystemFaults, 0)
	sc := &Scenario{
		Name: fmt.Sprintf("mc-%dc%dm%dr", mc.CompartmentHits, mc.MachineOutages, mc.RouteOutages),
		Seed: seed,
	}
	// Machine-level victims without replacement, compartment hits first.
	victims := rnd.Perm(m)[:mc.CompartmentHits+mc.MachineOutages]
	for idx, j := range victims {
		at, dur := mc.sampleTimes(rnd)
		if idx < mc.CompartmentHits {
			sc.Events = append(sc.Events, CompartmentHit(m, j, at, dur)...)
		} else {
			sc.Events = append(sc.Events, Event{Resource: Machine(j), At: at, Duration: dur})
		}
	}
	// Route victims without replacement among all directed routes.
	routes := rnd.Perm(m * (m - 1))[:mc.RouteOutages]
	for _, r := range routes {
		from := r / (m - 1)
		to := r % (m - 1)
		if to >= from {
			to++ // skip the diagonal
		}
		at, dur := mc.sampleTimes(rnd)
		sc.Events = append(sc.Events, Event{Resource: Route(from, to), At: at, Duration: dur})
	}
	return sc, nil
}

// sampleTimes draws one failure time and repair duration.
func (mc MonteCarlo) sampleTimes(rnd *rand.Rand) (at, duration float64) {
	if mc.Window > 0 {
		at = rnd.Float64() * mc.Window
	}
	if mc.MeanDowntime > 0 {
		duration = rnd.ExpFloat64() * mc.MeanDowntime
	}
	return at, duration
}

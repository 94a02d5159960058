// The degradation controller: the overload counterpart of dynamic.Survive.
// Where Survive reacts to resource loss, the controller reacts to demand
// surges that exhaust the slack Λ the initial allocation banked: it walks the
// surge timeline on a fixed control interval and, whenever the scaled demand
// drives a machine or route past capacity (or slackness below the shed
// threshold), sheds or re-places mapped strings lowest worth-per-utilization
// first. Shed strings are re-admitted — bounded per tick, via the masked IMR
// — only once slackness recovers above the separate, higher re-admit
// threshold; the gap between the two thresholds is the hysteresis band that
// keeps the controller from flapping at the boundary. An episode works on
// one scaled view of the ship and one tracked allocation over it: each tick
// rescales in place only the strings whose demand factor changed, re-placing
// a mapped one on the machines it held.

package overload

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dynamic"
	"repro/internal/faults"
	"repro/internal/feasibility"
	"repro/internal/heuristics"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// slackEps absorbs float64 accumulation error in threshold comparisons.
const slackEps = 1e-9

// maxTicks bounds a controller run; a horizon implying more control ticks is
// a configuration error, not a reason to spin.
const maxTicks = 1_000_000

// The control cadence. interval is the control tick in seconds; settle is how
// long past the last surge/outage breakpoint the controller keeps ticking,
// giving re-admission time to reclaim shed strings at post-surge demand; and
// maxReadmit bounds re-admissions per tick, so recovery does not monopolize
// one.
const (
	interval   = 1.0
	settle     = 2 * interval
	maxReadmit = 4
)

// Config parameterizes the degradation controller. The zero value is usable:
// WithDefaults fills in a shed threshold of 0 (shed only when a resource is
// past capacity or the two-stage analysis fails) and a re-admit threshold of
// 0.05.
type Config struct {
	// ShedBelow is the lower hysteresis bound: the controller sheds load
	// while system slackness Λ is below it (or the allocation is outright
	// infeasible). Must be in [0, 1).
	ShedBelow float64
	// ReadmitAbove is the upper hysteresis bound: shed strings are considered
	// for re-admission only while Λ is above it. Must be >= ShedBelow; the
	// gap is the hysteresis band.
	ReadmitAbove float64
	// Faults optionally composes an outage trace with the surge scenario:
	// strings touching a down resource are shed (and re-admitted through the
	// fault-masked IMR once the resource is repaired and slack allows), so
	// chaos runs can mix outages and surges on one timeline.
	Faults *faults.Scenario
}

// WithDefaults returns a copy with every zero-valued field replaced by its
// default. Value receiver — the original is never mutated, matching the
// pattern shared by workload.Config, genitor.Config, and heuristics.PSGConfig.
func (c Config) WithDefaults() Config {
	if c.ReadmitAbove == 0 {
		c.ReadmitAbove = 0.05
	}
	return c
}

// Validate reports configuration errors on the already-defaulted values.
func (c Config) Validate() error {
	if c.ShedBelow < 0 || c.ShedBelow >= 1 || math.IsNaN(c.ShedBelow) {
		return fmt.Errorf("overload: shed threshold %v, want in [0, 1)", c.ShedBelow)
	}
	if c.ReadmitAbove < c.ShedBelow || c.ReadmitAbove >= 1 || math.IsNaN(c.ReadmitAbove) {
		return fmt.Errorf("overload: re-admit threshold %v, want in [%v, 1)", c.ReadmitAbove, c.ShedBelow)
	}
	return nil
}

// ActionKind classifies one controller action.
type ActionKind string

const (
	// Shed: the string was dropped from the mapping to recover capacity.
	Shed ActionKind = "shed"
	// Migrated: the string was re-placed on different machines instead of
	// being shed (the "downgrade before drop" step).
	Migrated ActionKind = "migrated"
	// Readmitted: a previously shed string was re-placed once slack
	// recovered above the upper hysteresis threshold.
	Readmitted ActionKind = "readmitted"
)

// Action is one timed controller decision.
type Action struct {
	Time     float64
	StringID int
	Kind     ActionKind
	// Reason is "overload" for capacity-driven sheds/migrations, "outage"
	// for fault-driven sheds, and "slack-recovered" for re-admissions.
	Reason string
}

// Sample is the controller's view of the system at one control tick, after
// its actions for the tick.
type Sample struct {
	Time      float64
	Slackness float64
	Worth     float64
	Mapped    int
	// Overloaded reports whether the allocation carried into this tick was
	// over capacity (or below the shed threshold) under the tick's demand —
	// i.e. the controller had to act.
	Overloaded bool
}

// Result summarizes one controller run.
type Result struct {
	Actions []Action
	Samples []Sample
	// WorthBefore and WorthAfter are the mapped worth at the start and end of
	// the timeline; Retained is their ratio (1 when nothing was mapped).
	WorthBefore, WorthAfter float64
	Retained                float64
	// MinRetained is the lowest worth ratio observed at any tick — the
	// trough of the degradation.
	MinRetained float64
	// Shed, Readmitted, and Migrated count actions by kind.
	Shed, Readmitted, Migrated int
	// TimeOverCapacity is the simulated seconds (in whole control intervals)
	// during which the carried allocation was over capacity before the
	// controller reacted — the price of the control interval.
	TimeOverCapacity float64
	// SlacknessAfter is the post-surge slackness Λ of the final allocation.
	SlacknessAfter float64
	// Feasible reports whether the final allocation passes the two-stage
	// analysis.
	Feasible bool
	// FinalAlloc is the episode's allocation as the last tick left it,
	// untracked, on a view of the caller's system scaled to the final tick's
	// demand; its complete strings are the surviving mapped set.
	FinalAlloc *feasibility.Allocation
}

// controllerTelemetry caches the controller counters for one run; all fields
// are nil (no-op) when telemetry is disabled.
type controllerTelemetry struct {
	ticks     *telemetry.Counter
	shed      *telemetry.Counter
	readmits  *telemetry.Counter
	migrates  *telemetry.Counter
	overTicks *telemetry.Counter
}

func newControllerTelemetry() controllerTelemetry {
	return controllerTelemetry{
		ticks:     telemetry.C("overload.ticks"),
		shed:      telemetry.C("overload.shed"),
		readmits:  telemetry.C("overload.readmitted"),
		migrates:  telemetry.C("overload.migrated"),
		overTicks: telemetry.C("overload.over_capacity_ticks"),
	}
}

// Run is the worth-aware degradation controller: it applies cfg's defaults,
// validates it, and walks the surge scenario on the control grid, keeping the
// allocation feasible by worth-per-utilization shedding and hysteresis-gated
// re-admission. Neither the input allocation nor its system is written: the
// episode builds one model.ScaledView of the system, places alloc's complete
// strings on one allocation over it, and tracks that allocation with one
// DeltaAnalyzer for the whole run. A tick first handles the strings whose
// factor differs from the previous tick's: a mapped one is unassigned, its
// view demand rewritten and re-assigned on the machines it held; an unmapped
// one only has its demand rewritten. The allocation state is a function of
// the mapping, so a tick's state is what re-placing its mapping at the tick's
// demand would give. The allocation is returned in the result, detached from
// the analyzer. The run is fully deterministic: the controller consumes no
// randomness, iterates strings in index order, and breaks every ordering tie
// by string ID.
func Run(alloc *feasibility.Allocation, sc *Scenario, cfg Config) (*Result, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	base := alloc.System()
	n := len(base.Strings)
	if err := sc.Validate(n); err != nil {
		return nil, err
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(base.Machines); err != nil {
			return nil, err
		}
	}
	horizon := sc.Horizon()
	for _, e := range cfg.Faults.EventsOrNil() {
		horizon = math.Max(horizon, e.At)
		if !e.Permanent() {
			horizon = math.Max(horizon, e.UpAt())
		}
	}
	ticks := int(math.Ceil((horizon+settle)/interval)) + 1
	if ticks > maxTicks {
		return nil, fmt.Errorf("overload: horizon %v at interval %v implies %d control ticks, max %d",
			horizon, interval, ticks, maxTicks)
	}

	span := telemetry.BeginSpan("overload.run")
	tel := newControllerTelemetry()
	// Never-mapped strings are not re-admission candidates, so the shed set
	// cannot be derived from the allocation and is carried beside it.
	shed := make([]bool, n)
	res := &Result{WorthBefore: alloc.Metric().Worth, MinRetained: 1}

	// The episode's one view and one tracked allocation; see Run's comment.
	// Bandwidth never scales, so every density shares the episode's average
	// inverse bandwidth; wpu[k] is string k's density at the tick's demand.
	last := sc.FactorsAt(0, n)
	view := model.ScaledView(base, last)
	invBW := base.AvgInvBandwidth()
	a := feasibility.New(view)
	wpu := make([]float64, n)
	for k := range wpu {
		if alloc.Complete(k) {
			a.AssignString(k, alloc.StringMachines(k))
		}
		wpu[k] = worthPerUtil(view, k, invBW)
	}
	da := feasibility.Track(a)
	// Detach so FinalAlloc escapes untracked and a later consumer can attach
	// its own analyzer.
	defer da.Close()
	tried, implicated := make([]bool, n), make([]bool, n)
	var cands []int

	for i := 0; i < ticks; i++ {
		t := float64(i) * interval
		tel.ticks.Inc()
		// Re-place only the strings whose factor moved. The frozen-floats
		// contract lets the view's demand be rewritten from base while the
		// string is unassigned; it goes back on the machines it held.
		g := sc.FactorsAt(t, n)
		for k := range g {
			if g[k] == last[k] {
				continue
			}
			var held []int
			if a.Complete(k) {
				held = a.StringMachines(k)
				a.UnassignString(k)
			}
			model.ScaleDemand(view.Strings[k].Apps, base.Strings[k].Apps, g[k])
			wpu[k] = worthPerUtil(view, k, invBW)
			if held != nil {
				a.AssignString(k, held)
			}
		}
		last = g
		da.Commit()
		// The tick's active outages and the IMR masks over them, all nil while
		// nothing is down.
		var down *faults.Set
		var machineOK func(int) bool
		var routeOK func(int, int) bool
		if cfg.Faults != nil {
			if d := cfg.Faults.ActiveAt(t, base.Machines); !d.Empty() {
				down = d
				machineOK, routeOK = d.Masks()
			}
		}

		// 1. Outage sheds: strings touching a down resource cannot run at
		// all; they go straight to the shed set and become re-admission
		// candidates once the resource is repaired.
		if down != nil {
			for k := 0; k < n; k++ {
				if a.Complete(k) && dynamic.StringUsesFailed(a, k, down) {
					a.UnassignString(k)
					shed[k] = true
					res.Actions = append(res.Actions, Action{Time: t, StringID: k, Kind: Shed, Reason: "outage"})
					res.Shed++
					tel.shed.Inc()
				}
			}
		}

		overAtEntry := !cfg.healthy(da)
		if overAtEntry {
			if i > 0 {
				res.TimeOverCapacity += interval
			}
			tel.overTicks.Inc()
		}

		// 2. Shed loop: while a resource is past capacity (or Λ below the
		// shed threshold), act on the implicated string with the lowest worth
		// per unit of demand — one masked-IMR re-placement attempt first
		// (downgrade before drop), then shed.
		clear(tried)
		for !cfg.healthy(da) {
			victim := cfg.pickVictim(da, wpu, implicated)
			if victim < 0 {
				break // nothing implicated (should not happen while unhealthy)
			}
			a.UnassignString(victim)
			if !tried[victim] {
				tried[victim] = true
				if heuristics.MapStringIMRMasked(a, victim, machineOK, routeOK) {
					// Local acceptance, not FeasibleAfterDelta: during an
					// overload the allocation is globally infeasible by
					// definition, so a migration is kept when the new
					// placement itself introduces no violation and the loop
					// keeps shedding to cure the rest.
					if placementSound(da, victim) {
						res.Actions = append(res.Actions, Action{Time: t, StringID: victim, Kind: Migrated, Reason: "overload"})
						res.Migrated++
						tel.migrates.Inc()
						continue
					}
					a.UnassignString(victim)
				}
			}
			shed[victim] = true
			res.Actions = append(res.Actions, Action{Time: t, StringID: victim, Kind: Shed, Reason: "overload"})
			res.Shed++
			tel.shed.Inc()
		}

		// 3. Hysteresis-gated re-admission: only while Λ sits above the
		// upper threshold, highest worth-per-utilization candidates first,
		// bounded per tick, and never admitting a string that would push Λ
		// back below the shed threshold.
		if cfg.healthy(da) && a.Slackness() > cfg.ReadmitAbove+slackEps {
			cands = cands[:0]
			for k, s := range shed {
				if s {
					cands = append(cands, k)
				}
			}
			sortByWorthPerUtilDesc(wpu, cands)
			admitted := 0
			for _, k := range cands {
				if admitted >= maxReadmit {
					break
				}
				if a.Slackness() <= cfg.ReadmitAbove+slackEps {
					break
				}
				// The window is clean here (healthy committed, and each
				// attempt below ends in Commit or Undo), so the analyzer sees
				// exactly the candidate's placement as the delta, and a
				// rejected candidate is rolled back by Undo: the window must
				// end in Commit or Undo, and Undo costs the candidate's
				// unassignment, each Unassign repricing its roster tails.
				if !heuristics.MapStringIMRMasked(a, k, machineOK, routeOK) {
					da.Undo()
					continue
				}
				if da.FeasibleAfterDelta() && a.Slackness() >= cfg.ShedBelow-slackEps {
					da.Commit()
					shed[k] = false
					res.Actions = append(res.Actions, Action{Time: t, StringID: k, Kind: Readmitted, Reason: "slack-recovered"})
					res.Readmitted++
					tel.readmits.Inc()
					admitted++
				} else {
					da.Undo()
				}
			}
		}

		m := a.Metric()
		res.Samples = append(res.Samples, Sample{
			Time:       t,
			Slackness:  m.Slackness,
			Worth:      m.Worth,
			Mapped:     a.NumComplete(),
			Overloaded: overAtEntry,
		})
		if res.WorthBefore > 0 {
			if ratio := m.Worth / res.WorthBefore; ratio < res.MinRetained {
				res.MinRetained = ratio
			}
		}
	}

	m := a.Metric()
	res.WorthAfter, res.SlacknessAfter = m.Worth, m.Slackness
	res.Retained = 1.0
	if res.WorthBefore > 0 {
		res.Retained = res.WorthAfter / res.WorthBefore
	}
	// Every tick ends on a clean window (healthy commits, and each
	// re-admission attempt ends in Commit or Undo).
	res.Feasible = da.CommittedFeasible()
	res.FinalAlloc = a
	span.End(
		telemetry.F("ticks", float64(len(res.Samples))),
		telemetry.F("shed", float64(res.Shed)),
		telemetry.F("readmitted", float64(res.Readmitted)),
		telemetry.F("retained", res.Retained),
		telemetry.F("time_over_capacity", res.TimeOverCapacity),
	)
	return res, nil
}

// healthy reports whether the tracked allocation needs no shedding:
// two-stage feasible with slackness at or above the shed threshold. It
// commits the pending delta window first, so after the shed loop's mutations
// only the changed strings are re-analyzed.
func (c Config) healthy(da *feasibility.DeltaAnalyzer) bool {
	da.Commit()
	return da.FeasibleAfterDelta() && da.Allocation().Slackness() >= c.ShedBelow-slackEps
}

// placementSound reports whether completely mapped string k, as placed in the
// analyzer's open window, introduces no violation of its own: a neighbourhood
// verdict, for a state that need not be feasible elsewhere. Stage 1 covers the
// machines and inter-machine routes k uses. Stage 2 covers every complete
// string on one of those machines at equal or lower tightness — k itself is
// one; waiting terms flow downward in priority, and an exact tie is included
// because the ID tie-break can demote the incumbent; a string that shares a
// route with k sits on both of the route's machines — and none of them may
// appear among the analyzer's violations, which list every complete string
// failing equation (1) under the current state. The healthy that follows an
// accepted placement commits those verdicts as remembered.
func placementSound(da *feasibility.DeltaAnalyzer, k int) bool {
	a := da.Allocation()
	n := len(a.System().Strings[k].Apps)
	tk := a.Tightness(k)
	slowed := make(map[int]bool)
	mark := func(z int) {
		if a.Tightness(z) <= tk {
			slowed[z] = true
		}
	}
	for i := 0; i < n; i++ {
		j := a.Machine(k, i)
		if a.MachineUtilization(j) > feasibility.CapacityLimit {
			return false
		}
		// An intra-machine transfer uses no route and reads exactly zero.
		if i < n-1 && a.RouteUtilization(j, a.Machine(k, i+1)) > feasibility.CapacityLimit {
			return false
		}
		a.StringsOnMachine(j, mark)
	}
	for _, v := range da.ViolationsAfterDelta() {
		if slowed[v.StringID] {
			return false
		}
	}
	return true
}

// pickVictim selects the mapped string with the lowest worth per unit of
// demand (wpu, the tick's densities) among the strings implicated in the
// overload: strings named by stage-2 violations plus strings on any resource
// utilized past the shed target 1-ShedBelow. Candidates are visited in
// ascending string ID and near-equal densities (feasibility.AlmostEqual)
// keep the lower ID; AlmostEqual is not transitive, so the fixed visiting
// order is what makes the winner of a near-tie chain unique. implicated is
// scratch, one slot per string. Returns -1 when nothing is implicated.
//
// The violation list comes from the delta analyzer (healthy just committed,
// so only surviving committed violations are rechecked); the resource sweep is
// the allocation's O(M + active routes) walk at the shed target, which sits at
// or below the capacity limit the repair controllers walk at.
func (c Config) pickVictim(da *feasibility.DeltaAnalyzer, wpu []float64, implicated []bool) int {
	a := da.Allocation()
	clear(implicated)
	mark := func(k int) { implicated[k] = true }
	for _, v := range da.ViolationsAfterDelta() {
		mark(v.StringID)
	}
	a.StringsOverLimit(1-c.ShedBelow+slackEps, mark)
	best := -1
	for k, in := range implicated {
		if !in || !a.Complete(k) {
			continue
		}
		if best < 0 || (!feasibility.AlmostEqual(wpu[k], wpu[best]) && wpu[k] < wpu[best]) {
			best = k
		}
	}
	return best
}

// worthPerUtil returns the worth of string k per unit of average resource
// demand: its worth divided by the sum of its machine-averaged CPU
// utilization demand and its bandwidth-averaged route utilization demand —
// the value density the controller sheds against (lowest first) and
// re-admits against (highest first). invBW is sys.AvgInvBandwidth().
func worthPerUtil(sys *model.System, k int, invBW float64) float64 {
	s := &sys.Strings[k]
	d := 0.0
	for i := range s.Apps {
		d += sys.AvgWork(k, i) / s.Period
	}
	for i := 0; i < len(s.Apps)-1; i++ {
		d += 8 * s.Apps[i].OutputKB / 1000 * invBW / s.Period
	}
	if d < 1e-12 {
		d = 1e-12
	}
	return s.Worth / d
}

// sortByWorthPerUtilDesc orders string indices by their density in wpu,
// highest first. Densities within feasibility.AlmostEqual of each other are
// treated as tied and break by lower ID, so the re-admission order cannot
// depend on the last bits of a float division; ks must arrive in ascending
// ID, since with a non-transitive tie rule the order sort.Slice returns
// depends on the order it was given.
func sortByWorthPerUtilDesc(wpu []float64, ks []int) {
	sort.Slice(ks, func(a, b int) bool {
		wa, wb := wpu[ks[a]], wpu[ks[b]]
		if !feasibility.AlmostEqual(wa, wb) {
			return wa > wb
		}
		return ks[a] < ks[b]
	})
}

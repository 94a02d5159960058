// Failover: the survivability extension of the repair controller. Where
// Repair reacts to workload growth, Survive reacts to resource loss — the
// failure mode a shipboard environment actually plans for (battle damage,
// equipment outage). It evacuates every string mapped onto a failed machine
// or routed over a failed link, re-places the evacuees on the surviving
// suite with the fault-masked IMR, and restores two-stage feasibility by
// migrate-then-evict, lowest-worth victims first. Like Repair it takes the
// allocation alone: a string is mapped iff the allocation places all of it,
// and evicting one is unassigning it.

package dynamic

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/faults"
	"repro/internal/feasibility"
	"repro/internal/heuristics"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// ErrUnknownResource is the sentinel wrapped by Survive when the failure
// scenario references a machine or route the system does not have (an outage
// set sized for a different suite). Callers distinguish it with
// errors.Is(err, ErrUnknownResource) instead of parsing the message.
var ErrUnknownResource = errors.New("unknown machine or route")

// repairer carries the shared migrate/evict/reclaim machinery behind Repair
// (no resource mask) and Survive (failed resources masked out). It mutates
// the allocation in place and records the action log.
type repairer struct {
	alloc     *feasibility.Allocation
	da        *feasibility.DeltaAnalyzer // incremental analysis over alloc
	ownsDA    bool                       // whether result() should Close da
	machineOK func(j int) bool           // nil: all machines allowed
	routeOK   func(j1, j2 int) bool      // nil: all routes allowed
	origin    map[int][]int              // pre-repair machines of every string acted on
	evicted   []bool                     // strings evicted by this repair, reclaim candidates
	tried     []bool                     // strings that already got their one migrate attempt
	res       *Result
	tel       repairTelemetry
}

// repairTelemetry caches the repair-work counters for one repairer; all
// fields are nil (no-op) when telemetry is disabled, so the repair loop pays
// only a nil check per action.
type repairTelemetry struct {
	migrations   *telemetry.Counter
	evictions    *telemetry.Counter
	reclaims     *telemetry.Counter
	evacuated    *telemetry.Counter
	repairIters  *telemetry.Counter
	reclaimPass  *telemetry.Counter
	reclaimFixed *telemetry.Counter // fixpoint reached: passes that made no progress
}

func newRepairTelemetry() repairTelemetry {
	return repairTelemetry{
		migrations:   telemetry.C("dynamic.migrations"),
		evictions:    telemetry.C("dynamic.evictions"),
		reclaims:     telemetry.C("dynamic.reclaims"),
		evacuated:    telemetry.C("dynamic.evacuated"),
		repairIters:  telemetry.C("dynamic.repair_iterations"),
		reclaimPass:  telemetry.C("dynamic.reclaim_passes"),
		reclaimFixed: telemetry.C("dynamic.reclaim_fixpoints"),
	}
}

func newRepairer(alloc *feasibility.Allocation, machineOK func(int) bool, routeOK func(int, int) bool) *repairer {
	sys := alloc.System()
	// Track the allocation for incremental re-analysis; the initial Rebase
	// (one full scan) also records any entry violations and overloads, so
	// repair works from infeasible entry states without special-casing. An
	// analyzer a caller already attached is reused (its pending window is
	// committed by the repair loop) and left attached.
	da := alloc.Tracker()
	owns := da == nil
	if owns {
		da = feasibility.Track(alloc)
	}
	return &repairer{
		alloc:     alloc,
		da:        da,
		ownsDA:    owns,
		machineOK: machineOK,
		routeOK:   routeOK,
		origin:    make(map[int][]int),
		evicted:   make([]bool, len(sys.Strings)),
		tried:     make([]bool, len(sys.Strings)),
		res:       &Result{WorthBefore: alloc.Metric().Worth},
		tel:       newRepairTelemetry(),
	}
}

// rememberOrigin records the first known placement of string k, the baseline
// for moved-application counts and recovery costs.
func (r *repairer) rememberOrigin(k int) {
	if _, ok := r.origin[k]; !ok {
		r.origin[k] = r.alloc.StringMachines(k)
	}
}

// placeAction appends an action for the just-placed string k, charging the
// move relative to its remembered origin.
func (r *repairer) placeAction(k int, kind ActionKind) {
	after := r.alloc.StringMachines(k)
	before, ok := r.origin[k]
	if !ok {
		before = make([]int, len(after))
		for i := range before {
			before[i] = feasibility.Unassigned
		}
	}
	a := Action{StringID: k, Kind: kind, MovedApps: movedApps(before, after)}
	s := &r.alloc.System().Strings[k]
	for i := range after {
		if before[i] != after[i] {
			a.CostSeconds += s.Apps[i].NominalTime[after[i]]
		}
	}
	r.res.Actions = append(r.res.Actions, a)
	if kind == Reclaimed {
		r.tel.reclaims.Inc()
	} else {
		r.tel.migrations.Inc()
	}
}

// evict drops string k from the mapping and logs it.
func (r *repairer) evict(k int) {
	r.alloc.UnassignString(k)
	r.evicted[k] = true
	r.res.Actions = append(r.res.Actions, Action{StringID: k, Kind: Evicted})
	r.tel.evictions.Inc()
}

// repairLoop is the migrate-then-evict loop of Repair, restricted to the
// allowed resources: while the two-stage analysis fails, the lowest-worth
// implicated string is unassigned, re-placed once by the (masked) IMR, and
// evicted if the placement is infeasible or a second repair becomes
// necessary. Each iteration commits its net effect, so the feasibility check
// at the top re-evaluates only the committed violation and overload sets —
// O(remaining damage) instead of a full O(M + K·rosters) scan per iteration.
// The loop ends on its own: a victim migrates at most once and is then evicted.
func (r *repairer) repairLoop() {
	for {
		r.da.Commit()
		if r.da.FeasibleAfterDelta() {
			break
		}
		r.tel.repairIters.Inc()
		victim := r.pickVictim()
		if victim < 0 {
			break // no implicated string found (should not happen)
		}
		r.rememberOrigin(victim)
		if !r.tried[victim] {
			r.tried[victim] = true
			r.alloc.UnassignString(victim)
			if heuristics.MapStringIMRMasked(r.alloc, victim, r.machineOK, r.routeOK) && r.da.FeasibleAfterDelta() {
				r.da.Commit()
				r.placeAction(victim, Migrated)
				continue
			}
			// No placement, or an infeasible one: roll the whole attempt back
			// bit-identically (victim returns to its pre-attempt machines) and
			// fall through to evict it from there.
			r.da.Undo()
		}
		r.evict(victim)
	}
}

// reclaim re-places strings evicted by this repair that fit again once the
// repair settled, highest worth first (ties: lowest ID). Candidates are
// gathered in ascending ID: worths within feasibility.AlmostEqual tie, a rule
// that is not transitive, so the order sort.Slice returns for a near-tie
// chain depends on the order it was given. The IMR's placement
// choice depends on the current utilizations, so a reclaim that lands can
// redirect a previously failed string onto a feasible placement; passes
// repeat until one makes no progress. The final, empty pass tests every
// still-evicted string against exactly the final allocation, so afterwards
// no still-evicted string has a feasible IMR re-placement — the invariant
// the property tests pin.
func (r *repairer) reclaim() {
	sys := r.alloc.System()
	var cands []int
	for {
		r.tel.reclaimPass.Inc()
		cands = cands[:0]
		for k, e := range r.evicted {
			if e {
				cands = append(cands, k)
			}
		}
		sortByWorthDesc(sys, cands)
		progressed := false
		for _, k := range cands {
			if !heuristics.MapStringIMRMasked(r.alloc, k, r.machineOK, r.routeOK) {
				r.da.Undo() // end the window; Undo unassigns a partial placement, repricing roster tails
				continue
			}
			if r.da.FeasibleAfterDelta() {
				r.da.Commit()
				r.evicted[k] = false
				r.placeAction(k, Reclaimed)
				progressed = true
			} else {
				r.da.Undo()
			}
		}
		if !progressed {
			r.tel.reclaimFixed.Inc()
			return
		}
	}
}

// result finalizes the metrics and releases the analyzer if this repairer
// attached it.
func (r *repairer) result() *Result {
	res := r.res
	m := r.alloc.Metric()
	res.WorthAfter, res.SlacknessAfter = m.Worth, m.Slackness
	res.Retained = 1.0
	if res.WorthBefore > 0 {
		res.Retained = res.WorthAfter / res.WorthBefore
	}
	for _, a := range res.Actions {
		res.CostSeconds += a.CostSeconds
	}
	r.da.Commit()
	res.Feasible = r.da.FeasibleAfterDelta()
	if r.ownsDA {
		r.da.Close()
	}
	return res
}

// Survive restores a feasible allocation after the resource failures in
// down, mutating alloc in place. The controller:
//
//  1. evacuates every mapped string with an application on a failed machine
//     or a transfer over a failed route;
//  2. re-places the evacuees on the surviving resources with the
//     fault-masked IMR, highest worth first, so the most valuable strings
//     get first pick of the remaining capacity (a string with no possible
//     placement — e.g. every machine down — is evicted outright);
//  3. runs the migrate-then-evict repair loop, lowest-worth victims first,
//     until the two-stage analysis passes on the surviving suite;
//  4. reclaims evicted strings that fit again, highest worth first.
//
// The returned result reports worth retained, per-action recovery cost, and
// post-repair slackness. The allocation should be two-stage feasible on
// entry (combine with Repair first after a simultaneous workload change).
// The resulting allocation never uses a failed resource.
func Survive(alloc *feasibility.Allocation, down *faults.Set) (*Result, error) {
	sys := alloc.System()
	if down.Machines() != sys.Machines {
		return nil, fmt.Errorf("dynamic: outage set covers %d machines, system has %d: %w",
			down.Machines(), sys.Machines, ErrUnknownResource)
	}
	span := telemetry.BeginSpan("dynamic.survive")
	machineOK, routeOK := down.Masks()
	r := newRepairer(alloc, machineOK, routeOK)

	// 1. Evacuate.
	var evacuees []int
	for k := range sys.Strings {
		if alloc.Complete(k) && StringUsesFailed(alloc, k, down) {
			evacuees = append(evacuees, k)
		}
	}
	r.res.Evacuated = append([]int(nil), evacuees...)
	r.tel.evacuated.Add(int64(len(evacuees)))
	for _, k := range evacuees {
		r.rememberOrigin(k)
		alloc.UnassignString(k)
	}

	// 2. Re-place evacuees on the surviving suite, highest worth first. The
	// placement is kept even if it overloads a surviving resource — step 3
	// then sheds load lowest worth first, which may migrate or evict a less
	// valuable survivor instead of this string.
	sortByWorthDesc(sys, evacuees)
	for _, k := range evacuees {
		if heuristics.MapStringIMRMasked(alloc, k, r.machineOK, r.routeOK) {
			r.placeAction(k, Migrated)
		} else {
			r.evict(k)
		}
	}

	// 3 and 4. Repair and reclaim.
	r.repairLoop()
	r.reclaim()
	res := r.result()
	migrated, evicted, reclaimed := res.Counts()
	span.End(
		telemetry.F("evacuated", float64(len(evacuees))),
		telemetry.F("migrated", float64(migrated)),
		telemetry.F("evicted", float64(evicted)),
		telemetry.F("reclaimed", float64(reclaimed)),
		telemetry.F("retained", res.Retained),
	)
	return res, nil
}

// StringUsesFailed reports whether completely mapped string k touches a
// failed resource: any application on a failed machine, or any
// inter-machine transfer over a failed route.
func StringUsesFailed(alloc *feasibility.Allocation, k int, down *faults.Set) bool {
	sys := alloc.System()
	n := len(sys.Strings[k].Apps)
	for i := 0; i < n; i++ {
		j := alloc.Machine(k, i)
		if down.MachineDown(j) {
			return true
		}
		if i < n-1 && down.RouteDown(j, alloc.Machine(k, i+1)) {
			return true
		}
	}
	return false
}

// UsesFailed reports whether any completely mapped string of the allocation
// touches a failed resource — the invariant Survive guarantees to clear.
func UsesFailed(alloc *feasibility.Allocation, down *faults.Set) bool {
	for k := range alloc.System().Strings {
		if alloc.Complete(k) && StringUsesFailed(alloc, k, down) {
			return true
		}
	}
	return false
}

// sortByWorthDesc orders string indices by worth, highest first, ties by ID.
// Worths that differ only by float noise compare equal (feasibility.
// AlmostEqual) so the ID tie-break, not accumulation order, decides.
func sortByWorthDesc(sys *model.System, ks []int) {
	sort.Slice(ks, func(a, b int) bool {
		wa, wb := sys.Strings[ks[a]].Worth, sys.Strings[ks[b]].Worth
		if !feasibility.AlmostEqual(wa, wb) {
			return wa > wb
		}
		return ks[a] < ks[b]
	})
}

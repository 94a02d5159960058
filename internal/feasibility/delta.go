package feasibility

import (
	"math"
	"sort"

	"repro/internal/telemetry"
)

// DeltaAnalyzer is a change-tracking layer over an Allocation: it records the
// dirty set of an Assign/Unassign/AssignString/UnassignString sequence (the
// "delta window") and answers the two-stage analysis of Sections 3–4 by
// re-evaluating only state the window can have changed. Between a Commit (or
// the initial Track) and the next mutation the window is clean and every
// query is O(base violations + base overloads) instead of O(M^2 + K).
//
// The dirty set is:
//
//   - every machine and route an operation touched, plus every resource
//     currently used by a touched string (a re-mapping changes the string's
//     equation-(4) tightness, which changes the waiting terms it induces on
//     all of its resources, not just the re-mapped ones);
//   - every touched string, plus every complete string on a dirty resource
//     whose tightness is at or below the highest tightness any touched string
//     held before or holds after the window (strictly tighter strings cannot
//     observe the change: equations (5) and (6) accumulate waiting terms only
//     from strictly higher-priority sharers, and the exact-tie ID break means
//     equal-tightness strings can — so ties are rechecked, not skipped).
//
// The analyzer does not require the committed state to be feasible: a full
// scan at Track/Rebase records the committed violations and over-capacity
// resources, and Commit folds the dirty results into those sets, so
// FeasibleAfterDelta always equals TwoStageFeasible.
//
// Undo restores the allocation to the last committed state bit-identically,
// including roster order (observable through float64 accumulation order in
// the waiting-time sums), from whole-value snapshots taken on first touch.
// Replaying inverse operations would not be enough: (x+u)-u generally differs
// from x in the last bit.
//
// A DeltaAnalyzer is single-goroutine, like the Allocation it tracks.
type DeltaAnalyzer struct {
	a *Allocation

	// Committed-state caches, valid as of the last Track/Rebase/Commit.
	baseViol map[int]bool    // complete strings failing equation (1)
	overM    map[int]bool    // machines with utilization > 1
	overR    map[[2]int]bool // routes with utilization > 1

	// Delta window: first-touch snapshots of everything mutated since the
	// last commit point.
	strSnaps   map[int]stringSnap
	machSnaps  map[int]resourceSnap
	routeSnaps map[[2]int]resourceSnap

	// Scratch reused across evaluations so steady-state queries stay
	// allocation-free.
	recheck map[int]bool
	visitM  map[int]bool
	visitR  map[[2]int]bool
	keyBuf  []int
	refPool [][]appRef
	intPool [][]int

	tel deltaTelemetry
}

// stringSnap is the pre-window state of a touched string.
type stringSnap struct {
	machines  []int // copy of machineOf[k]
	nAssigned int
	tightness float64 // NaN if the string was incomplete
}

// resourceSnap is the pre-window state of a touched machine or route.
type resourceSnap struct {
	util   float64
	roster []appRef // copy, in roster order
}

type deltaTelemetry struct {
	evals       *telemetry.Counter // FeasibleAfterDelta/ViolationsAfterDelta calls
	commits     *telemetry.Counter
	undos       *telemetry.Counter
	rebases     *telemetry.Counter
	dirtyStr    *telemetry.Counter // summed dirty-set sizes per evaluation
	dirtyMach   *telemetry.Counter
	dirtyRoute  *telemetry.Counter
	recheckStr  *telemetry.Counter // strings actually rechecked per evaluation
	stage1Fails *telemetry.Counter
}

func newDeltaTelemetry() deltaTelemetry {
	return deltaTelemetry{
		evals:       telemetry.C("feasibility.delta.evals"),
		commits:     telemetry.C("feasibility.delta.commits"),
		undos:       telemetry.C("feasibility.delta.undos"),
		rebases:     telemetry.C("feasibility.delta.rebases"),
		dirtyStr:    telemetry.C("feasibility.delta.dirty_strings"),
		dirtyMach:   telemetry.C("feasibility.delta.dirty_machines"),
		dirtyRoute:  telemetry.C("feasibility.delta.dirty_routes"),
		recheckStr:  telemetry.C("feasibility.delta.recheck_strings"),
		stage1Fails: telemetry.C("feasibility.delta.stage1_fail"),
	}
}

// Track attaches a DeltaAnalyzer to a and performs the initial Rebase (one
// full two-stage scan). Every subsequent Assign/Unassign on a is recorded in
// the analyzer's delta window until Close detaches it. Track panics if a is
// already tracked.
func Track(a *Allocation) *DeltaAnalyzer {
	if a.tracker != nil {
		panic("feasibility: allocation is already tracked; Close the existing DeltaAnalyzer first")
	}
	da := &DeltaAnalyzer{
		a:          a,
		baseViol:   make(map[int]bool),
		overM:      make(map[int]bool),
		overR:      make(map[[2]int]bool),
		strSnaps:   make(map[int]stringSnap),
		machSnaps:  make(map[int]resourceSnap),
		routeSnaps: make(map[[2]int]resourceSnap),
		recheck:    make(map[int]bool),
		visitM:     make(map[int]bool),
		visitR:     make(map[[2]int]bool),
		tel:        newDeltaTelemetry(),
	}
	a.tracker = da
	da.Rebase()
	return da
}

// Tracker returns the DeltaAnalyzer attached to a, or nil.
func (a *Allocation) Tracker() *DeltaAnalyzer { return a.tracker }

// Allocation returns the tracked allocation (nil after Close).
func (da *DeltaAnalyzer) Allocation() *Allocation { return da.a }

// Close detaches the analyzer from its allocation. The allocation keeps its
// current (possibly uncommitted) state; the analyzer must not be used after.
func (da *DeltaAnalyzer) Close() {
	if da.a == nil {
		return
	}
	if da.a.tracker == da {
		da.a.tracker = nil
	}
	da.a = nil
}

// Rebase discards the delta window, treats the allocation's current state as
// committed, and recomputes the committed violation and over-capacity sets
// with one full two-stage scan. Cost: one TwoStageFeasible-equivalent pass.
func (da *DeltaAnalyzer) Rebase() {
	da.tel.rebases.Inc()
	da.clearWindow()
	clear(da.baseViol)
	clear(da.overM)
	clear(da.overR)
	a := da.a
	for k := range a.sys.Strings {
		if a.Complete(k) && a.checkString(k) != nil {
			da.baseViol[k] = true
		}
	}
	for j := range a.machineUtil {
		if a.machineUtil[j] > 1+utilEps {
			da.overM[j] = true
		}
	}
	for j1 := range a.routes {
		for _, e := range a.routes[j1] {
			if e.util > 1+utilEps {
				da.overR[[2]int{j1, e.peer}] = true
			}
		}
	}
}

// rebaseEmpty is the O(1) Rebase for Allocation.Reset: the cleared allocation
// has no violations and no load by construction.
func (da *DeltaAnalyzer) rebaseEmpty() {
	da.clearWindow()
	clear(da.baseViol)
	clear(da.overM)
	clear(da.overR)
}

// beforeAssign snapshots everything Assign(k, i, j) is about to mutate.
func (da *DeltaAnalyzer) beforeAssign(k, i, j int) {
	da.snapString(k)
	da.snapMachine(j)
	mo := da.a.machineOf[k]
	if i > 0 {
		if prev := mo[i-1]; prev != Unassigned && prev != j {
			da.snapRoute(prev, j)
		}
	}
	if i < len(mo)-1 {
		if next := mo[i+1]; next != Unassigned && next != j {
			da.snapRoute(j, next)
		}
	}
}

// beforeUnassign snapshots everything Unassign(k, i) is about to mutate.
func (da *DeltaAnalyzer) beforeUnassign(k, i int) {
	j := da.a.machineOf[k][i]
	da.snapString(k)
	da.snapMachine(j)
	mo := da.a.machineOf[k]
	if i > 0 {
		if prev := mo[i-1]; prev != Unassigned && prev != j {
			da.snapRoute(prev, j)
		}
	}
	if i < len(mo)-1 {
		if next := mo[i+1]; next != Unassigned && next != j {
			da.snapRoute(j, next)
		}
	}
}

func (da *DeltaAnalyzer) snapString(k int) {
	if _, ok := da.strSnaps[k]; ok {
		return
	}
	buf := da.getInts(len(da.a.machineOf[k]))
	copy(buf, da.a.machineOf[k])
	da.strSnaps[k] = stringSnap{
		machines:  buf,
		nAssigned: da.a.nAssigned[k],
		tightness: da.a.tightness[k],
	}
}

func (da *DeltaAnalyzer) snapMachine(j int) {
	if _, ok := da.machSnaps[j]; ok {
		return
	}
	da.machSnaps[j] = resourceSnap{
		util:   da.a.machineUtil[j],
		roster: append(da.getRefs(), da.a.perMachine[j]...),
	}
}

func (da *DeltaAnalyzer) snapRoute(j1, j2 int) {
	key := [2]int{j1, j2}
	if _, ok := da.routeSnaps[key]; ok {
		return
	}
	// The route may be inactive (no adjacency entry): snapshot it as exactly
	// empty so Undo knows to drop any entry the window creates.
	util := 0.0
	var roster []appRef
	if idx, ok := da.a.routeIndex(j1, j2); ok {
		e := &da.a.routes[j1][idx]
		util, roster = e.util, e.apps
	}
	da.routeSnaps[key] = resourceSnap{
		util:   util,
		roster: append(da.getRefs(), roster...),
	}
}

func (da *DeltaAnalyzer) getRefs() []appRef {
	if n := len(da.refPool); n > 0 {
		buf := da.refPool[n-1]
		da.refPool = da.refPool[:n-1]
		return buf[:0]
	}
	return nil
}

func (da *DeltaAnalyzer) getInts(n int) []int {
	if m := len(da.intPool); m > 0 {
		buf := da.intPool[m-1]
		da.intPool = da.intPool[:m-1]
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]int, n)
}

// clearWindow drops every snapshot, returning their buffers to the pools.
func (da *DeltaAnalyzer) clearWindow() {
	for k, snap := range da.strSnaps {
		da.intPool = append(da.intPool, snap.machines)
		delete(da.strSnaps, k)
	}
	for j, snap := range da.machSnaps {
		if snap.roster != nil {
			da.refPool = append(da.refPool, snap.roster)
		}
		delete(da.machSnaps, j)
	}
	for r, snap := range da.routeSnaps {
		if snap.roster != nil {
			da.refPool = append(da.refPool, snap.roster)
		}
		delete(da.routeSnaps, r)
	}
}

// Dirty returns the sizes of the current window's dirty sets (touched
// strings, machines, routes). All zero means the window is clean.
func (da *DeltaAnalyzer) Dirty() (strings, machines, routes int) {
	return len(da.strSnaps), len(da.machSnaps), len(da.routeSnaps)
}

// buildRecheck populates da.recheck with every string whose equation-(1)
// outcome the window can have changed: the touched strings themselves plus
// every complete string on a dirty resource whose tightness is at or below
// the threshold (the maximum tightness any touched string held before or
// holds after the window). Equal tightness is included: the ID tie-break in
// tighter means an equal-tightness string's priority relative to a touched
// string can flip.
func (da *DeltaAnalyzer) buildRecheck() {
	clear(da.recheck)
	if len(da.strSnaps) == 0 {
		return
	}
	clear(da.visitM)
	clear(da.visitR)
	for j := range da.machSnaps {
		da.visitM[j] = true
	}
	for r := range da.routeSnaps {
		da.visitR[r] = true
	}
	// NaN tightness (incomplete before/after) fails every > comparison, so
	// incomplete endpoints contribute nothing to the threshold.
	threshold := math.Inf(-1)
	a := da.a
	for k, snap := range da.strSnaps {
		da.recheck[k] = true
		if snap.tightness > threshold {
			threshold = snap.tightness
		}
		if a.Complete(k) && a.tightness[k] > threshold {
			threshold = a.tightness[k]
		}
		// A touched string's tightness change alters the waiting terms it
		// induces on every resource it currently uses, not only the
		// op-touched ones.
		mo := a.machineOf[k]
		for i, j := range mo {
			if j == Unassigned {
				continue
			}
			da.visitM[j] = true
			if i+1 < len(mo) {
				if next := mo[i+1]; next != Unassigned && next != j {
					da.visitR[[2]int{j, next}] = true
				}
			}
		}
	}
	for j := range da.visitM {
		for _, ref := range a.perMachine[j] {
			if a.Complete(ref.k) && a.tightness[ref.k] <= threshold {
				da.recheck[ref.k] = true
			}
		}
	}
	for r := range da.visitR {
		for _, ref := range a.routeRoster(r[0], r[1]) {
			if a.Complete(ref.k) && a.tightness[ref.k] <= threshold {
				da.recheck[ref.k] = true
			}
		}
	}
}

// stage1AfterDelta checks machine/route capacity (equations (2)–(3)) using
// only the dirty resources plus the surviving committed overloads.
func (da *DeltaAnalyzer) stage1AfterDelta() bool {
	a := da.a
	for j := range da.overM {
		if _, dirty := da.machSnaps[j]; !dirty {
			return false // untouched, still over capacity
		}
	}
	for r := range da.overR {
		if _, dirty := da.routeSnaps[r]; !dirty {
			return false
		}
	}
	for j := range da.machSnaps {
		if a.machineUtil[j] > 1+utilEps {
			return false
		}
	}
	for r := range da.routeSnaps {
		if a.RouteUtilization(r[0], r[1]) > 1+utilEps {
			return false
		}
	}
	return true
}

func (da *DeltaAnalyzer) countEval() {
	da.tel.evals.Inc()
	da.tel.dirtyStr.Add(int64(len(da.strSnaps)))
	da.tel.dirtyMach.Add(int64(len(da.machSnaps)))
	da.tel.dirtyRoute.Add(int64(len(da.routeSnaps)))
}

// FeasibleAfterDelta reports whether the allocation in its current (window-
// applied) state passes the two-stage analysis. It equals TwoStageFeasible
// for every window, including windows applied on top of an infeasible
// committed state; the property tests in delta_test.go pin that equivalence.
func (da *DeltaAnalyzer) FeasibleAfterDelta() bool {
	da.countEval()
	if !da.stage1AfterDelta() {
		da.tel.stage1Fails.Inc()
		return false
	}
	da.buildRecheck()
	da.tel.recheckStr.Add(int64(len(da.recheck)))
	for k := range da.baseViol {
		if !da.recheck[k] {
			return false // untouched, still violating
		}
	}
	a := da.a
	for k := range da.recheck {
		if a.Complete(k) && a.checkString(k) != nil {
			return false
		}
	}
	return true
}

// ViolationsAfterDelta returns every equation-(1) violation under the
// current state, in ascending string order — the same result Violations
// produces, computed from the dirty set plus the surviving committed
// violations.
func (da *DeltaAnalyzer) ViolationsAfterDelta() []Violation {
	da.countEval()
	da.buildRecheck()
	da.keyBuf = da.keyBuf[:0]
	for k := range da.recheck {
		da.keyBuf = append(da.keyBuf, k)
	}
	for k := range da.baseViol {
		if !da.recheck[k] {
			da.keyBuf = append(da.keyBuf, k)
		}
	}
	sort.Ints(da.keyBuf)
	var out []Violation
	a := da.a
	for _, k := range da.keyBuf {
		if a.Complete(k) {
			if v := a.checkString(k); v != nil {
				out = append(out, *v)
			}
		}
	}
	return out
}

// Commit makes the current state the committed state: the dirty results are
// folded into the committed violation and over-capacity sets and the window
// is cleared. A clean window commits in O(1).
func (da *DeltaAnalyzer) Commit() {
	if len(da.strSnaps) == 0 && len(da.machSnaps) == 0 && len(da.routeSnaps) == 0 {
		return
	}
	da.tel.commits.Inc()
	a := da.a
	for j := range da.machSnaps {
		if a.machineUtil[j] > 1+utilEps {
			da.overM[j] = true
		} else {
			delete(da.overM, j)
		}
	}
	for r := range da.routeSnaps {
		if a.RouteUtilization(r[0], r[1]) > 1+utilEps {
			da.overR[r] = true
		} else {
			delete(da.overR, r)
		}
	}
	da.buildRecheck()
	for k := range da.recheck {
		if a.Complete(k) && a.checkString(k) != nil {
			da.baseViol[k] = true
		} else {
			delete(da.baseViol, k)
		}
	}
	da.clearWindow()
}

// Undo rolls the allocation back to the last committed state, bit-identically
// (utilization floats, roster order, cached tightness — everything the
// fingerprint in WriteState covers). The window is cleared.
func (da *DeltaAnalyzer) Undo() {
	if len(da.strSnaps) == 0 && len(da.machSnaps) == 0 && len(da.routeSnaps) == 0 {
		return
	}
	da.tel.undos.Inc()
	a := da.a
	for k, snap := range da.strSnaps {
		copy(a.machineOf[k], snap.machines)
		a.nAssigned[k] = snap.nAssigned
		a.tightness[k] = snap.tightness
	}
	for j, snap := range da.machSnaps {
		a.machineUtil[j] = snap.util
		a.perMachine[j] = append(a.perMachine[j][:0], snap.roster...)
	}
	for r, snap := range da.routeSnaps {
		a.setRouteState(r[0], r[1], snap.util, snap.roster)
	}
	da.clearWindow()
}

// OverloadedMachines returns the machines whose utilization exceeds capacity
// under the current state, ascending. With a clean window this is a copy of
// the committed overload set; dirty machines are re-read live.
func (da *DeltaAnalyzer) OverloadedMachines() []int {
	var out []int
	for j := range da.overM {
		if _, dirty := da.machSnaps[j]; !dirty {
			out = append(out, j)
		}
	}
	for j := range da.machSnaps {
		if da.a.machineUtil[j] > 1+utilEps {
			out = append(out, j)
		}
	}
	sort.Ints(out)
	return out
}

// OverloadedRoutes returns the routes whose utilization exceeds capacity
// under the current state, in ascending (j1, j2) order.
func (da *DeltaAnalyzer) OverloadedRoutes() [][2]int {
	var out [][2]int
	for r := range da.overR {
		if _, dirty := da.routeSnaps[r]; !dirty {
			out = append(out, r)
		}
	}
	for r := range da.routeSnaps {
		if da.a.RouteUtilization(r[0], r[1]) > 1+utilEps {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(x, y int) bool {
		if out[x][0] != out[y][0] {
			return out[x][0] < out[y][0]
		}
		return out[x][1] < out[y][1]
	})
	return out
}

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
// query is O(base violations) instead of O(M^2 + K).
//
// The dirty set is:
//
//   - every machine and route an operation touched, plus every resource
//     currently used by a touched string (a re-mapping changes the string's
//     equation-(4) tightness, which changes the waiting terms it induces on
//     all of its resources, not just the re-mapped ones);
//   - every touched string, plus every complete string on a dirty resource
//     whose tightness is at or below the highest tightness any touched string
//     held before or holds after the window (the verdict of a strictly
//     tighter string cannot change: equations (5) and (6) accumulate waiting
//     terms only from strictly higher-priority sharers, and the exact-tie ID
//     break means equal-tightness strings can — so ties are rechecked, not
//     skipped). That is a statement about the terms summed, not about the
//     float: an Unassign's swap-removal reorders the roster, and the same terms
//     added in another order can differ in the last bit, so what the analyzer
//     holds about a string outside the set is always "as of its last check".
//
// The analyzer does not require the committed state to be feasible: a full
// scan at Track/Rebase records the committed violations and counts the
// over-capacity resources, and Commit folds the dirty results into both, so
// FeasibleAfterDelta always equals TwoStageFeasible.
//
// Undo restores the allocation to the last committed state bit-identically,
// including roster order (observable through float64 accumulation order in
// the waiting-time sums), from whole-value snapshots taken on first touch.
// Replaying inverse operations would not be enough: (x+u)-u generally differs
// from x in the last bit.
//
// Every answer is computed once per allocation state. The analyzer numbers the
// states it has seen with a generation, bumped by every tracked mutation and
// every window clear; the recheck set is built at most once per generation and
// every equation-(1) verdict goes through check, which remembers it per string
// per generation. FeasibleAfterDelta, ViolationsAfterDelta and Commit in any
// order and number therefore run checkString at most once per string per
// state: a Commit after an evaluation touches no string, a rejection
// (FeasibleAfterDelta, ViolationsAfterDelta, Undo) checks none twice. The memo
// is as sound as the generation, which is why catalog floats obey the
// frozen-floats contract in the package comment.
//
// Waiting sums are carried. Equations (5) and (6) price an application's wait
// as a sum over the higher-priority sharers of its machine or route, so most
// of what a window's recheck set would add up is what was added up when those
// strings were last checked. The analyzer keeps, per complete string, the
// committed vector of those sums (sums[k]: slot i for application i's machine,
// slot n+i for its output's route), each slot either bit-equal to waitAhead
// over the roster as committed or NaN for unknown, and check obtains each slot
// under the window-applied state by the cheapest route that is exact:
//
//   - the roster is quiet — no snapshot, hosting no touched string — so the
//     terms, their order and every priority involved are the committed ones:
//     the committed sum as it stands;
//   - the window is a pure admit (one touched string, on no roster when the
//     window opened, no Unassign since) and the roster is snapshotted: it is
//     its snapshot plus a tail of appended entries, no sharer's tightness
//     moved, so the full loop would first reproduce the committed sum addition
//     for addition and then walk the tail — the committed sum continued over
//     the tail is that float by construction, not by tolerance;
//   - anything else — the touched string itself (its tightness and, under a
//     rescale, its floats moved), an unknown slot, a roster of a window that
//     removed anything, a roster scanned but not snapshotted — waitAhead.
//
// Derived vectors go to pend[k], valid as of verdictAt[k] like the verdict.
// Commit and Rebase swap pend into sums for the complete strings they judged;
// nothing else writes sums, so Undo and Reset have nothing to restore. A
// committed window that unassigned anything first forgets (NaN) every sum on
// its snapshotted rosters: strings outside the recheck set keep their terms
// but not, after a swap-removal, their order. Rebase forgets everything first,
// which is what makes it the full scan. The vectors of an incomplete string
// are never read: a string becomes complete only as a touched string.
//
// A DeltaAnalyzer is single-goroutine, like the Allocation it tracks.
type DeltaAnalyzer struct {
	a *Allocation

	// Committed-state caches, valid as of the last Track/Rebase/Commit: empty
	// and zero on every feasible state, so the hot path meets them only as a
	// len check and a zero test. A count is all stage 1 needs of the committed
	// overloads: which of them a window touched is read off the first-touch
	// snapshots, which carry every dirty resource's committed utilization.
	baseViol map[int]bool // complete strings failing equation (1)
	nOver    int          // machines and active routes past capacity

	gen uint64 // allocation-state generation, see above; starts at 1
	win uint64 // delta-window number, bumped at every window clear; starts at 1

	// Delta window: first-touch snapshots of everything mutated since the
	// last commit point. Strings and machines are dense slices whose entry is
	// live iff its win stamp is the current window; routes are one short list
	// per source machine (a window touches at most two routes per re-placed
	// application, so nothing here is O(M^2)). The dirty lists hold the live
	// indices in first-touch order. Snapshot buffers stay with their slot and
	// are overwritten by the next window that touches it.
	strSnaps      []stringSnap  // [k]
	machSnaps     []machineSnap // [j]
	routeSnaps    [][]routeSnap // [j1] -> snapshotted routes out of j1
	dirtyStr      []int
	dirtyMach     []int
	dirtyRouteSrc []int // machines with a non-empty routeSnaps list
	nDirtyRoutes  int
	bind          binding // the allocation's binding resource as the window opened

	// Recheck set of generation recheckGen: the members in first-reach order,
	// and recheckAt[k] == recheckGen marking membership. scanAt[j] ==
	// recheckGen marks machine j's roster as scanned for it; scanR lists the
	// scanned routes the window holds no snapshot of (single-application
	// moves only — a re-placed string's routes are all snapshotted).
	recheck    []int
	recheckGen uint64
	recheckAt  []uint64 // [k]
	scanAt     []uint64 // [j]
	scanR      [][2]int

	// Verdict memo: verdict[k] is checkString(k) (nil for an incomplete
	// string) as of generation verdictAt[k], and pend[k] the waiting sums it
	// was judged on.
	verdict   []*Violation // [k]
	verdictAt []uint64     // [k]

	// Carried waiting sums, see above: sums[k] as committed (NaN: unknown),
	// pend[k] as derived by check; 2n-1 slots per string. pure says the window
	// was a pure admit when recheckGen's set was built; removed, that an
	// Unassign ran in it.
	sums, pend [][]float64
	pure       bool
	removed    bool

	keyBuf []int // ViolationsAfterDelta's sorted key scratch

	lines *lineCache // StateDigest's line cache; nil until the first digest

	tel deltaTelemetry
}

// stringSnap is the pre-window state of a touched string.
type stringSnap struct {
	win       uint64
	machines  []int // copy of machineOf[k]
	nAssigned int
	tightness float64 // NaN if the string was incomplete
}

// machineSnap is the pre-window state of a touched machine.
type machineSnap struct {
	win    uint64
	util   float64
	roster []rosterEntry // copy, in roster order
}

// routeSnap is the pre-window state of a touched route to peer; an inactive
// route snapshots as exactly empty so Undo knows to drop any entry the window
// creates.
type routeSnap struct {
	peer   int
	util   float64
	roster []rosterEntry
}

type deltaTelemetry struct {
	evals        *telemetry.Counter // FeasibleAfterDelta/ViolationsAfterDelta calls
	commits      *telemetry.Counter
	undos        *telemetry.Counter
	rebases      *telemetry.Counter
	dirtyStr     *telemetry.Counter // summed dirty-set sizes per evaluation
	dirtyMach    *telemetry.Counter
	dirtyRoute   *telemetry.Counter
	recheckStr   *telemetry.Counter // summed recheck-set sizes per evaluation
	stringChecks *telemetry.Counter // checkString runs
	verdictReuse *telemetry.Counter // verdicts served from the memo instead
	waitTerms    *telemetry.Counter // roster entries check added up, tails included
	sumsReused   *telemetry.Counter // waiting sums taken or continued from the committed vector
	stage1Fails  *telemetry.Counter
}

func newDeltaTelemetry() deltaTelemetry {
	return deltaTelemetry{
		evals:        telemetry.C("feasibility.delta.evals"),
		commits:      telemetry.C("feasibility.delta.commits"),
		undos:        telemetry.C("feasibility.delta.undos"),
		rebases:      telemetry.C("feasibility.delta.rebases"),
		dirtyStr:     telemetry.C("feasibility.delta.dirty_strings"),
		dirtyMach:    telemetry.C("feasibility.delta.dirty_machines"),
		dirtyRoute:   telemetry.C("feasibility.delta.dirty_routes"),
		recheckStr:   telemetry.C("feasibility.delta.recheck_strings"),
		stringChecks: telemetry.C("feasibility.delta.string_checks"),
		verdictReuse: telemetry.C("feasibility.delta.verdict_reuse"),
		waitTerms:    telemetry.C("feasibility.delta.wait_terms"),
		sumsReused:   telemetry.C("feasibility.delta.sums_reused"),
		stage1Fails:  telemetry.C("feasibility.delta.stage1_fail"),
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
	nStr, nMach := len(a.sys.Strings), a.sys.Machines
	da := &DeltaAnalyzer{
		a:          a,
		baseViol:   make(map[int]bool),
		gen:        1,
		win:        1,
		strSnaps:   make([]stringSnap, nStr),
		machSnaps:  make([]machineSnap, nMach),
		routeSnaps: make([][]routeSnap, nMach),
		recheckAt:  make([]uint64, nStr),
		scanAt:     make([]uint64, nMach),
		verdict:    make([]*Violation, nStr),
		verdictAt:  make([]uint64, nStr),
		sums:       make([][]float64, nStr),
		pend:       make([][]float64, nStr),
		tel:        newDeltaTelemetry(),
	}
	slots := 0
	for k := range a.machineOf {
		slots += 2*len(a.machineOf[k]) - 1
	}
	buf := make([]float64, 2*slots)
	for k := range a.machineOf {
		n := 2*len(a.machineOf[k]) - 1
		da.sums[k], da.pend[k], buf = buf[:n:n], buf[n:2*n:2*n], buf[2*n:]
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
// committed, and recomputes the committed violation set and over-capacity
// count with one full two-stage scan. Cost: one TwoStageFeasible-equivalent
// pass.
func (da *DeltaAnalyzer) Rebase() {
	da.tel.rebases.Inc()
	da.rebaseEmpty()
	a := da.a
	// The full scan by definition: every carried sum is forgotten first, so
	// each check below adds its rosters up from entry 0.
	for k := range da.sums {
		for slot := range da.sums[k] {
			da.sums[k][slot] = math.NaN()
		}
	}
	for k := range a.sys.Strings {
		if da.check(k) != nil {
			da.baseViol[k] = true
		}
		da.keepSums(k)
	}
	for _, u := range a.machineUtil {
		da.nOver += overCount(u)
	}
	for j1 := range a.routes {
		for idx := range a.routes[j1] {
			da.nOver += overCount(a.routes[j1][idx].util)
		}
	}
}

// overCount is overCapacity as a count of one resource.
func overCount(u float64) int {
	if overCapacity(u) {
		return 1
	}
	return 0
}

// rebaseEmpty is the O(1) Rebase for Allocation.Reset: the cleared allocation
// has no violations and no load by construction.
func (da *DeltaAnalyzer) rebaseEmpty() {
	da.clearWindow()
	clear(da.baseViol)
	da.nOver = 0
	if da.lines != nil {
		da.lines.valid = false // the state changed outside a committed window
	}
}

// beforeMutation opens a new generation and snapshots everything Assign(k, i,
// j), or Unassign(k, i) from machine j, is about to mutate: the string, the
// machine, and the routes to the application's placed neighbours.
func (da *DeltaAnalyzer) beforeMutation(k, i, j int) {
	da.gen++
	if da.clean() {
		da.bind = da.a.bind // a window opens: Undo puts Λ's binding back in O(1)
	}
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
	snap := &da.strSnaps[k]
	if snap.win == da.win {
		return
	}
	snap.win = da.win
	snap.machines = append(snap.machines[:0], da.a.machineOf[k]...)
	snap.nAssigned = da.a.nAssigned[k]
	snap.tightness = da.a.tightness[k]
	da.dirtyStr = append(da.dirtyStr, k)
}

func (da *DeltaAnalyzer) snapMachine(j int) {
	snap := &da.machSnaps[j]
	if snap.win == da.win {
		return
	}
	snap.win = da.win
	snap.util = da.a.machineUtil[j]
	snap.roster = append(snap.roster[:0], da.a.perMachine[j]...)
	da.dirtyMach = append(da.dirtyMach, j)
}

// snapOfRoute returns the snapshot route (j1, j2) holds in the current window,
// or nil.
func (da *DeltaAnalyzer) snapOfRoute(j1, j2 int) *routeSnap {
	for idx := range da.routeSnaps[j1] {
		if snap := &da.routeSnaps[j1][idx]; snap.peer == j2 {
			return snap
		}
	}
	return nil
}

// routeSnapped reports whether route (j1, j2) holds a snapshot in the current
// window.
func (da *DeltaAnalyzer) routeSnapped(j1, j2 int) bool { return da.snapOfRoute(j1, j2) != nil }

func (da *DeltaAnalyzer) snapRoute(j1, j2 int) {
	if da.routeSnapped(j1, j2) {
		return
	}
	snaps := da.routeSnaps[j1]
	if len(snaps) == 0 {
		da.dirtyRouteSrc = append(da.dirtyRouteSrc, j1)
	}
	// Growing within capacity recovers the roster buffer of the snapshot a
	// window clear retired in that slot (insertRouteAt's trick).
	var spare []rosterEntry
	if n := len(snaps); n < cap(snaps) {
		snaps = snaps[:n+1]
		spare = snaps[n].roster
	} else {
		snaps = append(snaps, routeSnap{})
	}
	snap := routeSnap{peer: j2, roster: spare[:0]}
	if idx, ok := da.a.routeIndex(j1, j2); ok {
		e := &da.a.routes[j1][idx]
		snap.util = e.util
		snap.roster = append(snap.roster, e.apps...)
	}
	snaps[len(snaps)-1] = snap
	da.routeSnaps[j1] = snaps
	da.nDirtyRoutes++
}

// clearWindow drops every snapshot and opens a new window and generation.
func (da *DeltaAnalyzer) clearWindow() {
	for _, j1 := range da.dirtyRouteSrc {
		da.routeSnaps[j1] = da.routeSnaps[j1][:0]
	}
	da.dirtyStr = da.dirtyStr[:0]
	da.dirtyMach = da.dirtyMach[:0]
	da.dirtyRouteSrc = da.dirtyRouteSrc[:0]
	da.nDirtyRoutes = 0
	da.removed = false
	da.win++
	da.gen++
}

// clean reports whether the window holds no snapshot. Every route snapshot
// comes with a string and a machine snapshot, so the string list decides.
func (da *DeltaAnalyzer) clean() bool { return len(da.dirtyStr) == 0 }

// Dirty returns the sizes of the current window's dirty sets (touched
// strings, machines, routes). All zero means the window is clean.
func (da *DeltaAnalyzer) Dirty() (strings, machines, routes int) {
	return len(da.dirtyStr), len(da.dirtyMach), da.nDirtyRoutes
}

// check returns string k's equation-(1) verdict under the current state —
// nil when k passes or is not completely mapped — running checkString only if
// this generation has not judged k yet. Outside Rebase, buildRecheck must have
// run for this generation: deriveSums reads its scan marks.
func (da *DeltaAnalyzer) check(k int) *Violation {
	if da.verdictAt[k] == da.gen {
		da.tel.verdictReuse.Inc()
		return da.verdict[k]
	}
	var v *Violation
	if da.a.Complete(k) {
		da.tel.stringChecks.Inc()
		v = da.a.checkString(k, da.deriveSums(k))
	}
	da.verdict[k], da.verdictAt[k] = v, da.gen
	return v
}

// deriveSums fills pend[k] with complete string k's waiting sums under the
// current state, every slot (the vector is whole even when checkString stops
// at a throughput violation: the repair controllers commit infeasible windows),
// and returns it. A committed sum is consulted only if it is known and k is not
// a touched string: a touched string re-adds every roster, even re-placed
// exactly where it was.
func (da *DeltaAnalyzer) deriveSums(k int) []float64 {
	a := da.a
	mo := a.machineOf[k]
	n := len(mo)
	was, now := da.sums[k], da.pend[k]
	untouched := da.strSnaps[k].win != da.win
	var tally sumTally
	for i, m := range mo {
		w, covered := was[i], coversNone
		if untouched && w == w {
			covered = da.machineCovered(m)
		}
		if covered == coversAll {
			tally.reused++
		} else {
			w = da.resum(k, w, covered, a.perMachine[m], &tally)
		}
		now[i] = w
		if i == n-1 {
			break
		}
		next := mo[i+1]
		if next == m {
			now[n+i] = 0 // no route, the sum of nothing
			continue
		}
		w, covered = was[n+i], coversNone
		if untouched && w == w {
			covered = da.routeCovered(m, next)
		}
		if covered == coversAll {
			tally.reused++
		} else {
			w = da.resum(k, w, covered, a.routeRoster(m, next), &tally)
		}
		now[n+i] = w
	}
	da.tel.waitTerms.Add(tally.terms)
	da.tel.sumsReused.Add(tally.reused)
	return now
}

// What machineCovered and routeCovered say besides a count of entries.
const (
	coversAll  = -1 // quiet roster: the committed sum stands
	coversNone = -2 // add the roster up from entry 0
)

// sumTally counts one deriveSums for the telemetry counters.
type sumTally struct{ terms, reused int64 }

// resum returns waitAhead(k, roster) where the committed sum was accounts
// exactly for the roster's first covered entries: it continues was over the
// rest, or, covering none, adds the roster up from entry 0.
func (da *DeltaAnalyzer) resum(k int, was float64, covered int, roster []rosterEntry, tally *sumTally) float64 {
	if covered == coversNone {
		tally.terms += int64(len(roster))
		return da.a.waitAhead(k, roster)
	}
	tally.reused++
	tally.terms += int64(len(roster) - covered)
	return da.a.waitAfter(was, k, roster[covered:])
}

// machineCovered returns how many leading entries of machine j's roster the
// committed sum of an untouched sharer still accounts for, addition for
// addition: all of them on a quiet roster, the snapshotted ones when the window
// is a pure admit (the roster only grew, by entries of the one touched string,
// and no sharer's tightness moved), none otherwise.
func (da *DeltaAnalyzer) machineCovered(j int) int {
	switch {
	case da.scanAt[j] != da.gen:
		return coversAll
	case da.pure && da.machSnaps[j].win == da.win:
		return len(da.machSnaps[j].roster)
	}
	return coversNone
}

// routeCovered is machineCovered for route (j1, j2).
func (da *DeltaAnalyzer) routeCovered(j1, j2 int) int {
	if snap := da.snapOfRoute(j1, j2); snap != nil {
		if da.pure {
			return len(snap.roster)
		}
		return coversNone
	}
	if da.routeScanned(j1, j2) {
		return coversNone
	}
	return coversAll
}

// forgetRoster marks unknown the committed sum every application on a roster
// holds for it: slot i on a machine roster, slot n+i on a route roster.
func (da *DeltaAnalyzer) forgetRoster(roster []rosterEntry, route bool) {
	for idx := range roster {
		e := &roster[idx]
		slot := e.i
		if route {
			slot += len(da.a.machineOf[e.k])
		}
		da.sums[e.k][slot] = math.NaN()
	}
}

// keepSums makes the vector check(k) derived for this generation string k's
// committed one. The vector it replaces becomes scratch for the next check.
func (da *DeltaAnalyzer) keepSums(k int) {
	if da.a.Complete(k) {
		da.sums[k], da.pend[k] = da.pend[k], da.sums[k]
	}
}

// inRecheck reports whether k belongs to the current generation's recheck
// set; buildRecheck must have run.
func (da *DeltaAnalyzer) inRecheck(k int) bool { return da.recheckAt[k] == da.gen }

// buildRecheck makes da.recheck the set of every string whose equation-(1)
// outcome the window can have changed: the touched strings themselves plus
// every complete string on a dirty resource whose tightness is at or below
// the threshold (the maximum tightness any touched string held before or
// holds after the window). Equal tightness is included: the ID tie-break in
// tighter means an equal-tightness string's priority relative to a touched
// string can flip. A set already built for this generation is kept.
func (da *DeltaAnalyzer) buildRecheck() {
	if da.recheckGen == da.gen {
		return
	}
	da.recheckGen = da.gen
	da.recheck = da.recheck[:0]
	da.pure = len(da.dirtyStr) == 1 && da.strSnaps[da.dirtyStr[0]].nAssigned == 0 && !da.removed
	// NaN tightness (incomplete before/after) fails every > comparison, so
	// incomplete endpoints contribute nothing to the threshold.
	threshold := math.Inf(-1)
	a := da.a
	for _, k := range da.dirtyStr {
		da.addRecheck(k)
		if t := da.strSnaps[k].tightness; t > threshold {
			threshold = t
		}
		if t := a.tightness[k]; t > threshold {
			threshold = t
		}
	}
	da.scanR = da.scanR[:0]
	for _, j := range da.dirtyMach {
		da.scanAt[j] = da.gen
		da.recheckSharers(a.perMachine[j], threshold)
	}
	for _, j1 := range da.dirtyRouteSrc {
		for idx := range da.routeSnaps[j1] {
			da.recheckSharers(a.routeRoster(j1, da.routeSnaps[j1][idx].peer), threshold)
		}
	}
	// A touched string's tightness change alters the waiting terms it induces
	// on every resource it currently uses, not only the op-touched ones; each
	// such resource is scanned once however many applications sit on it.
	for _, k := range da.dirtyStr {
		mo := a.machineOf[k]
		for i, j := range mo {
			if j == Unassigned {
				continue
			}
			if da.scanAt[j] != da.gen {
				da.scanAt[j] = da.gen
				da.recheckSharers(a.perMachine[j], threshold)
			}
			if i+1 < len(mo) {
				if next := mo[i+1]; next != Unassigned && next != j && !da.routeSnapped(j, next) && !da.routeScanned(j, next) {
					da.scanR = append(da.scanR, [2]int{j, next})
					da.recheckSharers(a.routeRoster(j, next), threshold)
				}
			}
		}
	}
}

// routeScanned reports whether buildRecheck already scanned the un-snapshotted
// route (j1, j2) for the set it is building.
func (da *DeltaAnalyzer) routeScanned(j1, j2 int) bool {
	for _, r := range da.scanR {
		if r[0] == j1 && r[1] == j2 {
			return true
		}
	}
	return false
}

// recheckSharers adds to the recheck set every string on the roster whose
// tightness is at or below the threshold. Incomplete strings hold NaN, which
// fails the comparison.
func (da *DeltaAnalyzer) recheckSharers(roster []rosterEntry, threshold float64) {
	for idx := range roster {
		if k := roster[idx].k; da.a.tightness[k] <= threshold {
			da.addRecheck(k)
		}
	}
}

// addRecheck puts k in the current generation's recheck set, once.
func (da *DeltaAnalyzer) addRecheck(k int) {
	if da.recheckAt[k] != da.gen {
		da.recheckAt[k] = da.gen
		da.recheck = append(da.recheck, k)
	}
}

// stage1AfterDelta checks machine/route capacity (equations (2)–(3)) using
// only the dirty resources: none of them may be over now, and none of the
// committed overloads may be left untouched. A snapshot holds its resource's
// committed utilization (an inactive route's is exactly 0), so the committed
// overloads the window touched are the snapshots past capacity, and the
// untouched ones are what remains of nOver once every dirty resource has been
// taken off it.
func (da *DeltaAnalyzer) stage1AfterDelta() bool {
	a := da.a
	untouched := da.nOver
	for _, j := range da.dirtyMach {
		if overCapacity(a.machineUtil[j]) {
			return false
		}
		untouched -= overCount(da.machSnaps[j].util)
	}
	for _, j1 := range da.dirtyRouteSrc {
		for idx := range da.routeSnaps[j1] {
			snap := &da.routeSnaps[j1][idx]
			if overCapacity(a.RouteUtilization(j1, snap.peer)) {
				return false
			}
			untouched -= overCount(snap.util)
		}
	}
	return untouched == 0
}

// countEval tallies one evaluation and its dirty-set sizes.
func (da *DeltaAnalyzer) countEval() {
	da.tel.evals.Inc()
	da.tel.dirtyStr.Add(int64(len(da.dirtyStr)))
	da.tel.dirtyMach.Add(int64(len(da.dirtyMach)))
	da.tel.dirtyRoute.Add(int64(da.nDirtyRoutes))
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
	if len(da.baseViol) > 0 {
		for k := range da.baseViol {
			if !da.inRecheck(k) {
				return false // untouched, still violating
			}
		}
	}
	for _, k := range da.recheck {
		if da.check(k) != nil {
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
	da.tel.recheckStr.Add(int64(len(da.recheck)))
	da.keyBuf = append(da.keyBuf[:0], da.recheck...)
	if len(da.baseViol) > 0 {
		for k := range da.baseViol {
			if !da.inRecheck(k) {
				da.keyBuf = append(da.keyBuf, k)
			}
		}
	}
	sort.Ints(da.keyBuf)
	var out []Violation
	for _, k := range da.keyBuf {
		if v := da.check(k); v != nil {
			out = append(out, *v)
		}
	}
	return out
}

// Commit makes the current state the committed state: the dirty results are
// folded into the committed violation set and over-capacity count and the
// window is cleared. Verdicts an evaluation of this state already reached are
// folded as remembered, not recomputed. A clean window commits in O(1).
func (da *DeltaAnalyzer) Commit() {
	if da.clean() {
		return
	}
	da.tel.commits.Inc()
	a := da.a
	for _, j := range da.dirtyMach {
		da.nOver += overCount(a.machineUtil[j]) - overCount(da.machSnaps[j].util)
	}
	for _, j1 := range da.dirtyRouteSrc {
		for idx := range da.routeSnaps[j1] {
			snap := &da.routeSnaps[j1][idx]
			da.nOver += overCount(a.RouteUtilization(j1, snap.peer)) - overCount(snap.util)
		}
	}
	da.buildRecheck()
	for _, k := range da.recheck {
		if da.check(k) != nil {
			da.baseViol[k] = true
		} else if len(da.baseViol) > 0 {
			delete(da.baseViol, k)
		}
	}
	// Only now, with every verdict of the window reached, is sums written. A
	// swap-removal reordered the rosters it removed from, which moves the sums
	// of sharers outside the recheck set by an ulp: a window that unassigned
	// anything forgets every sum on its snapshotted rosters, then the recheck
	// set's own fresh vectors go in.
	if da.removed {
		for _, j := range da.dirtyMach {
			da.forgetRoster(a.perMachine[j], false)
		}
		for _, j1 := range da.dirtyRouteSrc {
			for idx := range da.routeSnaps[j1] {
				da.forgetRoster(a.routeRoster(j1, da.routeSnaps[j1][idx].peer), true)
			}
		}
	}
	for _, k := range da.recheck {
		da.keepSums(k)
	}
	da.markLines()
	da.clearWindow()
}

// Undo rolls the allocation back to the last committed state, bit-identically
// (utilization floats, roster order and carried terms, cached tightness —
// everything the fingerprint in WriteState covers — and Λ's binding resource,
// exact again because the floats are). The window is cleared.
func (da *DeltaAnalyzer) Undo() {
	if da.clean() {
		return
	}
	da.tel.undos.Inc()
	a := da.a
	for _, k := range da.dirtyStr {
		snap := &da.strSnaps[k]
		copy(a.machineOf[k], snap.machines)
		a.nAssigned[k] = snap.nAssigned
		a.tightness[k] = snap.tightness
	}
	for _, j := range da.dirtyMach {
		snap := &da.machSnaps[j]
		a.machineUtil[j] = snap.util
		a.perMachine[j] = append(a.perMachine[j][:0], snap.roster...)
	}
	for _, j1 := range da.dirtyRouteSrc {
		for idx := range da.routeSnaps[j1] {
			snap := &da.routeSnaps[j1][idx]
			a.setRouteState(j1, snap.peer, snap.util, snap.roster)
		}
	}
	a.bind = da.bind
	da.clearWindow()
}

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
//     skipped). In canonical roster order a strictly tighter sharer's waiting
//     sum is the pre of its first entry, the sum of the entries ahead of it:
//     the same entries in the same order before and after the window, so the
//     float itself is unchanged, not only the terms it adds up.
//
// A window that only removes (no tracked Assign since it opened) rechecks
// only committed violators. Equations (2)–(3) and (5)–(6) add non-negative
// terms, and a string a removal leaves complete keeps its tightness, so the
// entries ahead of it on every roster are a subsequence, in the same order, of
// those ahead of it when the window opened. Rounding is monotone: a prefix sum
// that skips a non-negative term is never larger than one that adds it, so no
// waiting sum, latency or utilization grows and a string that passed still
// passes. What a removal can change is a committed violator's verdict: the
// recheck set is the touched strings (incomplete now, so a removed violator
// leaves the committed set) plus the committed violators the rule above would
// recheck, and it is empty on a state that violates nothing.
//
// The analyzer does not require the committed state to be feasible: a full
// scan at Track/Rebase records the committed violations and counts the
// over-capacity resources, and Commit folds the dirty results into both, so
// FeasibleAfterDelta always equals TwoStageFeasible.
//
// A string's tightness changes only when it becomes complete or stops being
// complete, and that moves its entries on every roster it uses (reseatString).
// The Assign or Unassign that does it marks all of those resources dirty
// first, so every resource a touched string uses, or used when the window
// opened, is a dirty one.
//
// A snapshot holds what the mapping does not determine once the window has
// moved it: a touched string's assignment vector and tightness, a dirty
// resource's committed utilization. No roster is copied. The allocation state
// is a function of the mapping (package comment), so Undo re-places every
// touched string whole at its snapshot vector — each Unassign and Assign
// repricing its roster tails — and lands on the committed state bit for bit.
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
// Waiting sums are read, not added up: check runs checkString on the prefix
// sums the rosters keep (headPre), so a verdict costs O(applications), and
// the additions are made where a roster changes (reprice), counted as
// wait_terms.
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

	// assigned is set by every tracked Assign and cleared with the window: a
	// window that holds it clear has only removed (buildRecheck).
	assigned bool

	// Delta window: first-touch snapshots of everything mutated since the
	// last commit point. Strings and machines are dense slices whose entry is
	// live iff its win stamp is the current window; routes are one short list
	// per source machine (a window touches at most two routes per re-placed
	// application, so nothing here is O(M^2)). The dirty lists hold the live
	// indices in first-touch order. A string snapshot's vector buffer stays
	// with its slot and is overwritten by the next window that touches it.
	strSnaps      []stringSnap  // [k]
	machSnaps     []machineSnap // [j]
	routeSnaps    [][]routeSnap // [j1] -> snapshotted routes out of j1
	dirtyStr      []int
	dirtyMach     []int
	dirtyRouteSrc []int // machines with a non-empty routeSnaps list
	nDirtyRoutes  int
	bind          binding // the allocation's binding resource as the window opened

	// Recheck set of generation recheckGen: the members in first-reach order,
	// and recheckAt[k] == recheckGen marking membership.
	recheck    []int
	recheckGen uint64
	recheckAt  []uint64 // [k]

	// Verdict memo: verdict[k] is checkString(k) (nil for an incomplete
	// string) as of generation verdictAt[k].
	verdict   []*Violation // [k]
	verdictAt []uint64     // [k]

	keyBuf []int // ViolationsAfterDelta's sorted key scratch

	lines *lineCache // StateDigest's line cache; nil until the first digest

	tel deltaTelemetry
}

// stringSnap is the pre-window state of a touched string: the vector Undo
// re-places it at, and the tightness buildRecheck's threshold counts.
type stringSnap struct {
	win       uint64
	machines  []int   // copy of machineOf[k]
	tightness float64 // NaN if the string was incomplete
}

// machineSnap is a touched machine's committed utilization, which stage 1 and
// Commit count the committed overloads by.
type machineSnap struct {
	win  uint64
	util float64
}

// routeSnap is a touched route to peer: its committed utilization (exactly 0
// if it was inactive) and the arena slot it was last found at (-1 while
// inactive), which route reads first.
type routeSnap struct {
	peer int
	slot int32
	util float64
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
	waitTerms    *telemetry.Counter // waiting-sum additions reprice made under this analyzer
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
		verdict:    make([]*Violation, nStr),
		verdictAt:  make([]uint64, nStr),
		tel:        newDeltaTelemetry(),
	}
	a.tracker = da
	a.terms = da.tel.waitTerms
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
		da.a.tracker, da.a.terms = nil, nil
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
	for k := range a.sys.Strings {
		if da.check(k) != nil {
			da.baseViol[k] = true
		}
	}
	for _, u := range a.machineUtil {
		da.nOver += overCount(u)
	}
	a.ActiveRoutes(func(_, _ int, u float64) { da.nOver += overCount(u) })
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
// j), or Unassign(k, i) from machine j, is about to change: the string, the
// machine, and the routes to the application's placed neighbours — and, when
// the operation makes the string complete or incomplete (reseat), every
// machine and route the string uses, whose rosters reseatString rewrites.
func (da *DeltaAnalyzer) beforeMutation(k, i, j int, reseat bool) {
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
	if !reseat {
		return
	}
	for x, m := range mo {
		if m == Unassigned {
			continue
		}
		da.snapMachine(m)
		if x < len(mo)-1 {
			if next := mo[x+1]; next != Unassigned && next != m {
				da.snapRoute(m, next)
			}
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
	if len(da.routeSnaps[j1]) == 0 {
		da.dirtyRouteSrc = append(da.dirtyRouteSrc, j1)
	}
	snap := routeSnap{peer: j2, slot: da.a.findSlot(j1, j2)}
	if snap.slot >= 0 {
		snap.util = da.a.routes[snap.slot].util
	}
	da.routeSnaps[j1] = append(da.routeSnaps[j1], snap)
	da.nDirtyRoutes++
}

// route returns the entry snapshotted route (j1, snap.peer) has now, or nil
// while it is inactive. The slot it was last found at is read first: that is
// still the route's if it holds a live entry — a non-empty roster — with these
// endpoints, the test outRoute makes. Otherwise the adjacency is searched once
// and the slot updated.
func (da *DeltaAnalyzer) route(j1 int, snap *routeSnap) *routeEntry {
	a := da.a
	if s := int(snap.slot); s >= 0 && s < len(a.routes) {
		if e := &a.routes[s]; len(e.apps) > 0 && int(e.from) == j1 && int(e.to) == snap.peer {
			return e
		}
	}
	if snap.slot = a.findSlot(j1, snap.peer); snap.slot < 0 {
		return nil
	}
	return &a.routes[snap.slot]
}

// routeUtil is the utilization snapshotted route (j1, snap.peer) has now:
// exactly 0 while it is inactive.
func (da *DeltaAnalyzer) routeUtil(j1 int, snap *routeSnap) float64 {
	if e := da.route(j1, snap); e != nil {
		return e.util
	}
	return 0
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
	da.assigned = false
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
// nil when k passes or is not completely mapped — running checkString, on the
// rosters' prefix sums, only if this generation has not judged k yet.
func (da *DeltaAnalyzer) check(k int) *Violation {
	if da.verdictAt[k] == da.gen {
		da.tel.verdictReuse.Inc()
		return da.verdict[k]
	}
	var v *Violation
	if da.a.Complete(k) {
		da.tel.stringChecks.Inc()
		v = da.a.checkString(k, true)
	}
	da.verdict[k], da.verdictAt[k] = v, da.gen
	return v
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
// string can flip. Every resource whose waiting terms a touched string's
// tightness change moved is dirty (beforeMutation). In a window that only
// removed, a passing string cannot fail (the DeltaAnalyzer comment), so of the
// sharers only committed violators are added, and on a state that violates
// nothing the set is empty. A set already built for this generation is kept.
func (da *DeltaAnalyzer) buildRecheck() {
	if da.recheckGen == da.gen {
		return
	}
	da.recheckGen = da.gen
	da.recheck = da.recheck[:0]
	if !da.assigned && len(da.baseViol) == 0 {
		return
	}
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
	for _, j := range da.dirtyMach {
		da.recheckSharers(a.perMachine[j], threshold)
	}
	for _, j1 := range da.dirtyRouteSrc {
		for idx := range da.routeSnaps[j1] {
			if e := da.route(j1, &da.routeSnaps[j1][idx]); e != nil {
				da.recheckSharers(e.apps, threshold)
			}
		}
	}
}

// recheckSharers adds to the recheck set every string on the roster whose
// tightness is at or below the threshold — in a window that only removed,
// every such committed violator. Incomplete strings hold NaN, which fails the
// comparison.
func (da *DeltaAnalyzer) recheckSharers(roster []rosterEntry, threshold float64) {
	for idx := range roster {
		if k := roster[idx].k; da.a.tightness[k] <= threshold && (da.assigned || da.baseViol[k]) {
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
			if overCapacity(da.routeUtil(j1, snap)) {
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

// CommittedFeasible reports whether the committed state passes the two-stage
// analysis: no machine or route past capacity and no string failing equation
// (1). It is FeasibleAfterDelta on a clean window, read off the committed
// caches without counting an evaluation, so a reader between operations
// (GET /v1/state) leaves the feasibility.delta counters as they were. It
// panics if the window holds uncommitted mutations.
func (da *DeltaAnalyzer) CommittedFeasible() bool {
	if !da.clean() {
		panic("feasibility: CommittedFeasible on an open delta window; Commit or Undo first")
	}
	return da.nOver == 0 && len(da.baseViol) == 0
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
			da.nOver += overCount(da.routeUtil(j1, snap)) - overCount(snap.util)
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
	da.markLines()
	da.clearWindow()
}

// Undo rolls the allocation back to the last committed state, bit-identically
// (everything the fingerprint in WriteState covers, and Λ's binding resource,
// exact again because the utilizations are). It re-places every touched string
// whole at its pre-window vector, untracked: an application put back alone
// would keep a roster entry priced at whatever floats its string had when the
// window placed it, so a window that changed catalog floats must put them back
// first (package comment). The reprices count as wait_terms. The window is
// cleared.
func (da *DeltaAnalyzer) Undo() {
	if da.clean() {
		return
	}
	da.tel.undos.Inc()
	a := da.a
	a.tracker = nil
	for _, k := range da.dirtyStr {
		a.UnassignString(k)
		for i, j := range da.strSnaps[k].machines {
			if j != Unassigned {
				a.Assign(k, i, j)
			}
		}
	}
	a.tracker = da
	a.bind = da.bind
	da.clearWindow()
}

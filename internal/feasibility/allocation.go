// Package feasibility implements the allocation feasibility analysis of
// Sections 3 and 4 of Shestak et al. (IPPS 2005): overall machine and
// communication-route utilizations (equations (2) and (3)), relative
// tightness (equation (4)), estimated computation and transfer times under
// resource sharing (equations (5) and (6)), the two-stage feasibility test
// against the QoS constraints (equation (1)), and the performance metric of
// total worth plus system slackness (equation (7)).
//
// The central type is Allocation: a mutable application-to-machine mapping
// over an immutable model.System, with all utilization bookkeeping maintained
// incrementally so heuristics can cheaply evaluate candidate assignments.
//
// Rosters are kept in canonical priority order (see rosterEntry), so every
// roster and waiting sum is a function of the mapping alone, whatever history
// reached it, and so is every utilization: it is its roster's total, the
// equation-(2) or -(3) summands added in roster order from +0, rewritten
// whenever the roster changes rather than kept as a running balance.
//
// Frozen floats: a string's catalog floats (NominalTime, NominalUtil,
// OutputKB, Period, MaxLatency) may change only while the string is fully
// unassigned. Everything derived from them is priced when an application is
// placed and kept until it is removed — the terms and running totals a roster
// entry carries, the cached tightness, a DeltaAnalyzer's memoised verdicts —
// and a fully unassigned string sits in no roster or cache, while re-placing
// it bumps the analyzer's generation. A rescale is therefore UnassignString,
// change the floats, re-place, and on rejection floats back, then Undo: Undo
// re-places the string and prices it at the floats it finds.
package feasibility

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"repro/internal/model"
	"repro/internal/telemetry"
)

// Unassigned marks an application with no machine assignment yet.
const Unassigned = -1

// utilEps is the tolerance used when comparing utilizations and times against
// their capacity bounds, absorbing float64 accumulation error.
const utilEps = 1e-9

// CapacityLimit is the utilization past which a machine or route fails the
// first-stage analysis (equations (2)–(3)): capacity plus the tolerance. The
// repair controllers pass it to StringsOverLimit.
const CapacityLimit = 1 + utilEps

// overCapacity is the stage-1 predicate, the one place a utilization is held
// against capacity.
func overCapacity(u float64) bool { return u > CapacityLimit }

// appRef identifies application i of string k.
type appRef struct{ k, i int }

// rosterEntry is one application on a machine's or a route's roster. wait is
// the waiting term it contributes to every lower-priority sharer of that
// resource: on a machine (equation (5)) t[i,j]*u[i,j]/P[k], the application's
// equation-(2) summand, model.MachineDemandUtil; on a route (equation (6))
// its transferEntry term. It is priced when the entry is created and travels
// with it through Clone and every move; the frozen-floats contract keeps it
// current. pre is the in-order sum of the wait of every entry before it, so
// a machine's utilization is its last entry's pre plus wait. demand, on a
// route only, is the entry's equation-(3) summand, priced with wait.
//
// Every roster is in canonical order (ahead): the complete strings first,
// tightest first by tighter — equal tightness by string ID — then the
// incomplete strings by ID, a string's own entries together and by application
// index. The entries ahead of a complete string's first one are then exactly
// the strictly higher-priority sharers that equations (5) and (6) charge it
// for, so waitAhead performs, from +0 and in the same order, exactly the
// additions that built that entry's pre: pre is the waiting sum bit for bit
// (headPre). The order, and so every pre, is a function of the mapping.
type rosterEntry struct {
	appRef
	wait, pre, demand float64
}

// transferEntry prices the roster entry of the output of application i of
// string k on route (j1, j2): wait is its equation-(6) summand, the nominal
// transfer time over P[k]; demand its equation-(3) summand, RouteDemandUtil,
// which divides in another order and rounds differently.
func (a *Allocation) transferEntry(k, i, j1, j2 int) rosterEntry {
	s := &a.sys.Strings[k]
	kb := s.Apps[i].OutputKB
	return rosterEntry{appRef: appRef{k, i}, wait: a.sys.RouteTransferSeconds(kb, j1, j2) / s.Period,
		demand: a.sys.RouteDemandUtil(kb, s.Period, j1, j2)}
}

// routeEntry is one active inter-machine route, from -> to: its equation-(3)
// utilization, the total of its roster's demand terms, and the roster of
// producing applications whose output traverses it. Entries live in the allocation's route arena at a slot that stays fixed
// while the route is active (see Allocation.routes).
type routeEntry struct {
	from, to int32
	util     float64
	apps     []rosterEntry
}

// routeRef is one entry of a machine's adjacency: the peer machine a route
// leads to and the arena slot of its entry.
type routeRef struct{ peer, slot int32 }

// rosterPos locates an application's entry on a roster: the roster's slot —
// the machine itself for a machine roster, the route's arena slot for a route
// roster — and the entry's index on it.
type rosterPos struct{ slot, idx int32 }

// Allocation is a (possibly partial) application-to-machine mapping. It
// maintains, under Assign/Unassign:
//
//   - per-machine overall utilization (equation (2)),
//   - per-route overall utilization (equation (3)),
//   - per-machine and per-route rosters of assigned applications in
//     canonical priority order, carrying the waiting sums of the
//     sharing-aware time estimates (equations (5) and (6)),
//   - relative tightness (equation (4)) for each completely mapped string.
type Allocation struct {
	sys *model.System

	machineOf [][]int // [k][i] -> machine index or Unassigned
	nAssigned []int   // per string, how many of its apps are assigned

	machineUtil []float64 // U_machine[j], equation (2): perMachine[j]'s total

	perMachine [][]rosterEntry // machine j -> applications assigned to it

	// posM[k][i] locates application i's entry on its machine's roster,
	// posR[k][i] its output's on its route's (inter-machine transfers only),
	// each as the roster's slot and the index (rosterPos), so a placed
	// transfer's route is read without a search. Meaningless while the
	// application is unassigned.
	posM, posR [][]rosterPos

	// The sparse route state: a route that carries no transfer costs nothing
	// to store, copy, scan, or snapshot. routes is the arena of active route
	// entries, each at a slot fixed while its route is active; emptied slots
	// wait on free for reuse. adj[j1] holds one ref per active route out of
	// machine j1, sorted by peer — the only index by endpoints, searched only
	// when a route is looked up by them, and the canonical (j1, j2)-ascending
	// iteration order of WriteState and Snapshot. A route is active iff its
	// roster is non-empty, and absent routes report exactly zero utilization —
	// removing a route's last transfer frees its slot. Memory and full-scan
	// cost are O(M + active routes),
	// replacing the dense M×M matrices that made allocations quadratic in
	// machines.
	routes []routeEntry
	free   []int32
	adj    [][]routeRef

	tightness []float64 // T[k] per equation (4); NaN until string k is complete

	bind binding // Λ's binding resource, kept by every utilization write

	tracker *DeltaAnalyzer     // attached change tracker, nil when untracked
	terms   *telemetry.Counter // the tracker's wait_terms, kept through Undo; nil when untracked

	tel allocTelemetry // shared hot-path counters; nil fields when disabled

	// ident is the machines in index order, 0..M-1: the order PlacementScan
	// visits them in without a scan order. Read-only; clones share it.
	ident []int32
	// order is the scan order PlacementScan visits machines in, nil for index
	// order (AttachScanOrder). Read-only; clones share it.
	order *ScanOrder
}

// allocTelemetry caches the feasibility counters once per Allocation so the
// constraint-check hot path pays a nil check instead of a registry lookup.
// All fields are nil (no-op) when telemetry is disabled.
type allocTelemetry struct {
	checks     *telemetry.Counter // CheckString calls
	violations *telemetry.Counter // total equation (1) violations observed
	violComp   *telemetry.Counter // by kind: throughput-comp
	violTran   *telemetry.Counter // by kind: throughput-tran
	violLat    *telemetry.Counter // by kind: latency

	// PlacementScan's tallies, named for the routine that scans (the IMR of
	// package heuristics): routesPriced / scans is how many candidates the
	// bound lets through; machinesRead counts the machine terms computed,
	// M a scan in index order and fewer in a scan order that stops early.
	imrScans        *telemetry.Counter
	imrMachinesRead *telemetry.Counter
	imrRoutesPriced *telemetry.Counter
	slackRescans    *telemetry.Counter // reads of Λ that found the binding resource stale
}

func newAllocTelemetry() allocTelemetry {
	return allocTelemetry{
		checks:     telemetry.C("feasibility.check_string"),
		violations: telemetry.C("feasibility.violations"),
		violComp:   telemetry.C("feasibility.violation." + KindThroughputComp),
		violTran:   telemetry.C("feasibility.violation." + KindThroughputTran),
		violLat:    telemetry.C("feasibility.violation." + KindLatency),

		imrScans:        telemetry.C("heuristics.imr.scans"),
		imrMachinesRead: telemetry.C("heuristics.imr.machines_read"),
		imrRoutesPriced: telemetry.C("heuristics.imr.routes_priced"),
		slackRescans:    telemetry.C("feasibility.slackness_rescans"),
	}
}

// countViolation tallies a stage-2 violation by kind; nil-safe.
func (t *allocTelemetry) countViolation(kind string) {
	t.violations.Inc()
	switch kind {
	case KindThroughputComp:
		t.violComp.Inc()
	case KindThroughputTran:
		t.violTran.Inc()
	case KindLatency:
		t.violLat.Inc()
	}
}

// New returns an empty allocation over sys. The system must be validated.
// Construction is O(M + total applications): no per-route state exists until
// a transfer activates a route.
func New(sys *model.System) *Allocation {
	m := sys.Machines
	a := &Allocation{
		sys:         sys,
		machineOf:   make([][]int, len(sys.Strings)),
		nAssigned:   make([]int, len(sys.Strings)),
		machineUtil: make([]float64, m),
		perMachine:  make([][]rosterEntry, m),
		posM:        newPositions(sys, nil),
		posR:        newPositions(sys, nil),
		adj:         make([][]routeRef, m),
		tightness:   make([]float64, len(sys.Strings)),
		bind:        emptyBinding,
		tel:         newAllocTelemetry(),
		ident:       make([]int32, m),
	}
	for j := range a.ident {
		a.ident[j] = int32(j)
	}
	for k := range sys.Strings {
		a.machineOf[k] = make([]int, len(sys.Strings[k].Apps))
		for i := range a.machineOf[k] {
			a.machineOf[k][i] = Unassigned
		}
		a.tightness[k] = math.NaN()
	}
	return a
}

// newPositions returns a position table, one entry per application over one
// backing array, copying from when it is not nil.
func newPositions(sys *model.System, from [][]rosterPos) [][]rosterPos {
	n := 0
	for k := range sys.Strings {
		n += len(sys.Strings[k].Apps)
	}
	buf := make([]rosterPos, n)
	pos := make([][]rosterPos, len(sys.Strings))
	for k := range pos {
		n := len(sys.Strings[k].Apps)
		pos[k], buf = buf[:n:n], buf[n:]
		if from != nil {
			copy(pos[k], from[k])
		}
	}
	return pos
}

// System returns the system the allocation maps onto.
func (a *Allocation) System() *model.System { return a.sys }

// Machine returns the machine application i of string k is assigned to, or
// Unassigned.
func (a *Allocation) Machine(k, i int) int { return a.machineOf[k][i] }

// Complete reports whether every application of string k is assigned.
func (a *Allocation) Complete(k int) bool {
	return a.nAssigned[k] == len(a.sys.Strings[k].Apps)
}

// NumComplete returns the number of completely mapped strings.
func (a *Allocation) NumComplete() int {
	n := 0
	for k := range a.sys.Strings {
		if a.Complete(k) {
			n++
		}
	}
	return n
}

// MachineUtilization returns U_machine[j] (equation (2)) under the current
// assignments.
func (a *Allocation) MachineUtilization(j int) float64 { return a.machineUtil[j] }

// RouteUtilization returns U_route[j1, j2] (equation (3)) under the current
// assignments. Intra-machine routes and routes carrying no transfer report
// exactly zero.
func (a *Allocation) RouteUtilization(j1, j2 int) float64 {
	if e := a.findRoute(j1, j2); e != nil {
		return e.util
	}
	return 0
}

// routeIndex locates peer j2 in machine j1's sorted adjacency, returning its
// position when present or the insertion point when absent: the search by
// endpoints, which a placed transfer's route read (outRoute) does not make.
// Short adjacencies — the common case at paper-scale machine counts, where a
// machine talks to a handful of peers — scan linearly, which beats binary
// search on its branch mispredictions; long ones binary search.
func (a *Allocation) routeIndex(j1, j2 int) (int, bool) {
	adj, peer := a.adj[j1], int32(j2)
	if len(adj) <= 8 {
		for idx := range adj {
			if p := adj[idx].peer; p >= peer {
				return idx, p == peer
			}
		}
		return len(adj), false
	}
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if adj[mid].peer < peer {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(adj) && adj[lo].peer == peer
}

// findSlot returns the arena slot of route (j1, j2), or -1 when inactive.
func (a *Allocation) findSlot(j1, j2 int) int32 {
	if idx, ok := a.routeIndex(j1, j2); ok {
		return a.adj[j1][idx].slot
	}
	return -1
}

// findRoute returns the entry of route (j1, j2), or nil when inactive.
func (a *Allocation) findRoute(j1, j2 int) *routeEntry {
	if s := a.findSlot(j1, j2); s >= 0 {
		return &a.routes[s]
	}
	return nil
}

// outRoute returns route (j1, j2), j1 != j2, and the index on its roster of
// the output of application i of string k, which must travel it. The
// transfer's position names the route's slot, so the read is O(1): no
// adjacency is searched, and the entry's endpoints and the roster entry are
// checked instead.
func (a *Allocation) outRoute(k, i, j1, j2 int) (*routeEntry, int) {
	p := a.posR[k][i]
	if s := int(p.slot); s < len(a.routes) {
		e := &a.routes[s]
		if idx := int(p.idx); idx < len(e.apps) && int(e.from) == j1 && int(e.to) == j2 && e.apps[idx].appRef == (appRef{k, i}) {
			return e, idx
		}
	}
	panic(fmt.Sprintf("feasibility: route %d->%d does not carry the output of application (%d,%d)", j1, j2, k, i))
}

// routeRoster returns the roster of route (j1, j2), or nil when inactive.
func (a *Allocation) routeRoster(j1, j2 int) []rosterEntry {
	if e := a.findRoute(j1, j2); e != nil {
		return e.apps
	}
	return nil
}

// openRoute activates route (j1, j2), whose ref belongs at position idx of
// machine j1's adjacency, and returns its slot: the last one freed, else the
// next past the arena's end. Either way the slot brings back the roster buffer
// its previous route left (a removal and a Reset keep them), so the
// decode-Reset-decode hot path of the heuristics stays allocation-free in
// steady state.
func (a *Allocation) openRoute(j1, idx, j2 int) int32 {
	var slot int32
	if n := len(a.free); n > 0 {
		slot, a.free = a.free[n-1], a.free[:n-1]
	} else {
		slot = int32(len(a.routes))
		if len(a.routes) < cap(a.routes) {
			a.routes = a.routes[:slot+1]
		} else {
			a.routes = append(a.routes, routeEntry{})
		}
	}
	e := &a.routes[slot]
	*e = routeEntry{from: int32(j1), to: int32(j2), apps: e.apps[:0]}
	a.adj[j1] = slices.Insert(a.adj[j1], idx, routeRef{peer: int32(j2), slot: slot})
	return slot
}

// routeSlot returns the slot of route (j1, j2), activating it if inactive.
func (a *Allocation) routeSlot(j1, j2 int) int32 {
	idx, ok := a.routeIndex(j1, j2)
	if ok {
		return a.adj[j1][idx].slot
	}
	return a.openRoute(j1, idx, j2)
}

// closeRoute deactivates the route at position idx of machine j1's adjacency:
// its ref goes and its slot, roster buffer kept, joins the free list.
func (a *Allocation) closeRoute(j1, idx int) {
	slot := a.adj[j1][idx].slot
	a.routes[slot].apps = a.routes[slot].apps[:0]
	a.free = append(a.free, slot)
	a.adj[j1] = slices.Delete(a.adj[j1], idx, idx+1)
}

// Assign maps application i of string k onto machine j, updating machine and
// route utilizations and rosters. Assigning an already-assigned application
// is a programming error and panics; use Unassign first.
func (a *Allocation) Assign(k, i, j int) {
	if a.machineOf[k][i] != Unassigned {
		panic(fmt.Sprintf("feasibility: application (%d,%d) already assigned to machine %d", k, i, a.machineOf[k][i]))
	}
	if j < 0 || j >= a.sys.Machines {
		panic(fmt.Sprintf("feasibility: machine %d out of range [0,%d)", j, a.sys.Machines))
	}
	mo := a.machineOf[k]
	completes := a.nAssigned[k] == len(mo)-1
	if a.tracker != nil {
		a.tracker.beforeMutation(k, i, j, completes)
		a.tracker.assigned = true
	}
	mo[i] = j
	a.nAssigned[k]++
	roster, p := a.enter(a.perMachine[j], rosterEntry{appRef: appRef{k, i}, wait: a.sys.MachineDemandUtil(k, i, j)})
	a.perMachine[j] = roster
	a.reprice(roster, p, a.posM, int32(j))
	a.setMachineUtil(j)
	if i > 0 && mo[i-1] != Unassigned {
		a.addRoute(mo[i-1], j, k, i-1)
	}
	if i < len(mo)-1 && mo[i+1] != Unassigned {
		a.addRoute(j, mo[i+1], k, i)
	}
	// The string entered every roster as incomplete; complete, it moves to
	// its priority on each of them.
	if completes {
		a.tightness[k] = a.computeTightness(k)
		a.reseatString(k)
	}
}

// Unassign removes the assignment of application i of string k. The rest of
// every roster keeps its order.
func (a *Allocation) Unassign(k, i int) {
	mo := a.machineOf[k]
	j := mo[i]
	if j == Unassigned {
		panic(fmt.Sprintf("feasibility: application (%d,%d) is not assigned", k, i))
	}
	uncompletes := a.Complete(k)
	if a.tracker != nil {
		a.tracker.beforeMutation(k, i, j, uncompletes)
	}
	p := int(a.posM[k][i].idx)
	a.perMachine[j] = leave(a.perMachine[j], p)
	a.reprice(a.perMachine[j], p, a.posM, int32(j))
	a.setMachineUtil(j)
	if i > 0 && mo[i-1] != Unassigned {
		a.removeRoute(mo[i-1], j, k, i-1)
	}
	if i < len(mo)-1 && mo[i+1] != Unassigned {
		a.removeRoute(j, mo[i+1], k, i)
	}
	mo[i] = Unassigned
	a.nAssigned[k]--
	// Incomplete now, the rest of the string moves behind every complete one.
	if uncompletes {
		a.tightness[k] = math.NaN()
		a.reseatString(k)
	}
}

// UnassignString removes every assignment of string k.
func (a *Allocation) UnassignString(k int) {
	for i, j := range a.machineOf[k] {
		if j != Unassigned {
			a.Unassign(k, i)
		}
	}
}

// AssignString maps the whole of string k according to machines, which must
// have one entry per application.
func (a *Allocation) AssignString(k int, machines []int) {
	if len(machines) != len(a.sys.Strings[k].Apps) {
		panic(fmt.Sprintf("feasibility: string %d has %d applications, got %d machines",
			k, len(a.sys.Strings[k].Apps), len(machines)))
	}
	for i, j := range machines {
		a.Assign(k, i, j)
	}
}

// StringMachines returns a copy of the machine assignment vector of string k
// (entries are Unassigned where not yet mapped).
func (a *Allocation) StringMachines(k int) []int {
	return append([]int(nil), a.machineOf[k]...)
}

// addRoute records that the output of application i of string k traverses the
// route j1 -> j2. Intra-machine transfers use no modeled route.
func (a *Allocation) addRoute(j1, j2, k, i int) {
	if j1 == j2 {
		return
	}
	slot := a.routeSlot(j1, j2)
	e := &a.routes[slot]
	var p int
	e.apps, p = a.enter(e.apps, a.transferEntry(k, i, j1, j2))
	a.reprice(e.apps, p, a.posR, slot)
	a.setRouteUtil(e)
}

// removeRoute takes the output of application i of string k off the route
// j1 -> j2.
func (a *Allocation) removeRoute(j1, j2, k, i int) {
	if j1 == j2 {
		return
	}
	e, p := a.outRoute(k, i, j1, j2)
	if len(e.apps) == 1 {
		// An emptied route is absent: its slot is freed, and its utilization
		// reads exactly zero.
		idx, _ := a.routeIndex(j1, j2)
		a.closeRoute(j1, idx)
		a.noteUtil(Resource{j1, j2}, 0)
		return
	}
	e.apps = leave(e.apps, p)
	a.reprice(e.apps, p, a.posR, a.posR[k][i].slot)
	a.setRouteUtil(e)
}

// setMachineUtil sets machine j's utilization to its roster's total, equation
// (2) summed in roster order from +0: the last entry's pre plus its wait.
func (a *Allocation) setMachineUtil(j int) {
	u := 0.0
	if roster := a.perMachine[j]; len(roster) > 0 {
		last := &roster[len(roster)-1]
		u = last.pre + last.wait
	}
	a.machineUtil[j] = u
	a.noteUtil(Resource{j, Unassigned}, u)
}

// setRouteUtil sets route e's utilization to its roster's total, the demand
// terms of equation (3) summed in roster order from +0.
func (a *Allocation) setRouteUtil(e *routeEntry) {
	u := 0.0
	for idx := range e.apps {
		u += e.apps[idx].demand
	}
	e.util = u
	a.noteUtil(Resource{int(e.from), int(e.to)}, u)
}

// ahead reports whether the entry of application x precedes that of y in
// canonical roster order (see rosterEntry). A NaN tightness marks an
// incomplete string.
func (a *Allocation) ahead(x, y appRef) bool {
	if x.k == y.k {
		return x.i < y.i
	}
	tx, ty := a.tightness[x.k], a.tightness[y.k]
	if cx, cy := tx == tx, ty == ty; cx != cy {
		return cx
	} else if !cx {
		return x.k < y.k
	}
	return tighter(tx, x.k, ty, y.k)
}

// enter inserts e, an entry of an incomplete string, at its canonical index,
// returned with the roster; the entries from that index on need a reprice.
// Every complete string is ahead of e, so the index is found from the end,
// over the incomplete tail only.
func (a *Allocation) enter(roster []rosterEntry, e rosterEntry) ([]rosterEntry, int) {
	p := len(roster)
	for p > 0 && !a.ahead(roster[p-1].appRef, e.appRef) {
		p--
	}
	roster = append(roster, rosterEntry{})
	copy(roster[p+1:], roster[p:])
	roster[p] = e
	return roster, p
}

// leave removes the entry at index p, keeping the order of the rest.
func leave(roster []rosterEntry, p int) []rosterEntry {
	copy(roster[p:], roster[p+1:])
	return roster[:len(roster)-1]
}

// reseat moves the block of the string whose entry sits at index p — all of
// its entries on the roster, which are contiguous — to where the string's
// tightness now places it among the others, and returns the first index that
// needs a reprice (len(roster) when the block stays).
func (a *Allocation) reseat(roster []rosterEntry, p int) int {
	k := roster[p].k
	s, e := p, p+1
	for s > 0 && roster[s-1].k == k {
		s--
	}
	for e < len(roster) && roster[e].k == k {
		e++
	}
	// A binary search for the block's index among the other entries.
	n := e - s
	lo, hi := 0, len(roster)-n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		x := mid
		if x >= s {
			x += n
		}
		if a.ahead(roster[x].appRef, roster[s].appRef) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	t := lo
	if t == s {
		return len(roster)
	}
	// Rotate the block into place an entry at a time: it is one string's
	// entries on one resource, one or two as a rule.
	if t < s {
		for x := 0; x < n; x++ {
			b := roster[s+x]
			copy(roster[t+x+1:s+x+1], roster[t+x:s+x])
			roster[t+x] = b
		}
	} else {
		for x := n - 1; x >= 0; x-- {
			b := roster[s+x]
			copy(roster[s+x:t+x], roster[s+x+1:t+x+1])
			roster[t+x] = b
		}
	}
	return min(s, t)
}

// reseatString moves string k's block on every roster it uses after its
// tightness changed — it became complete, or stopped being complete. Each
// roster is reseated from the head of k's block, the string's first
// application on it, and its total rewritten in the new order.
func (a *Allocation) reseatString(k int) {
	mo := a.machineOf[k]
	for i, j := range mo {
		if j == Unassigned {
			continue
		}
		if roster, p := a.perMachine[j], int(a.posM[k][i].idx); p == 0 || roster[p-1].k != k {
			a.reprice(roster, a.reseat(roster, p), a.posM, int32(j))
			a.setMachineUtil(j)
		}
		if i == len(mo)-1 {
			break
		}
		if next := mo[i+1]; next != Unassigned && next != j {
			e, p := a.outRoute(k, i, j, next)
			if p == 0 || e.apps[p-1].k != k {
				a.reprice(e.apps, a.reseat(e.apps, p), a.posR, a.posR[k][i].slot)
				a.setRouteUtil(e)
			}
		}
	}
}

// reprice rewrites, from index from on, every entry's pre and its position in
// pos, the roster's slot with the index. The sum of entries before from
// resumes from the entry before it, so every pre is the in-order sum from +0
// whatever from is. Under a tracked allocation the additions are the
// analyzer's waiting-sum upkeep, Undo's included, counted as its wait_terms.
func (a *Allocation) reprice(roster []rosterEntry, from int, pos [][]rosterPos, slot int32) {
	run := 0.0
	if from > 0 {
		e := &roster[from-1]
		run = e.pre + e.wait
	}
	for idx := from; idx < len(roster); idx++ {
		e := &roster[idx]
		e.pre = run
		run += e.wait
		pos[e.k][e.i] = rosterPos{slot, int32(idx)}
	}
	a.terms.Add(int64(len(roster) - from))
}

// headPre returns the pre of the first entry of the string whose entry sits at
// index p: that string's waiting sum on the roster.
func headPre(roster []rosterEntry, p int) float64 {
	for p > 0 && roster[p-1].k == roster[p].k {
		p--
	}
	return roster[p].pre
}

// ActiveRoutes calls f for every inter-machine route currently carrying at
// least one transfer, in canonical ascending (j1, j2) order, passing the
// route's endpoints and its equation-(3) utilization. Routes with an empty
// roster have exactly zero utilization and are skipped; iterating them could
// never change a maximum-utilization or over-threshold scan, which is what
// makes the O(M + active) walk behind Slackness and the degradation
// controller's loops equivalent to dense O(M^2) sweeps.
func (a *Allocation) ActiveRoutes(f func(j1, j2 int, util float64)) {
	for j1, adj := range a.adj {
		for _, r := range adj {
			f(j1, int(r.peer), a.routes[r.slot].util)
		}
	}
}

// ActiveRoutesFrom calls f for every active route out of machine j1, in
// ascending peer order — the per-source slice of ActiveRoutes, for consumers
// that group route scans by origin.
func (a *Allocation) ActiveRoutesFrom(j1 int, f func(j2 int, util float64)) {
	for _, r := range a.adj[j1] {
		f(int(r.peer), a.routes[r.slot].util)
	}
}

// StringsOnMachine calls f with the ID of every completely mapped string
// that has an application on machine j. It walks the machine's roster, so the
// cost is O(applications on j) and a string with several applications there
// is reported once per application, in roster order; callers collect a set.
func (a *Allocation) StringsOnMachine(j int, f func(k int)) {
	a.completeOn(a.perMachine[j], f)
}

// StringsOnRoute calls f with the ID of every completely mapped string that
// sends a transfer over the route j1 -> j2, walking the route's roster under
// the same contract as StringsOnMachine. An inactive route reports nothing.
func (a *Allocation) StringsOnRoute(j1, j2 int, f func(k int)) {
	a.completeOn(a.routeRoster(j1, j2), f)
}

// completeOn calls f with the string of every roster entry whose string is
// completely mapped, in roster order.
func (a *Allocation) completeOn(roster []rosterEntry, f func(k int)) {
	for _, ref := range roster {
		if a.Complete(ref.k) {
			f(ref.k)
		}
	}
}

// StringsOverLimit calls f with the ID of every completely mapped string that
// has an application on a machine, or a transfer on an active route, utilized
// past limit: machines ascending, then routes in ascending (j1, j2) order, each
// roster under the contract of StringsOnMachine. An inactive route has exactly
// zero utilization and is past no positive limit. The repair controllers pick
// their victims from this walk, at CapacityLimit or at a shed target below it.
func (a *Allocation) StringsOverLimit(limit float64, f func(k int)) {
	for j, u := range a.machineUtil {
		if u > limit {
			a.completeOn(a.perMachine[j], f)
		}
	}
	for _, adj := range a.adj {
		for _, r := range adj {
			if e := &a.routes[r.slot]; e.util > limit {
				a.completeOn(e.apps, f)
			}
		}
	}
}

// MachineUtilizationIf returns U_machine[j, i, k]: the utilization machine j
// would have if application i of string k were assigned to it in addition to
// the applications already assigned (the IMR selection parameter).
func (a *Allocation) MachineUtilizationIf(j, k, i int) float64 {
	return a.machineUtil[j] + a.sys.MachineDemandUtil(k, i, j)
}

// RouteUtilizationIf returns U_route[j1, j2, i, k]: the utilization route
// (j1, j2) would have if application i of string k were assigned to machine
// j1 and passed its output to its successor on machine j2. Intra-machine
// placements report zero.
func (a *Allocation) RouteUtilizationIf(j1, j2, k, i int) float64 {
	if j1 == j2 {
		return 0
	}
	s := &a.sys.Strings[k]
	return a.RouteUtilization(j1, j2) + a.sys.RouteDemandUtil(s.Apps[i].OutputKB, s.Period, j1, j2)
}

// AttachScanOrder makes o the order this allocation's PlacementScans visit
// machines in, or restores index order when o is nil. o must have been built
// over a.System(), or over the catalog a.System() is a model.ScaledView of
// (the same shape, every NominalUtil row shared); AttachScanOrder panics
// otherwise. The check walks every application once: attach an order once
// per allocation, not per scan. Reset keeps the order and clones share it.
func (a *Allocation) AttachScanOrder(o *ScanOrder) {
	if o != nil && !o.fits(a.sys) {
		panic("feasibility: AttachScanOrder given a scan order built over another catalog")
	}
	a.order = o
}

// scanMargin is the relative margin by which a machine's own term must exceed
// the incumbent for a PlacementScan along a scan order to stop: 2⁻⁴⁷, eight
// times the 2⁻⁵⁰ that the roundings between key order and scan term can
// take away (see PlacementScan).
const scanMargin = 0x1p-47

// PlacementScan is the IMR's candidate selection (Section 5): the allowed
// machine j minimizing max(U_machine[j, i, k], U_route) for application i of
// string k, lowest index on ties, or -1 when the masks allow none. The route
// is the one placing i on j implies toward its already placed neighbour
// nb = i±1 — nb's machine -> j carrying O[nb] when nb precedes i, j -> nb's
// machine carrying O[i] when it follows; an intra-machine hop uses no route —
// and nb < 0 scans for a string's first application, which has no route term.
// A nil mask allows everything; a machine is excluded by machineOK directly or
// by routeOK through that route.
//
// Every value is the one MachineUtilizationIf and RouteUtilizationIf return,
// computed by the same floating-point operations in the same order with the
// period, the producer's transfer demand and the neighbour's machine read
// once. A machine whose own term mu loses to the incumbent — exceeds it, or
// ties it at a higher index — is passed over before its masks and its route
// are looked at: max(mu, ru) >= mu cannot beat it (nor can max with a NaN
// route term, which is NaN), and the comparisons are false on a NaN mu or
// best, so exactly the machines that could never be selected are skipped.
//
// Without an attached scan order the machines are visited in index order.
// Along one (AttachScanOrder) they are visited cheapest own work first, and
// the scan stops at the first machine s whose term c = fl(fl(t'·u)/P) exceeds
// the incumbent v by the margin, c > fl(v + fl(v·2⁻⁴⁷)), provided t'·u and c
// are finite normal floats (t' >= t'·u is then normal too, u being in
// (0, 1]). t' is the time the scan reads: t itself over the order's catalog,
// fl(t·g) over a view of it at scale g. No later machine j can then win or
// tie. The key order and the scan terms are eight roundings apart, each
// within the unit roundoff ε = 2⁻⁵³ while its operands stay normal:
// κ = fl(t·u) for s and for j (NewScanOrder holds keys normal), and t', t'·u
// and c for s and for j, whose real values κ_j >= κ_s keeps at or above s's
// normal ones (u <= 1), or +Inf when they overflow. So
// c_j >= c_s·((1−ε)/(1+ε))⁴ > c_s·(1 − 2⁻⁵⁰), and c_s past the margin puts
// c_s·(1 − 2⁻⁵⁰) above v — v·2⁻⁴⁷ rounds by under 2⁻⁶ of itself even below
// the normal range, and a v below 2⁻¹⁰²²·(1 − 2⁻⁵⁰) is under every normal
// c_s·(1 − 2⁻⁵⁰) — while a utilization U_j >= 0 makes mu_j = fl(U_j + c_j) >=
// c_j, strictly above v. Where the guard fails (a scale overflowed t'·u to
// +Inf, or pushed t'·u or c below the normal range, where rounding is
// absolute) the scan goes on. The choice is the same in either order;
// heuristics.imr.machines_read counts the machine terms computed, M in index
// order. The scan allocates nothing.
func (a *Allocation) PlacementScan(k, i, nb int, machineOK func(j int) bool, routeOK func(j1, j2 int) bool) int {
	s := &a.sys.Strings[k]
	period := s.Period
	util := a.machineUtil
	m := len(util)
	times, utils := s.Apps[i].NominalTime[:m], s.Apps[i].NominalUtil[:m]
	// The scan stops at a term above stop = v + v·lim, v the incumbent: lim is
	// the margin along a scan order and +Inf in index order, where stop is
	// +Inf or NaN and no term ends the scan.
	row, lim := a.ident, math.Inf(1)
	if a.order != nil {
		row, lim = a.order.Row(k, i), scanMargin
	}
	nbJ, demand := Unassigned, 0.0
	if nb >= 0 {
		nbJ = a.machineOf[k][nb]
		demand = model.DemandMbps(s.Apps[min(i, nb)].OutputKB, period)
	}
	// bestJ == m while there is no incumbent: every machine beats best = +Inf
	// or ties it at a lower index, a NaN term included.
	bestJ, best, stop, priced, read := m, math.Inf(1), math.Inf(1), 0, m
	for n, j32 := range row[:m] {
		j := int(j32)
		w := times[j] * utils[j]
		c := w / period
		if c > stop && normal(w) && normal(c) {
			read = n + 1
			break
		}
		mu := util[j] + c
		if mu > best || mu == best && j > bestJ {
			continue
		}
		if machineOK != nil && !machineOK(j) {
			continue
		}
		v := mu
		if nb >= 0 {
			ru := 0.0
			if j != nbJ {
				from, to := nbJ, j
				if nb > i {
					from, to = j, nbJ
				}
				if routeOK != nil && !routeOK(from, to) {
					continue
				}
				ru = a.RouteUtilization(from, to) + demand/a.sys.Bandwidth[from][to]
				priced++
			}
			if !(mu > ru) { // max(mu, ru) as the IMR always took it: ru when either is NaN
				v = ru
			}
		}
		if bestJ == m || v < best || v == best && j < bestJ {
			bestJ, best, stop = j, v, v+v*lim
		}
	}
	a.tel.imrScans.Inc()
	a.tel.imrMachinesRead.Add(int64(read))
	a.tel.imrRoutesPriced.Add(int64(priced))
	if bestJ == m {
		return -1
	}
	return bestJ
}

// Reset clears every assignment in place, returning the allocation to the
// state New produces while keeping the adjacency, arena and roster backing
// arrays for reuse. Heuristics that decode thousands of permutations keep one
// scratch allocation per worker and Reset it between decodes instead of
// rebuilding. Cost: O(K + M + active).
func (a *Allocation) Reset() {
	for k := range a.machineOf {
		mo := a.machineOf[k]
		for i := range mo {
			mo[i] = Unassigned
		}
		a.nAssigned[k] = 0
		a.tightness[k] = math.NaN()
	}
	for j := range a.machineUtil {
		a.machineUtil[j] = 0
		a.perMachine[j] = a.perMachine[j][:0]
	}
	// Truncating the arena retires every slot, free ones included; the
	// roster buffers stay in the backing array for openRoute to recover.
	for j := range a.adj {
		a.adj[j] = a.adj[j][:0]
	}
	a.routes = a.routes[:0]
	a.free = a.free[:0]
	a.bind = emptyBinding
	if a.tracker != nil {
		a.tracker.rebaseEmpty()
	}
}

// Clone returns an independent deep copy of the allocation sharing the same
// (immutable) system. Cost is O(total applications + M + active routes): the
// assignment vectors and the position tables hold an entry per application,
// the arena is copied slot for slot with the free list — so every position
// still names its route — and machines with no assigned applications and free
// slots contribute no backing allocations. A DeltaAnalyzer attached to the
// receiver is not carried over; the clone starts untracked.
func (a *Allocation) Clone() *Allocation {
	cp := &Allocation{
		sys:         a.sys,
		machineOf:   make([][]int, len(a.machineOf)),
		nAssigned:   append([]int(nil), a.nAssigned...),
		machineUtil: append([]float64(nil), a.machineUtil...),
		perMachine:  make([][]rosterEntry, len(a.perMachine)),
		posM:        newPositions(a.sys, a.posM),
		posR:        newPositions(a.sys, a.posR),
		routes:      append([]routeEntry(nil), a.routes...),
		free:        append([]int32(nil), a.free...),
		adj:         make([][]routeRef, len(a.adj)),
		tightness:   append([]float64(nil), a.tightness...),
		bind:        a.bind,
		tel:         a.tel,
		ident:       a.ident,
		order:       a.order,
	}
	for k := range a.machineOf {
		cp.machineOf[k] = append([]int(nil), a.machineOf[k]...)
	}
	for j := range a.perMachine {
		cp.perMachine[j] = append([]rosterEntry(nil), a.perMachine[j]...)
	}
	for slot := range cp.routes {
		cp.routes[slot].apps = append([]rosterEntry(nil), cp.routes[slot].apps...)
	}
	for j, adj := range a.adj {
		if len(adj) > 0 {
			cp.adj[j] = append([]routeRef(nil), adj...)
		}
	}
	return cp
}

// WriteState writes a canonical textual fingerprint of the observable
// allocation state to w: assignments, utilizations (exact IEEE-754 bit
// patterns), roster contents in roster order, and cached tightness values.
// Rosters are in canonical priority order and utilizations are their totals,
// so the text is a function of the mapping: two histories reaching one
// mapping print the same bytes. Routes appear in ascending (j1, j2) order, the
// adjacency's storage order.
func (a *Allocation) WriteState(w io.Writer) error {
	_, err := w.Write(a.appendState(nil))
	return err
}

// appendState appends the WriteState text to buf. The bytes are what
// fmt.Fprintf("s%d n%d t%016x %v\n"), ("m%d u%016x %v\n") and
// ("r%d,%d u%016x %v\n") print for a []int assignment vector and a roster of
// {k i} pairs — every recorded StateDigest hashes exactly that text — built
// without fmt's reflection over the slices (digest_test.go keeps the fmt
// encoder as the oracle). A roster entry's term and pre are derived state and
// are not part of the fingerprint. The text is one line per string,
// then one per machine, then machine j1's route lines for each j1 in turn:
// the chunks a DeltaAnalyzer's line cache keeps (StateDigest).
func (a *Allocation) appendState(buf []byte) []byte {
	for k := range a.machineOf {
		buf = a.appendStringLine(buf, k)
	}
	for j := range a.machineUtil {
		buf = a.appendMachineLine(buf, j)
	}
	for j1 := range a.adj {
		buf = a.appendRoutesFrom(buf, j1)
	}
	return buf
}

// appendStringLine appends string k's line: "s<k> n<assigned> t<bits> [<machines>]\n".
func (a *Allocation) appendStringLine(buf []byte, k int) []byte {
	buf = append(buf, 's')
	buf = strconv.AppendInt(buf, int64(k), 10)
	buf = append(buf, " n"...)
	buf = strconv.AppendInt(buf, int64(a.nAssigned[k]), 10)
	buf = append(buf, " t"...)
	buf = appendBits(buf, a.tightness[k])
	buf = append(buf, " ["...)
	for i, j := range a.machineOf[k] {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = strconv.AppendInt(buf, int64(j), 10)
	}
	return append(buf, "]\n"...)
}

// appendMachineLine appends machine j's line: "m<j> u<bits> [<roster>]\n".
func (a *Allocation) appendMachineLine(buf []byte, j int) []byte {
	buf = append(buf, 'm')
	buf = strconv.AppendInt(buf, int64(j), 10)
	return appendResource(buf, a.machineUtil[j], a.perMachine[j])
}

// appendRoutesFrom appends one "r<j1>,<j2> u<bits> [<roster>]\n" line per
// active route out of machine j1, in ascending j2 order; nothing if none.
func (a *Allocation) appendRoutesFrom(buf []byte, j1 int) []byte {
	for _, r := range a.adj[j1] {
		e := &a.routes[r.slot]
		buf = append(buf, 'r')
		buf = strconv.AppendInt(buf, int64(j1), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(r.peer), 10)
		buf = appendResource(buf, e.util, e.apps)
	}
	return buf
}

// appendResource appends the tail shared by machine and route lines:
// " u<bits> [{k i} {k i}]\n".
func appendResource(buf []byte, util float64, roster []rosterEntry) []byte {
	buf = append(buf, " u"...)
	buf = appendBits(buf, util)
	buf = append(buf, " ["...)
	for idx := range roster {
		if idx > 0 {
			buf = append(buf, ' ')
		}
		buf = append(buf, '{')
		buf = strconv.AppendInt(buf, int64(roster[idx].k), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(roster[idx].i), 10)
		buf = append(buf, '}')
	}
	return append(buf, "]\n"...)
}

// appendBits appends f's IEEE-754 bit pattern as 16 lower-case hex digits
// (NaN-safe), the %016x of WriteState and snapshots.
func appendBits(buf []byte, f float64) []byte {
	const digits = "0123456789abcdef"
	u := math.Float64bits(f)
	for shift := 60; shift >= 0; shift -= 4 {
		buf = append(buf, digits[u>>uint(shift)&0xf])
	}
	return buf
}

package feasibility

import (
	"fmt"
	"math"
	"slices"
)

// computeTightness evaluates equation (4) for a completely mapped string k:
// the total no-sharing time for one data set to be processed by the string,
// divided by its end-to-end latency constraint.
func (a *Allocation) computeTightness(k int) float64 {
	s := &a.sys.Strings[k]
	total := 0.0
	for i := range s.Apps {
		m := a.machineOf[k][i]
		total += s.Apps[i].NominalTime[m]
		if i < len(s.Apps)-1 {
			total += a.sys.RouteTransferSeconds(s.Apps[i].OutputKB, m, a.machineOf[k][i+1])
		}
	}
	return total / s.MaxLatency
}

// Tightness returns the relative tightness T[k] (equation (4)) of string k.
// It panics if the string is not completely mapped, because equation (4)
// needs a machine for every application.
func (a *Allocation) Tightness(k int) float64 {
	if !a.Complete(k) {
		panic(fmt.Sprintf("feasibility: tightness of incompletely mapped string %d", k))
	}
	return a.tightness[k]
}

// tighter reports whether a string of tightness tz and ID z has strictly
// higher execution priority than one of tightness tk and ID k under the local
// scheduling policy of Section 3: higher relative tightness wins. The paper
// assumes distinct T values "without loss of generality"; randomly generated
// workloads satisfy that almost surely, and exact ties are broken
// deterministically by string ID so priorities stay a strict total order. An
// incomplete string's NaN tightness ranks above nothing.
func tighter(tz float64, z int, tk float64, k int) bool {
	if tz != tk {
		return tz > tk
	}
	return z < k
}

// waitAhead sums, in roster order, the waiting terms of the roster's entries
// whose string has strictly higher priority than string k: the bracketed sum
// of equation (5) on a machine roster and of equation (6) on a route roster.
// Only completely mapped strings contribute, since a string's priority is
// defined by its (allocation-dependent) tightness; tighter leaves incomplete
// ones out without a Complete test. It walks the whole roster and relies on
// no order: the full analysis's oracle for the prefix sums (headPre).
func (a *Allocation) waitAhead(k int, roster []rosterEntry) float64 {
	tk := a.tightness[k]
	sum := 0.0
	for idx := range roster {
		e := &roster[idx]
		if e.k != k && tighter(a.tightness[e.k], e.k, tk, k) {
			sum += e.wait
		}
	}
	return sum
}

// EstimatedCompTime returns t_comp^k[i] (equation (5)): the nominal execution
// time of application i of string k on its assigned machine, plus the average
// waiting time induced by applications of tighter strings sharing that
// machine. Panics if string k is not completely mapped.
func (a *Allocation) EstimatedCompTime(k, i int) float64 {
	if !a.Complete(k) {
		panic(fmt.Sprintf("feasibility: estimated computation time of incompletely mapped string %d", k))
	}
	s := &a.sys.Strings[k]
	m := a.machineOf[k][i]
	return s.Apps[i].NominalTime[m] + s.Period*a.waitAhead(k, a.perMachine[m])
}

// EstimatedTranTime returns t_tran^k[i] (equation (6)): the nominal time to
// transfer the output of application i of string k to its successor, plus
// the average waiting time induced by transfers of tighter strings sharing
// the same communication route. Intra-machine transfers take zero time.
// Panics if string k is not completely mapped.
func (a *Allocation) EstimatedTranTime(k, i int) float64 {
	if !a.Complete(k) {
		panic(fmt.Sprintf("feasibility: estimated transfer time of incompletely mapped string %d", k))
	}
	s := &a.sys.Strings[k]
	j1, j2 := a.machineOf[k][i], a.machineOf[k][i+1]
	if j1 == j2 {
		return 0
	}
	t := a.sys.RouteTransferSeconds(s.Apps[i].OutputKB, j1, j2)
	return t + s.Period*a.waitAhead(k, a.routeRoster(j1, j2))
}

// Violation kinds: the three ways a string can fail equation (1).
const (
	KindThroughputComp = "throughput-comp"
	KindThroughputTran = "throughput-tran"
	KindLatency        = "latency"
)

// Violation describes why a string fails its QoS constraints (equation (1)).
type Violation struct {
	StringID int
	// Kind is KindThroughputComp, KindThroughputTran, or KindLatency.
	Kind string
	// App is the offending application index for throughput violations
	// (the producing application for transfer violations); -1 for latency.
	App int
	// Value and Bound are the measured quantity and its limit, in seconds.
	Value, Bound float64
}

func (v Violation) Error() string {
	switch v.Kind {
	case KindLatency:
		return fmt.Sprintf("string %d: end-to-end latency %.4gs exceeds Lmax %.4gs", v.StringID, v.Value, v.Bound)
	case KindThroughputTran:
		return fmt.Sprintf("string %d: transfer after application %d takes %.4gs, exceeds period %.4gs", v.StringID, v.App, v.Value, v.Bound)
	case KindThroughputComp:
		return fmt.Sprintf("string %d: application %d computation %.4gs exceeds period %.4gs", v.StringID, v.App, v.Value, v.Bound)
	default:
		return fmt.Sprintf("string %d: unknown violation kind %q (app %d, value %.4g, bound %.4g)", v.StringID, v.Kind, v.App, v.Value, v.Bound)
	}
}

// StringLatency returns the estimated end-to-end latency of string k under
// the current allocation: the left side of the third constraint of equation
// (1). Panics if string k is not completely mapped.
func (a *Allocation) StringLatency(k int) float64 {
	s := &a.sys.Strings[k]
	n := len(s.Apps)
	total := a.EstimatedCompTime(k, n-1)
	for i := 0; i < n-1; i++ {
		total += a.EstimatedCompTime(k, i) + a.EstimatedTranTime(k, i)
	}
	return total
}

// CheckString verifies the throughput and end-to-end latency constraints of
// equation (1) for completely mapped string k, returning the first violation
// found or nil. Panics if string k is not completely mapped.
func (a *Allocation) CheckString(k int) *Violation {
	if !a.Complete(k) {
		panic(fmt.Sprintf("feasibility: equation (1) check of incompletely mapped string %d", k))
	}
	a.tel.checks.Inc()
	v, _ := a.checkString(k, false)
	if v != nil {
		a.tel.countViolation(v.Kind)
	}
	return v
}

// checkString is equation (1) for completely mapped string k, the one place
// its three comparisons are made. With prefix, each waiting sum is read off
// the roster, the pre of k's first entry on it (headPre) — bit-equal to
// waitAhead by canonical order; that is how a DeltaAnalyzer calls it. The full
// analysis adds every roster up here with waitAhead, relying on no order, and
// stays the oracle. The estimates are EstimatedCompTime's and
// EstimatedTranTime's expressions term for term, so a target that fuses
// multiply-adds rounds all of them alike.
//
// When k passes, budget is how far every waiting sum k reads may rise before
// an inequality fails, in waiting-sum units: the least of (P(1+ε) − t)/P over
// its computation and inter-machine transfer terms t, and (L(1+ε) −
// latency)/(P·c), c the number of those terms. It is 0 when k fails.
func (a *Allocation) checkString(k int, prefix bool) (v *Violation, budget float64) {
	s := &a.sys.Strings[k]
	mo := a.machineOf[k]
	n := len(mo)
	latency, maxTerm, terms := 0.0, 0.0, 0
	for i, m := range mo {
		var wait float64
		if prefix {
			wait = headPre(a.perMachine[m], int(a.posM[k][i].idx))
		} else {
			wait = a.waitAhead(k, a.perMachine[m])
		}
		tc := s.Apps[i].NominalTime[m] + s.Period*wait
		if tc > s.Period*(1+utilEps) {
			return &Violation{StringID: k, Kind: KindThroughputComp, App: i, Value: tc, Bound: s.Period}, 0
		}
		latency += tc
		maxTerm = max(maxTerm, tc)
		terms++
		if i < n-1 {
			tt := 0.0
			if next := mo[i+1]; next != m {
				if prefix {
					e, p := a.outRoute(k, i, m, next)
					wait = headPre(e.apps, p)
				} else {
					wait = a.waitAhead(k, a.routeRoster(m, next))
				}
				t := a.sys.RouteTransferSeconds(s.Apps[i].OutputKB, m, next)
				tt = t + s.Period*wait
				maxTerm = max(maxTerm, tt)
				terms++
			}
			if tt > s.Period*(1+utilEps) {
				return &Violation{StringID: k, Kind: KindThroughputTran, App: i, Value: tt, Bound: s.Period}, 0
			}
			latency += tt
		}
	}
	if latency > s.MaxLatency*(1+utilEps) {
		return &Violation{StringID: k, Kind: KindLatency, App: -1, Value: latency, Bound: s.MaxLatency}, 0
	}
	return nil, min((s.Period*(1+utilEps)-maxTerm)/s.Period, (s.MaxLatency*(1+utilEps)-latency)/(s.Period*float64(terms)))
}

// Stage1Feasible runs the first-stage analysis of Section 3: every machine
// and every communication route must have overall utilization no larger than
// one. Routes with no transfers have exactly zero utilization and no
// adjacency entry, so the scan is O(M + active) instead of O(M^2).
func (a *Allocation) Stage1Feasible() bool {
	for j := 0; j < a.sys.Machines; j++ {
		if overCapacity(a.machineUtil[j]) {
			return false
		}
	}
	for _, adj := range a.adj {
		for _, r := range adj {
			if overCapacity(a.routes[r.slot].util) {
				return false
			}
		}
	}
	return true
}

// Stage2Feasible runs the second-stage analysis of Section 3 over every
// completely mapped string: the sharing-aware time estimates of equations (5)
// and (6) must satisfy the QoS constraints of equation (1).
func (a *Allocation) Stage2Feasible() bool {
	for k := range a.sys.Strings {
		if a.Complete(k) && a.CheckString(k) != nil {
			return false
		}
	}
	return true
}

// TwoStageFeasible runs both stages on the current mapping.
func (a *Allocation) TwoStageFeasible() bool {
	return a.Stage1Feasible() && a.Stage2Feasible()
}

// Violations collects every constraint violation over completely mapped
// strings, for diagnostics; an empty slice means stage 2 passes.
func (a *Allocation) Violations() []Violation {
	var out []Violation
	for k := range a.sys.Strings {
		if a.Complete(k) {
			if v := a.CheckString(k); v != nil {
				out = append(out, *v)
			}
		}
	}
	return out
}

// Slackness returns Λ (equation (7)): the minimum remaining utilization
// capacity across all machines and all inter-machine communication routes.
// It quantifies the system's potential to absorb unpredictable increases in
// input workload. An empty system has slackness 1.
//
// Λ is kept, not walked: every utilization write updates the maximum
// utilization and its holder (noteUtil), and only a read that finds them stale
// walks the machines and the active routes (a route with no transfers has
// slack exactly 1 and is not stored). 1 − maxU is the walk's minimum over
// 1 − u bit for bit: u ↦ fl(1 − u) is monotone non-increasing under
// round-to-nearest, so the least rounded slack is the rounding of 1 minus the
// greatest u, and 1 − u is never −0. Every utilization is a sum of
// non-negative terms from +0, so maxU is at least +0 and the walk's start at
// 1 needs no min.
func (a *Allocation) Slackness() float64 {
	return 1 - a.current().maxU
}

// Metric is the two-component performance measure of Section 4: total worth
// of the feasibly allocated strings (primary) and system slackness
// (secondary).
type Metric struct {
	Worth     float64
	Slackness float64
}

// metricEps is the tolerance for comparing accumulated worth and slackness
// sums. Totals that differ only by float64 accumulation-order noise (e.g.
// worth folded in different orders by different worker counts) must compare
// equal, or tie-breaks flip between runs that are semantically identical.
const metricEps = 1e-9

// AlmostEqual reports whether two accumulated float64 quantities (worth
// sums, utilizations, worth-per-utilization ratios) are equal within the
// metric tolerance, absolutely for small magnitudes and relatively for large
// ones. Comparisons that rank allocations or pick victims must use this plus
// a deterministic ID tie-break instead of exact float comparison.
func AlmostEqual(a, b float64) bool {
	d := math.Abs(a - b)
	if d <= metricEps {
		return true
	}
	return d <= metricEps*math.Max(math.Abs(a), math.Abs(b))
}

// Better reports whether m beats other lexicographically: higher worth wins;
// worth equal within tolerance falls through to higher slackness. Exact
// float comparison is deliberately avoided — see AlmostEqual.
func (m Metric) Better(other Metric) bool {
	if !AlmostEqual(m.Worth, other.Worth) {
		return m.Worth > other.Worth
	}
	if !AlmostEqual(m.Slackness, other.Slackness) {
		return m.Slackness > other.Slackness
	}
	return false
}

// Metric evaluates the allocation's performance over the completely mapped
// strings. Callers are responsible for only leaving strings mapped that
// passed the two-stage analysis (the heuristics guarantee this).
func (a *Allocation) Metric() Metric {
	worth := 0.0
	for k := range a.sys.Strings {
		if a.Complete(k) {
			worth += a.sys.Strings[k].Worth
		}
	}
	return Metric{Worth: worth, Slackness: a.Slackness()}
}

// checkInvariants recomputes all bookkeeping from scratch and compares it to
// the incremental state; used by tests. Every roster must be in canonical
// order with exact running sums and positions, and — since the order is a
// function of the mapping — hold the same entries in the same order as what
// assigning the same mapping into a fresh allocation builds, and every
// utilization, a roster total, must be the rebuild's bit for bit. The route
// arena must be sound (checkRoutes).
func (a *Allocation) checkInvariants() error {
	fresh := New(a.sys)
	for k := range a.machineOf {
		for i, j := range a.machineOf[k] {
			if j != Unassigned {
				fresh.Assign(k, i, j)
			}
		}
	}
	for k := range a.tightness {
		if fresh.Complete(k) != a.Complete(k) {
			return fmt.Errorf("string %d completeness drifted", k)
		}
		// The cached equation-(4) value must be exactly what computeTightness
		// yields for the current mapping — bit-identical, since the cache is
		// only ever written from computeTightness over the same machines. A
		// stale cache (e.g. surviving a partial re-mapping) corrupts every
		// subsequent tighter comparison. An incomplete string must hold NaN:
		// waitAhead and the analyzer's recheckSharers have no Complete test
		// and rely on NaN failing every comparison to leave it out.
		if a.Complete(k) {
			if want := a.computeTightness(k); math.Float64bits(a.tightness[k]) != math.Float64bits(want) {
				return fmt.Errorf("string %d cached tightness stale: cached %v, computeTightness %v", k, a.tightness[k], want)
			}
		} else if !math.IsNaN(a.tightness[k]) {
			return fmt.Errorf("string %d is incomplete but caches tightness %v (want NaN)", k, a.tightness[k])
		}
	}
	if err := a.checkRoutes(); err != nil {
		return err
	}
	// Every roster entry carries exactly the terms its catalog floats price
	// on the resource it sits on — bit-identical, since they are only ever
	// written from MachineDemandUtil/transferEntry. A stale term (floats
	// changed under a placed string) corrupts every lower-priority sharer's
	// estimate, or the resource's utilization.
	for j := range a.perMachine {
		for _, e := range a.perMachine[j] {
			if want := a.sys.MachineDemandUtil(e.k, e.i, j); math.Float64bits(e.wait) != math.Float64bits(want) {
				return fmt.Errorf("machine %d roster entry (%d,%d) carries waiting term %v, catalog prices %v", j, e.k, e.i, e.wait, want)
			}
		}
		for _, r := range a.adj[j] {
			for _, e := range a.routes[r.slot].apps {
				want := a.transferEntry(e.k, e.i, j, int(r.peer))
				if math.Float64bits(e.wait) != math.Float64bits(want.wait) || math.Float64bits(e.demand) != math.Float64bits(want.demand) {
					return fmt.Errorf("route (%d,%d) roster entry (%d,%d) carries terms %v/%v, catalog prices %v/%v", j, r.peer, e.k, e.i, e.wait, e.demand, want.wait, want.demand)
				}
			}
		}
	}
	for j := 0; j < a.sys.Machines; j++ {
		err := a.checkRoster(a.perMachine[j], a.posM, int32(j))
		if err == nil {
			err = sameAs(a.perMachine[j], a.machineUtil[j], fresh.perMachine[j], fresh.machineUtil[j])
		}
		if err != nil {
			return fmt.Errorf("machine %d: %w", j, err)
		}
		// Route state must agree in both directions: every incremental route
		// matches the fresh rebuild, and the rebuild activates no route the
		// incremental adjacency is missing.
		for _, r := range a.adj[j] {
			e, peer := &a.routes[r.slot], int(r.peer)
			if err := sameAs(e.apps, e.util, fresh.routeRoster(j, peer), fresh.RouteUtilization(j, peer)); err != nil {
				return fmt.Errorf("route (%d,%d): %w", j, peer, err)
			}
		}
		for _, r := range fresh.adj[j] {
			if _, ok := a.routeIndex(j, int(r.peer)); !ok {
				return fmt.Errorf("route (%d,%d) carries %d transfers but is missing from the incremental adjacency", j, r.peer, len(fresh.routes[r.slot].apps))
			}
		}
	}
	return a.checkBinding()
}

// checkRoutes checks the route state's structure. Each machine's adjacency is
// strictly ascending by peer (the search and canonical iteration depend on
// it), its peers valid and never self-loops; each ref names a slot whose entry
// has these endpoints and a non-empty roster — an emptied route must free its
// slot, which is how absent routes report exactly zero utilization — and that
// roster passes checkRoster with every entry's position naming this slot and
// its index. The live slots and the free list are disjoint and together cover
// the arena, every free slot with an empty roster.
func (a *Allocation) checkRoutes() error {
	const live, freed = 1, 2
	state := make([]int, len(a.routes))
	for j1, adj := range a.adj {
		prev := int32(-1)
		for _, r := range adj {
			if r.peer <= prev {
				return fmt.Errorf("machine %d adjacency out of order: peer %d after %d", j1, r.peer, prev)
			}
			prev = r.peer
			if int(r.peer) == j1 || int(r.peer) >= a.sys.Machines {
				return fmt.Errorf("machine %d adjacency holds invalid peer %d", j1, r.peer)
			}
			if r.slot < 0 || int(r.slot) >= len(a.routes) {
				return fmt.Errorf("route (%d,%d) names slot %d outside the arena of %d", j1, r.peer, r.slot, len(a.routes))
			}
			if state[r.slot] != 0 {
				return fmt.Errorf("route (%d,%d) names slot %d, already live", j1, r.peer, r.slot)
			}
			state[r.slot] = live
			e := &a.routes[r.slot]
			if int(e.from) != j1 || e.to != r.peer {
				return fmt.Errorf("route (%d,%d) names slot %d, which holds route (%d,%d)", j1, r.peer, r.slot, e.from, e.to)
			}
			if len(e.apps) == 0 {
				return fmt.Errorf("route (%d,%d) is active with an empty roster", j1, r.peer)
			}
			if err := a.checkRoster(e.apps, a.posR, r.slot); err != nil {
				return fmt.Errorf("route (%d,%d): %w", j1, r.peer, err)
			}
		}
	}
	for _, slot := range a.free {
		if slot < 0 || int(slot) >= len(a.routes) {
			return fmt.Errorf("free slot %d outside the arena of %d", slot, len(a.routes))
		}
		switch state[slot] {
		case live:
			return fmt.Errorf("slot %d is both live and free", slot)
		case freed:
			return fmt.Errorf("slot %d is on the free list twice", slot)
		}
		state[slot] = freed
		if n := len(a.routes[slot].apps); n != 0 {
			return fmt.Errorf("free slot %d holds a roster of %d", slot, n)
		}
	}
	if slot := slices.Index(state, 0); slot >= 0 {
		return fmt.Errorf("slot %d is neither live nor free", slot)
	}
	return nil
}

// checkRoster checks one roster: canonical order, and every entry's pre the
// in-order sum of the waits before it and its position the roster's slot and
// its index.
func (a *Allocation) checkRoster(roster []rosterEntry, pos [][]rosterPos, slot int32) error {
	if err := a.canonical(roster); err != nil {
		return err
	}
	run := 0.0
	for idx, e := range roster {
		if math.Float64bits(e.pre) != math.Float64bits(run) {
			return fmt.Errorf("entry (%d,%d) at %d carries pre %v, the in-order sum before it is %v", e.k, e.i, idx, e.pre, run)
		}
		run += e.wait
		if got := pos[e.k][e.i]; got != (rosterPos{slot, int32(idx)}) {
			return fmt.Errorf("entry (%d,%d) at %d of slot %d is recorded at %d of slot %d", e.k, e.i, idx, slot, got.idx, got.slot)
		}
	}
	return nil
}

// canonical reports the first adjacent pair of roster entries out of canonical
// order, as an error.
func (a *Allocation) canonical(roster []rosterEntry) error {
	for idx := 1; idx < len(roster); idx++ {
		if x, y := roster[idx-1].appRef, roster[idx].appRef; !a.ahead(x, y) {
			return fmt.Errorf("(%d,%d) is listed before (%d,%d), out of canonical order", x.k, x.i, y.k, y.i)
		}
	}
	return nil
}

// sameAs holds a roster to a fresh rebuild's — the same entries in the same
// order — and its utilization to the rebuild's by bits.
func sameAs(roster []rosterEntry, util float64, fresh []rosterEntry, freshUtil float64) error {
	if !slices.EqualFunc(roster, fresh, func(x, y rosterEntry) bool { return x.appRef == y.appRef }) {
		return fmt.Errorf("roster %v, a fresh rebuild's %v", roster, fresh)
	}
	if math.Float64bits(freshUtil) != math.Float64bits(util) {
		return fmt.Errorf("utilization %v, a fresh rebuild's %v", util, freshUtil)
	}
	return nil
}

// checkBinding holds the kept binding resource to the walk: unless stale, its
// maximum and holder are walkBinding's.
func (a *Allocation) checkBinding() error {
	if walk := a.walkBinding(); !a.bind.stale && a.bind != walk {
		return fmt.Errorf("kept binding resource %v at utilization %v, the walk finds %v at %v", a.bind.res, a.bind.maxU, walk.res, walk.maxU)
	}
	return nil
}

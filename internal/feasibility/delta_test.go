package feasibility

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// applyRandomDelta applies 1..4 random primitive mutations to a tracked
// allocation: single-app toggles plus occasional whole-string assigns and
// unassigns, so every tracked entry point is exercised. The prefix sums and
// the kept binding resource are audited after each, inside the window: the
// dynamicreallocation example's Rebalance and the overload controller read Λ
// there, and every evaluation reads the sums.
func applyRandomDelta(tb testing.TB, r *rand.Rand, a *Allocation) {
	tb.Helper()
	sys := a.System()
	for op, nOps := 0, 1+r.Intn(4); op < nOps; op++ {
		k := r.Intn(len(sys.Strings))
		switch {
		case r.Intn(6) == 0 && a.nAssigned[k] == len(sys.Strings[k].Apps):
			a.UnassignString(k)
		case r.Intn(6) == 0 && a.nAssigned[k] == 0:
			machines := make([]int, len(sys.Strings[k].Apps))
			for i := range machines {
				machines[i] = r.Intn(sys.Machines)
			}
			a.AssignString(k, machines)
		default:
			i := r.Intn(len(sys.Strings[k].Apps))
			if a.Machine(k, i) != Unassigned {
				a.Unassign(k, i)
			} else {
				a.Assign(k, i, r.Intn(sys.Machines))
			}
		}
		if err := auditPrefix(a); err != nil {
			tb.Fatalf("inside the window: %v", err)
		}
		if err := auditSlackness(a); err != nil {
			tb.Fatalf("inside the window: %v", err)
		}
	}
}

// checkSettled asserts what must hold after every Commit, Undo and Reset: the
// window is clean, its answers — served from the committed sets, not from
// a recheck — equal the full analysis, violation list included, every prefix
// sum the next window will read is exact (auditPrefix), and so are the
// analyzer's count of committed overloads (auditOver) and the allocation's
// kept binding resource of Λ (auditSlackness).
func checkSettled(t *testing.T, label string, da *DeltaAnalyzer) {
	t.Helper()
	if s, m, r := da.Dirty(); s != 0 || m != 0 || r != 0 {
		t.Fatalf("%s: settled window still dirty: %d strings, %d machines, %d routes", label, s, m, r)
	}
	if got, want := da.CommittedFeasible(), da.Allocation().TwoStageFeasible(); got != want {
		t.Fatalf("%s: CommittedFeasible %v, TwoStageFeasible %v", label, got, want)
	}
	queryWindow(t, label+" (clean)", da, true, true)
	if err := auditPrefix(da.Allocation()); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	auditOver(t, label, da)
	auditBudgets(t, label, da)
	if err := auditSlackness(da.Allocation()); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// overAudit tallies what auditOver has seen in this process: the analyzer it
// audited last with that settle's count (an analyzer's settles are consecutive;
// a new one is taken to start from none), and how often a settle took an
// analyzer from no committed overload to some and back. A stream that never
// commits an overloaded state audits the count only at zero.
var overAudit struct {
	da            *DeltaAnalyzer
	last          int
	entered, left int
	routes        int // settles with a route among the overloads
}

// auditOver asserts the analyzer's count of committed over-capacity resources
// is what counting them from scratch — every machine, every active route —
// gives for the settled state.
func auditOver(t *testing.T, label string, da *DeltaAnalyzer) {
	t.Helper()
	a := da.Allocation()
	want := 0
	for j := 0; j < a.sys.Machines; j++ {
		want += overCount(a.MachineUtilization(j))
	}
	machines := want
	a.ActiveRoutes(func(_, _ int, u float64) { want += overCount(u) })
	if want > machines {
		overAudit.routes++
	}
	if da.nOver != want {
		t.Fatalf("%s: analyzer counts %d committed overloads, the settled state has %d", label, da.nOver, want)
	}
	if overAudit.da != da {
		overAudit.da, overAudit.last = da, 0
	}
	switch was := overAudit.last; {
	case was == 0 && want > 0:
		overAudit.entered++
	case was > 0 && want == 0:
		overAudit.left++
	}
	overAudit.last = want
}

// auditPrefix is what makes "bit-identical" a test for the sums the analyzer
// reads: every roster is in canonical order with every entry at its recorded
// position — a route roster's entries naming its slot, the route arena sound
// (checkRoutes) — and for every complete string the prefix sum headPre reads
// on each of its machine and route rosters equals, by math.Float64bits,
// waitAhead over the roster as it stands — the oracle, which relies on no
// order.
func auditPrefix(a *Allocation) error {
	for j := range a.perMachine {
		if err := a.checkRoster(a.perMachine[j], a.posM, int32(j)); err != nil {
			return fmt.Errorf("machine %d: %w", j, err)
		}
	}
	if err := a.checkRoutes(); err != nil {
		return err
	}
	for k, mo := range a.machineOf {
		if !a.Complete(k) {
			continue
		}
		for i, m := range mo {
			roster, p, what := a.perMachine[m], int(a.posM[k][i].idx), "machine"
			if got, want := headPre(roster, p), a.waitAhead(k, roster); math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Errorf("string %d application %d reads %s sum %v, waitAhead over the roster is %v", k, i, what, got, want)
			}
			if i+1 == len(mo) || mo[i+1] == m {
				continue
			}
			roster, p, what = a.routeRoster(m, mo[i+1]), int(a.posR[k][i].idx), "route"
			if got, want := headPre(roster, p), a.waitAhead(k, roster); math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Errorf("string %d application %d reads %s sum %v, waitAhead over the roster is %v", k, i, what, got, want)
			}
		}
	}
	return nil
}

// auditMemo asserts every verdict the analyzer holds for the current
// generation is what a fresh checkString returns now: a verdict that outlived
// the state it judged would show here, and so would a string the slack rule
// passed without a check that fails. The margin a verdict leaves may not
// exceed the string's fresh budget.
func auditMemo(t *testing.T, label string, da *DeltaAnalyzer) {
	t.Helper()
	a := da.Allocation()
	for k := range da.memo {
		m := &da.memo[k]
		if m.at != da.gen {
			continue
		}
		var fresh *Violation
		budget := 0.0
		if a.Complete(k) {
			fresh, budget = a.checkString(k, false)
		}
		if !reflect.DeepEqual(m.verdict, fresh) {
			t.Fatalf("%s: memoised verdict for string %d is %v, checkString now says %v", label, k, m.verdict, fresh)
		}
		if m.margin > budget+budgetSlop {
			t.Fatalf("%s: string %d holds margin %v, its fresh budget is %v", label, k, m.margin, budget)
		}
	}
}

// budgetSlop is how far a budget the analyzer keeps may sit above a fresh
// one and still count as a lower bound: the rounding of the sums both are
// read from, far under slackMargin.
const budgetSlop = 1e-12

// auditBudgets asserts, on a settled analyzer, that every complete string's
// committed budget is a lower bound on its fresh one: a budget is only ever
// taken from a passing check, and a Commit that let a window raise a string's
// waiting sums without decaying its budget would leave it above. An
// incomplete string's budget is never read.
func auditBudgets(t *testing.T, label string, da *DeltaAnalyzer) {
	t.Helper()
	a := da.Allocation()
	for k := range da.memo {
		b := da.memo[k].budget
		if b == 0 || !a.Complete(k) {
			continue
		}
		if v, fresh := a.checkString(k, false); v != nil || b > fresh+budgetSlop {
			t.Fatalf("%s: string %d holds budget %v, its fresh budget is %v (verdict %v)", label, k, b, fresh, v)
		}
	}
}

// queryWindow asks the window the drawn questions and checks each
// answer against the full analysis of the same state. The callers of the
// analyzer differ in exactly this: service remove asks nothing before Commit,
// admit asks FeasibleAfterDelta and only on rejection ViolationsAfterDelta,
// the repair controllers ask either or both.
func queryWindow(t *testing.T, label string, da *DeltaAnalyzer, feasible, violations bool) {
	t.Helper()
	a := da.Allocation()
	if feasible {
		if got, want := da.FeasibleAfterDelta(), a.TwoStageFeasible(); got != want {
			t.Fatalf("%s: FeasibleAfterDelta %v, TwoStageFeasible %v", label, got, want)
		}
	}
	if violations {
		if got, want := da.ViolationsAfterDelta(), a.Violations(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ViolationsAfterDelta %v, Violations %v", label, got, want)
		}
	}
	auditMemo(t, label, da)
}

// runDeltaEquivalence drives randomized delta windows over a tracked
// allocation and asserts that every answer the analyzer gives equals the full
// two-stage analysis of the same state. The call pattern is drawn per window —
// which questions are asked before the window settles, whether the window is
// mutated again after it was asked, an occasional Reset — because the verdict
// memo makes the patterns different code paths: a Commit that follows an
// evaluation folds remembered verdicts, one that does not computes its own,
// and one that follows an evaluation of an *earlier* state must not use it.
func runDeltaEquivalence(t *testing.T, label string, sys *model.System, r *rand.Rand, steps int) {
	t.Helper()
	a := New(sys)
	da := Track(a)
	defer da.Close()
	for step := 0; step < steps; step++ {
		label := fmt.Sprintf("%s step %d", label, step)
		before := fingerprint(t, a)
		applyRandomDelta(t, r, a)
		pattern := r.Intn(6)
		switch pattern {
		case 0: // no question before settling
		case 1:
			queryWindow(t, label, da, true, false)
		case 2:
			queryWindow(t, label, da, false, true)
		case 3:
			queryWindow(t, label, da, true, true)
		case 4: // ask, mutate again, settle without re-asking
			queryWindow(t, label, da, r.Intn(2) == 0, true)
			applyRandomDelta(t, r, a)
		case 5: // ask, mutate again, ask again
			queryWindow(t, label, da, true, r.Intn(2) == 0)
			applyRandomDelta(t, r, a)
			queryWindow(t, label+" (re-asked)", da, true, true)
		}
		switch r.Intn(16) {
		case 0, 1, 2, 3:
			da.Undo()
			if got := fingerprint(t, a); !bytes.Equal(got, before) {
				t.Fatalf("%s: Undo left\n%s\nwant the committed\n%s", label, got, before)
			}
		case 4:
			a.Reset()
		case 5:
			// Commit by full scan, mid-history: what Track does on the loaded
			// allocation a repair controller hands it.
			da.Rebase()
		default:
			// Including infeasible windows: the repair controllers commit
			// first and ask the clean window afterwards.
			da.Commit()
		}
		checkSettled(t, fmt.Sprintf("%s pattern %d", label, pattern), da)
	}
	if err := a.checkInvariants(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// tightenLatency shrinks every string's latency bound to between a fifth and
// three fifths of what randomSystem drew. As drawn, the bounds are so loose
// that no mapping of these small systems ever violates equation (1) and only
// stage 1 decides; tightened, a window's outcome rides on the waiting terms.
func tightenLatency(r *rand.Rand, sys *model.System) {
	for k := range sys.Strings {
		sys.Strings[k].MaxLatency *= 0.2 + 0.4*r.Float64()
	}
}

// Property: after arbitrary randomized delta sequences — committed or undone
// at random, applied on top of feasible and infeasible states alike — the
// delta analyzer's answers equal the full analysis. Odd trials run on
// latency-tightened systems, where stage 2 decides; the last ten on heated
// ones (heatUp), where a few applications fill a machine or a route and stage 1
// does. Streams are keyed so failures reproduce exactly.
func TestDeltaEquivalenceProperty(t *testing.T) {
	entered0, left0, routes0 := overAudit.entered, overAudit.left, overAudit.routes
	for trial := 0; trial < 40; trial++ {
		r := rng.NewRand(int64(trial), rng.SubsystemDelta, 0)
		sys := randomSystem(r, 2+r.Intn(4), 2+r.Intn(6), 4)
		if trial%2 == 1 {
			tightenLatency(r, sys)
		}
		if trial >= 30 {
			heatUp(sys, 3, 40)
		}
		runDeltaEquivalence(t, fmt.Sprintf("trial %d", trial), sys, r, 60)
	}
	// The repair controllers commit over-capacity states and work them off
	// window by window; the streams must have done both, or the committed
	// overload count was only ever audited at zero.
	entered, left, routes := overAudit.entered-entered0, overAudit.left-left0, overAudit.routes-routes0
	if entered < 10 || left < 10 || routes < 10 {
		t.Fatalf("the streams committed an over-capacity state %d times, worked one off %d times and settled on an over-capacity route %d times; want at least 10 of each", entered, left, routes)
	}
}

// scaleDemand multiplies string k's demand floats by g the way a service
// rescale does (nominal times and output sizes) and returns the old values
// for restoreDemand.
func scaleDemand(s *model.AppString, g float64) (old []float64) {
	for i := range s.Apps {
		app := &s.Apps[i]
		old = append(old, app.OutputKB)
		old = append(old, app.NominalTime...)
		app.OutputKB *= g
		for j := range app.NominalTime {
			app.NominalTime[j] *= g
		}
	}
	return old
}

// restoreDemand puts back, bit for bit, the floats scaleDemand returned.
func restoreDemand(s *model.AppString, old []float64) {
	for i := range s.Apps {
		app := &s.Apps[i]
		app.OutputKB = old[0]
		copy(app.NominalTime, old[1:])
		old = old[1+len(app.NominalTime):]
	}
}

// The audit behind the frozen-floats contract: a float moved under a placed
// application leaves its roster entry carrying a term the catalog no longer
// prices, and checkInvariants says so even when the move is a few ulps.
// NominalUtil is the one float only the term (and the machine's utilization,
// its roster's total, audited after the terms) depends on, which isolates the
// term audit.
func TestCheckInvariantsCatchesStaleTerm(t *testing.T) {
	r := rng.NewRand(3, rng.SubsystemDelta, 6)
	sys := randomSystem(r, 3, 2, 3)
	a := New(sys)
	for k := range sys.Strings {
		for i := range sys.Strings[k].Apps {
			a.Assign(k, i, (k+i)%sys.Machines)
		}
	}
	if err := a.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	u := &sys.Strings[0].Apps[0].NominalUtil[a.Machine(0, 0)]
	old := *u
	*u *= 1 + 1e-9
	if err := a.checkInvariants(); err == nil || !strings.Contains(err.Error(), "waiting term") {
		t.Fatalf("checkInvariants = %v, want a stale waiting term reported", err)
	}
	*u = old
	if err := a.checkInvariants(); err != nil {
		t.Fatalf("after restoring the float: %v", err)
	}
}

// rescaleWindow is the one window in which catalog floats move under a
// tracked allocation (service rescale): string k leaves every roster, its
// demand floats change, it is placed again, the window is judged, and either
// it commits or the floats go back and Undo restores the pre-window state bit
// for bit. The memo never sees the float change itself — only the generation
// bumps of the Unassign before and the Assign after it — so a verdict from
// before the window, or a waiting term priced at the old scale, surviving
// into the judgement is exactly what this would catch.
func rescaleWindow(t *testing.T, label string, r *rand.Rand, da *DeltaAnalyzer, k int, machines []int) {
	t.Helper()
	a := da.Allocation()
	s := &a.System().Strings[k]
	before := fingerprint(t, a)
	if r.Intn(2) == 0 {
		queryWindow(t, label+" (before)", da, true, true) // verdicts the window must not reuse
	}
	a.UnassignString(k)
	old := scaleDemand(s, 0.25+2.75*r.Float64())
	a.AssignString(k, machines)
	queryWindow(t, label, da, true, r.Intn(2) == 0)
	if da.FeasibleAfterDelta() && r.Intn(4) != 0 {
		da.Commit()
	} else {
		restoreDemand(s, old)
		da.Undo()
		if got := fingerprint(t, a); !bytes.Equal(got, before) {
			t.Fatalf("%s: state after the rejected rescale differs from the pre-window one:\ngot:\n%s\nwant:\n%s", label, got, before)
		}
	}
	checkSettled(t, label, da)
	if err := a.checkInvariants(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// Property: the rescale-shaped window stays equal to the full analysis, rolls
// back bit-identically, and leaves every roster entry carrying the term its
// current floats price (checkInvariants), interleaved with ordinary windows.
func TestDeltaRescaleWindowProperty(t *testing.T) {
	for trial := 0; trial < 15; trial++ {
		r := rng.NewRand(int64(trial), rng.SubsystemDelta, 5)
		sys := randomSystem(r, 2+r.Intn(4), 3+r.Intn(5), 4)
		a := New(sys)
		da := Track(a)
		for step := 0; step < 60; step++ {
			label := fmt.Sprintf("trial %d step %d", trial, step)
			k := r.Intn(len(sys.Strings))
			if !a.Complete(k) {
				// Ordinary admit-shaped window: place it, keep it if feasible.
				a.UnassignString(k)
				for i := range sys.Strings[k].Apps {
					a.Assign(k, i, r.Intn(sys.Machines))
				}
				if da.FeasibleAfterDelta() {
					da.Commit()
				} else {
					da.Undo()
				}
				checkSettled(t, label, da)
				continue
			}
			machines := a.StringMachines(k)
			if r.Intn(2) == 0 {
				for i := range machines {
					machines[i] = r.Intn(sys.Machines)
				}
			}
			rescaleWindow(t, label, r, da, k, machines)
		}
		da.Close()
	}
}

// auditBaseViol asserts the analyzer's committed violation set is exactly the
// strings the full analysis finds failing equation (1) in the settled state:
// checkSettled's FeasibleAfterDelta cannot tell a stale member from a real one
// while another string still violates.
func auditBaseViol(t *testing.T, label string, da *DeltaAnalyzer) {
	t.Helper()
	want := map[int]bool{}
	for _, v := range da.Allocation().Violations() {
		want[v.StringID] = true
	}
	if !maps.Equal(da.baseViol, want) {
		t.Fatalf("%s: committed violation set %v, the settled state violates %v", label, da.baseViol, want)
	}
}

// removalWindow applies 1..3 removals to a tracked allocation — whole
// UnassignStrings and single Unassigns, each on a committed violator half the
// time — and returns the strings it touched.
func removalWindow(r *rand.Rand, a *Allocation, violators []int) map[int]bool {
	sys := a.System()
	touched := map[int]bool{}
	for op, nOps := 0, 1+r.Intn(3); op < nOps; op++ {
		k := r.Intn(len(sys.Strings))
		if len(violators) > 0 && r.Intn(2) == 0 {
			k = violators[r.Intn(len(violators))]
		}
		if a.nAssigned[k] == 0 {
			continue
		}
		touched[k] = true
		if r.Intn(2) == 0 {
			a.UnassignString(k)
			continue
		}
		for {
			if i := r.Intn(len(sys.Strings[k].Apps)); a.Machine(k, i) != Unassigned {
				a.Unassign(k, i)
				break
			}
		}
	}
	return touched
}

// Property: a window that only removes — the windows that recheck only
// committed violators — answers FeasibleAfterDelta, ViolationsAfterDelta and
// Commit as the full analysis does, on committed states that violate. The
// systems are latency-tightened, every third one heated as well (heatUp), and
// each removal window is drawn on a state a random fill committed regardless
// of its verdict. The streams must cure committed violators both ways: by
// lifting a sharer off them (an untouched violator passes after the window)
// and by removing them (a touched violator leaves the committed set).
func TestRemovalWindowProperty(t *testing.T) {
	var windows, curedUntouched, removedViolators int
	for trial := 0; trial < 30; trial++ {
		r := rng.NewRand(int64(trial), rng.SubsystemDelta, 8)
		sys := randomSystem(r, 2+r.Intn(4), 3+r.Intn(6), 4)
		tightenLatency(r, sys)
		if trial%3 == 2 {
			heatUp(sys, 3, 40)
		}
		a := New(sys)
		da := Track(a)
		for step := 0; step < 80; step++ {
			label := fmt.Sprintf("trial %d step %d", trial, step)
			if len(da.baseViol) == 0 || r.Intn(3) == 0 {
				// Fill: place a few applications and commit whatever results.
				for n := 1 + r.Intn(4); n > 0; n-- {
					k := r.Intn(len(sys.Strings))
					if i := r.Intn(len(sys.Strings[k].Apps)); a.Machine(k, i) == Unassigned {
						a.Assign(k, i, r.Intn(sys.Machines))
					}
				}
				da.Commit()
				checkSettled(t, label+" fill", da)
				auditBaseViol(t, label+" fill", da)
				continue
			}
			windows++
			var violators []int
			for k := range da.baseViol {
				violators = append(violators, k)
			}
			slices.Sort(violators)
			touched := removalWindow(r, a, violators)
			if da.assigned {
				t.Fatalf("%s: a window of removals holds the assigned bit", label)
			}
			switch r.Intn(4) {
			case 0: // Commit with no evaluation, as a service remove does
			case 1:
				queryWindow(t, label, da, true, false)
			case 2:
				queryWindow(t, label, da, false, true)
			default:
				queryWindow(t, label, da, true, true)
			}
			da.Commit()
			checkSettled(t, label, da)
			auditBaseViol(t, label, da)
			for _, k := range violators {
				switch {
				case da.baseViol[k]:
				case touched[k]:
					removedViolators++
				default:
					curedUntouched++
				}
			}
		}
		if err := a.checkInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		da.Close()
	}
	t.Logf("%d removal windows on violating states: %d untouched violators cured, %d violators removed", windows, curedUntouched, removedViolators)
	if curedUntouched < 10 || removedViolators < 10 {
		t.Fatalf("the streams cured %d untouched violators and removed %d over %d removal windows; want at least 10 of each", curedUntouched, removedViolators, windows)
	}
}

// leastLoaded places every application of string k on the machine it loads
// least — a stand-in for the IMR, which this package cannot import.
func leastLoaded(a *Allocation, k int) []int {
	machines := make([]int, len(a.System().Strings[k].Apps))
	for i := range machines {
		best := 0
		for j := 1; j < a.System().Machines; j++ {
			if a.MachineUtilizationIf(j, k, i) < a.MachineUtilizationIf(best, k, i) {
				best = j
			}
		}
		machines[i] = best
		a.Assign(k, i, best)
	}
	return machines
}

// loadedScenario1 maps scenario 1 (12 machines, 150 strings, highly loaded)
// string by string, keeping every feasible placement: the state a serving
// daemon or a PSG decode sits in, with machine rosters tens of entries long.
func loadedScenario1(tb testing.TB) (*Allocation, *DeltaAnalyzer) {
	tb.Helper()
	sys := workload.MustGenerate(workload.ScenarioConfig(workload.HighlyLoaded), 1)
	a := New(sys)
	da := Track(a)
	for k := range sys.Strings {
		leastLoaded(a, k)
		if da.FeasibleAfterDelta() {
			da.Commit()
		} else {
			da.Undo()
		}
	}
	if n := a.NumComplete(); n < 40 {
		tb.Fatalf("scenario 1 loaded only %d strings; the state is not paper-scale", n)
	}
	return a, da
}

// paperScaleRuns numbers TestDeltaEquivalencePaperScale's invocations in this
// process: run n draws its windows from the keyed stream (1, feasibility/delta,
// 100 + n), so the per-push suite always draws stream 100 and -count=N (the
// nightly job) draws N distinct, reproducible ones.
var paperScaleRuns int64

// Property at paper scale: 2 000 admit-, remove- and rescale-shaped windows on
// the loaded scenario-1 state, delta equal to full at every step. The random
// systems above top out at 5 machines x 7 strings x 4 applications; this is
// where a roster is 30 entries long and a recheck set a dozen strings. A
// remove on a committed state with no violation and no overload runs no
// checkString.
func TestDeltaEquivalencePaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale delta equivalence skipped in -short mode")
	}
	prev := telemetry.Active()
	telemetry.Enable()
	defer telemetry.EnableRegistry(prev)
	stream := 100 + paperScaleRuns
	paperScaleRuns++
	r := rng.NewRand(1, rng.SubsystemDelta, stream)
	a, da := loadedScenario1(t)
	defer da.Close()
	sys := a.System()
	var admits, removes, rescales, rejected int
	for step := 0; step < 2000; step++ {
		label := fmt.Sprintf("step %d", step)
		k := r.Intn(len(sys.Strings))
		switch {
		case !a.Complete(k): // admit
			admits++
			before := fingerprint(t, a)
			leastLoaded(a, k)
			queryWindow(t, label+" admit", da, true, false)
			if da.FeasibleAfterDelta() {
				da.Commit()
			} else {
				rejected++
				queryWindow(t, label+" admit rejected", da, false, true)
				da.Undo()
				if got := fingerprint(t, a); !bytes.Equal(got, before) {
					t.Fatalf("%s: the rejected admit's Undo left another state", label)
				}
			}
			checkSettled(t, label+" admit", da)
		case r.Intn(2) == 0: // remove: Commit with no evaluation
			removes++
			feasible := len(da.baseViol) == 0 && da.nOver == 0
			c0 := stringChecks(da)
			a.UnassignString(k)
			da.Commit()
			if c1 := stringChecks(da); feasible && c1 != c0 {
				t.Fatalf("%s: a remove on a feasible committed state ran checkString %d times, want 0", label, c1-c0)
			}
			checkSettled(t, label+" remove", da)
		default:
			rescales++
			rescaleWindow(t, label+" rescale", r, da, k, a.StringMachines(k))
		}
	}
	if err := a.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	longest := 0
	for j := range a.perMachine {
		if n := len(a.perMachine[j]); n > longest {
			longest = n
		}
	}
	t.Logf("stream %d: %d admits (%d rejected), %d removes, %d rescales; %d strings mapped, longest machine roster %d",
		stream, admits, rejected, removes, rescales, a.NumComplete(), longest)
	if admits == 0 || removes == 0 || rescales == 0 || rejected == 0 {
		t.Fatalf("stream %d drew %d admits (%d rejected), %d removes, %d rescales; every shape must occur",
			stream, admits, rejected, removes, rescales)
	}
}

// stringChecks reads the analyzer's checkString-run counter; telemetry must
// have been enabled before Track.
func stringChecks(da *DeltaAnalyzer) int64 { return da.tel.stringChecks.Value() }

// slackSkips reads the analyzer's count of strings its slack budgets passed
// without a checkString run.
func slackSkips(da *DeltaAnalyzer) int64 { return da.tel.slackSkips.Value() }

// judged counts the strings holding a verdict of the current generation.
func judged(da *DeltaAnalyzer) int64 {
	n := int64(0)
	for k := range da.memo {
		if da.memo[k].at == da.gen && da.a.Complete(k) {
			n++
		}
	}
	return n
}

// rosterSpan returns the total length of the rosters string k uses: the
// machine of each application and the route of each inter-machine transfer,
// once per application or transfer.
func rosterSpan(a *Allocation, k int) int64 {
	mo := a.machineOf[k]
	n := 0
	for i, m := range mo {
		n += len(a.perMachine[m])
		if i+1 < len(mo) && mo[i+1] != m {
			n += len(a.routeRoster(m, mo[i+1]))
		}
	}
	return int64(n)
}

// "Once" as a reading: on the loaded scenario-1 state an accepted admit
// judges each string of its recheck set exactly once across
// FeasibleAfterDelta + Commit — all of them in the evaluation, none in the
// Commit — by a checkString run or by the string's slack budget, so runs plus
// slack skips are the recheck set; and the decision adds nothing up: the
// placement kept the prefix sums, in at most two passes over each roster the
// string joined (entering behind the complete strings, then reseated when it
// completed), and every check reads them. A rejected one
// (FeasibleAfterDelta, ViolationsAfterDelta, Undo) judges no string twice.
func TestAcceptedWindowChecksEachStringOnce(t *testing.T) {
	prev := telemetry.Active()
	telemetry.Enable()
	defer telemetry.EnableRegistry(prev)
	a, da := loadedScenario1(t)
	defer da.Close()
	sys := a.System()

	// Accepted admit: lift a mapped string out and admit it again.
	accepted := false
	for k := 0; k < len(sys.Strings) && !accepted; k++ {
		if !a.Complete(k) {
			continue
		}
		a.UnassignString(k)
		da.Commit()
		w0 := da.tel.waitTerms.Value()
		leastLoaded(a, k)
		c0, r0, s0 := stringChecks(da), da.tel.verdictReuse.Value(), slackSkips(da)
		w1 := da.tel.waitTerms.Value()
		if !da.FeasibleAfterDelta() {
			da.Undo()
			continue
		}
		accepted = true
		c1, s1 := stringChecks(da), slackSkips(da)
		recheck := int64(len(da.recheck))
		if recheck < 2 {
			t.Fatalf("admit of string %d rechecks %d strings; the state is not loaded", k, recheck)
		}
		if c1-c0+s1-s0 != recheck {
			t.Errorf("accepted admit of string %d: FeasibleAfterDelta ran checkString %d times and skipped %d strings for a recheck set of %d", k, c1-c0, s1-s0, recheck)
		}
		if s1 == s0 {
			t.Errorf("accepted admit of string %d: no sharer's budget covered the window", k)
		}
		if terms, bound := w1-w0, 2*rosterSpan(a, k); terms == 0 || terms > bound {
			t.Errorf("placing string %d made %d waiting-sum additions; two passes over its rosters hold %d", k, terms, bound)
		}
		da.Commit()
		if w2 := da.tel.waitTerms.Value(); w2 != w1 {
			t.Errorf("the decision on string %d made %d waiting-sum additions; it should read every sum", k, w2-w1)
		}
		if c2, s2 := stringChecks(da), slackSkips(da); c2 != c1 || s2 != s1 {
			t.Errorf("Commit after the evaluation ran checkString %d times and skipped %d strings, want 0 and 0", c2-c1, s2-s1)
		}
		if r1 := da.tel.verdictReuse.Value(); r1-r0 != recheck {
			t.Errorf("Commit reused %d verdicts, want the recheck set's %d", r1-r0, recheck)
		}
	}
	if !accepted {
		t.Fatal("no re-admission was accepted; the accepted path ran nowhere")
	}

	// Rejected admit, by stage 2 so that both queries reach the strings.
	rejected := false
	for k := 0; k < len(sys.Strings) && !rejected; k++ {
		if a.Complete(k) {
			continue
		}
		leastLoaded(a, k)
		if !da.stage1AfterDelta() {
			da.Undo()
			continue
		}
		rejected = true
		c0, r0, s0 := stringChecks(da), da.tel.verdictReuse.Value(), slackSkips(da)
		if da.FeasibleAfterDelta() {
			t.Fatalf("string %d was rejected while loading and is accepted now", k)
		}
		c1 := stringChecks(da)
		if len(da.ViolationsAfterDelta()) == 0 {
			t.Fatalf("rejected admit of string %d lists no violation", k)
		}
		c2, s2 := stringChecks(da), slackSkips(da)
		if c1 == c0 || da.tel.verdictReuse.Value() == r0 {
			t.Errorf("rejected admit of string %d: evaluation ran %d checks and the listing reused %d; want both positive",
				k, c1-c0, da.tel.verdictReuse.Value()-r0)
		}
		if got, want := c2-c0+s2-s0, judged(da); got != want {
			t.Errorf("rejected admit of string %d: %d checkString runs and %d slack skips for %d judged strings — a string was judged twice", k, c2-c0, s2-s0, want)
		}
		da.Undo()
		if c3, s3 := stringChecks(da), slackSkips(da); c3 != c2 || s3 != s2 {
			t.Errorf("Undo ran checkString %d times and skipped %d strings", c3-c2, s3-s2)
		}
	}
	if !rejected {
		t.Fatal("no stage-2 rejection found; the rejected path ran nowhere")
	}
}

// slackStream drives admit-, move- and remove-shaped windows over a tracked
// allocation of sys, asking and checking every window's answers against the
// full analysis (queryWindow, whose auditMemo holds every string the slack
// rule passed to a fresh checkString) and auditing every settle
// (checkSettled, whose auditBudgets holds each committed budget under the
// string's fresh one). It returns how many strings the rule passed and how
// many it sent to checkString although their budget was known: refreshes, a
// budget Δ used up. Telemetry must be enabled.
func slackStream(t *testing.T, label string, sys *model.System, r *rand.Rand, steps int) (skips, refreshes int) {
	t.Helper()
	a := New(sys)
	da := Track(a)
	defer da.Close()
	for step := 0; step < steps; step++ {
		label := fmt.Sprintf("%s step %d", label, step)
		k := r.Intn(len(sys.Strings))
		budgets := make([]float64, len(sys.Strings))
		for x := range budgets {
			budgets[x] = da.memo[x].budget
		}
		switch {
		case !a.Complete(k) && a.nAssigned[k] == 0: // admit
			for i := range sys.Strings[k].Apps {
				a.Assign(k, i, r.Intn(sys.Machines))
			}
		case !a.Complete(k) || r.Intn(3) == 0: // remove
			a.UnassignString(k)
		default: // move one application
			i := r.Intn(len(sys.Strings[k].Apps))
			a.Unassign(k, i)
			a.Assign(k, i, r.Intn(sys.Machines))
		}
		s0 := slackSkips(da)
		queryWindow(t, label, da, true, true)
		// A string judged with its budget known in a window that assigned is
		// either passed by the budget or, Δ having used it up, refreshed.
		known := 0
		for x := range da.memo {
			if da.memo[x].at == da.gen && a.Complete(x) && da.assigned && budgets[x] >= slackMargin && da.strSnaps[x].win != da.win {
				known++
			}
		}
		skipped := int(slackSkips(da) - s0)
		skips += skipped
		refreshes += known - skipped
		if da.FeasibleAfterDelta() || r.Intn(8) == 0 {
			da.Commit()
		} else {
			da.Undo()
		}
		checkSettled(t, label, da)
	}
	if err := a.checkInvariants(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return skips, refreshes
}

// Property: the slack rule never changes an answer. On random systems with
// latency bounds tightened and periods shortened (heatUp), where budgets run
// near zero and a window's Δ often uses one up, every answer equals the full
// analysis, every string the rule passes passes checkString, and every
// committed budget stays under the fresh one. The streams must both skip and
// refresh, or the rule was only ever tested on one side of its threshold.
func TestSlackBudgetProperty(t *testing.T) {
	prev := telemetry.Active()
	telemetry.Enable()
	defer telemetry.EnableRegistry(prev)
	var skips, refreshes int
	for trial := 0; trial < 30; trial++ {
		r := rng.NewRand(int64(trial), rng.SubsystemDelta, 2)
		sys := randomSystem(r, 2+r.Intn(4), 6+r.Intn(8), 4)
		tightenLatency(r, sys)
		heatUp(sys, 1+r.Float64(), 1+4*r.Float64())
		s, f := slackStream(t, fmt.Sprintf("trial %d", trial), sys, r, 80)
		skips += s
		refreshes += f
	}
	t.Logf("%d strings passed by their budget, %d budgets refreshed after a window used them up", skips, refreshes)
	if skips < 200 || refreshes < 200 {
		t.Fatalf("the streams passed %d strings by their budget and refreshed %d; want at least 200 of each", skips, refreshes)
	}
}

// Δ is a per-resource total, not a per-entry maximum: a touched string with
// two applications on one machine adds both of their terms to the waiting
// sum of every sharer it is ahead of. Sharer S alone on machine 0 has a
// budget of 0.4 periods; string T, tighter, puts two applications of 0.25
// each there. Either alone would leave S 0.15 to spare; together they fail it
// (6 + 10·0.5 = 11 s against its 10 s period). With terms of 0.15 S keeps
// 0.1 and the rule passes it.
func TestWindowDeltaSumsAStringsEntries(t *testing.T) {
	prev := telemetry.Active()
	telemetry.Enable()
	defer telemetry.EnableRegistry(prev)
	for _, tc := range []struct {
		work     float64 // each of T's two applications: seconds at utilization 1 over a 10 s period
		feasible bool
	}{{2.5, false}, {1.5, true}} {
		sys := model.NewUniformSystem(1, 1)
		sharer := sys.AddString(model.AppString{Worth: 1, Period: 10, MaxLatency: 100,
			Apps: []model.Application{model.UniformApp(1, 6, 0.1, 10)}})
		touched := sys.AddString(model.AppString{Worth: 1, Period: 10, MaxLatency: 20,
			Apps: []model.Application{model.UniformApp(1, tc.work, 1, 10), model.UniformApp(1, tc.work, 1, 10)}})
		a := New(sys)
		a.AssignString(sharer, []int{0})
		da := Track(a)
		if b := da.memo[sharer].budget; math.Abs(b-0.4) > 1e-6 {
			t.Fatalf("the sharer's budget is %v, want 0.4", b)
		}
		s0 := slackSkips(da)
		a.AssignString(touched, []int{0, 0})
		if !tighter(a.Tightness(touched), touched, a.Tightness(sharer), sharer) {
			t.Fatal("the touched string is not ahead of the sharer")
		}
		if got, want := da.FeasibleAfterDelta(), a.TwoStageFeasible(); got != want || got != tc.feasible {
			t.Fatalf("terms of %v: FeasibleAfterDelta %v, TwoStageFeasible %v, want %v", tc.work/10, got, want, tc.feasible)
		}
		if skipped := slackSkips(da) > s0; skipped != tc.feasible {
			t.Fatalf("terms of %v: the sharer skipped %v, want %v", tc.work/10, skipped, tc.feasible)
		}
		if d := da.windowDelta(); math.Abs(d-2*tc.work/10) > 1e-12 {
			t.Fatalf("terms of %v: Δ is %v, want their sum %v", tc.work/10, d, 2*tc.work/10)
		}
		da.Close()
	}
}

// On a committed state that violates nothing, a window that only removes
// checks no string: not in Commit, not in a FeasibleAfterDelta asked before it
// or after it. Every mapped string of the loaded scenario-1 state is removed
// and admitted again in turn; each re-admission's Assign opens the rechecking
// of its sharers, which the next remove must not inherit.
func TestRemovalOnFeasibleStateChecksNothing(t *testing.T) {
	prev := telemetry.Active()
	telemetry.Enable()
	defer telemetry.EnableRegistry(prev)
	a, da := loadedScenario1(t)
	defer da.Close()
	sys := a.System()
	removed := 0
	for k := range sys.Strings {
		if !a.Complete(k) {
			continue
		}
		label := fmt.Sprintf("string %d", k)
		if len(da.baseViol) != 0 || da.nOver != 0 {
			t.Fatalf("%s: the committed state violates (%d strings, %d overloads)", label, len(da.baseViol), da.nOver)
		}
		placement := a.StringMachines(k)
		c0 := stringChecks(da)
		a.UnassignString(k)
		if removed%2 == 0 && !da.FeasibleAfterDelta() {
			t.Fatalf("%s: removing a string from a feasible state made it infeasible", label)
		}
		da.Commit()
		if !da.FeasibleAfterDelta() {
			t.Fatalf("%s: the committed removal is infeasible", label)
		}
		if c1 := stringChecks(da); c1 != c0 {
			t.Fatalf("%s: the removal ran checkString %d times, want 0", label, c1-c0)
		}
		checkSettled(t, label+" removed", da)
		removed++
		a.AssignString(k, placement)
		if !da.FeasibleAfterDelta() {
			t.Fatalf("%s: re-admitting it where it was is infeasible", label)
		}
		da.Commit()
		checkSettled(t, label+" re-admitted", da)
	}
	if removed < 40 {
		t.Fatalf("only %d strings were removed; the state is not loaded", removed)
	}
}

// tieSystem builds strings with machine-independent nominal times, so every
// complete string has exactly the same equation-(4) tightness regardless of
// placement: all priority decisions go through the string-ID tie-break.
func tieSystem(machines, strings int) *model.System {
	sys := model.NewUniformSystem(machines, 1)
	for k := 0; k < strings; k++ {
		sys.AddString(model.AppString{
			Worth:      10,
			Period:     6,
			MaxLatency: 30,
			Apps:       []model.Application{model.UniformApp(machines, 2.0, 0.3, 50)},
		})
	}
	return sys
}

// Property: delta equivalence holds on forced-tightness-tie workloads, where
// every recheck-set decision rides on the equal-tightness rule.
func TestDeltaEquivalenceForcedTies(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		r := rng.NewRand(int64(trial), rng.SubsystemDelta, 1)
		sys := tieSystem(2+r.Intn(3), 4+r.Intn(5))
		runDeltaEquivalence(t, fmt.Sprintf("tie trial %d", trial), sys, r, 80)
	}
	// Anti-vacuous: the construction really does force exact ties.
	sys := tieSystem(2, 3)
	a := New(sys)
	a.Assign(0, 0, 0)
	a.Assign(1, 0, 1)
	if math.Float64bits(a.Tightness(0)) != math.Float64bits(a.Tightness(1)) {
		t.Fatalf("tie system failed to force a tie: T[0]=%v T[1]=%v", a.Tightness(0), a.Tightness(1))
	}
}

// Regression (stale tightness): a partial re-mapping of a complete string —
// Unassign one app, Assign it elsewhere — must invalidate and then refresh
// the cached equation-(4) value; no tighter call may observe the old one.
func TestPartialRemapRefreshesTightness(t *testing.T) {
	sys := model.NewUniformSystem(2, 1)
	app := model.Application{
		NominalTime: []float64{2.0, 5.0}, // machine 1 is slower: T must change
		NominalUtil: []float64{0.3, 0.3},
		OutputKB:    10,
	}
	sys.AddString(model.AppString{Worth: 1, Period: 50, MaxLatency: 100,
		Apps: []model.Application{app, app}})
	a := New(sys)
	a.AssignString(0, []int{0, 0})
	t0 := a.Tightness(0)
	a.Unassign(0, 1)
	if !math.IsNaN(a.tightness[0]) {
		t.Fatalf("partially unmapped string caches tightness %v, want NaN", a.tightness[0])
	}
	if err := a.checkInvariants(); err != nil {
		t.Fatalf("after partial unassign: %v", err)
	}
	a.Assign(0, 1, 1)
	t1 := a.Tightness(0)
	if t1 == t0 {
		t.Fatalf("tightness unchanged (%v) after re-mapping onto a slower machine: stale cache", t1)
	}
	if err := a.checkInvariants(); err != nil {
		t.Fatalf("after partial re-map: %v", err)
	}
}

// A single-application move makes the string incomplete and complete again,
// which reseats it on every roster it uses, not only the moved application's:
// string 0 sits on machines 0,1,0,1,2 — route 0->1 twice — and only its last
// application moves, yet every one of its machines and routes is snapshotted,
// each once, and the recheck set reaches their sharers.
func TestSingleApplicationMoveSnapshotsEveryResource(t *testing.T) {
	sys := model.NewUniformSystem(4, 100)
	app := model.UniformApp(4, 1, 0.1, 10)
	sys.AddString(model.AppString{Worth: 1, Period: 50, MaxLatency: 100,
		Apps: []model.Application{app, app, app, app, app}})
	// Looser sharers: one on machine 0 only, one across route 0->1.
	sys.AddString(model.AppString{Worth: 1, Period: 50, MaxLatency: 1000,
		Apps: []model.Application{app}})
	sys.AddString(model.AppString{Worth: 1, Period: 50, MaxLatency: 1000,
		Apps: []model.Application{app, app}})
	a := New(sys)
	da := Track(a)
	defer da.Close()
	a.AssignString(0, []int{0, 1, 0, 1, 2})
	a.AssignString(1, []int{0})
	a.AssignString(2, []int{0, 1})
	da.Commit()

	a.Unassign(0, 4)
	a.Assign(0, 4, 3)
	machines := slices.Clone(da.dirtyMach)
	slices.Sort(machines)
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(machines, want) {
		t.Errorf("machines snapshotted: %v, want %v (each once)", machines, want)
	}
	var routes []string
	for _, j1 := range da.dirtyRouteSrc {
		for _, snap := range da.routeSnaps[j1] {
			routes = append(routes, fmt.Sprintf("%d->%d", j1, snap.peer))
		}
	}
	slices.Sort(routes)
	if want := []string{"0->1", "1->0", "1->2", "1->3"}; !reflect.DeepEqual(routes, want) {
		t.Errorf("routes snapshotted: %v, want %v (each once)", routes, want)
	}
	da.buildRecheck()
	got := slices.Clone(da.recheck)
	slices.Sort(got)
	if want := []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("recheck set %v, want %v", got, want)
	}
	queryWindow(t, "single-application move", da, true, true)
	da.Commit()
	checkSettled(t, "single-application move", da)
}

// A window that does not commit leaves no trace: a rejected admit (evaluated,
// listed, undone) and an accepted one undone after its evaluation each leave
// every roster, running sum and position as committed — the fingerprint and
// the prefix audit in checkSettled — and after a Reset, strings placed again
// elsewhere are summed on their new rosters.
func TestUncommittedWindowWritesNoSum(t *testing.T) {
	a, da := loadedScenario1(t)
	defer da.Close()
	sys := a.System()
	var accepted, rejected bool
	for k := 0; k < len(sys.Strings) && !(accepted && rejected); k++ {
		if a.Complete(k) {
			if accepted {
				continue
			}
			// Lift it out and let the removal commit; the admit is the window.
			a.UnassignString(k)
			da.Commit()
		}
		want := fingerprint(t, a)
		leastLoaded(a, k)
		if da.FeasibleAfterDelta() {
			accepted = true
		} else {
			rejected = true
			da.ViolationsAfterDelta()
		}
		da.Undo()
		if got := fingerprint(t, a); !bytes.Equal(got, want) {
			t.Fatalf("admit of string %d undone: the state is not the committed one", k)
		}
		checkSettled(t, fmt.Sprintf("admit of string %d undone", k), da)
	}
	if !accepted || !rejected {
		t.Fatalf("accepted %v, rejected %v; both windows must occur", accepted, rejected)
	}
	a.Reset()
	for k := len(sys.Strings) - 1; k >= 0; k-- {
		leastLoaded(a, k)
		if da.FeasibleAfterDelta() {
			da.Commit()
		} else {
			da.Undo()
		}
		checkSettled(t, fmt.Sprintf("string %d placed after Reset", k), da)
	}
}

// The repair controllers commit an infeasible window first and ask afterwards.
// checkString stops at the first throughput violation, but every waiting sum
// of the violator stays exact, because the rosters keep them whoever asked:
// string 2 busts its period on application 0 behind string 0; when string 0
// leaves, its verdict rides on application 1's sum on machine 1, a roster the
// window never touches.
func TestCommittedViolatorCarriesWholeVector(t *testing.T) {
	sys := model.NewUniformSystem(2, 100)
	app := model.UniformApp(2, 2.0, 0.5, 10)
	for k := 0; k < 2; k++ {
		sys.AddString(model.AppString{Worth: 1, Period: 2.8, MaxLatency: 4, Apps: []model.Application{app}})
	}
	sys.AddString(model.AppString{Worth: 1, Period: 2.8, MaxLatency: 100, Apps: []model.Application{app, app}})
	a := New(sys)
	da := Track(a)
	defer da.Close()
	a.AssignString(0, []int{0})
	a.AssignString(1, []int{1})
	a.AssignString(2, []int{0, 1})
	da.Commit() // infeasible, nothing asked
	if v := a.CheckString(2); v == nil || v.Kind != KindThroughputComp || v.App != 0 {
		t.Fatalf("string 2 should bust its period on application 0, got %v", v)
	}
	checkSettled(t, "committed violator", da)

	a.UnassignString(0)
	if da.machSnaps[1].win == da.win {
		t.Fatal("machine 1 should be a quiet roster in this window")
	}
	queryWindow(t, "string 0 removed", da, true, true)
	if v := da.ViolationsAfterDelta(); len(v) != 1 || v[0].StringID != 2 || v[0].App != 1 {
		t.Fatalf("string 2 should now bust its period on application 1, got %v", v)
	}
	da.Commit()
	checkSettled(t, "string 0 removed", da)
}

// A single-application move can lift a string's tightness over a sharer's on
// a roster the moved application never touches: moving string 0's second
// application onto a slow machine lifts it over string 1, which now waits
// behind string 0's first application on machine 0. The move reseats string 0
// there, ahead of string 1, whose sum is summed again (reprice) to include
// string 0's term.
func TestSingleApplicationMoveResumsScannedRoster(t *testing.T) {
	sys := model.NewUniformSystem(3, 100)
	fast := model.UniformApp(3, 1, 0.2, 10)
	slowOn2 := model.Application{NominalTime: []float64{1, 1, 8}, NominalUtil: []float64{0.2, 0.2, 0.2}, OutputKB: 10}
	sys.AddString(model.AppString{Worth: 1, Period: 50, MaxLatency: 100, Apps: []model.Application{fast, slowOn2}})
	sys.AddString(model.AppString{Worth: 1, Period: 50, MaxLatency: 25, Apps: []model.Application{fast}})
	a := New(sys)
	da := Track(a)
	defer da.Close()
	a.AssignString(0, []int{0, 1})
	a.AssignString(1, []int{0})
	da.Commit()
	checkSettled(t, "before the move", da)
	if got := headPre(a.perMachine[0], int(a.posM[1][0].idx)); !(a.Tightness(0) < a.Tightness(1)) || got != 0 {
		t.Fatalf("before the move string 1 (T=%v) should outrank string 0 (T=%v) and wait for nothing, reads %v",
			a.Tightness(1), a.Tightness(0), got)
	}

	a.Unassign(0, 1)
	a.Assign(0, 1, 2)
	if !(a.Tightness(0) > a.Tightness(1)) {
		t.Fatalf("the move should lift string 0 (T=%v) over string 1 (T=%v)", a.Tightness(0), a.Tightness(1))
	}
	if da.machSnaps[0].win != da.win {
		t.Fatal("machine 0, whose roster the move reseats, holds no snapshot")
	}
	queryWindow(t, "single-application move", da, true, true)
	da.Commit()
	checkSettled(t, "single-application move", da)
	if got, want := headPre(a.perMachine[0], int(a.posM[1][0].idx)), sys.MachineDemandUtil(0, 0, 0); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("string 1 reads %v on machine 0 after the move, want string 0's term %v", got, want)
	}
}

// FromSnapshot assigns the mapping, so every roster is summed as Assign
// builds it, whatever history built the original: a restored snapshot is
// tracked with every prefix sum exact, and windows over it read them.
func TestTrackAfterFromSnapshotFillsSums(t *testing.T) {
	orig, origDA := loadedScenario1(t)
	origDA.Close()
	sys := orig.System()
	a, err := FromSnapshot(sys, orig.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	da := Track(a)
	defer da.Close()
	checkSettled(t, "tracked snapshot", da)
	for k := range sys.Strings {
		if a.Complete(k) {
			continue
		}
		leastLoaded(a, k)
		queryWindow(t, fmt.Sprintf("admit of string %d over the snapshot", k), da, true, true)
		da.Undo()
		checkSettled(t, fmt.Sprintf("admit of string %d over the snapshot", k), da)
	}
}

// fingerprint renders the full observable allocation state.
func fingerprint(t *testing.T, a *Allocation) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.WriteState(&buf); err != nil {
		t.Fatalf("WriteState: %v", err)
	}
	return buf.Bytes()
}

// Property: after any randomized delta sequence plus Undo, the allocation
// fingerprints bit-identically to a Clone taken at the commit point —
// utilization floats, roster order, and tightness caches included.
func TestDeltaUndoBitIdentical(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		r := rng.NewRand(int64(trial), rng.SubsystemDelta, 3)
		sys := randomSystem(r, 2+r.Intn(4), 2+r.Intn(6), 4)
		a := New(sys)
		da := Track(a)
		for round := 0; round < 10; round++ {
			applyRandomDelta(t, r, a)
			da.Commit()
			before := a.Clone()
			want := fingerprint(t, before)
			for w := 0; w < 3; w++ {
				applyRandomDelta(t, r, a)
			}
			da.FeasibleAfterDelta() // evaluation must not disturb Undo
			da.Undo()
			if got := fingerprint(t, a); !bytes.Equal(got, want) {
				t.Fatalf("trial %d round %d: state after Undo differs from pre-delta clone:\ngot:\n%s\nwant:\n%s",
					trial, round, got, want)
			}
			// The fingerprint does not cover the carried terms and running
			// sums; the audit does.
			if err := a.checkInvariants(); err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
		}
		da.Close()
	}
}

// Undo re-places every touched string whole, not only the applications the
// window moved: a rescale-shaped window puts string k back on the very
// machines it left, priced at scaled floats, so nothing moved, yet every entry
// of k carries a term the restored floats no longer price. With the floats
// back, Undo must land on the committed digest with every term current.
func TestUndoReplacesTouchedStringsWhole(t *testing.T) {
	a, da := loadedScenario1(t)
	defer da.Close()
	want := StateDigest(a)
	k := 0
	for !a.Complete(k) {
		k++
	}
	machines := a.StringMachines(k)
	s := &a.System().Strings[k]
	var old [][]float64
	a.UnassignString(k)
	for i := range s.Apps {
		times := s.Apps[i].NominalTime
		old = append(old, slices.Clone(times))
		for j := range times {
			times[j] *= 1.1
		}
	}
	a.AssignString(k, machines)
	da.FeasibleAfterDelta()
	for i := range s.Apps {
		copy(s.Apps[i].NominalTime, old[i])
	}
	da.Undo()
	// A clone is digested from its whole text, not from the line cache, which
	// an Undo leaves as it is.
	if got := StateDigest(a.Clone()); got != want {
		t.Fatalf("string %d rescaled in place and undone: digest %s, committed %s", k, got, want)
	}
	if err := a.checkInvariants(); err != nil {
		t.Fatalf("string %d rescaled in place and undone: %v", k, err)
	}
	checkSettled(t, "rescale in place undone", da)
}

// Undo with an empty window is a no-op, and Reset rebases the tracker so the
// next window evaluates against the cleared state.
func TestDeltaResetAndEmptyWindow(t *testing.T) {
	r := rng.NewRand(7, rng.SubsystemDelta, 4)
	sys := randomSystem(r, 3, 4, 3)
	a := New(sys)
	da := Track(a)
	defer da.Close()
	applyRandomDelta(t, r, a)
	da.Commit()
	want := fingerprint(t, a)
	da.Undo() // empty window: must not move anything
	if got := fingerprint(t, a); !bytes.Equal(got, want) {
		t.Fatal("Undo on a clean window changed the allocation")
	}
	a.Reset()
	if got, want := da.FeasibleAfterDelta(), a.TwoStageFeasible(); got != want {
		t.Fatalf("after Reset: FeasibleAfterDelta %v, TwoStageFeasible %v", got, want)
	}
	applyRandomDelta(t, r, a)
	if got, want := da.FeasibleAfterDelta(), a.TwoStageFeasible(); got != want {
		t.Fatalf("first window after Reset: FeasibleAfterDelta %v, TwoStageFeasible %v", got, want)
	}
	mustPanic(t, "CommittedFeasible on an open window", func() { da.CommittedFeasible() })
	da.Undo()
	if a.NumComplete() != 0 {
		t.Fatal("Undo after Reset must restore the empty mapping")
	}
}

// Track must refuse double-tracking, and Close must detach.
func TestTrackLifecycle(t *testing.T) {
	sys := tieSystem(2, 2)
	a := New(sys)
	da := Track(a)
	if a.Tracker() != da {
		t.Fatal("Tracker() should return the attached analyzer")
	}
	mustPanic(t, "double track", func() { Track(a) })
	da.Close()
	if a.Tracker() != nil {
		t.Fatal("Close must detach the tracker")
	}
	da2 := Track(a) // re-tracking after Close is allowed
	da2.Close()
}

// benchDeltaSystem builds an under-capacity system of m machines and m
// strings (two apps each, pipelined across neighboring machines) so both the
// full and the delta evaluation run their feasible, no-early-exit paths.
func benchDeltaSystem(m int) *model.System {
	sys := model.NewUniformSystem(m, 100)
	for k := 0; k < m; k++ {
		sys.AddString(model.AppString{
			Worth:      1 + float64(k%7),
			Period:     100,
			MaxLatency: 500,
			Apps: []model.Application{
				model.UniformApp(m, 1.0, 0.2, 10),
				model.UniformApp(m, 1.0, 0.2, 10),
			},
		})
	}
	return sys
}

// BenchmarkDeltaVsFull measures re-evaluating one re-placed string via the
// delta analyzer against a full two-stage re-analysis, at M ∈ {8, 64, 512}.
// The mutation (unassign + reassign) is identical in both arms; only the
// evaluation differs. The recorded numbers are quoted in DESIGN.md §11.
func BenchmarkDeltaVsFull(b *testing.B) {
	for _, m := range []int{8, 64, 512} {
		sys := benchDeltaSystem(m)
		place := func(a *Allocation) {
			for k := 0; k < m; k++ {
				a.AssignString(k, []int{k, (k + 1) % m})
			}
		}
		b.Run(fmt.Sprintf("full/M=%d", m), func(b *testing.B) {
			a := New(sys)
			place(a)
			if !a.TwoStageFeasible() {
				b.Fatal("benchmark mapping must be feasible")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				k := n % m
				a.UnassignString(k)
				a.AssignString(k, []int{(k + 1) % m, (k + 2) % m})
				if !a.TwoStageFeasible() {
					b.Fatal("unexpected infeasible")
				}
				a.UnassignString(k)
				a.AssignString(k, []int{k, (k + 1) % m})
			}
		})
		b.Run(fmt.Sprintf("delta/M=%d", m), func(b *testing.B) {
			a := New(sys)
			place(a)
			da := Track(a)
			defer da.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				k := n % m
				a.UnassignString(k)
				a.AssignString(k, []int{(k + 1) % m, (k + 2) % m})
				if !da.FeasibleAfterDelta() {
					b.Fatal("unexpected infeasible")
				}
				da.Undo()
			}
		})
	}
}

// BenchmarkAnalyzerDecision times the three decision shapes of the serve path
// on the loaded scenario-1 state and reports checkString runs per decision
// and the rechecked strings their slack budget passed instead — together the
// number a second evaluation of the same window would double — and the
// waiting-sum additions reprice made keeping the rosters' prefix sums, the
// checks themselves reading them (all exact at -benchtime=1x):
//
//   - accept: a string is lifted and placed back in one window,
//     FeasibleAfterDelta, Commit;
//   - reject: an unmappable string is placed, FeasibleAfterDelta,
//     ViolationsAfterDelta, Undo;
//   - remove: UnassignString and Commit with no evaluation, then the string
//     put back the same way so the state holds (two unevaluated commits per op;
//     on this feasible state the remove's checks nothing, so the count is the
//     put-back's).
func BenchmarkAnalyzerDecision(b *testing.B) {
	prev := telemetry.Active()
	telemetry.Enable()
	defer telemetry.EnableRegistry(prev)
	a, da := loadedScenario1(b)
	defer da.Close()
	var mapped, unmappable []int
	placement := make([][]int, len(a.System().Strings))
	for k := range placement {
		if a.Complete(k) {
			mapped = append(mapped, k)
			placement[k] = a.StringMachines(k)
			continue
		}
		leastLoaded(a, k)
		if !da.FeasibleAfterDelta() {
			unmappable = append(unmappable, k)
		}
		da.Undo()
	}
	run := func(name string, op func(b *testing.B, n int)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			c0, s0, w0 := stringChecks(da), slackSkips(da), da.tel.waitTerms.Value()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				op(b, n)
			}
			b.ReportMetric(float64(stringChecks(da)-c0)/float64(b.N), "string_checks/op")
			b.ReportMetric(float64(slackSkips(da)-s0)/float64(b.N), "slack_skips/op")
			b.ReportMetric(float64(da.tel.waitTerms.Value()-w0)/float64(b.N), "wait_terms/op")
		})
	}
	run("accept", func(b *testing.B, n int) {
		k := mapped[n%len(mapped)]
		a.UnassignString(k)
		a.AssignString(k, placement[k])
		if !da.FeasibleAfterDelta() {
			b.Fatalf("re-placing string %d where it was became infeasible", k)
		}
		da.Commit()
	})
	run("reject", func(b *testing.B, n int) {
		k := unmappable[n%len(unmappable)]
		leastLoaded(a, k)
		if da.FeasibleAfterDelta() {
			b.Fatalf("string %d, unmappable at set-up, was accepted", k)
		}
		benchViolations = da.ViolationsAfterDelta()
		da.Undo()
	})
	run("remove", func(b *testing.B, n int) {
		k := mapped[n%len(mapped)]
		a.UnassignString(k)
		da.Commit()
		a.AssignString(k, placement[k])
		da.Commit()
	})
}

var benchViolations []Violation

package feasibility

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

// placement is one logged mutation of a slot lifecycle: application i of
// string k assigned to machine j, or unassigned when j is Unassigned.
type placement struct{ k, i, j int }

// slotShip is an allocation under test with the committed mutations that
// reached its state since it was last empty: replaying them into New is the
// fresh rebuild it is held to, and it must match the allocation bit for bit —
// which Undo, a restore and a copy all promise.
type slotShip struct {
	a   *Allocation
	da  *DeltaAnalyzer
	log []placement
	win []placement // the open window's mutations
}

func (s *slotShip) assign(k, i, j int) {
	s.a.Assign(k, i, j)
	s.win = append(s.win, placement{k, i, j})
}

func (s *slotShip) unassign(k, i int) {
	s.a.Unassign(k, i)
	s.win = append(s.win, placement{k, i, Unassigned})
}

func (s *slotShip) commit() {
	s.da.Commit()
	s.log = append(s.log, s.win...)
	s.win = s.win[:0]
}

func (s *slotShip) undo() {
	s.da.Undo()
	s.win = s.win[:0]
}

// load places every string of the empty allocation least-loaded, keeping
// the feasible ones.
func (s *slotShip) load() {
	for k := range s.a.machineOf {
		for i, j := range leastLoaded(s.a, k) {
			s.win = append(s.win, placement{k, i, j})
		}
		if s.da.FeasibleAfterDelta() {
			s.commit()
		} else {
			s.undo()
		}
	}
}

// rebuild replays the log into a fresh allocation.
func (s *slotShip) rebuild() *Allocation {
	fresh := New(s.a.System())
	for _, p := range s.log {
		if p.j == Unassigned {
			fresh.Unassign(p.k, p.i)
		} else {
			fresh.Assign(p.k, p.i, p.j)
		}
	}
	return fresh
}

// same holds a settled ship to its fresh rebuild: every invariant with the
// slot audit, the StateDigest, and every complete string's verdict read
// through the route slots (checkString on the prefix sums) against the full
// analysis of the rebuild, plus the analyzer's answers.
func (s *slotShip) same(t *testing.T, step string) {
	t.Helper()
	fresh := s.rebuild()
	if err := s.a.checkInvariants(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	if got, want := StateDigest(s.a), StateDigest(fresh); got != want {
		t.Fatalf("%s: digest %s, the fresh rebuild's %s", step, got, want)
	}
	for k := range s.a.machineOf {
		if !fresh.Complete(k) {
			continue
		}
		if got, want := s.a.checkString(k, true), fresh.checkString(k, false); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: string %d verdict %v, the fresh rebuild's %v", step, k, got, want)
		}
	}
	if got, want := s.da.FeasibleAfterDelta(), fresh.TwoStageFeasible(); got != want {
		t.Fatalf("%s: FeasibleAfterDelta %v, the fresh rebuild's TwoStageFeasible %v", step, got, want)
	}
	if got, want := s.da.ViolationsAfterDelta(), fresh.Violations(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: ViolationsAfterDelta %v, the fresh rebuild's %v", step, got, want)
	}
}

// sparsestRoute returns the active route carrying the fewest transfers, the
// first in (j1, j2) order on a tie, with its slot and a copy of its roster.
func sparsestRoute(t *testing.T, a *Allocation) (j1, j2 int, slot int32, roster []rosterEntry) {
	t.Helper()
	best := -1
	for from, adj := range a.adj {
		for _, r := range adj {
			if n := len(a.routes[r.slot].apps); best < 0 || n < best {
				best, j1, j2, slot = n, from, int(r.peer), r.slot
			}
		}
	}
	if best < 0 {
		t.Fatal("no active route")
	}
	return j1, j2, slot, append([]rosterEntry(nil), a.routes[slot].apps...)
}

// openFreshRoute places the first two applications of an unplaced string
// across the first route out of machine from (any machine when from < 0) that
// is inactive and untouched by the open window, activating it, and returns
// the slot it got.
func (s *slotShip) openFreshRoute(t *testing.T, from int) int32 {
	t.Helper()
	a := s.a
	for k := range a.machineOf {
		if a.nAssigned[k] != 0 || len(a.machineOf[k]) < 2 {
			continue
		}
		for x := 0; x < a.sys.Machines; x++ {
			for y := 0; y < a.sys.Machines; y++ {
				if (from >= 0 && x != from) || x == y || a.findRoute(x, y) != nil || s.da.routeSnapped(x, y) {
					continue
				}
				s.assign(k, 0, x)
				s.assign(k, 1, y)
				return a.adj[x][mustRouteIndex(t, a, x, y)].slot
			}
		}
		break
	}
	t.Fatalf("no unplaced string or no inactive route out of machine %d left", from)
	return 0
}

func mustRouteIndex(t *testing.T, a *Allocation, j1, j2 int) int {
	t.Helper()
	idx, ok := a.routeIndex(j1, j2)
	if !ok {
		t.Fatalf("route (%d,%d) is not active", j1, j2)
	}
	return idx
}

// emptyRoute unassigns the producer of every transfer route (j1, j2) carries.
func (s *slotShip) emptyRoute(t *testing.T, j1, j2 int, roster []rosterEntry) {
	t.Helper()
	for _, e := range roster {
		s.unassign(e.k, e.i)
	}
	if s.a.findRoute(j1, j2) != nil {
		t.Fatalf("route (%d,%d) is still active", j1, j2)
	}
}

// TestRouteSlotLifecycle walks route slots through every way a route leaves
// and comes back on a scenario-1 ship — an Undo re-inserting it in another
// slot, a close and re-open in one window, a Reset mid-stream, a snapshot
// restore, and a Clone with both sides mutated — and after each step holds
// every verdict and the StateDigest to a fresh rebuild's, with the slot audit
// of checkInvariants (live slots and free list partition the arena, every
// position names its route's slot).
func TestRouteSlotLifecycle(t *testing.T) {
	sys := workload.MustGenerate(workload.ScenarioConfig(workload.HighlyLoaded), 1)
	a := New(sys)
	s := &slotShip{a: a, da: Track(a)}
	s.load()
	s.same(t, "loaded")

	// A window empties a route and opens routes out of the same machine until
	// one holds its slot, then is undone: the route comes back before that
	// one closes (Undo re-places the touched strings in first-touch order,
	// the emptied route's first), so in another slot.
	j1, j2, slot, roster := sparsestRoute(t, a)
	s.emptyRoute(t, j1, j2, roster)
	for s.openFreshRoute(t, j1) != slot {
	}
	s.undo()
	if again := a.adj[j1][mustRouteIndex(t, a, j1, j2)].slot; again == slot {
		t.Fatalf("undo put route (%d,%d) back in its old slot %d; the step meant to move it", j1, j2, slot)
	}
	s.same(t, "undo re-inserts")

	// One window closes a route, opens others until one holds its slot, and
	// re-opens the first, in another slot; the window commits.
	j1, j2, slot, roster = sparsestRoute(t, a)
	s.emptyRoute(t, j1, j2, roster)
	for s.openFreshRoute(t, -1) != slot {
	}
	for _, e := range roster {
		s.assign(e.k, e.i, j1)
	}
	s.da.FeasibleAfterDelta()
	s.commit()
	s.same(t, "close and re-open in one window")

	// Reset with slots on the free list, then load again.
	j1, j2, _, roster = sparsestRoute(t, a)
	s.emptyRoute(t, j1, j2, roster)
	s.commit()
	if len(a.free) == 0 {
		t.Fatal("no free slot before Reset; the step meant to have one")
	}
	a.Reset()
	s.log = s.log[:0]
	s.same(t, "reset")
	s.load()
	s.same(t, "reload after reset")

	// A snapshot restore builds the arena afresh; the restored allocation
	// then lives on.
	j1, j2, _, roster = sparsestRoute(t, a)
	s.emptyRoute(t, j1, j2, roster)
	s.commit()
	b, err := FromSnapshot(sys, a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	s.da.Close()
	s = &slotShip{a: b, da: Track(b), log: s.log}
	s.same(t, "restored")
	j1, j2, _, roster = sparsestRoute(t, b)
	s.emptyRoute(t, j1, j2, roster)
	s.openFreshRoute(t, -1)
	s.commit()
	s.same(t, "restored, then mutated")

	// A Clone, then both sides mutated apart.
	c := b.Clone()
	sc := &slotShip{a: c, da: Track(c), log: append([]placement(nil), s.log...)}
	j1, j2, _, roster = sparsestRoute(t, b)
	s.emptyRoute(t, j1, j2, roster)
	s.commit()
	for step := 0; step < 3; step++ {
		j1, j2, _, roster = sparsestRoute(t, c)
		sc.emptyRoute(t, j1, j2, roster)
		sc.openFreshRoute(t, -1)
		sc.commit()
	}
	s.same(t, "original after clone")
	sc.same(t, "clone")
	s.da.Close()
	sc.da.Close()
}

// slotReuseShip is a tracked four-machine ship on 1 Mbps routes whose four
// strings have two light applications each: strings 0 and 3 send a light
// transfer (0.08 of a route), strings 1 and 2 a heavy one (0.8 each), so the
// two heavy transfers overload the route they share. Strings 0 and 3 are
// committed across routes 0->1 and 1->2; strings 1 and 2 are unplaced.
func slotReuseShip(t *testing.T) *slotShip {
	t.Helper()
	sys := model.NewUniformSystem(4, 1)
	for _, kb := range []float64{100, 1000, 1000, 100} {
		app := model.UniformApp(4, 0.1, 0.1, kb)
		sys.AddString(model.AppString{Worth: 1, Period: 10, MaxLatency: 100, Apps: []model.Application{app, app}})
	}
	a := New(sys)
	s := &slotShip{a: a, da: Track(a)}
	s.assign(0, 0, 0)
	s.assign(0, 1, 1)
	s.assign(3, 0, 1)
	s.assign(3, 1, 2)
	s.commit()
	checkSettled(t, "set-up", s.da)
	return s
}

// judge runs the window ops makes twice: evaluated and undone, which must
// give back the committed fingerprint, then evaluated and committed. Every
// evaluation is held to the full analysis, every settle to the analyzer's
// committed overload count (checkSettled) and the last to a fresh rebuild.
func (s *slotShip) judge(t *testing.T, label string, ops func()) {
	t.Helper()
	want := fingerprint(t, s.a)
	ops()
	queryWindow(t, label, s.da, true, true)
	s.undo()
	if got := fingerprint(t, s.a); !bytes.Equal(got, want) {
		t.Fatalf("%s: undone, the state is not the committed one:\ngot:\n%s\nwant:\n%s", label, got, want)
	}
	checkSettled(t, label+", undone", s.da)
	ops()
	queryWindow(t, label, s.da, true, true)
	s.commit()
	checkSettled(t, label+", committed", s.da)
	s.same(t, label+", committed")
}

// TestDirtyRouteSlotReuse: the analyzer reads a dirty route through the slot
// it last found it at only while that slot holds a live entry with the
// route's endpoints. Each of two windows needs one half of that test: one
// frees a route's slot and opens another route into it (a read without the
// endpoint check counts the new route's overload twice), one closes a route
// and re-opens it overloaded in another slot (a read without the non-empty
// check sees the old slot's stale utilization and misses the overload).
func TestDirtyRouteSlotReuse(t *testing.T) {
	s := slotReuseShip(t)
	s.judge(t, "a route opens in an emptied one's slot", func() {
		slot := s.a.adj[0][mustRouteIndex(t, s.a, 0, 1)].slot
		s.unassign(0, 1)
		s.assign(1, 0, 2)
		s.assign(1, 1, 3)
		if got := s.a.adj[2][mustRouteIndex(t, s.a, 2, 3)].slot; got != slot {
			t.Fatalf("route 2->3 opened in slot %d, not route 0->1's freed slot %d; the window meant to reuse it", got, slot)
		}
		s.assign(2, 0, 2)
		s.assign(2, 1, 3)
	})
	if u := s.a.RouteUtilization(2, 3); !overCapacity(u) {
		t.Fatalf("route 2->3 ends at utilization %v; the window meant to overload it", u)
	}
	s.da.Close()

	s = slotReuseShip(t)
	s.judge(t, "a route re-opens in another slot", func() {
		slot := s.a.adj[0][mustRouteIndex(t, s.a, 0, 1)].slot
		s.unassign(0, 1)
		s.unassign(3, 1) // freed last, route 1->2's slot is the next one reused
		s.assign(1, 0, 0)
		s.assign(1, 1, 1)
		if got := s.a.adj[0][mustRouteIndex(t, s.a, 0, 1)].slot; got == slot {
			t.Fatalf("route 0->1 re-opened in its old slot %d; the window meant to move it", slot)
		}
		s.assign(2, 0, 0)
		s.assign(2, 1, 1)
	})
	if u := s.a.RouteUtilization(0, 1); !overCapacity(u) {
		t.Fatalf("route 0->1 ends at utilization %v; the window meant to overload it", u)
	}
	s.da.Close()
}

// TestPrefixCheckSearchesNoAdjacency: the analyzer's route read names the
// route's slot and never searches an adjacency. With every machine's
// adjacency emptied on a clone of a settled, loaded scenario-1 allocation —
// some strings committed in violation — checkString on the prefix sums still
// returns each complete string's verdict.
func TestPrefixCheckSearchesNoAdjacency(t *testing.T) {
	a, da := loadedScenario1(t)
	defer da.Close()
	placed := 0
	for k := range a.machineOf {
		if a.nAssigned[k] == 0 && placed < 10 {
			leastLoaded(a, k)
			placed++
		}
	}
	da.Commit()
	cp := a.Clone()
	for j := range cp.adj {
		cp.adj[j] = nil
	}
	transfers, violating := 0, 0
	for k, mo := range a.machineOf {
		if !a.Complete(k) {
			continue
		}
		for i := 0; i+1 < len(mo); i++ {
			if mo[i] != mo[i+1] {
				transfers++
			}
		}
		want := a.checkString(k, true)
		if want != nil {
			violating++
		}
		var got *Violation
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("string %d: the prefix check searched the emptied adjacency: %v", k, r)
				}
			}()
			got = cp.checkString(k, true)
		}()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("string %d: verdict %v without the adjacency, %v with it", k, got, want)
		}
	}
	if transfers == 0 || violating == 0 {
		t.Fatalf("%d inter-machine transfers and %d violating strings: the state exercises nothing", transfers, violating)
	}
}

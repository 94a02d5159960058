package feasibility

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/rng"
)

// applyRandomDelta applies 1..4 random primitive mutations to a tracked
// allocation: single-app toggles plus occasional whole-string assigns and
// unassigns, so every tracked entry point is exercised.
func applyRandomDelta(r *rand.Rand, a *Allocation) {
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
	}
}

// runDeltaEquivalence drives randomized delta windows over a tracked
// allocation and asserts, for every window, that the delta answers match the
// full two-stage analysis evaluated on the same state.
func runDeltaEquivalence(t *testing.T, label string, sys *model.System, r *rand.Rand, steps int) {
	t.Helper()
	a := New(sys)
	da := Track(a)
	defer da.Close()
	for step := 0; step < steps; step++ {
		applyRandomDelta(r, a)
		if got, want := da.FeasibleAfterDelta(), a.TwoStageFeasible(); got != want {
			t.Fatalf("%s step %d: FeasibleAfterDelta %v, TwoStageFeasible %v", label, step, got, want)
		}
		if got, want := da.ViolationsAfterDelta(), a.Violations(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s step %d: ViolationsAfterDelta %v, Violations %v", label, step, got, want)
		}
		if r.Intn(3) == 0 {
			da.Undo()
		} else {
			da.Commit()
		}
		// Clean-window queries must agree too (they take the committed-set
		// fast path instead of rechecking).
		if got, want := da.FeasibleAfterDelta(), a.TwoStageFeasible(); got != want {
			t.Fatalf("%s step %d (clean): FeasibleAfterDelta %v, TwoStageFeasible %v", label, step, got, want)
		}
	}
	if err := a.checkInvariants(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// Property: after arbitrary randomized delta sequences — committed or undone
// at random, applied on top of feasible and infeasible states alike — the
// delta analyzer's answers equal the full analysis. Streams are keyed so
// failures reproduce exactly.
func TestDeltaEquivalenceProperty(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		r := rng.NewRand(int64(trial), rng.SubsystemDelta, 0)
		sys := randomSystem(r, 2+r.Intn(4), 2+r.Intn(6), 4)
		runDeltaEquivalence(t, fmt.Sprintf("trial %d", trial), sys, r, 60)
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

// Regression (forced ties): FeasibleAfterAdding must agree with
// TwoStageFeasible when the added string's tightness exactly equals existing
// strings' — the ID tie-break means adding a lower-ID string demotes an
// equal-tightness incumbent, whose waits must be rechecked.
func TestFeasibleAfterAddingForcedTieRegression(t *testing.T) {
	// Two identical one-app strings: T = 2/100 each, util 0.5 each, so both
	// fit stage 1 on one machine, but the demoted one waits a full t*u and
	// busts its period: 2 + 2.8*(2*0.5/2.8) = 3 > 2.8.
	sys := model.NewUniformSystem(2, 1)
	for k := 0; k < 2; k++ {
		sys.AddString(model.AppString{
			Worth:      10,
			Period:     2.8,
			MaxLatency: 100,
			Apps:       []model.Application{model.UniformApp(2, 2.0, 0.5, 10)},
		})
	}
	// Order A: higher-ID string first, then the lower-ID (tie-winning) one.
	a := New(sys)
	a.Assign(1, 0, 0)
	if !a.FeasibleAfterAdding(1) {
		t.Fatal("single string should be feasible")
	}
	a.Assign(0, 0, 0)
	if math.Float64bits(a.Tightness(0)) != math.Float64bits(a.Tightness(1)) {
		t.Fatal("setup failed to force an exact tightness tie")
	}
	if got, want := a.FeasibleAfterAdding(0), a.TwoStageFeasible(); got != want {
		t.Fatalf("adding tie-winning string 0: incremental %v, full %v", got, want)
	}
	if a.FeasibleAfterAdding(0) {
		t.Fatal("demoted equal-tightness string 1 busts its period; must be detected")
	}
	// Order B: lower-ID first. Adding string 1 leaves string 0 tie-tighter
	// and unaffected; string 1 itself carries the wait and violates.
	b := New(sys)
	b.Assign(0, 0, 0)
	b.Assign(1, 0, 0)
	if got, want := b.FeasibleAfterAdding(1), b.TwoStageFeasible(); got != want {
		t.Fatalf("adding tie-losing string 1: incremental %v, full %v", got, want)
	}
	// Randomized tie sweep: sequential adds, both outcomes exercised.
	for trial := 0; trial < 20; trial++ {
		r := rng.NewRand(int64(trial), rng.SubsystemDelta, 2)
		sys := tieSystem(2+r.Intn(2), 5+r.Intn(4))
		a := New(sys)
		for k := range sys.Strings {
			a.Assign(k, 0, r.Intn(sys.Machines))
			if got, want := a.FeasibleAfterAdding(k), a.TwoStageFeasible(); got != want {
				t.Fatalf("tie trial %d string %d: incremental %v, full %v", trial, k, got, want)
			}
			if !a.TwoStageFeasible() {
				a.UnassignString(k)
			}
		}
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
			applyRandomDelta(r, a)
			da.Commit()
			before := a.Clone()
			want := fingerprint(t, before)
			for w := 0; w < 3; w++ {
				applyRandomDelta(r, a)
			}
			da.FeasibleAfterDelta() // evaluation must not disturb Undo
			da.Undo()
			if got := fingerprint(t, a); !bytes.Equal(got, want) {
				t.Fatalf("trial %d round %d: state after Undo differs from pre-delta clone:\ngot:\n%s\nwant:\n%s",
					trial, round, got, want)
			}
		}
		if err := a.checkInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		da.Close()
	}
}

// Undo with an empty window is a no-op, and Reset rebases the tracker so the
// next window evaluates against the cleared state.
func TestDeltaResetAndEmptyWindow(t *testing.T) {
	r := rng.NewRand(7, rng.SubsystemDelta, 4)
	sys := randomSystem(r, 3, 4, 3)
	a := New(sys)
	da := Track(a)
	defer da.Close()
	applyRandomDelta(r, a)
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
	applyRandomDelta(r, a)
	if got, want := da.FeasibleAfterDelta(), a.TwoStageFeasible(); got != want {
		t.Fatalf("first window after Reset: FeasibleAfterDelta %v, TwoStageFeasible %v", got, want)
	}
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

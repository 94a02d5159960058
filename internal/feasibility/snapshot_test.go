package feasibility

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// churn runs random assign/unassign cycles, so a snapshot is taken of a state
// reached by a long history rather than a single build.
func churn(rng *rand.Rand, a *Allocation, steps int) {
	sys := a.System()
	type slot struct{ k, i int }
	var assigned []slot
	for step := 0; step < steps; step++ {
		if len(assigned) > 0 && rng.Float64() < 0.45 {
			idx := rng.Intn(len(assigned))
			s := assigned[idx]
			a.Unassign(s.k, s.i)
			assigned[idx] = assigned[len(assigned)-1]
			assigned = assigned[:len(assigned)-1]
		} else {
			k := rng.Intn(len(sys.Strings))
			i := rng.Intn(len(sys.Strings[k].Apps))
			if a.Machine(k, i) != Unassigned {
				continue
			}
			a.Assign(k, i, rng.Intn(sys.Machines))
			assigned = append(assigned, slot{k, i})
		}
	}
}

// Property: Snapshot -> JSON -> FromSnapshot reproduces the WriteState
// fingerprint byte for byte after churn.
func TestSnapshotRoundTripBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		sys := randomSystem(rng, 2+rng.Intn(4), 1+rng.Intn(6), 5)
		a := New(sys)
		churn(rng, a, 300)
		data, err := json.Marshal(a.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		var snap AllocationSnapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatal(err)
		}
		restored, err := FromSnapshot(sys, &snap)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, got := fingerprint(t, a), fingerprint(t, restored)
		if !bytes.Equal(want, got) {
			t.Fatalf("trial %d: restored fingerprint differs\nwant:\n%s\ngot:\n%s", trial, want, got)
		}
		// Rosters are stored as [k,i] pairs; the waiting terms they carry in
		// memory are priced again on load, which only the audit sees.
		if err := restored.checkInvariants(); err != nil {
			t.Fatalf("trial %d: restored allocation: %v", trial, err)
		}
	}
}

// A restored allocation must keep working: further identical operations on
// the original and the restored copy stay bit-identical, and a DeltaAnalyzer
// attaches cleanly.
func TestSnapshotRestoredAllocationIsLive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sys := randomSystem(rng, 4, 6, 4)
	a := New(sys)
	churn(rng, a, 200)
	restored, err := FromSnapshot(sys, a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	da := Track(restored)
	defer da.Close()
	for k := range sys.Strings {
		if restored.Complete(k) {
			restored.UnassignString(k)
			a.UnassignString(k)
			break
		}
	}
	da.Commit()
	if !bytes.Equal(fingerprint(t, a), fingerprint(t, restored)) {
		t.Error("original and restored diverged after identical post-restore operations")
	}
	if err := restored.checkInvariants(); err != nil {
		t.Error(err)
	}
	if got, want := da.FeasibleAfterDelta(), a.TwoStageFeasible(); got != want {
		t.Errorf("restored delta feasibility = %v, full analysis on original = %v", got, want)
	}
}

func TestSnapshotVersioning(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sys := randomSystem(rng, 4, 5, 4)
	a := New(sys)
	churn(rng, a, 200)
	snap := a.Snapshot()
	if snap.Version != SnapshotVersion {
		t.Fatalf("Snapshot wrote version %d, want %d", snap.Version, SnapshotVersion)
	}

	reload := func() *AllocationSnapshot {
		data, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		var cp AllocationSnapshot
		if err := json.Unmarshal(data, &cp); err != nil {
			t.Fatal(err)
		}
		return &cp
	}

	// Every version but the current one — the unversioned and version-1 dense
	// files of earlier builds, version 2's history-ordered rosters, an unknown
	// future version — is rejected with the typed error before any content is
	// interpreted, not as a downstream shape or digest failure.
	for _, v := range []int{-1, 0, 1, 2, SnapshotVersion + 1} {
		other := reload()
		other.Version = v
		_, err := FromSnapshot(sys, other)
		var verr *SnapshotVersionError
		if !errors.As(err, &verr) {
			t.Fatalf("version %d error = %v, want *SnapshotVersionError", v, err)
		}
		if verr.Version != v || verr.Supported != SnapshotVersion {
			t.Errorf("SnapshotVersionError = %+v, want Version %d Supported %d", verr, v, SnapshotVersion)
		}
	}

	// Machine entries must be strictly ascending and in range.
	if len(snap.Machines) >= 2 {
		swapped := reload()
		swapped.Machines[0], swapped.Machines[1] = swapped.Machines[1], swapped.Machines[0]
		if _, err := FromSnapshot(sys, swapped); err == nil {
			t.Error("out-of-order machine entries accepted")
		}
	}
	oob := reload()
	oob.Machines[len(oob.Machines)-1].Machine = sys.Machines
	if _, err := FromSnapshot(sys, oob); err == nil {
		t.Error("out-of-range machine entry accepted")
	}
}

func TestFromSnapshotRejectsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sys := randomSystem(rng, 3, 4, 3)
	a := New(sys)
	churn(rng, a, 150)
	base := a.Snapshot()

	corrupt := []struct {
		name string
		mod  func(s *AllocationSnapshot)
	}{
		{"string count", func(s *AllocationSnapshot) { s.Strings = s.Strings[:len(s.Strings)-1] }},
		{"machine count", func(s *AllocationSnapshot) { s.Machines = s.Machines[:len(s.Machines)-1] }},
		{"machine range", func(s *AllocationSnapshot) { s.Strings[0].Machines[0] = 99 }},
		{"bad bits", func(s *AllocationSnapshot) { s.Strings[0].Tightness = "zz" }},
		{"roster mismatch", func(s *AllocationSnapshot) {
			for j := range s.Machines {
				if len(s.Machines[j].Roster) > 0 {
					s.Machines[j].Roster[0] = [2]int{0, 0}
					if a.Machine(0, 0) == j {
						s.Machines[j].Roster[0] = [2]int{1, 0}
						if a.Machine(1, 0) == j {
							s.Machines[j].Roster = s.Machines[j].Roster[:len(s.Machines[j].Roster)-1]
						}
					}
					return
				}
			}
		}},
		{"route self-loop", func(s *AllocationSnapshot) {
			if len(s.Routes) == 0 {
				s.Strings = nil // force a different failure so the case still errors
				return
			}
			s.Routes[0].To = s.Routes[0].From
		}},
	}
	for _, tc := range corrupt {
		data, _ := json.Marshal(base)
		var snap AllocationSnapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatal(err)
		}
		tc.mod(&snap)
		if _, err := FromSnapshot(sys, &snap); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", tc.name)
		}
	}
}

// A roster out of canonical order is refused, not restored: two swapped
// entries of a machine roster, and of a route roster, each name the pair.
func TestFromSnapshotRejectsSwappedRoster(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sys := randomSystem(rng, 3, 6, 3)
	a := New(sys)
	for k := range sys.Strings {
		machines := make([]int, len(sys.Strings[k].Apps))
		for i := range machines {
			machines[i] = (k + 2*i) % sys.Machines
		}
		a.AssignString(k, machines)
	}
	reload := func() *AllocationSnapshot {
		data, err := json.Marshal(a.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		var cp AllocationSnapshot
		if err := json.Unmarshal(data, &cp); err != nil {
			t.Fatal(err)
		}
		return &cp
	}
	if _, err := FromSnapshot(sys, reload()); err != nil {
		t.Fatalf("canonical snapshot refused: %v", err)
	}
	swapped := 0
	for m := range reload().Machines {
		snap := reload()
		if r := snap.Machines[m].Roster; len(r) >= 2 {
			r[0], r[1] = r[1], r[0]
			_, err := FromSnapshot(sys, snap)
			if err == nil || !strings.Contains(err.Error(), "canonical order") {
				t.Fatalf("machine %d roster with its first two entries swapped: error %v, want canonical order named", snap.Machines[m].Machine, err)
			}
			swapped++
		}
	}
	for r := range reload().Routes {
		snap := reload()
		if ro := snap.Routes[r].Roster; len(ro) >= 2 {
			ro[0], ro[1] = ro[1], ro[0]
			_, err := FromSnapshot(sys, snap)
			if err == nil || !strings.Contains(err.Error(), "canonical order") {
				t.Fatalf("route %d->%d roster with its first two entries swapped: error %v, want canonical order named", snap.Routes[r].From, snap.Routes[r].To, err)
			}
			swapped++
		}
	}
	if swapped == 0 {
		t.Fatal("no roster holds two entries; nothing was swapped")
	}
}

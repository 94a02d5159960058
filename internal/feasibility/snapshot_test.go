package feasibility

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
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
		// Rosters are not stored but rebuilt on load, with waiting terms and
		// positions only the audit sees.
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
	// files of earlier builds, version 2's history-ordered rosters, version 4's
	// recorded rosters and tightness bits, an unknown future version — is
	// rejected with the typed error before any content is interpreted, not as
	// a downstream shape or digest failure.
	for _, v := range []int{-1, 0, 1, 2, 3, 4, SnapshotVersion + 1} {
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
		{"vector length", func(s *AllocationSnapshot) { s.Strings[0].Machines = s.Strings[0].Machines[1:] }},
		{"machine range", func(s *AllocationSnapshot) { s.Strings[0].Machines[0] = 99 }},
		{"negative machine", func(s *AllocationSnapshot) { s.Strings[0].Machines[0] = Unassigned - 1 }},
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

package rng

import (
	"encoding/json"
	"testing"
)

// TestNamedStreamFirstDraws pins the first draws of every named subsystem
// stream at root seed 1. Re-keying a subsystem — renaming its label, changing
// the mixing, reordering the key components — silently shifts every
// downstream experiment result, so it must fail loudly here instead.
func TestNamedStreamFirstDraws(t *testing.T) {
	golden := []struct {
		subsystem string
		want      [3]uint64
	}{
		{"workload", [3]uint64{0xbed7330e500cd95b, 0x74117f77f8c2bd2c, 0x1b1fcb3ec55abea4}},
		{"faults", [3]uint64{0xb363def2c8b0d823, 0x7636c0683732e079, 0x9cd61246e4bcd0c4}},
		{"overload", [3]uint64{0xd258e6588eb96a1a, 0xdf935ac114bb71ef, 0x5e0c61a5b1674f41}},
		{"genitor", [3]uint64{0x4560a1ed41ae4a67, 0xa084d839737784bf, 0x50e370ce0317d909}},
		{"heuristics/ssg", [3]uint64{0x1d84d1a20f94934e, 0x860a7775fd10828d, 0x4fa5a41cf65d258f}},
		{"heuristics/psg-trial", [3]uint64{0x57ba61e13b7f84f2, 0xb3ecfde0dbc33d1e, 0x2e0e56be96965fc9}},
		{"experiments/phasing", [3]uint64{0x5bf7a2f4bae21352, 0xd4418a0f42b1ac4c, 0x01e8845448919220}},
		{"experiments/search", [3]uint64{0x0c692aad458c32b8, 0xbe36bc5dac918e68, 0x0619b3e063d6f6c9}},
	}
	named := []string{SubsystemWorkload, SubsystemFaults, SubsystemOverload, SubsystemGenitor,
		SubsystemSSG, SubsystemPSGTrial, SubsystemPhasing, SubsystemSearch}
	if len(named) != len(golden) {
		t.Fatalf("%d named subsystems, %d golden rows — keep the table complete", len(named), len(golden))
	}
	for i, g := range golden {
		if named[i] != g.subsystem {
			t.Errorf("subsystem constant %d is %q, golden table says %q", i, named[i], g.subsystem)
		}
		s := NewStream(Key(1, g.subsystem, 0))
		for d, want := range g.want {
			if got := s.Uint64(); got != want {
				t.Errorf("%s draw %d = %#x, want %#x (stream was re-keyed)", g.subsystem, d, got, want)
			}
		}
	}
}

// TestStreamDeterminism: the same key always yields the same draws.
func TestStreamDeterminism(t *testing.T) {
	k := Key(42, SubsystemWorkload, 7)
	a, b := NewStream(k), NewStream(k)
	for i := 0; i < 100; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("draw %d: %#x != %#x for identical keys", i, x, y)
		}
	}
}

// TestStreamIndependence: keys differing in any single component yield
// streams that disagree immediately, including the old failure modes — two
// subsystems sharing a root seed, and stream indices that a multiplicative
// derivation like seed*31 would collide.
func TestStreamIndependence(t *testing.T) {
	base := Key(5, SubsystemWorkload, 0)
	variants := []SimulationKey{
		Key(6, SubsystemWorkload, 0),
		Key(5, SubsystemFaults, 0),
		Key(5, SubsystemWorkload, 1),
		Key(5*31, SubsystemWorkload, 0),
	}
	first := NewStream(base).Uint64()
	for _, v := range variants {
		if got := NewStream(v).Uint64(); got == first {
			t.Errorf("key %v first draw equals key %v first draw (%#x)", v, base, got)
		}
	}
}

// TestInt63MatchesUint64Position: Int63 and Uint64 both advance the stream by
// exactly one step — the property the draw-counting checkpoint scheme needs.
func TestInt63MatchesUint64Position(t *testing.T) {
	a, b := NewStream(Key(9, "t", 0)), NewStream(Key(9, "t", 0))
	a.Int63()
	b.Uint64()
	if a.Calls() != 1 || b.Calls() != 1 {
		t.Fatalf("calls after one draw: %d and %d, want 1", a.Calls(), b.Calls())
	}
	if x, y := a.Uint64(), b.Uint64(); x != y {
		t.Errorf("second draw diverged after Int63 vs Uint64 first draw: %#x != %#x", x, y)
	}
}

// TestSkipMatchesDraws: Skip(n) lands exactly where n sequential draws land.
func TestSkipMatchesDraws(t *testing.T) {
	k := Key(3, SubsystemGenitor, 2)
	drawn := NewStream(k)
	for i := 0; i < 1000; i++ {
		drawn.Uint64()
	}
	skipped := NewStream(k)
	skipped.Skip(1000)
	if skipped.Calls() != drawn.Calls() {
		t.Fatalf("calls %d after Skip, %d after draws", skipped.Calls(), drawn.Calls())
	}
	for i := 0; i < 10; i++ {
		if x, y := skipped.Uint64(), drawn.Uint64(); x != y {
			t.Fatalf("draw %d after skip: %#x, after draws: %#x", i, x, y)
		}
	}
}

// TestStateRestoreRoundTrip: a stream serialized mid-flight (through JSON, as
// a checkpoint would) continues bit-identically.
func TestStateRestoreRoundTrip(t *testing.T) {
	s := NewStream(Key(11, SubsystemOverload, 4))
	for i := 0; i < 57; i++ {
		s.Uint64()
	}
	blob, err := json.Marshal(s.State())
	if err != nil {
		t.Fatal(err)
	}
	var st StreamState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	r := Restore(st)
	if r.Key() != s.Key() || r.Calls() != s.Calls() {
		t.Fatalf("restored (key %v, calls %d), want (key %v, calls %d)", r.Key(), r.Calls(), s.Key(), s.Calls())
	}
	for i := 0; i < 20; i++ {
		if x, y := r.Uint64(), s.Uint64(); x != y {
			t.Fatalf("draw %d after restore: %#x, original: %#x", i, x, y)
		}
	}
}

// TestIsolation: consuming extra draws from one keyed stream leaves every
// other stream of the same root seed bit-identical — the property that lets
// scenarios compose without cross-contamination.
func TestIsolation(t *testing.T) {
	subsystems := []string{SubsystemWorkload, SubsystemFaults, SubsystemOverload, SubsystemGenitor}
	record := func(extra int) map[string][8]uint64 {
		// The faults subsystem consumes extra draws before anyone else reads.
		greedy := NewStream(Key(17, SubsystemFaults, 0))
		for i := 0; i < extra; i++ {
			greedy.Uint64()
		}
		out := map[string][8]uint64{}
		for _, sub := range subsystems {
			if sub == SubsystemFaults {
				continue
			}
			var d [8]uint64
			s := NewStream(Key(17, sub, 0))
			for i := range d {
				d[i] = s.Uint64()
			}
			out[sub] = d
		}
		return out
	}
	base, noisy := record(0), record(1000)
	for sub, want := range base {
		if noisy[sub] != want {
			t.Errorf("%s stream shifted when the faults stream consumed extra draws", sub)
		}
	}
}

// TestDeriveSeedMatchesSeed64: the scalar derivation helpers agree, and a
// path component changes the result.
func TestDeriveSeedMatchesSeed64(t *testing.T) {
	if got, want := DeriveSeed(1, SubsystemWorkload), Key(1, SubsystemWorkload, 0).Seed64(); got != want {
		t.Errorf("DeriveSeed = %d, Seed64 = %d", got, want)
	}
	if DeriveSeed(1, "x", 0) == DeriveSeed(1, "x", 1) {
		t.Error("path index did not change the derived seed")
	}
	if DeriveSeed(1, "x", 2, 3) == DeriveSeed(1, "x", 3, 2) {
		t.Error("path order did not change the derived seed")
	}
}

// TestKeyStringRoundTrip: String and ParseKey invert each other, including
// labels that contain slashes and negative numbers.
func TestKeyStringRoundTrip(t *testing.T) {
	keys := []SimulationKey{
		Key(1, SubsystemWorkload, 0),
		Key(-7, SubsystemPSGTrial, 3),
		Key(0, "a/b/c", -2),
	}
	for _, k := range keys {
		got, err := ParseKey(k.String())
		if err != nil {
			t.Errorf("ParseKey(%q): %v", k.String(), err)
			continue
		}
		if got != k {
			t.Errorf("ParseKey(%q) = %+v, want %+v", k.String(), got, k)
		}
	}
	for _, bad := range []string{"", "1", "1/2", "1//2", "x/y/z", "1/a/x"} {
		if _, err := ParseKey(bad); err == nil {
			t.Errorf("ParseKey(%q) accepted a malformed key", bad)
		}
	}
}

// TestSeedResetsStream: Seed (the rand.Source obligation) rewinds to the
// start of the re-rooted stream with a zero call count.
func TestSeedResetsStream(t *testing.T) {
	s := NewStream(Key(4, "t", 1))
	for i := 0; i < 10; i++ {
		s.Uint64()
	}
	s.Seed(9)
	if s.Calls() != 0 {
		t.Errorf("calls after Seed = %d, want 0", s.Calls())
	}
	want := NewStream(Key(9, "t", 1)).Uint64()
	if got := s.Uint64(); got != want {
		t.Errorf("first draw after Seed(9) = %#x, want %#x", got, want)
	}
}

package soak

import (
	"strings"
	"testing"
	"time"

	"repro/internal/rng"
)

// small returns a fast soak configuration for tests.
func small() Config {
	return Config{
		Strings:   12,
		PSGPop:    20,
		PSGIters:  60,
		PSGTrials: 2,
		Periods:   3,
	}
}

// TestRunRepeatable: the same key yields the same fingerprint, and every
// stage digest is populated.
func TestRunRepeatable(t *testing.T) {
	a, err := Run(small(), 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(small(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("same key, fingerprints %s vs %s", a.Fingerprint, b.Fingerprint)
	}
	for _, st := range a.Stages() {
		if st.Digest == "" {
			t.Errorf("stage %s has an empty digest", st.Name)
		}
	}
	if a.Key != rng.Key(42, Label, 0) {
		t.Errorf("result key %v, want %v", a.Key, rng.Key(42, Label, 0))
	}
	c, err := Run(small(), 43)
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint == a.Fingerprint {
		t.Error("different seeds produced identical fingerprints (suspicious)")
	}
}

// TestResumedSearchMatchesUninterrupted: forcing the search through the
// checkpoint/resume path leaves the entire pipeline byte-identical.
func TestResumedSearchMatchesUninterrupted(t *testing.T) {
	base, err := Run(small(), 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := small()
	cfg.TrialDeadline = 5 * time.Millisecond
	resumed, err := Run(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if base.Fingerprint != resumed.Fingerprint {
		t.Fatalf("resumed run diverged: %s vs %s (after %d resume rounds)",
			base.Fingerprint, resumed.Fingerprint, resumed.SearchResumes)
	}
}

// TestWorkerCountsMatch: the pipeline fingerprint does not depend on the
// search parallelism.
func TestWorkerCountsMatch(t *testing.T) {
	var prev *Result
	for _, w := range []int{1, 3, 8} {
		cfg := small()
		cfg.Workers = w
		r, err := Run(cfg, 11)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && r.Fingerprint != prev.Fingerprint {
			t.Fatalf("workers %d fingerprint %s, want %s", w, r.Fingerprint, prev.Fingerprint)
		}
		prev = r
	}
}

// TestVerifyDeterminism exercises the full matrix on two seeds.
func TestVerifyDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full determinism matrix in -short mode")
	}
	results, err := VerifyDeterminism(small(), []int64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d baseline results, want 2", len(results))
	}
}

// TestVerifyIsolation: perturbing one subsystem leaves the sibling stages
// bit-identical.
func TestVerifyIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("isolation matrix in -short mode")
	}
	if _, err := VerifyIsolation(small(), 5); err != nil {
		t.Fatal(err)
	}
}

// TestIsolationDirect pins the core contract without the harness: adding
// fault events must not move the surge trace or the allocation.
func TestIsolationDirect(t *testing.T) {
	base, err := Run(small(), 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := small()
	cfg.Hits = 2
	cfg.RouteOutages = 3
	noisy, err := Run(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	if noisy.FaultsDigest == base.FaultsDigest {
		t.Error("bigger fault scenario left the faults digest unchanged (vacuous)")
	}
	if noisy.SystemDigest != base.SystemDigest {
		t.Error("fault perturbation changed the generated workload")
	}
	if noisy.AllocDigest != base.AllocDigest {
		t.Error("fault perturbation changed the search result")
	}
	if noisy.SurgeDigest != base.SurgeDigest {
		t.Error("fault perturbation changed the surge stage")
	}
	if noisy.ControlDigest == base.ControlDigest {
		t.Log("note: control digest unchanged despite bigger fault scenario (allowed, but unusual)")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Strings: -1},
		{Heuristic: "nope"},
		{TrialDeadline: -time.Second},
		{Periods: -1},
	}
	for i, c := range bad {
		cfg := c.WithDefaults()
		// Re-apply the invalid value: WithDefaults only fills zeros, so the
		// negative/bogus fields survive it.
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
	if err := small().WithDefaults().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestVerifyDeterminismRejectsEmptySeeds(t *testing.T) {
	if _, err := VerifyDeterminism(small(), nil); err == nil ||
		!strings.Contains(err.Error(), "no seeds") {
		t.Errorf("empty seed list accepted (err %v)", err)
	}
}

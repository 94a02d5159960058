package soak

import (
	"flag"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/workload"
)

// TestSoak's flags, which go after the package path:
//
//	go test -count=1 -run '^TestSoak$' -v ./internal/soak -soak.seeds 5
//
// logs five seeds' keys and fingerprints; -soak.verify adds the determinism
// matrix (workers 1/4/8 + checkpoint/resume), -soak.isolation the
// per-subsystem isolation matrix, and -soak.key 42/soak/0 reproduces one run
// from its printed key. With neither -soak.seeds nor -soak.key TestSoak
// skips, so a plain go test runs only the fixed tests below.
var (
	flagSeeds     = flag.Int("soak.seeds", 0, "number of root seeds to soak (seed0, seed0+1, ...); 0 with no -soak.key skips TestSoak")
	flagSeed0     = flag.Int64("soak.seed0", 1, "first root seed")
	flagKey       = flag.String("soak.key", "", "reproduce a single run from a printed SimulationKey (root/soak/0); overrides -soak.seeds")
	flagScenario  = flag.Int("soak.scenario", 1, "workload scenario (1, 2, or 3)")
	flagStrings   = flag.Int("soak.strings", 15, "strings per generated instance")
	flagPSGIters  = flag.Int("soak.psg-iters", 80, "GENITOR iteration budget")
	flagPSGTrials = flag.Int("soak.psg-trials", 2, "independent GENITOR trials")
	flagPeriods   = flag.Int("soak.periods", 4, "data sets per string in the replay")
	flagVerify    = flag.Bool("soak.verify", false, "run the determinism matrix (workers 1/4/8 + checkpoint/resume) per seed")
	flagIsolation = flag.Bool("soak.isolation", false, "run the per-subsystem isolation matrix on the first seed")
	flagStages    = flag.Bool("soak.stages", false, "log per-stage digests")
)

// soakRoots turns the seed flags into the root seeds TestSoak runs: the key's
// root alone when a key is given, else seeds roots from seed0. No roots means
// nothing was asked for.
func soakRoots(key string, seeds int, seed0 int64) ([]int64, error) {
	if key != "" {
		k, err := rng.ParseKey(key)
		if err != nil {
			return nil, err
		}
		if k.Subsystem != Label {
			return nil, fmt.Errorf("key %q is a %q key, want subsystem %q", key, k.Subsystem, Label)
		}
		return []int64{k.Root}, nil
	}
	if seeds < 0 {
		return nil, fmt.Errorf("%d seeds, want >= 0", seeds)
	}
	var roots []int64
	for i := 0; i < seeds; i++ {
		roots = append(roots, seed0+int64(i))
	}
	return roots, nil
}

// TestSoak runs the pipeline on the seeds its flags name and logs each run's
// key and fingerprint; -soak.verify and -soak.isolation add the determinism
// and isolation matrices.
func TestSoak(t *testing.T) {
	roots, err := soakRoots(*flagKey, *flagSeeds, *flagSeed0)
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) == 0 {
		t.Skip("no -soak.seeds or -soak.key")
	}
	cfg := Config{
		Scenario:  workload.Scenario(*flagScenario),
		Strings:   *flagStrings,
		PSGIters:  *flagPSGIters,
		PSGTrials: *flagPSGTrials,
		Periods:   *flagPeriods,
	}
	if *flagVerify {
		results, err := VerifyDeterminism(cfg, roots)
		for _, r := range results {
			report(t, r)
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("determinism: %d seed(s) x %v workers + checkpoint/resume: all fingerprints identical",
			len(roots), DeterminismWorkers)
	} else {
		for _, root := range roots {
			r, err := Run(cfg, root)
			if err != nil {
				t.Fatal(err)
			}
			report(t, r)
		}
	}
	if *flagIsolation {
		if _, err := VerifyIsolation(cfg, roots[0]); err != nil {
			t.Fatal(err)
		}
		t.Logf("isolation: perturbing each subsystem left every sibling stage digest bit-identical (key %v)",
			rng.Key(roots[0], Label, 0))
	}
}

// report logs one run's key, fingerprint and headline metrics, and with
// -soak.stages its stage digests.
func report(t *testing.T, r *Result) {
	t.Helper()
	line := fmt.Sprintf("key %-14v fingerprint %s  worth %.0f  mapped %d  fault-retained %.2f  surge-retained %.2f  qos %d",
		r.Key, r.Fingerprint, r.Worth, r.NumMapped, r.FaultRetained, r.SurgeRetained, r.QoSViolations)
	if r.SearchResumes > 0 {
		line += fmt.Sprintf("  resumes %d", r.SearchResumes)
	}
	t.Log(line)
	if *flagStages {
		for _, st := range r.Stages() {
			t.Logf("  %-8s %s", st.Name, st.Digest)
		}
	}
}

// TestSoakRoots: the flags TestSoak reads become root seeds, a key of another
// subsystem or a malformed key is refused, and no flags mean no seeds.
func TestSoakRoots(t *testing.T) {
	cases := []struct {
		name  string
		key   string
		seeds int
		seed0 int64
		want  []int64
		err   string
	}{
		{name: "no flags", seed0: 1},
		{name: "seeds", seeds: 3, seed0: 100, want: []int64{100, 101, 102}},
		{name: "key", key: "42/soak/0", seeds: 3, seed0: 1, want: []int64{42}},
		{name: "malformed key", key: "42/soak", seed0: 1, err: "want root/subsystem/stream"},
		{name: "key of another subsystem", key: "1/faults/0", seed0: 1, err: `want subsystem "soak"`},
		{name: "negative seeds", seeds: -1, seed0: 1, err: "seeds"},
	}
	for _, c := range cases {
		got, err := soakRoots(c.key, c.seeds, c.seed0)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("%s: roots %v, err %v; want an error containing %q", c.name, got, err, c.err)
			}
			continue
		}
		if err != nil || fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: roots %v, err %v; want %v", c.name, got, err, c.want)
		}
	}
}

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

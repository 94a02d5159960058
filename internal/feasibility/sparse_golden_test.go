// Golden equivalence suite for the sparse route-state refactor: the dense
// M×M representation (routeUtil/perRoute/routePos matrices) was replayed over
// keyed op sequences before the refactor and its observable output captured
// as digests below. The sparse per-machine adjacency must reproduce every one
// of them bitwise — violations, metric, tightness caches, Stage1Feasible, and
// the full feasibility.StateDigest state fingerprint after every round. The
// digests were re-recorded once since, when rosters took canonical priority
// order: on the same sequences every violation's string, kind and
// application, the worth, slackness and tightness bits and Stage1Feasible
// stayed what the dense implementation gave; only the fingerprint and, by
// ulps, some violations' values (waiting sums added in another order) moved.
// They were re-recorded again when utilizations became their rosters' totals
// instead of running balances: on all 120 rounds every violation's string,
// kind and application, the worth and tightness bits and Stage1Feasible
// stayed what they were; the slackness bits moved in 27 rounds, and with
// them the fingerprint.
// The test lives in the external test package so it sees exactly the exported
// surface consumers see.
package feasibility_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/feasibility"
	"repro/internal/rng"
	"repro/internal/workload"
)

// sparseGoldenRounds is the number of op rounds each case replays; each round
// applies 1–3 assign/remove/rescale operations and digests the state.
const sparseGoldenRounds = 40

type sparseGoldenCase struct {
	name   string
	cfg    workload.Config
	seed   int64
	golden string // digest of the observable output, see the file comment
}

func scenarioCfg(s workload.Scenario, strings int) workload.Config {
	cfg := workload.ScenarioConfig(s)
	cfg.Strings = strings
	return cfg
}

var sparseGoldenCases = []sparseGoldenCase{
	{
		name:   "scenario1-m12",
		cfg:    scenarioCfg(workload.HighlyLoaded, 20),
		seed:   11,
		golden: "9846d07beba8cd05d8276e4de87a8865",
	},
	{
		name:   "scenario2-m12",
		cfg:    scenarioCfg(workload.QoSLimited, 30),
		seed:   22,
		golden: "dde1a8e4f1347426fcaa7c1f4f22720f",
	},
	{
		name:   "fleet-m64",
		cfg:    workload.FleetConfig(64, 2),
		seed:   33,
		golden: "cd34e81fcc05efaab6348d4a6cbf75da",
	},
}

// replaySparseOps drives one keyed op sequence over a fresh allocation,
// folding every observable quantity into the returned digest. checkClone
// additionally asserts, on a sample of rounds, that Clone reproduces the
// exact state fingerprint.
func replaySparseOps(t *testing.T, cfg workload.Config, seed int64, rounds int) string {
	t.Helper()
	sys := workload.MustGenerate(cfg, seed)
	a := feasibility.New(sys)
	r := rng.NewRand(seed, rng.SubsystemSparse, 0)
	h := sha256.New()
	for round := 0; round < rounds; round++ {
		applySparseOps(r, a)
		digestObservable(h, a, round)
		if round%8 == 0 {
			want := feasibility.StateDigest(a)
			if got := feasibility.StateDigest(a.Clone()); got != want {
				t.Fatalf("round %d: Clone digest %s, original %s", round, got, want)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// applySparseOps applies 1–3 random operations: (re)assign a string to fresh
// machines (sometimes only a prefix, so incomplete strings stay exercised),
// remove a string, or rescale a string's QoS constraints and remap it onto
// the same machines — the service rescale semantics: the string must leave
// every roster before its period changes.
func applySparseOps(r *rand.Rand, a *feasibility.Allocation) {
	sys := a.System()
	n := len(sys.Strings)
	for op, nOps := 0, 1+r.Intn(3); op < nOps; op++ {
		k := r.Intn(n)
		apps := len(sys.Strings[k].Apps)
		switch r.Intn(3) {
		case 0: // (re)assign
			a.UnassignString(k)
			limit := apps
			if r.Intn(4) == 0 {
				limit = 1 + r.Intn(apps)
			}
			for i := 0; i < limit; i++ {
				a.Assign(k, i, r.Intn(sys.Machines))
			}
		case 1: // remove
			a.UnassignString(k)
		case 2: // rescale and remap in place
			machines := a.StringMachines(k)
			f := 0.8 + 0.6*r.Float64()
			a.UnassignString(k)
			sys.Strings[k].Period *= f
			sys.Strings[k].MaxLatency *= f
			for i, j := range machines {
				if j != feasibility.Unassigned {
					a.Assign(k, i, j)
				}
			}
		}
	}
}

// digestObservable folds the allocation's analysis-facing output into h:
// every equation-(1) violation, the two-component metric, stage-1
// feasibility, each complete string's cached tightness, and the canonical
// state fingerprint.
func digestObservable(h hash.Hash, a *feasibility.Allocation, round int) {
	fmt.Fprintf(h, "round%d|", round)
	for _, v := range a.Violations() {
		fmt.Fprintf(h, "v%d,%s,%d,%016x,%016x|",
			v.StringID, v.Kind, v.App, math.Float64bits(v.Value), math.Float64bits(v.Bound))
	}
	m := a.Metric()
	fmt.Fprintf(h, "m%016x,%016x|s1=%v|", math.Float64bits(m.Worth), math.Float64bits(m.Slackness), a.Stage1Feasible())
	for k := range a.System().Strings {
		if a.Complete(k) {
			fmt.Fprintf(h, "t%d,%016x|", k, math.Float64bits(a.Tightness(k)))
		}
	}
	fmt.Fprintf(h, "%s|", feasibility.StateDigest(a))
}

// TestSparseMatchesDenseGolden replays each keyed op sequence and requires
// its recorded digest.
func TestSparseMatchesDenseGolden(t *testing.T) {
	for _, tc := range sparseGoldenCases {
		t.Run(tc.name, func(t *testing.T) {
			got := replaySparseOps(t, tc.cfg, tc.seed, sparseGoldenRounds)
			if got != tc.golden {
				t.Errorf("digest %s, golden (dense) %s", got, tc.golden)
			}
		})
	}
}

// snapshotGoldenFile pairs a v1 snapshot JSON (written by the dense
// implementation, no version field) with the state digest of the state it
// captured, as the current fingerprint prints it.
type snapshotGoldenFile struct {
	Digest string                          `json:"digest"`
	Snap   *feasibility.AllocationSnapshot `json:"snap"`
}

// snapshotGoldenSystem rebuilds the deterministic system the testdata
// snapshot was taken over.
func snapshotGoldenSystem() *feasibility.Allocation {
	cfg := scenarioCfg(workload.HighlyLoaded, 20)
	sys := workload.MustGenerate(cfg, 11)
	a := feasibility.New(sys)
	r := rng.NewRand(11, rng.SubsystemSparse, 1)
	for round := 0; round < 10; round++ {
		applySparseOps(r, a)
	}
	return a
}

// TestSnapshotV1Golden feeds FromSnapshot the version-1 snapshot file captured
// from the dense implementation (no version field, positional machines): the
// format is no longer read, so it must be refused with the typed version
// error rather than misread as sparse — as must version 2's history-ordered
// rosters, versions 3 and 4's recorded rosters and a future version. The digest beside it (re-recorded with the
// canonical roster order) pins the live replay of the same deterministic
// state, through a current-format round trip.
func TestSnapshotV1Golden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "snapshot_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file snapshotGoldenFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	live := snapshotGoldenSystem()
	for _, version := range []int{0, 2, 3, 4, feasibility.SnapshotVersion + 1} {
		file.Snap.Version = version // 0 is the file as written
		_, err := feasibility.FromSnapshot(live.System(), file.Snap)
		var verr *feasibility.SnapshotVersionError
		if !errors.As(err, &verr) {
			t.Fatalf("FromSnapshot(version %d) error = %v, want *SnapshotVersionError", version, err)
		}
		if verr.Version != version || verr.Supported != feasibility.SnapshotVersion {
			t.Errorf("SnapshotVersionError = %+v, want Version %d Supported %d", verr, version, feasibility.SnapshotVersion)
		}
	}
	if got := feasibility.StateDigest(live); got != file.Digest {
		t.Errorf("live replay digest %s, recorded %s", got, file.Digest)
	}
	again, err := feasibility.FromSnapshot(live.System(), live.Snapshot())
	if err != nil {
		t.Fatalf("FromSnapshot(round trip): %v", err)
	}
	if got := feasibility.StateDigest(again); got != file.Digest {
		t.Errorf("round-trip digest %s, recorded %s", got, file.Digest)
	}
}

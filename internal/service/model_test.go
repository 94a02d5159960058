package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/feasibility"
	"repro/internal/heuristics"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/workload"
)

// refService is the oracle the real service is driven beside: no analyzer, no
// window, no journal, no incremental mirrors. Every op is tried on a Clone of
// the reference allocation (a bit-exact copy, so an accepted trial simply
// replaces it and a rejected one is dropped — the plain counterpart of
// Commit/Undo), placed with the unmasked IMR, and judged by the full two-stage
// analysis run from scratch. Demand is defined as the service defines it —
// base × cumulative scale, one multiply from the pristine float — written out
// again here rather than shared, over the oracle's own copy of the catalog.
type refService struct {
	base   *model.System // as generated; never written
	sys    *model.System // base × scale, what alloc is built over
	scale  []float64
	alloc  *feasibility.Allocation
	mapped map[int]bool
}

// refOutcome is what one op must agree on with the real Decision.
type refOutcome struct {
	conflict   bool // the real service must answer with an error envelope
	accepted   bool
	violations []feasibility.Violation
}

func newRefService(base *model.System) *refService {
	sys := base.Clone()
	return &refService{base: base, sys: sys, scale: unitScales(len(sys.Strings)),
		alloc: feasibility.New(sys), mapped: map[int]bool{}}
}

// place tries string k on a clone and keeps the clone iff the whole
// allocation passes the full analysis.
func (r *refService) place(k int, base *feasibility.Allocation) refOutcome {
	trial := base.Clone()
	heuristics.MapStringIMR(trial, k)
	if !trial.TwoStageFeasible() {
		return refOutcome{violations: trial.Violations()}
	}
	r.alloc = trial
	return refOutcome{accepted: true}
}

func (r *refService) admit(k int) refOutcome {
	if r.mapped[k] {
		return refOutcome{conflict: true}
	}
	out := r.place(k, r.alloc)
	if out.accepted {
		r.mapped[k] = true
	}
	return out
}

func (r *refService) remove(k int) refOutcome {
	if !r.mapped[k] {
		return refOutcome{conflict: true}
	}
	r.alloc.UnassignString(k)
	delete(r.mapped, k)
	return refOutcome{accepted: true}
}

// setScale sets string k's demand to base × g.
func (r *refService) setScale(k int, g float64) {
	base, apps := r.base.Strings[k].Apps, r.sys.Strings[k].Apps
	for i := range apps {
		for j := range apps[i].NominalTime {
			apps[i].NominalTime[j] = base[i].NominalTime[j] * g
		}
		apps[i].OutputKB = base[i].OutputKB * g
	}
}

func (r *refService) rescale(k int, factor float64) refOutcome {
	g := r.scale[k] * factor
	if !r.mapped[k] {
		r.setScale(k, g)
		r.scale[k] = g
		return refOutcome{accepted: true}
	}
	without := r.alloc.Clone()
	without.UnassignString(k) // demand leaves the rosters at the old scale
	r.setScale(k, g)
	out := r.place(k, without)
	if out.accepted {
		r.scale[k] = g
	} else {
		r.setScale(k, r.scale[k])
	}
	return out
}

// memoAndFreshDigest reads the state's memoised digest and recomputes it
// from scratch: the fresh side formats the whole WriteState text, so it checks
// the analyzer's line cache the memo was filled from as well as the memo.
func memoAndFreshDigest(t *testing.T, svc *Service) (memo, fresh string) {
	t.Helper()
	if err := svc.exec(func(st *state) { memo, fresh = st.digest(), uncachedDigest(t, st.alloc) }); err != nil {
		t.Fatal(err)
	}
	return memo, fresh
}

// uncachedDigest is feasibility.StateDigest by its definition, with no line
// cache in the way: the first 16 hex digits of sha256 over the WriteState
// text and a '|'.
func uncachedDigest(t *testing.T, a *feasibility.Allocation) string {
	t.Helper()
	h := sha256.New()
	if err := a.WriteState(h); err != nil {
		t.Fatal(err)
	}
	h.Write([]byte{'|'})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// modelOp draws the next op of the keyed stream. The string and the op kind
// are independent, so a share of ops lands on the wrong half of the catalog
// (conflicts, catalog-only rescales); rescale factors lean upward so load
// compounds until placements start being rejected.
func modelOp(r *rand.Rand, n int) (op string, k int, factor float64) {
	k = r.Intn(n)
	switch p := r.Intn(10); {
	case p < 5:
		return opAdmit, k, 0
	case p < 7:
		return opRemove, k, 0
	default:
		return opRescale, k, 0.7 + 2.3*r.Float64()
	}
}

// applyModelOp runs one drawn op on the service.
func applyModelOp(svc *Service, op string, k int, factor float64) (Decision, error) {
	switch op {
	case opAdmit:
		return svc.Admit(k)
	case opRemove:
		return svc.Remove(k)
	}
	return svc.Rescale(k, factor)
}

// TestLockstepAgainstReferenceModel drives the real service and the
// reference side by side over one keyed admit/remove/rescale stream and
// requires, after every op, the same verdict, the same violation list and the
// same bit-exact state digest. This is the cross-check the delta serve path
// is held to: the full analysis lives here, as the oracle, and nowhere in the
// shipped daemon.
func TestLockstepAgainstReferenceModel(t *testing.T) {
	paper := workload.ScenarioConfig(workload.HighlyLoaded)
	for _, tc := range []struct {
		name     string
		cfg      workload.Config
		machines int
	}{
		{"paper-m12", paper, 12},
		{"fleet-m64", workload.FleetConfig(64, 2), 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const seed, ops = 17, 600
			sys := workload.MustGenerate(tc.cfg, seed)
			if sys.Machines != tc.machines {
				t.Fatalf("workload has %d machines, want %d", sys.Machines, tc.machines)
			}
			ref := newRefService(sys)
			svc, err := New(Config{System: sys})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			r := rng.NewRand(seed, "service/model", 0)
			var accepted, rejected, conflicts int
			for step := 0; step < ops; step++ {
				op, k, factor := modelOp(r, len(sys.Strings))
				var want refOutcome
				switch op {
				case opAdmit:
					want = ref.admit(k)
				case opRemove:
					want = ref.remove(k)
				case opRescale:
					want = ref.rescale(k, factor)
				}
				got, err := applyModelOp(svc, op, k, factor)
				label := fmt.Sprintf("step %d %s(%d, %.3f)", step, op, k, factor)
				if want.conflict {
					conflicts++
					if err == nil {
						t.Fatalf("%s: accepted as %+v, reference says conflict", label, got)
					}
				} else {
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if got.Accepted != want.accepted {
						t.Fatalf("%s: Accepted = %v, full analysis says %v", label, got.Accepted, want.accepted)
					}
					if !reflect.DeepEqual(got.Violations, fromViolations(want.violations)) {
						t.Fatalf("%s: Violations = %+v, full analysis says %+v", label, got.Violations, want.violations)
					}
					if got.Accepted {
						accepted++
					} else {
						rejected++
					}
				}
				state, err := svc.State()
				if err != nil {
					t.Fatal(err)
				}
				if want := feasibility.StateDigest(ref.alloc); state.Digest != want {
					t.Fatalf("%s: digest %s, reference %s", label, state.Digest, want)
				}
				if want := ref.alloc.TwoStageFeasible(); state.Feasible != want {
					t.Fatalf("%s: Feasible = %v, full analysis says %v", label, state.Feasible, want)
				}
				requireStateRead(t, svc, label)
				// The digest is memoised on seq; that key is sound only while
				// every mutating path advances seq, conflicts included.
				if memo, fresh := memoAndFreshDigest(t, svc); memo != fresh {
					t.Fatalf("%s: memoised digest %s, fresh digest %s", label, memo, fresh)
				}
				if got := state.StringStates[k].Scale; got != ref.scale[k] {
					t.Fatalf("%s: scale[%d] = %v, reference %v", label, k, got, ref.scale[k])
				}
			}
			// The stream must actually reach every branch it claims to check.
			t.Logf("%d accepted, %d rejected, %d conflicts", accepted, rejected, conflicts)
			if accepted == 0 || rejected == 0 || conflicts == 0 {
				t.Error("weak stream: a verdict kind never occurred")
			}
		})
	}
}

package heuristics

import (
	"math/rand"
	"testing"

	"repro/internal/feasibility"
)

// TestMapSequenceRejectsBadOrders: the sequential mappers used to accept
// orders with repeated or out-of-range indices and silently corrupt the
// incremental utilization bookkeeping. They must panic instead.
func TestMapSequenceRejectsBadOrders(t *testing.T) {
	sys := easySystem() // 4 strings
	bad := [][]int{
		{0, 1, 1, 3},    // duplicate
		{0, 1, 2, 4},    // out of range
		{0, 1, 2, -1},   // negative
		{0, 1, 2},       // short
		{0, 1, 2, 3, 0}, // too long
		{},              // empty
		{2, 2, 2, 2},    // all duplicates
	}
	for _, order := range bad {
		mustPanic(t, func() { MapSequence(sys, order) })
		mustPanic(t, func() { MapSequenceSkip(sys, order) })
		mustPanic(t, func() { MapSequenceInto(feasibility.New(sys), order) })
	}
	// A valid permutation still works on all three entry points.
	if r := MapSequence(sys, []int{3, 2, 1, 0}); r.NumMapped != 4 {
		t.Errorf("valid order mapped %d of 4", r.NumMapped)
	}
	if r := MapSequenceSkip(sys, []int{3, 2, 1, 0}); r.NumMapped != 4 {
		t.Errorf("valid order (skip) mapped %d of 4", r.NumMapped)
	}
	if m := MapSequenceInto(feasibility.New(sys), []int{3, 2, 1, 0}); m.Worth != 121 {
		t.Errorf("valid order (into) worth %v, want 121", m.Worth)
	}
}

// TestMapSequenceIntoReuse: one scratch allocation reused across many decodes
// must keep producing exactly the metric a fresh MapSequence computes — the
// regression this guards against is Reset leaving residue that drifts the
// incremental bookkeeping.
func TestMapSequenceIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 5; trial++ {
		sys := randomTestSystem(rng, 3, 9)
		scratch := feasibility.New(sys)
		for rep := 0; rep < 30; rep++ {
			order := rng.Perm(len(sys.Strings))
			got := MapSequenceInto(scratch, order)
			want := MapSequence(sys, order).Metric
			if got != want {
				t.Fatalf("trial %d rep %d: reused scratch metric %+v, fresh %+v (order %v)",
					trial, rep, got, want, order)
			}
		}
	}
}

// TestParallelPSGMatchesSerial: for a fixed seed, every PSG variant must
// report metric-for-metric identical results for any worker count — the
// tentpole determinism contract (trials have independent RNG streams, decoding
// is pure, best-of is taken in trial order).
func TestParallelPSGMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 3; trial++ {
		sys := randomTestSystem(rng, 3, 10)
		cfg := testPSGConfig(int64(trial) + 11)
		cfg.Trials = 2
		for _, name := range []string{"PSG", "SeededPSG", "ClassedPSG"} {
			cfg.Workers = 1
			serial := Run(name, sys, cfg)
			for _, workers := range []int{2, 4, 7} {
				cfg.Workers = workers
				par := Run(name, sys, cfg)
				if par.Metric != serial.Metric {
					t.Errorf("trial %d %s workers=%d: metric %+v, serial %+v",
						trial, name, workers, par.Metric, serial.Metric)
				}
				if par.NumMapped != serial.NumMapped {
					t.Errorf("trial %d %s workers=%d: mapped %d, serial %d",
						trial, name, workers, par.NumMapped, serial.NumMapped)
				}
				if par.Iterations != serial.Iterations || par.Evaluations != serial.Evaluations {
					t.Errorf("trial %d %s workers=%d: stats (%d it, %d ev), serial (%d it, %d ev)",
						trial, name, workers, par.Iterations, par.Evaluations,
						serial.Iterations, serial.Evaluations)
				}
				if par.StopReason != serial.StopReason {
					t.Errorf("trial %d %s workers=%d: stop %q, serial %q",
						trial, name, workers, par.StopReason, serial.StopReason)
				}
				for k := range sys.Strings {
					if par.Alloc.Complete(k) != serial.Alloc.Complete(k) {
						t.Errorf("trial %d %s workers=%d: mapped set differs at string %d",
							trial, name, workers, k)
						break
					}
				}
			}
		}
	}
}

package heuristics

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// resultsIdentical compares two search results bit for bit: the followed
// permutation, the mapped set, every machine assignment, the metric, and the
// accumulated search counters.
func resultsIdentical(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.Metric != want.Metric {
		t.Fatalf("%s: metric %+v, want %+v", label, got.Metric, want.Metric)
	}
	if got.Iterations != want.Iterations || got.Evaluations != want.Evaluations ||
		got.StopReason != want.StopReason {
		t.Fatalf("%s: stats (%d it, %d ev, %q), want (%d it, %d ev, %q)", label,
			got.Iterations, got.Evaluations, got.StopReason,
			want.Iterations, want.Evaluations, want.StopReason)
	}
	for k := range want.Order {
		if got.Order[k] != want.Order[k] {
			t.Fatalf("%s: order %v, want %v", label, got.Order, want.Order)
		}
	}
	sys := want.Alloc.System()
	for k := range sys.Strings {
		if got.Alloc.Complete(k) != want.Alloc.Complete(k) {
			t.Fatalf("%s: string %d mapped = %v, want %v", label, k, got.Alloc.Complete(k), want.Alloc.Complete(k))
		}
		for i := range sys.Strings[k].Apps {
			if got.Alloc.Machine(k, i) != want.Alloc.Machine(k, i) {
				t.Fatalf("%s: string %d app %d on machine %d, want %d", label,
					k, i, got.Alloc.Machine(k, i), want.Alloc.Machine(k, i))
			}
		}
	}
}

// TestResumeSearchMatchesUninterrupted: a search interrupted at the very
// start (pre-canceled context), checkpointed through JSON, and resumed must
// reproduce the uninterrupted run's final allocation bit for bit.
func TestResumeSearchMatchesUninterrupted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sys := randomTestSystem(rng, 3, 8)
	cfg := testPSGConfig(23)
	cfg.Trials = 3

	want, cp, err := RunContext(context.Background(), "SeededPSG", sys, cfg)
	if err != nil || cp != nil {
		t.Fatalf("uninterrupted run: err %v, checkpoint %v", err, cp)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	_, scp, err := RunContext(canceled, "SeededPSG", sys, cfg)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled run error = %v, want ErrCanceled", err)
	}
	if scp == nil || scp.Interrupted() != cfg.Trials {
		t.Fatalf("canceled run checkpoint = %+v, want %d interrupted trials", scp, cfg.Trials)
	}

	// Round-trip through JSON, as a killed process would.
	data, err := json.Marshal(scp)
	if err != nil {
		t.Fatal(err)
	}
	got, cp2, err := ResumeSearch(context.Background(), sys, decodeSearchCheckpoint(t, data))
	if err != nil || cp2 != nil {
		t.Fatalf("resume: err %v, checkpoint %v", err, cp2)
	}
	resultsIdentical(t, "resumed-from-start", want, got)
}

// decodeSearchCheckpoint reads a search checkpoint the way shipsched -resume
// does: encoding/json into the struct.
func decodeSearchCheckpoint(t *testing.T, data []byte) *SearchCheckpoint {
	t.Helper()
	var scp SearchCheckpoint
	if err := json.Unmarshal(data, &scp); err != nil {
		t.Fatal(err)
	}
	return &scp
}

// TestResumeSearchIgnoresStoredDeadline: checkpoints written while the search
// configuration still carried a wall-clock budget have a "Deadline" key in the
// search config and in every engine config. Decoding ignores the key, and the
// resumed search reproduces the uninterrupted run bit for bit, so those files
// keep resuming.
func TestResumeSearchIgnoresStoredDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	sys := randomTestSystem(rng, 3, 8)
	cfg := testPSGConfig(29)
	cfg.Trials = 2

	want, _, err := RunContext(context.Background(), "PSG", sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	_, scp, err := RunContext(canceled, "PSG", sys, cfg)
	if !errors.Is(err, ErrCanceled) || scp == nil {
		t.Fatalf("setup: err %v, scp %v", err, scp)
	}
	data, err := json.Marshal(scp)
	if err != nil {
		t.Fatal(err)
	}
	// Every genitor.Config object — the search's and each trial engine's —
	// gets the key back, as the older writer emitted it.
	old := strings.ReplaceAll(string(data), `"Bias":`, `"Deadline":20000000,"Bias":`)
	if n := strings.Count(old, `"Deadline"`); n != 1+cfg.Trials {
		t.Fatalf("%d Deadline keys injected, want %d", n, 1+cfg.Trials)
	}
	got, cp2, err := ResumeSearch(context.Background(), sys, decodeSearchCheckpoint(t, []byte(old)))
	if err != nil || cp2 != nil {
		t.Fatalf("resume: err %v, checkpoint %v", err, cp2)
	}
	resultsIdentical(t, "resumed-from-deadline-file", want, got)
}

// TestResumeSearchMidway: interrupt a longer search partway via a short
// context deadline and resume under a fresh one per round (repeatedly, while
// the resumed run is interrupted again); the final result must match the
// uninterrupted run wherever the cuts land.
func TestResumeSearchMidway(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sys := randomTestSystem(rng, 3, 10)
	cfg := testPSGConfig(31)
	cfg.Trials = 2
	cfg.MaxIterations = 1500
	cfg.StallLimit = 400

	want, _, err := RunContext(context.Background(), "PSG", sys, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// One round: the search (prior nil) or its resume under a fresh 1 ms
	// budget; ErrCanceled comes back exactly when a checkpoint does.
	round := func(prior *SearchCheckpoint) (*Result, *SearchCheckpoint) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		var (
			r   *Result
			scp *SearchCheckpoint
			err error
		)
		if prior == nil {
			r, scp, err = RunContext(ctx, "PSG", sys, cfg)
		} else {
			r, scp, err = ResumeSearch(ctx, sys, prior)
		}
		if (scp != nil) != errors.Is(err, ErrCanceled) || (err != nil && scp == nil) {
			t.Fatalf("round: err %v with checkpoint %v", err, scp != nil)
		}
		return r, scp
	}
	got, scp := round(nil)
	for rounds := 0; scp != nil; rounds++ {
		if rounds > 10_000 {
			t.Fatal("resume loop did not converge")
		}
		got, scp = round(scp)
	}
	resultsIdentical(t, "resumed-midway", want, got)
}

// TestSearchCheckpointValidate rejects checkpoints that do not match the
// system or are structurally broken.
func TestSearchCheckpointValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sys := randomTestSystem(rng, 3, 6)
	cfg := testPSGConfig(3)
	cfg.Trials = 2
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	_, scp, err := RunContext(canceled, "PSG", sys, cfg)
	if !errors.Is(err, ErrCanceled) || scp == nil {
		t.Fatalf("setup: err %v, scp %v", err, scp)
	}

	other := randomTestSystem(rng, 4, 9)
	if _, _, err := ResumeSearch(context.Background(), other, scp); err == nil {
		t.Error("resume on a mismatched system succeeded")
	}

	scp.Heuristic = "MWF"
	if err := scp.Validate(sys); err == nil {
		t.Error("checkpoint for a non-checkpointable heuristic passed Validate")
	}
	scp.Heuristic = "PSG"

	scp.Trials = scp.Trials[:1]
	if err := scp.Validate(sys); err == nil {
		t.Error("checkpoint with missing trial entries passed Validate")
	}

	if _, _, err := ResumeSearch(context.Background(), sys, nil); err == nil {
		t.Error("nil checkpoint accepted")
	}
}

// TestRunCheckpointedNonSearchHeuristics: the one-shot heuristics started
// through RunContext return their own result with no checkpoint and no error.
func TestRunCheckpointedNonSearchHeuristics(t *testing.T) {
	sys := easySystem()
	for _, name := range []string{"MWF", "TF"} {
		r, scp, err := RunContext(context.Background(), name, sys, testPSGConfig(1))
		if err != nil || scp != nil {
			t.Fatalf("%s: err %v, checkpoint %v", name, err, scp)
		}
		if r.Name != name {
			t.Errorf("%s: result name %q", name, r.Name)
		}
	}
}

// TestPSGTrialPanicReturnsError: a panic inside a trial worker must surface
// as an error from the search, not crash the process (the pool recovers it).
// The panic is injected by corrupting a trial's stored engine state so
// genitor.Restore fails inside the worker.
func TestPSGTrialPanicReturnsError(t *testing.T) {
	sys := easySystem()
	cfg := testPSGConfig(1)
	cfg.Trials = 2
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	_, scp, err := RunContext(canceled, "PSG", sys, cfg)
	if !errors.Is(err, ErrCanceled) || scp == nil {
		t.Fatalf("setup: err %v, scp %v", err, scp)
	}
	// Invalidate the stored population of one trial so genitor.Restore errors
	// inside the pool worker, which panics, which the pool recovers.
	scp.Trials[1].Engine.Population[0].Perm[0] = 999
	if err := scp.Validate(sys); err == nil {
		t.Fatal("corrupt checkpoint passed validation")
	}
	// Call the core directly, as Validate in ResumeSearch would (correctly)
	// refuse it; the in-flight error path must still be an error, not a
	// crash.
	_, _, err = psgRun(context.Background(), sys, scp.Config, "PSG", scp)
	if err == nil {
		t.Fatal("corrupt trial state did not surface as an error")
	}
}

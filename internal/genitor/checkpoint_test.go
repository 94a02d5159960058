package genitor

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

// sortEval is a deterministic pure evaluator over the sortedness landscape.
func sortEval(p []int) Fitness { return Fitness{Primary: sortedness(p)} }

// runToEnd drives an engine to its natural stop and returns the result.
func runToEnd(t *testing.T, e *Engine) ([]int, Fitness, Stats) {
	t.Helper()
	perm, fit, stats := e.Run()
	if stats.StopReason == StopCanceled {
		t.Fatalf("uninterrupted run stopped with %q", stats.StopReason)
	}
	return perm, fit, stats
}

// TestCheckpointResumeMatchesUninterrupted is the core resumability
// guarantee: stopping an engine mid-search, serializing it through JSON, and
// restoring it must reproduce the uninterrupted run's final chromosome,
// fitness, and counters bit for bit.
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	cfg := Config{PopulationSize: 30, Bias: 1.6, MaxIterations: 400, StallLimit: 60, Seed: 42}
	const n = 12

	ref, err := New(cfg, n, nil, sortEval)
	if err != nil {
		t.Fatal(err)
	}
	wantPerm, wantFit, wantStats := runToEnd(t, ref)

	// Interruptions only ever land at iteration boundaries strictly before
	// the natural stop (RunContext polls its context before a Step, never
	// between a Step and its stop checks), so cut strictly inside the
	// uninterrupted run.
	stop := wantStats.Iterations
	for _, cut := range []int{0, 1, stop / 3, stop - 1} {
		eng, err := New(cfg, n, nil, sortEval)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cut; i++ {
			eng.Step()
		}
		// Round-trip the checkpoint through JSON, as a killed process would.
		data, err := json.Marshal(eng.Checkpoint())
		if err != nil {
			t.Fatal(err)
		}
		var cp Checkpoint
		if err := json.Unmarshal(data, &cp); err != nil {
			t.Fatal(err)
		}
		resumed, err := Restore(&cp, []Evaluator{sortEval})
		if err != nil {
			t.Fatal(err)
		}
		gotPerm, gotFit, gotStats := runToEnd(t, resumed)
		if gotFit != wantFit || gotStats != wantStats {
			t.Fatalf("cut %d: resumed run ended (%v, %+v), uninterrupted (%v, %+v)",
				cut, gotFit, gotStats, wantFit, wantStats)
		}
		for i := range wantPerm {
			if gotPerm[i] != wantPerm[i] {
				t.Fatalf("cut %d: resumed elite %v, uninterrupted %v", cut, gotPerm, wantPerm)
			}
		}
	}
}

// TestCheckpointIsDeepCopy: stepping the engine after a checkpoint must not
// disturb the captured state.
func TestCheckpointIsDeepCopy(t *testing.T) {
	cfg := Config{PopulationSize: 10, Bias: 1.6, MaxIterations: 100, StallLimit: 50, Seed: 7}
	eng, err := New(cfg, 8, nil, sortEval)
	if err != nil {
		t.Fatal(err)
	}
	cp := eng.Checkpoint()
	before := append([]int(nil), cp.Population[0].Perm...)
	calls := cp.RandCalls
	for i := 0; i < 50; i++ {
		eng.Step()
	}
	if cp.RandCalls != calls {
		t.Error("checkpoint RandCalls changed after stepping")
	}
	for i, g := range before {
		if cp.Population[0].Perm[i] != g {
			t.Fatal("checkpoint population mutated by later steps")
		}
	}
}

// TestCheckpointValidateRejectsCorruption: obvious corruption must be caught
// before a resume, not surfaced as a nonsense search.
func TestCheckpointValidateRejectsCorruption(t *testing.T) {
	cfg := Config{PopulationSize: 6, Bias: 1.6, MaxIterations: 50, StallLimit: 20, Seed: 1}
	eng, err := New(cfg, 5, nil, sortEval)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := []struct {
		name string
		mod  func(cp *Checkpoint)
	}{
		{"bad version", func(cp *Checkpoint) { cp.Version = 99 }},
		{"short population", func(cp *Checkpoint) { cp.Population = cp.Population[:3] }},
		{"broken permutation", func(cp *Checkpoint) { cp.Population[2].Perm[0] = 77 }},
		{"unsorted ranks", func(cp *Checkpoint) {
			cp.Population[len(cp.Population)-1].Fitness = Fitness{Primary: 1e9}
		}},
		{"negative counters", func(cp *Checkpoint) { cp.Iterations = -1 }},
	}
	for _, c := range corrupt {
		cp := eng.Checkpoint()
		c.mod(cp)
		if err := cp.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a corrupt checkpoint", c.name)
		}
		if _, err := Restore(cp, []Evaluator{sortEval}); err == nil {
			t.Errorf("%s: Restore accepted a corrupt checkpoint", c.name)
		}
	}
}

// TestDeadlineStopsRun: a context past its deadline must stop the run at an
// iteration boundary with StopCanceled, and a fresh RunContext call under a
// fresh budget must make further progress from where the first one stopped.
func TestDeadlineStopsRun(t *testing.T) {
	cfg := Config{PopulationSize: 20, Bias: 1.6, MaxIterations: 1 << 30, StallLimit: 1 << 30, Seed: 3}
	eng, err := New(cfg, 30, nil, sortEval)
	if err != nil {
		t.Fatal(err)
	}
	round := func() Stats {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		_, _, stats := eng.RunContext(ctx)
		if stats.StopReason != StopCanceled {
			t.Fatalf("stop reason %q, want %q", stats.StopReason, StopCanceled)
		}
		return stats
	}
	iters := round().Iterations
	if got := round().Iterations; got <= iters {
		t.Errorf("resumed run made no progress: %d then %d iterations", iters, got)
	}
}

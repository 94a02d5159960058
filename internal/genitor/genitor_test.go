package genitor

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

func TestFitnessBetter(t *testing.T) {
	cases := []struct {
		a, b Fitness
		want bool
	}{
		{Fitness{2, 0}, Fitness{1, 9}, true},
		{Fitness{1, 9}, Fitness{2, 0}, false},
		{Fitness{1, 2}, Fitness{1, 1}, true},
		{Fitness{1, 1}, Fitness{1, 2}, false},
		{Fitness{1, 1}, Fitness{1, 1}, false},
	}
	for _, c := range cases {
		if got := c.a.Better(c.b); got != c.want {
			t.Errorf("%v.Better(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestConfigValidate checks that each field failure produces its own error
// naming the offending field: MaxIterations and StallLimit were historically
// conflated into one message, which hid which knob was wrong.
func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		cfg  Config
		want string // substring the error must contain
	}{
		{Config{PopulationSize: 1, Bias: 1.5, MaxIterations: 10, StallLimit: 5}, "population size"},
		{Config{PopulationSize: 10, Bias: 0.5, MaxIterations: 10, StallLimit: 5}, "bias"},
		{Config{PopulationSize: 10, Bias: 2.5, MaxIterations: 10, StallLimit: 5}, "bias"},
		{Config{PopulationSize: 10, Bias: 1.5, MaxIterations: -1, StallLimit: 5}, "max iterations"},
		{Config{PopulationSize: 10, Bias: 1.5, MaxIterations: 10, StallLimit: 0}, "stall limit"},
		{Config{PopulationSize: 10, Bias: 1.5, MaxIterations: 10, StallLimit: -3}, "stall limit"},
	}
	for i, c := range cases {
		err := c.cfg.Validate()
		if err == nil {
			t.Errorf("case %d: invalid config accepted", i)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: error %q does not name field %q", i, err, c.want)
		}
	}
	// The two iteration-control fields must yield distinct diagnostics.
	badIters := Config{PopulationSize: 10, Bias: 1.5, MaxIterations: -1, StallLimit: 5}.Validate()
	badStall := Config{PopulationSize: 10, Bias: 1.5, MaxIterations: 10, StallLimit: 0}.Validate()
	if badIters.Error() == badStall.Error() {
		t.Errorf("MaxIterations and StallLimit failures share one error: %q", badIters)
	}
}

func TestIsPermutation(t *testing.T) {
	if !IsPermutation([]int{2, 0, 1}, 3) {
		t.Error("valid permutation rejected")
	}
	for _, bad := range [][]int{{0, 0, 1}, {0, 1}, {0, 1, 3}, {-1, 0, 1}} {
		if IsPermutation(bad, 3) {
			t.Errorf("invalid permutation %v accepted", bad)
		}
	}
}

func TestReorderTop(t *testing.T) {
	// Parent A top = [3 1 4], parent B order positions: 4 before 3 before 1.
	a := []int{3, 1, 4, 0, 2}
	b := []int{4, 3, 2, 1, 0}
	child := reorderTop(a, b, 3, make([]bool, 5))
	want := []int{4, 3, 1, 0, 2}
	for i := range want {
		if child[i] != want[i] {
			t.Fatalf("reorderTop = %v, want %v", child, want)
		}
	}
	// Original parent untouched.
	if a[0] != 3 {
		t.Error("reorderTop mutated the parent")
	}
}

// reorderTopSorted is reorderTop as a stable sort of the top part by each
// gene's position in other, the oracle for the marking walk.
func reorderTopSorted(parent, other []int, cut int) []int {
	child := append([]int(nil), parent...)
	pos := make(map[int]int, len(other))
	for idx, gene := range other {
		pos[gene] = idx
	}
	top := child[:cut]
	sort.SliceStable(top, func(x, y int) bool { return pos[top[x]] < pos[top[y]] })
	return child
}

// The marking walk returns the sort's child over random permutations and
// cuts, and hands its scratch back all false, as the next crossover needs it.
func TestReorderTopMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	for trial := 0; trial < 2000; trial++ {
		n := 2 + r.Intn(150)
		a, b, cut := r.Perm(n), r.Perm(n), 1+r.Intn(n-1)
		inTop := make([]bool, n)
		got, want := reorderTop(a, b, cut, inTop), reorderTopSorted(a, b, cut)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d cut=%d: reorderTop(%v, %v) = %v, the sort gives %v", n, cut, a, b, got, want)
		}
		if slices.Contains(inTop, true) {
			t.Fatalf("n=%d cut=%d: scratch left marked: %v", n, cut, inTop)
		}
	}
}

func countingEval(calls *int, score func([]int) float64) Evaluator {
	return func(p []int) Fitness {
		*calls++
		return Fitness{Primary: score(p)}
	}
}

// sortedness scores a permutation by the number of adjacent in-order pairs,
// a smooth landscape the GA must climb toward the identity permutation.
func sortedness(p []int) float64 {
	s := 0.0
	for i := 1; i < len(p); i++ {
		if p[i] > p[i-1] {
			s++
		}
	}
	return s
}

func TestCrossoverAndMutationProduceValidPermutations(t *testing.T) {
	calls := 0
	e, err := New(Config{PopulationSize: 20, Bias: 1.6, MaxIterations: 10, StallLimit: 5, Seed: 1},
		8, nil, countingEval(&calls, sortedness))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		a, b := e.pop[rng.Intn(len(e.pop))].perm, e.pop[rng.Intn(len(e.pop))].perm
		c1, c2 := e.crossover(a, b)
		if !IsPermutation(c1, 8) || !IsPermutation(c2, 8) {
			t.Fatalf("crossover broke permutations: %v %v", c1, c2)
		}
		m := e.mutate(a)
		if !IsPermutation(m, 8) {
			t.Fatalf("mutation broke permutation: %v", m)
		}
		diff := 0
		for i := range m {
			if m[i] != a[i] {
				diff++
			}
		}
		if diff != 2 {
			t.Fatalf("mutation changed %d positions, want 2", diff)
		}
	}
}

// TestBiasSelectionPressure checks Whitley's bias function: with bias 1.6 the
// top rank must be selected roughly 1.6 times more often than the median
// rank, and all ranks stay in range.
func TestBiasSelectionPressure(t *testing.T) {
	calls := 0
	e, err := New(Config{PopulationSize: 100, Bias: 1.6, MaxIterations: 1, StallLimit: 1, Seed: 7},
		5, nil, countingEval(&calls, sortedness))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 100)
	const draws = 400000
	for i := 0; i < draws; i++ {
		r := e.selectRank()
		if r < 0 || r >= 100 {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	top := float64(counts[0])
	median := float64(counts[49]+counts[50]) / 2
	ratio := top / median
	if ratio < 1.4 || ratio > 1.8 {
		t.Errorf("top/median selection ratio = %v, want about 1.6", ratio)
	}
	// Monotone decreasing on average: first decile beats last decile.
	firstDecile, lastDecile := 0, 0
	for i := 0; i < 10; i++ {
		firstDecile += counts[i]
		lastDecile += counts[90+i]
	}
	if firstDecile <= lastDecile {
		t.Errorf("selection not biased toward the top: %d vs %d", firstDecile, lastDecile)
	}
}

func TestUniformBiasDegradesToUniform(t *testing.T) {
	calls := 0
	e, err := New(Config{PopulationSize: 50, Bias: 1, MaxIterations: 1, StallLimit: 1, Seed: 7},
		5, nil, countingEval(&calls, sortedness))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 50)
	for i := 0; i < 100000; i++ {
		counts[e.selectRank()]++
	}
	for r, c := range counts {
		if c < 1000 || c > 3500 { // expected 2000 each
			t.Fatalf("bias-1 selection far from uniform at rank %d: %d", r, c)
		}
	}
}

// TestElitismMonotone: the elite fitness never worsens across steps (the
// paper's "globally monotone" property implemented by always removing the
// poorest chromosome).
func TestElitismMonotone(t *testing.T) {
	calls := 0
	e, err := New(Config{PopulationSize: 30, Bias: 1.6, MaxIterations: 500, StallLimit: 500, Seed: 11},
		10, nil, countingEval(&calls, sortedness))
	if err != nil {
		t.Fatal(err)
	}
	_, prev := e.Best()
	for i := 0; i < 500; i++ {
		e.Step()
		_, cur := e.Best()
		if prev.Better(cur) {
			t.Fatalf("elite fitness worsened at step %d: %v -> %v", i, prev, cur)
		}
		prev = cur
	}
}

func TestRunClimbsToOptimum(t *testing.T) {
	calls := 0
	e, err := New(Config{PopulationSize: 60, Bias: 1.6, MaxIterations: 4000, StallLimit: 600, Seed: 2},
		9, nil, countingEval(&calls, sortedness))
	if err != nil {
		t.Fatal(err)
	}
	_, initial := e.Best()
	best, fit, stats := e.Run()
	// A random permutation of 9 genes averages 4 in-order adjacent pairs;
	// the GA must climb to at least 7 of the maximum 8. (Exact optimality is
	// not guaranteed before the stall limit trips, so this is a lower bar.)
	if fit.Primary < 7 || fit.Primary < initial.Primary {
		t.Errorf("GA failed to climb: %v fitness %v from initial %v (stats %+v)", best, fit, initial, stats)
	}
	if stats.Evaluations != calls {
		t.Errorf("evaluation accounting off: %d vs %d", stats.Evaluations, calls)
	}
	if stats.StopReason == "" {
		t.Error("stop reason not set")
	}
}

func TestSeedsEnterPopulation(t *testing.T) {
	perfect := []int{0, 1, 2, 3, 4, 5}
	calls := 0
	e, err := New(Config{PopulationSize: 10, Bias: 1.6, MaxIterations: 0, StallLimit: 1, Seed: 3},
		6, [][]int{perfect}, countingEval(&calls, sortedness))
	if err != nil {
		t.Fatal(err)
	}
	best, fit, stats := e.Run()
	if stats.StopReason != StopMaxIterations {
		t.Errorf("stop reason = %q, want %q", stats.StopReason, StopMaxIterations)
	}
	if fit.Primary != 5 {
		t.Errorf("perfect seed not the elite: %v %v", best, fit)
	}
}

func TestMalformedSeedsRejected(t *testing.T) {
	calls := 0
	if _, err := New(DefaultConfig(), 4, [][]int{{0, 0, 1, 2}}, countingEval(&calls, sortedness)); err == nil {
		t.Error("duplicate-gene seed accepted")
	}
	if _, err := New(DefaultConfig(), 4, [][]int{{0, 1}}, countingEval(&calls, sortedness)); err == nil {
		t.Error("short seed accepted")
	}
	cfg := DefaultConfig()
	cfg.PopulationSize = 2
	if _, err := New(cfg, 2, [][]int{{0, 1}, {1, 0}, {0, 1}}, countingEval(&calls, sortedness)); err == nil {
		t.Error("seed overflow accepted")
	}
	if _, err := New(DefaultConfig(), 0, nil, countingEval(&calls, sortedness)); err == nil {
		t.Error("zero-length chromosome accepted")
	}
}

func TestConvergenceStop(t *testing.T) {
	// Single-gene chromosomes: population converges immediately.
	calls := 0
	e, err := New(Config{PopulationSize: 5, Bias: 1.6, MaxIterations: 100, StallLimit: 50, Seed: 3},
		1, nil, countingEval(&calls, sortedness))
	if err != nil {
		t.Fatal(err)
	}
	_, _, stats := e.Run()
	if stats.StopReason != StopConverged {
		t.Errorf("stop reason = %q, want %q", stats.StopReason, StopConverged)
	}
}

func TestEliteStallStop(t *testing.T) {
	// Constant fitness: no offspring ever beats the worst, so the elite
	// never changes and the stall limit trips.
	calls := 0
	e, err := New(Config{PopulationSize: 8, Bias: 1.6, MaxIterations: 100000, StallLimit: 20, Seed: 5},
		6, nil, countingEval(&calls, func([]int) float64 { return 1 }))
	if err != nil {
		t.Fatal(err)
	}
	_, _, stats := e.Run()
	if stats.StopReason != StopEliteStall {
		t.Errorf("stop reason = %q, want %q", stats.StopReason, StopEliteStall)
	}
	if stats.Iterations != 20 {
		t.Errorf("iterations = %d, want 20", stats.Iterations)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() ([]int, Fitness) {
		calls := 0
		e, err := New(Config{PopulationSize: 20, Bias: 1.6, MaxIterations: 200, StallLimit: 100, Seed: 77},
			8, nil, countingEval(&calls, sortedness))
		if err != nil {
			t.Fatal(err)
		}
		best, fit, _ := e.Run()
		return best, fit
	}
	b1, f1 := run()
	b2, f2 := run()
	if f1 != f2 {
		t.Fatalf("same seed produced different fitness: %v vs %v", f1, f2)
	}
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatalf("same seed produced different elites: %v vs %v", b1, b2)
		}
	}
}

package simplex

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// Classic production LP: max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18;
// optimum 36 at (2, 6).
func TestTextbookLP(t *testing.T) {
	p := NewProblem(2)
	p.SetObjective(0, 3)
	p.SetObjective(1, 5)
	p.MustAddConstraint([]int{0}, []float64{1}, LE, 4)
	p.MustAddConstraint([]int{1}, []float64{2}, LE, 12)
	p.MustAddConstraint([]int{0, 1}, []float64{3, 2}, LE, 18)
	sol := solve(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if !approx(sol.Objective, 36, 1e-8) {
		t.Errorf("objective %v, want 36", sol.Objective)
	}
	if !approx(sol.X[0], 2, 1e-8) || !approx(sol.X[1], 6, 1e-8) {
		t.Errorf("x = %v, want (2, 6)", sol.X)
	}
	if sol.Iterations == 0 {
		t.Errorf("zero iterations reported")
	}
}

// Minimization via negated objective with a >= constraint (phase 1 path):
// min 2x + 3y s.t. x + y >= 10 -> x = 10, y = 0, objective -20.
func TestMinimizationWithGE(t *testing.T) {
	p := NewProblem(2)
	p.SetObjective(0, -2)
	p.SetObjective(1, -3)
	p.MustAddConstraint([]int{0, 1}, []float64{1, 1}, GE, 10)
	sol := solve(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if !approx(sol.Objective, -20, 1e-8) {
		t.Errorf("objective %v, want -20", sol.Objective)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// max x + 2y s.t. x + y = 5, y <= 3 -> (2, 3), objective 8.
	p := NewProblem(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 2)
	p.MustAddConstraint([]int{0, 1}, []float64{1, 1}, EQ, 5)
	p.MustAddConstraint([]int{1}, []float64{1}, LE, 3)
	sol := solve(t, p)
	if sol.Status != Optimal || !approx(sol.Objective, 8, 1e-8) {
		t.Errorf("%v objective %v, want optimal 8", sol.Status, sol.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.SetObjective(0, 1)
	p.MustAddConstraint([]int{0}, []float64{1}, LE, 1)
	p.MustAddConstraint([]int{0}, []float64{1}, GE, 2)
	sol := solve(t, p)
	if sol.Status != Infeasible {
		t.Errorf("status %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(2)
	p.SetObjective(0, 1)
	p.MustAddConstraint([]int{0}, []float64{1}, GE, 1)
	sol := solve(t, p)
	if sol.Status != Unbounded {
		t.Errorf("status %v, want unbounded", sol.Status)
	}
}

func TestNoConstraints(t *testing.T) {
	p := NewProblem(2)
	sol := solve(t, p)
	if sol.Status != Optimal || sol.Objective != 0 {
		t.Errorf("%v %v, want optimal 0", sol.Status, sol.Objective)
	}
	p.SetObjective(1, 2)
	sol = solve(t, p)
	if sol.Status != Unbounded {
		t.Errorf("status %v, want unbounded", sol.Status)
	}
}

// TestNegativeRHS exercises the row-flipping path: max -x s.t. -x <= -3 means
// x >= 3, so the optimum is -3.
func TestNegativeRHS(t *testing.T) {
	p := NewProblem(1)
	p.SetObjective(0, -1)
	p.MustAddConstraint([]int{0}, []float64{-1}, LE, -3)
	sol := solve(t, p)
	if sol.Status != Optimal || !approx(sol.Objective, -3, 1e-8) {
		t.Errorf("%v objective %v, want optimal -3", sol.Status, sol.Objective)
	}
}

// TestBealeCycling runs Beale's classic cycling example; without
// anti-cycling safeguards the textbook simplex loops forever. Optimum 1/20.
func TestBealeCycling(t *testing.T) {
	p := NewProblem(4)
	p.SetObjective(0, 0.75)
	p.SetObjective(1, -150)
	p.SetObjective(2, 0.02)
	p.SetObjective(3, -6)
	p.MustAddConstraint([]int{0, 1, 2, 3}, []float64{0.25, -60, -0.04, 9}, LE, 0)
	p.MustAddConstraint([]int{0, 1, 2, 3}, []float64{0.5, -90, -0.02, 3}, LE, 0)
	p.MustAddConstraint([]int{2}, []float64{1}, LE, 1)
	sol := solve(t, p)
	if sol.Status != Optimal || !approx(sol.Objective, 0.05, 1e-8) {
		t.Errorf("%v objective %v, want optimal 0.05", sol.Status, sol.Objective)
	}
}

// TestRedundantEquality forces an artificial variable to stay basic at zero
// after phase 1 (duplicated equality row), exercising the drive-out path.
func TestRedundantEquality(t *testing.T) {
	p := NewProblem(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 1)
	p.MustAddConstraint([]int{0, 1}, []float64{1, 1}, EQ, 5)
	p.MustAddConstraint([]int{0, 1}, []float64{1, 1}, EQ, 5)
	p.MustAddConstraint([]int{0, 1}, []float64{2, 2}, EQ, 10)
	sol := solve(t, p)
	if sol.Status != Optimal || !approx(sol.Objective, 5, 1e-8) {
		t.Errorf("%v objective %v, want optimal 5", sol.Status, sol.Objective)
	}
}

func TestDegenerateRHS(t *testing.T) {
	// A vertex where multiple constraints are tight at 0.
	p := NewProblem(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 1)
	p.MustAddConstraint([]int{0, 1}, []float64{1, -1}, LE, 0)
	p.MustAddConstraint([]int{0, 1}, []float64{-1, 1}, LE, 0)
	p.MustAddConstraint([]int{0, 1}, []float64{1, 1}, LE, 4)
	sol := solve(t, p)
	if sol.Status != Optimal || !approx(sol.Objective, 4, 1e-8) {
		t.Errorf("%v objective %v, want optimal 4", sol.Status, sol.Objective)
	}
}

func TestAddConstraintValidation(t *testing.T) {
	p := NewProblem(2)
	if err := p.AddConstraint([]int{0}, []float64{1, 2}, LE, 1); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := p.AddConstraint([]int{5}, []float64{1}, LE, 1); err == nil {
		t.Error("out-of-range column accepted")
	}
	if err := p.AddConstraint([]int{0}, []float64{math.NaN()}, LE, 1); err == nil {
		t.Error("NaN coefficient accepted")
	}
	if err := p.AddConstraint([]int{0}, []float64{1}, LE, math.Inf(1)); err == nil {
		t.Error("infinite right side accepted")
	}
	// Duplicate columns merge.
	if err := p.AddConstraint([]int{0, 0, 1}, []float64{1, 2, 4}, LE, 9); err != nil {
		t.Fatal(err)
	}
	con := p.cons[0]
	if len(con.Cols) != 2 || con.Vals[0] != 3 || con.Vals[1] != 4 {
		t.Errorf("duplicate merge wrong: %+v", con)
	}
	// Out of order, with duplicates that are not adjacent and one column
	// whose coefficients cancel: sorted, summed in input order, zero dropped.
	// The caller's slices are neither kept nor reordered.
	p = NewProblem(4)
	cols, vals := []int{3, 1, 3, 2, 1}, []float64{1, 2, -1, 4, 5}
	if err := p.AddConstraint(cols, vals, GE, 1); err != nil {
		t.Fatal(err)
	}
	con = p.cons[0]
	if !reflect.DeepEqual(con.Cols, []int{1, 2}) || !reflect.DeepEqual(con.Vals, []float64{7, 4}) {
		t.Errorf("unsorted merge wrong: %+v", con)
	}
	if !reflect.DeepEqual(cols, []int{3, 1, 3, 2, 1}) || !reflect.DeepEqual(vals, []float64{1, 2, -1, 4, 5}) {
		t.Errorf("caller's slices were modified: %v %v", cols, vals)
	}
	cols[0] = 0
	if con.Cols[0] != 1 {
		t.Error("constraint aliases the caller's slice")
	}
}

func TestPanics(t *testing.T) {
	mustPanic(t, func() { NewProblem(0) })
	p := NewProblem(1)
	mustPanic(t, func() { p.SetObjective(2, 1) })
	mustPanic(t, func() { p.Objective(-1) })
	mustPanic(t, func() { p.MustAddConstraint([]int{9}, []float64{1}, LE, 0) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestStrings(t *testing.T) {
	for _, r := range []Relation{LE, GE, EQ, Relation(9)} {
		if r.String() == "" {
			t.Error("empty relation string")
		}
	}
	for _, s := range []Status{Optimal, Infeasible, Unbounded, Status(9)} {
		if s.String() == "" {
			t.Error("empty status string")
		}
	}
	seen := map[string]bool{}
	for w := WarmNotRefused; w <= WarmNumerical+1; w++ {
		if w.String() == "" || seen[w.String()] {
			t.Errorf("warm refusal %d: empty or repeated string %q", w, w.String())
		}
		seen[w.String()] = true
	}
}

func TestAddObjectiveAccumulates(t *testing.T) {
	p := NewProblem(1)
	p.AddObjective(0, 1)
	p.AddObjective(0, 2)
	if p.Objective(0) != 3 {
		t.Errorf("objective = %v, want 3", p.Objective(0))
	}
}

// randomFeasibleLP builds an LP known to contain the feasible point x0, with
// box bounds guaranteeing boundedness.
func randomFeasibleLP(rng *rand.Rand, n, m int) (*Problem, []float64) {
	p := NewProblem(n)
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		x0[j] = 5 * rng.Float64()
		p.SetObjective(j, rng.NormFloat64())
		p.MustAddConstraint([]int{j}, []float64{1}, LE, 10) // box bound
	}
	for i := 0; i < m; i++ {
		nnz := 1 + rng.Intn(n)
		cols := rng.Perm(n)[:nnz]
		vals := make([]float64, nnz)
		lhs := 0.0
		for idx, c := range cols {
			vals[idx] = rng.NormFloat64()
			lhs += vals[idx] * x0[c]
		}
		switch rng.Intn(3) {
		case 0:
			p.MustAddConstraint(cols, vals, LE, lhs+rng.Float64())
		case 1:
			p.MustAddConstraint(cols, vals, GE, lhs-rng.Float64())
		default:
			p.MustAddConstraint(cols, vals, EQ, lhs)
		}
	}
	return p, x0
}

// TestCrossValidation: on random feasible bounded LPs the solver's optimum
// carries its certificate and never falls below the known feasible point's
// value.
func TestCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(8)
		m := 1 + rng.Intn(8)
		p, x0 := randomFeasibleLP(rng, n, m)
		sol, err := p.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if c := p.Certify(sol); c > certTol {
			t.Fatalf("trial %d: %v, certificate term %g, for a feasible bounded LP", trial, sol.Status, c)
		}
		if sol.Objective < p.Value(x0)-1e-6 {
			t.Fatalf("trial %d: optimum %v below feasible value %v", trial, sol.Objective, p.Value(x0))
		}
	}
}

// TestRefactorizationPath forces the revised solver through at least one
// refactorization by solving a problem needing many pivots, and certifies
// the optimum it reaches.
func TestRefactorizationPath(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 120
	p := NewProblem(n)
	for j := 0; j < n; j++ {
		p.SetObjective(j, 1+rng.Float64())
		p.MustAddConstraint([]int{j}, []float64{1}, LE, 1+rng.Float64())
	}
	// Coupling rows to force pivoting beyond the trivial basis.
	for i := 0; i < n-1; i++ {
		p.MustAddConstraint([]int{i, i + 1}, []float64{1, 1}, LE, 1.5)
	}
	sol := solve(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if sol.Iterations <= refactorEvery {
		t.Errorf("only %d pivots: the solve never refactorised", sol.Iterations)
	}
}

// TestResidualAndValue: Certify's primal part, each violation relative to
// 1 + the magnitudes its row sums.
func TestResidualAndValue(t *testing.T) {
	p := NewProblem(2)
	p.SetObjective(0, 2)
	p.MustAddConstraint([]int{0, 1}, []float64{1, 1}, LE, 3)
	p.MustAddConstraint([]int{0}, []float64{1}, GE, 1)
	p.MustAddConstraint([]int{1}, []float64{1}, EQ, 2)
	x := []float64{1, 2}
	if res := p.residual(x); res != 0 {
		t.Errorf("residual of feasible point = %v", res)
	}
	if v := p.Value(x); v != 2 {
		t.Errorf("value = %v, want 2", v)
	}
	// LE short by 2 of 1+3+5, GE by 1 of 1+1+0, EQ by 3 of 1+2+5.
	if res := p.residual([]float64{0, 5}); !approx(res, 0.5, 1e-12) {
		t.Errorf("residual = %v, want 1/2 (the GE row)", res)
	}
	// x0 = −2 is 2 of 1+2, and GE is short by 3 of 1+1+2.
	if res := p.residual([]float64{-2, 2}); !approx(res, 0.75, 1e-12) {
		t.Errorf("residual with negative variable = %v, want 3/4 (the GE row)", res)
	}
}

// TestDualsTextbook: for max 3x+5y s.t. x<=4, 2y<=12, 3x+2y<=18 the optimal
// duals are (0, 3/2, 1): constraint 1 is slack, and the objective rises by
// 3/2 and 1 per unit of the binding right sides.
func TestDualsTextbook(t *testing.T) {
	p := NewProblem(2)
	p.SetObjective(0, 3)
	p.SetObjective(1, 5)
	p.MustAddConstraint([]int{0}, []float64{1}, LE, 4)
	p.MustAddConstraint([]int{1}, []float64{2}, LE, 12)
	p.MustAddConstraint([]int{0, 1}, []float64{3, 2}, LE, 18)
	sol := solve(t, p)
	if len(sol.Duals) != 3 {
		t.Fatalf("%d duals", len(sol.Duals))
	}
	want := []float64{0, 1.5, 1}
	for i := range want {
		if !approx(sol.Duals[i], want[i], 1e-8) {
			t.Errorf("dual[%d] = %v, want %v", i, sol.Duals[i], want[i])
		}
	}
}

// TestDualsStrongDualityAndSlackness: on random feasible bounded LPs the
// duals complete the certificate (dual signs, every reduced cost ≤ 0,
// yᵀb = cᵀx), and so, as the certificate implies, y_i = 0 on every row with
// slack.
func TestDualsStrongDualityAndSlackness(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(6)
		m := 1 + rng.Intn(6)
		p, _ := randomFeasibleLP(rng, n, m)
		sol := solve(t, p)
		if sol.Status != Optimal {
			t.Fatalf("trial %d: %v for a feasible bounded LP", trial, sol.Status)
		}
		for i, con := range p.cons {
			if con.Rel == EQ {
				continue
			}
			lhs := 0.0
			for idx, c := range con.Cols {
				lhs += con.Vals[idx] * sol.X[c]
			}
			if slack := math.Abs(con.RHS - lhs); math.Abs(sol.Duals[i]*slack) > 1e-5*(1+math.Abs(con.RHS)) {
				t.Fatalf("trial %d: complementary slackness violated at row %d: y=%v slack=%v",
					trial, i, sol.Duals[i], slack)
			}
		}
	}
}

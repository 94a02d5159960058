package simplex

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomWideLP builds a feasible bounded LP with m rows and n ≥ 8m variables,
// so the partial-pricing window (m columns) covers an eighth of the columns at
// most: one Σx ≤ S row bounds the region (there are no per-variable box rows,
// which would make the LP as tall as it is wide) and m-1 random rows of all
// three relations pass through or around the feasible point x0, so phase 1
// runs as well.
func randomWideLP(rng *rand.Rand, n, m int) (*Problem, []float64) {
	p := NewProblem(n)
	x0 := make([]float64, n)
	all := make([]int, n)
	ones := make([]float64, n)
	sum := 0.0
	for j := range x0 {
		x0[j] = rng.Float64()
		sum += x0[j]
		all[j], ones[j] = j, 1
		p.SetObjective(j, rng.NormFloat64())
	}
	p.MustAddConstraint(all, ones, LE, sum+1)
	for i := 1; i < m; i++ {
		nnz := 2 + rng.Intn(n/2)
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

// TestCrossValidationWide: TestCrossValidation draws n, m ≤ 8 with a box row
// per variable, so one pricing window covers every column. Here the columns
// outnumber the window at least eightfold: the cursor wraps, phase 1 and phase
// 2 each start it afresh, and optimality has to survive a full lap, which the
// certificate's reduced costs check column by column.
func TestCrossValidationWide(t *testing.T) {
	rng := rand.New(rand.NewSource(416))
	for trial := 0; trial < 60; trial++ {
		m := 2 + rng.Intn(12)
		n := 8*m + rng.Intn(8*m)
		p, x0 := randomWideLP(rng, n, m)
		sol, err := p.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if c := p.Certify(sol); c > certTol {
			t.Fatalf("trial %d (n=%d m=%d): %v, certificate term %g, for a feasible bounded LP", trial, n, m, sol.Status, c)
		}
		if sol.Objective < p.Value(x0)-1e-7 {
			t.Fatalf("trial %d: optimum %v below feasible value %v", trial, sol.Objective, p.Value(x0))
		}
	}
}

// TestBlandFallback: max cᵀx over the cone Ax ≤ 0, x ≥ 0 with c = Aᵀy0 − s for
// some y0, s ≥ 0 has optimum 0 at the origin (y0 is dual feasible), every
// basis is the same degenerate vertex and no pivot moves the objective. With
// eight rows and eight hundred columns the partial-pricing window sees one
// column in a hundred, the stall outlasts 2m+50 pivots, and the run has to
// finish under Bland's rule.
func TestBlandFallback(t *testing.T) {
	const m, n = 8, 800
	rng := rand.New(rand.NewSource(3))
	a := make([][]float64, m)
	y0 := make([]float64, m)
	for i := range a {
		y0[i] = rng.Float64()
		a[i] = make([]float64, n)
		for j := range a[i] {
			a[i][j] = rng.NormFloat64()
		}
	}
	p := NewProblem(n)
	all := make([]int, n)
	for j := range all {
		all[j] = j
		c := -0.2 * rng.Float64()
		for i := range a {
			c += a[i][j] * y0[i]
		}
		p.SetObjective(j, c)
	}
	for i := range a {
		p.MustAddConstraint(all, a[i], LE, 0)
	}

	s := standardize(p)
	r := newRevised(s, s.basis)
	if err := r.refactorize(); err != nil {
		t.Fatal(err)
	}
	pivots := 0
	if err := r.run(s.cost, false, &pivots); err != nil {
		t.Fatal(err)
	}
	if r.bland == 0 {
		t.Errorf("%d degenerate pivots and Bland's rule never engaged", pivots)
	}
	if obj := r.objValue(s.cost); obj != 0 {
		t.Errorf("objective %v at the end of an all-degenerate run, want 0", obj)
	}

	if sol := solve(t, p); sol.Status != Optimal || !approx(sol.Objective, 0, 1e-9) {
		t.Errorf("Solve: %v objective %v, want optimal 0", sol.Status, sol.Objective)
	}
}

// TestSolveDeterministic: the pricing cursor and the factorisation carry
// nothing from one solve to the next, so solving one problem twice gives the
// same pivots and the same basis, not merely the same objective.
func TestSolveDeterministic(t *testing.T) {
	p, _ := randomWideLP(rand.New(rand.NewSource(77)), 300, 20)
	a, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if a.Iterations != b.Iterations || !reflect.DeepEqual(a.Basis, b.Basis) {
		t.Errorf("two solves of one problem: %d vs %d pivots, bases equal: %v",
			a.Iterations, b.Iterations, reflect.DeepEqual(a.Basis, b.Basis))
	}
	if a.Iterations <= refactorEvery {
		t.Errorf("only %d pivots: the solve never refactorised", a.Iterations)
	}
}

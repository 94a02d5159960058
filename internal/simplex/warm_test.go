package simplex

import (
	"math"
	"math/rand"
	"testing"
)

// lpShape is one LP structure that can be instantiated at different data
// scales: the constraint sparsity pattern and relations are fixed, so a basis
// from one instantiation is structurally valid for any other.
type lpShape struct {
	n    int
	obj  []float64
	cols [][]int
	vals [][]float64
	rels []Relation
	rhs  []float64
}

// randomShape builds a shape containing the feasible point x0 at scale 1,
// box-bounded for boundedness. Scaling every right side by g >= 1 keeps g*x0
// feasible (all constraints are linear and homogeneous in the pair), so every
// instantiation is feasible and bounded.
func randomShape(rng *rand.Rand, n, m int) *lpShape {
	s := &lpShape{n: n, obj: make([]float64, n)}
	x0 := make([]float64, n)
	for j := 0; j < n; j++ {
		x0[j] = 5 * rng.Float64()
		s.obj[j] = rng.NormFloat64()
		s.cols = append(s.cols, []int{j})
		s.vals = append(s.vals, []float64{1})
		s.rels = append(s.rels, LE)
		s.rhs = append(s.rhs, 10)
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
		s.cols = append(s.cols, cols)
		s.vals = append(s.vals, vals)
		switch rng.Intn(3) {
		case 0:
			s.rels = append(s.rels, LE)
			s.rhs = append(s.rhs, lhs+rng.Float64())
		case 1:
			s.rels = append(s.rels, GE)
			s.rhs = append(s.rhs, lhs-rng.Float64())
		default:
			s.rels = append(s.rels, EQ)
			s.rhs = append(s.rhs, lhs)
		}
	}
	return s
}

// at instantiates the shape with every right side scaled by g.
func (s *lpShape) at(g float64) *Problem {
	p := NewProblem(s.n)
	for j, c := range s.obj {
		p.SetObjective(j, c)
	}
	for i := range s.cols {
		p.MustAddConstraint(s.cols[i], s.vals[i], s.rels[i], g*s.rhs[i])
	}
	return p
}

func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestWarmStartSameProblem: re-solving the identical problem from its own
// optimal basis must use the warm path, pivot no more than the cold solve,
// and reproduce the optimum with a certificate: the duals are what
// lp.Bound.MachineShadowPrice reports.
func TestWarmStartSameProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		s := randomShape(rng, 1+rng.Intn(8), 1+rng.Intn(8))
		cold, err := s.at(1).Solve()
		if err != nil {
			t.Fatalf("trial %d cold: %v", trial, err)
		}
		if cold.Status != Optimal {
			t.Fatalf("trial %d: cold status %v for a feasible bounded LP", trial, cold.Status)
		}
		if cold.Basis == nil {
			t.Fatalf("trial %d: optimal revised solve returned no basis", trial)
		}
		p := s.at(1)
		warm, err := p.SolveWithBasis(cold.Basis)
		if err != nil {
			t.Fatalf("trial %d warm: %v", trial, err)
		}
		if c := p.Certify(warm); c > certTol {
			t.Fatalf("trial %d: warm %v, certificate term %g", trial, warm.Status, c)
		}
		if !warm.Warm {
			t.Errorf("trial %d: optimal basis of the identical problem fell back to the cold path", trial)
		}
		if !relClose(warm.Objective, cold.Objective, 1e-7) {
			t.Errorf("trial %d: warm objective %v, cold %v", trial, warm.Objective, cold.Objective)
		}
		if warm.Iterations > cold.Iterations {
			t.Errorf("trial %d: warm start pivoted %d times, cold %d", trial, warm.Iterations, cold.Iterations)
		}
	}
}

// TestWarmStartRescaled: warm-starting the rescaled instantiation from the
// base optimum must match the rescaled problem's cold optimum, with a
// certificate, whichever path the solver ends up taking, and the warm path
// must actually engage on a non-trivial fraction of trials (otherwise the
// test is vacuous).
func TestWarmStartRescaled(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	warmUsed := 0
	for trial := 0; trial < 80; trial++ {
		s := randomShape(rng, 1+rng.Intn(8), 1+rng.Intn(8))
		base, err := s.at(1).Solve()
		if err != nil || base.Status != Optimal {
			t.Fatalf("trial %d base: %v status %v", trial, err, base.Status)
		}
		g := 1 + 0.2*rng.Float64()
		cold, err := s.at(g).Solve()
		if err != nil || cold.Status != Optimal {
			t.Fatalf("trial %d cold rescaled: %v status %v", trial, err, cold.Status)
		}
		p := s.at(g)
		warm, err := p.SolveWithBasis(base.Basis)
		if err != nil {
			t.Fatalf("trial %d warm rescaled: %v", trial, err)
		}
		if c := p.Certify(warm); c > certTol {
			t.Fatalf("trial %d: warm %v, certificate term %g, cold optimal", trial, warm.Status, c)
		}
		if !relClose(warm.Objective, cold.Objective, 1e-6) {
			t.Errorf("trial %d: warm objective %v, cold %v", trial, warm.Objective, cold.Objective)
		}
		if warm.Warm {
			warmUsed++
		}
		if warm.Warm != (warm.Refusal == WarmNotRefused) {
			t.Errorf("trial %d: Warm %v with Refusal %v", trial, warm.Warm, warm.Refusal)
		}
	}
	if warmUsed < 20 {
		t.Errorf("warm path engaged on only %d/80 rescaled trials", warmUsed)
	}
}

// TestWarmStartBadBasis: structurally unusable bases must fall back to the
// cold solve and still find the certified optimum.
func TestWarmStartBadBasis(t *testing.T) {
	s := randomShape(rand.New(rand.NewSource(9)), 5, 5)
	cold, err := s.at(1).Solve()
	if err != nil || cold.Status != Optimal {
		t.Fatalf("cold: %v status %v", err, cold.Status)
	}
	m := len(cold.Basis)
	bad := [][]int{
		nil,                                  // wrong length
		cold.Basis[:m-1],                     // wrong length
		append([]int{-1}, cold.Basis[1:]...), // out of range
		append([]int{1 << 20}, cold.Basis[1:]...),       // out of range
		append([]int{cold.Basis[1]}, cold.Basis[1:]...), // duplicate
	}
	for i, basis := range bad {
		p := s.at(1)
		sol, err := p.SolveWithBasis(basis)
		if err != nil {
			t.Fatalf("bad basis %d: %v", i, err)
		}
		if c := p.Certify(sol); c > certTol {
			t.Errorf("bad basis %d: %v, certificate term %g", i, sol.Status, c)
		}
		if sol.Status != Optimal || sol.Warm || sol.Refusal != WarmShape {
			t.Errorf("bad basis %d: status %v warm %v refusal %v, want cold-path optimal refused for shape",
				i, sol.Status, sol.Warm, sol.Refusal)
		}
		if !relClose(sol.Objective, cold.Objective, 1e-9) {
			t.Errorf("bad basis %d: objective %v, want %v", i, sol.Objective, cold.Objective)
		}
	}
}

// TestWarmStartInfeasible: an infeasible problem stays infeasible through the
// warm entry point (the fallback runs the full two-phase analysis).
func TestWarmStartInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.SetObjective(0, 1)
	p.MustAddConstraint([]int{0}, []float64{1}, LE, 1)
	p.MustAddConstraint([]int{0}, []float64{1}, GE, 2)
	sol, err := p.SolveWithBasis([]int{0, 1})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if sol.Status != Infeasible {
		t.Errorf("status %v, want infeasible", sol.Status)
	}
}

// TestWarmRefusalReasons: the two refusals that depend on the new data, not
// on the shape of the basis. Tightening a right side under the old optimum
// makes B⁻¹b negative; moving an equality's right side off zero while its
// artificial is still basic leaves that artificial at a nonzero value.
func TestWarmRefusalReasons(t *testing.T) {
	// max x0 + x1, x0 ≤ 4, x1 ≤ 3, x0 + x1 ≤ rhs.
	build := func(rhs float64) *Problem {
		p := NewProblem(2)
		p.SetObjective(0, 1)
		p.SetObjective(1, 1)
		p.MustAddConstraint([]int{0}, []float64{1}, LE, 4)
		p.MustAddConstraint([]int{1}, []float64{1}, LE, 3)
		p.MustAddConstraint([]int{0, 1}, []float64{1, 1}, LE, rhs)
		return p
	}
	base, err := build(10).Solve() // x = (4, 3), third row slack
	if err != nil || base.Status != Optimal {
		t.Fatalf("base: %v %v", err, base)
	}
	sol, err := build(5).SolveWithBasis(base.Basis) // the slack would be −2
	if err != nil || sol.Status != Optimal || sol.Warm || sol.Refusal != WarmPrimalInfeasible {
		t.Errorf("tightened row: err %v, %+v, want a cold optimum refused as primal-infeasible", err, sol)
	}
	if !relClose(sol.Objective, 5, 1e-9) {
		t.Errorf("tightened row: objective %v, want 5", sol.Objective)
	}

	// x0 − x1 = rhs twice over: the second copy's artificial stays basic.
	eq := func(rhs float64) *Problem {
		p := NewProblem(2)
		p.SetObjective(0, 1)
		p.MustAddConstraint([]int{0}, []float64{1}, LE, 4)
		p.MustAddConstraint([]int{0, 1}, []float64{1, -1}, EQ, 0)
		p.MustAddConstraint([]int{0, 1}, []float64{1, -1}, EQ, rhs)
		return p
	}
	base, err = eq(0).Solve()
	if err != nil || base.Status != Optimal {
		t.Fatalf("redundant equalities: %v %v", err, base)
	}
	sol, err = eq(1).SolveWithBasis(base.Basis) // now inconsistent
	if err != nil || sol.Status != Infeasible || sol.Warm || sol.Refusal != WarmArtificial {
		t.Errorf("inconsistent equalities: err %v, %+v, want infeasible via a basis refused for its artificial", err, sol)
	}
}

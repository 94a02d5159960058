package simplex

import (
	"fmt"
	"slices"
	"testing"
)

// certTol bounds every certificate term the tests accept. The solver's
// answers measure below 1e-12 on every LP the tests build.
const certTol = 1e-9

// solve runs Solve on p and fails t unless the solve succeeds and its status
// carries a certificate (certifyStatus).
func solve(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if err := certifyStatus(p, sol); err != nil {
		t.Fatal(err)
	}
	return sol
}

// certifyStatus checks sol's status against a certificate built from p alone:
//
//   - Optimal: Certify.
//   - Infeasible: the certified optimum of violation(p) is below −1e-7, so
//     every point breaks some row.
//   - Unbounded: violation(p)'s certified optimum is a feasible point of p,
//     and ray(p)'s certified optimum is above 1e-9: a direction that keeps
//     that point feasible and raises the objective without limit.
//
// The two auxiliary LPs are bounded, so their own answers are optima, and the
// certificate is what makes them proofs.
func certifyStatus(p *Problem, sol *Solution) error {
	switch sol.Status {
	case Optimal:
		if c := p.Certify(sol); c > certTol {
			return fmt.Errorf("optimal: certificate term %g", c)
		}
		return nil
	case Infeasible, Unbounded:
	default:
		return fmt.Errorf("status %v", sol.Status)
	}
	v, err := solveCertified(violation(p))
	if err != nil {
		return fmt.Errorf("%v: violation LP: %w", sol.Status, err)
	}
	if sol.Status == Infeasible {
		if v.Objective >= -1e-7 {
			return fmt.Errorf("infeasible, yet the violation LP reaches %g", v.Objective)
		}
		return nil
	}
	if r := p.residual(v.X[:p.numCols]); r > certTol {
		return fmt.Errorf("unbounded, yet no feasible point: the violation LP's best breaks a row by %g", r)
	}
	d, err := solveCertified(ray(p))
	if err != nil {
		return fmt.Errorf("unbounded: ray LP: %w", err)
	}
	if d.Objective <= 1e-9 {
		return fmt.Errorf("unbounded, yet the best ray improves the objective by only %g", d.Objective)
	}
	return nil
}

// solveCertified solves an LP that is bounded and feasible by construction
// and returns its certified optimum.
func solveCertified(q *Problem) (*Solution, error) {
	sol, err := q.Solve()
	if err != nil {
		return nil, err
	}
	if c := q.Certify(sol); c > certTol {
		return nil, fmt.Errorf("%v, certificate term %g", sol.Status, c)
	}
	return sol, nil
}

// violation is p's phase-1 LP: p's columns plus one violation column per row
// (two for an equality) that lets the row break in the direction it can, and
// the objective max −Σ violations. x = 0 with enough violation is feasible
// and the objective is at most 0, so it has an optimum, which is 0 exactly
// when p is feasible; its first columns are then a feasible point of p.
func violation(p *Problem) *Problem {
	extra := 0
	for _, con := range p.cons {
		extra++
		if con.Rel == EQ {
			extra++
		}
	}
	q := NewProblem(p.numCols + extra)
	s := p.numCols
	for _, con := range p.cons {
		cols, vals := slices.Clone(con.Cols), slices.Clone(con.Vals)
		switch con.Rel {
		case LE:
			cols, vals = append(cols, s), append(vals, -1)
		case GE:
			cols, vals = append(cols, s), append(vals, 1)
		case EQ:
			cols, vals = append(cols, s, s+1), append(vals, 1, -1)
			q.SetObjective(s, -1)
			s++
		}
		q.SetObjective(s, -1)
		s++
		q.MustAddConstraint(cols, vals, con.Rel, con.RHS)
	}
	return q
}

// ray is max cᵀd over p's recession cone cut by Σd ≤ 1: each row's left side
// related to 0 as the row is, and d ≥ 0. d = 0 is feasible and the cut bounds
// it, so it has an optimum, which is positive exactly when some direction
// keeps every feasible point of p feasible and raises the objective.
func ray(p *Problem) *Problem {
	q := NewProblem(p.numCols)
	all, ones := make([]int, p.numCols), make([]float64, p.numCols)
	for j, c := range p.obj {
		q.SetObjective(j, c)
		all[j], ones[j] = j, 1
	}
	for _, con := range p.cons {
		q.MustAddConstraint(con.Cols, con.Vals, con.Rel, 0)
	}
	q.MustAddConstraint(all, ones, LE, 1)
	return q
}

// TestCertifyRejects: on the textbook LP (TestTextbookLP) the hand-derived
// optimum x = (2, 6), y = (0, 3/2, 1) certifies exactly, and each part of the
// certificate turns down an answer that breaks it.
func TestCertifyRejects(t *testing.T) {
	p := NewProblem(2)
	p.SetObjective(0, 3)
	p.SetObjective(1, 5)
	p.MustAddConstraint([]int{0}, []float64{1}, LE, 4)
	p.MustAddConstraint([]int{1}, []float64{2}, LE, 12)
	p.MustAddConstraint([]int{0, 1}, []float64{3, 2}, LE, 18)
	opt := func() *Solution {
		return &Solution{Status: Optimal, Objective: 36, X: []float64{2, 6}, Duals: []float64{0, 1.5, 1}}
	}
	if c := p.Certify(opt()); c != 0 {
		t.Fatalf("hand-derived optimum: certificate term %g, want 0", c)
	}
	for _, c := range []struct {
		name  string
		spoil func(*Solution)
	}{
		{"not optimal", func(s *Solution) { s.Status = Unbounded }},
		{"a dual short", func(s *Solution) { s.Duals = s.Duals[:2] }},
		{"a column short", func(s *Solution) { s.X = s.X[:1] }},
		// x1 = 7 breaks 2x1 ≤ 12; the objective is moved to match cᵀx.
		{"primal infeasible", func(s *Solution) { s.X[1], s.Objective = 7, 41 }},
		{"negative variable", func(s *Solution) { s.X[0], s.Objective = -1e-6, 30-3e-6 }},
		// y0 = −1/2 on a ≤ row.
		{"wrong dual sign", func(s *Solution) { s.Duals[0] = -0.5 }},
		// y2 = 0.9 leaves x0's reduced cost 3 − 2.7 > 0.
		{"reduced cost positive", func(s *Solution) { s.Duals[2] = 0.9 }},
		// y0 = 1 is dual feasible but yᵀb = 40 ≠ 36.
		{"duality gap", func(s *Solution) { s.Duals[0] = 1 }},
		{"objective misreported", func(s *Solution) { s.Objective = 36.5 }},
	} {
		sol := opt()
		c.spoil(sol)
		if got := p.Certify(sol); !(got > certTol) {
			t.Errorf("%s: certificate term %g, want > %g", c.name, got, certTol)
		}
	}
}

// TestCertifyStatusRejects: a status that is not the LP's own fails its
// certificate, whichever way round.
func TestCertifyStatusRejects(t *testing.T) {
	bounded := NewProblem(1) // max x ≤ 1: optimal
	bounded.SetObjective(0, 1)
	bounded.MustAddConstraint([]int{0}, []float64{1}, LE, 1)
	open := NewProblem(1) // max x ≥ 1: unbounded
	open.SetObjective(0, 1)
	open.MustAddConstraint([]int{0}, []float64{1}, GE, 1)
	empty := NewProblem(1) // x ≤ 1 and x ≥ 2: infeasible
	empty.SetObjective(0, 1)
	empty.MustAddConstraint([]int{0}, []float64{1}, LE, 1)
	empty.MustAddConstraint([]int{0}, []float64{1}, GE, 2)
	for _, c := range []struct {
		name   string
		p      *Problem
		status Status
	}{
		{"bounded called infeasible", bounded, Infeasible},
		{"bounded called unbounded", bounded, Unbounded},
		{"unbounded called infeasible", open, Infeasible},
		{"infeasible called unbounded", empty, Unbounded},
		{"unbounded called optimal", open, Optimal},
		{"status out of range", bounded, Status(9)},
	} {
		if err := certifyStatus(c.p, &Solution{Status: c.status}); err == nil {
			t.Errorf("%s: certified", c.name)
		}
	}
	for _, p := range []*Problem{bounded, open, empty} {
		solve(t, p)
	}
}

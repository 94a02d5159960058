package simplex

import (
	"fmt"
	"math"
)

// Revised simplex over sparse column storage: the solver for the upper-bound
// LPs. A cold solve starts from the crash basis (standard.go): every
// zero-right-side row that can have a structural column basic at 0 gets one,
// so the bound LPs' (b) rows need no phase 1, and phase 1 runs only while an
// artificial is still basic. The basis inverse is never formed; BTRAN and
// FTRAN solve against a sparse LU of the basis plus one eta per pivot since
// (factor.go), and the factorisation is rebuilt from the basis columns every
// refactorEvery pivots, which both bounds the eta file and flushes numerical
// drift.
//
// Pricing is partial: each pivot prices only the next m columns (m the row
// count) after the ones the previous pivot priced, cyclically, and takes
// Dantzig's pick among them, moving on to the following m only when none of
// them improves. These LPs have tens to hundreds of columns per row and
// almost none of them ever enters, so a pivot prices m columns instead of n;
// optimality is declared only after one full lap under the same duals finds
// nothing.

const (
	// refactorEvery is the number of pivots between refactorizations of the
	// basis: the eta file never holds more than this many updates.
	refactorEvery = 64
	// costTol is the reduced-cost tolerance: columns below it are treated as
	// non-improving.
	costTol = 1e-9
	// pivotTol is the minimum magnitude accepted for a pivot element.
	pivotTol = 1e-9
	// feasTol is the residual tolerance for declaring phase-1 success.
	feasTol = 1e-7
)

var errUnbounded = fmt.Errorf("simplex: unbounded")

// errIterationLimit is returned when a solve exceeds its pivot budget, which
// indicates cycling not broken by Bland's rule or a pathological instance.
var errIterationLimit = fmt.Errorf("simplex: iteration limit exceeded")

// trivialSolution handles the constraint-free case: every variable with a
// positive objective coefficient is unbounded; otherwise x = 0 is optimal.
func trivialSolution(p *Problem) *Solution {
	for _, c := range p.obj {
		if c > costTol {
			return &Solution{Status: Unbounded}
		}
	}
	return &Solution{Status: Optimal, X: make([]float64, p.numCols)}
}

// Solve solves the problem with the two-phase revised simplex from the crash
// basis, skipping phase 1 when the crash left no artificial basic.
func (p *Problem) Solve() (*Solution, error) {
	if len(p.cons) == 0 {
		return trivialSolution(p), nil
	}
	s := standardize(p)
	s.crash()
	r := newRevised(s, s.basis)
	if err := r.refactorize(); err != nil {
		return nil, err
	}
	sol := &Solution{}
	if s.artificialBasic() {
		if err := r.run(s.phase1Cost(), true, &sol.Iterations); err != nil {
			return nil, err
		}
		if r.objValue(s.phase1Cost()) < -feasTol {
			sol.Status = Infeasible
			return sol, nil
		}
		if err := r.driveOutArtificials(); err != nil {
			return nil, err
		}
	}
	if err := r.run(s.cost, false, &sol.Iterations); err != nil {
		if err == errUnbounded {
			sol.Status = Unbounded
			return sol, nil
		}
		return nil, err
	}
	return r.optimal(p, sol), nil
}

// SolveWithBasis solves the problem with the revised simplex warm-started
// from a basis returned by a previous Solve or SolveWithBasis on a problem of
// identical structure: the same variable count and the same constraints, in
// the same order, with the same relations — only coefficient and right-side
// values may differ (a rescaled system re-solve). The basis indices use
// standard-form column numbering, which that structural identity keeps
// stable.
//
// Starting at the previous optimum is the entire payoff: it is typically
// primal feasible (or a few pivots away) after a small data change, so the
// solve reduces to a short phase-2 cleanup, where a cold solve starts over
// from the crash basis. When the basis cannot seed this problem the solver
// falls back to the cold two-phase Solve; Solution.Warm reports which path
// produced the result and Solution.Refusal why the basis was turned down.
func (p *Problem) SolveWithBasis(basis []int) (*Solution, error) {
	if len(p.cons) == 0 {
		return trivialSolution(p), nil
	}
	s := standardize(p)
	r, refusal := warmRevised(s, basis)
	if refusal == WarmNotRefused {
		sol := &Solution{Warm: true}
		switch err := r.run(s.cost, false, &sol.Iterations); err {
		case nil:
			return r.optimal(p, sol), nil
		case errUnbounded:
			sol.Status = Unbounded
			return sol, nil
		}
		// The cold path starts from the crash basis and may still succeed.
		refusal = WarmNumerical
	}
	sol, err := p.Solve()
	if sol != nil {
		sol.Refusal = refusal
	}
	return sol, err
}

// optimal fills in the solution of a run that ended at an optimum.
func (r *revised) optimal(p *Problem, sol *Solution) *Solution {
	sol.Status = Optimal
	sol.X = r.extract()
	sol.Objective = p.Value(sol.X)
	sol.Duals = r.extractDuals(r.s.cost)
	sol.Basis = append([]int(nil), r.basis...)
	return sol
}

type revised struct {
	s     *standard
	f     *factor
	basis []int
	inB   []bool    // inB[j]: column j is basic
	xB    []float64 // basic variable values
	y     []float64 // scratch: dual prices
	u     []float64 // scratch: FTRAN result
	since int       // pivots since last refactorization
	bland int       // pivots chosen by Bland's rule after a stall
}

// newRevised allocates a revised-simplex state on the given basis; the caller
// refactorizes before anything else.
func newRevised(s *standard, basis []int) *revised {
	r := &revised{
		s:     s,
		f:     newFactor(s.m),
		basis: append([]int(nil), basis...),
		inB:   make([]bool, s.n),
		xB:    make([]float64, s.m),
		y:     make([]float64, s.m),
		u:     make([]float64, s.m),
	}
	for _, j := range basis {
		r.inB[j] = true
	}
	return r
}

// warmRevised builds a revised-simplex state seeded with the given basis, or
// says why the basis cannot start a phase-2 solve of this problem:
// structurally invalid, singular under the new coefficients, primal
// infeasible for the new right sides, or holding an artificial at a nonzero
// value (which would smuggle an infeasible point past phase 2, since phase 2
// bars artificials from entering but not from staying).
func warmRevised(s *standard, basis []int) (*revised, WarmRefusal) {
	if len(basis) != s.m {
		return nil, WarmShape
	}
	seen := make([]bool, s.n)
	for _, j := range basis {
		if j < 0 || j >= s.n || seen[j] {
			return nil, WarmShape
		}
		seen[j] = true
	}
	r := newRevised(s, basis)
	if err := r.refactorize(); err != nil {
		return nil, WarmSingular
	}
	for i, v := range r.xB {
		if v < -feasTol {
			return nil, WarmPrimalInfeasible
		}
		if v < 0 {
			r.xB[i] = 0
		}
		if r.basis[i] >= s.artStart && v > feasTol {
			return nil, WarmArtificial
		}
	}
	return r, WarmNotRefused
}

// btran computes y = c_Bᵀ B⁻¹ into r.y.
func (r *revised) btran(cost []float64) {
	for i, bj := range r.basis {
		r.f.c[i] = cost[bj]
	}
	r.f.btran(r.y)
}

// reducedCost returns c_j - yᵀ A_j using the sparse column.
func (r *revised) reducedCost(cost []float64, j int) float64 {
	d := cost[j]
	rows, vals := r.s.col(j)
	for idx, row := range rows {
		d -= r.y[row] * vals[idx]
	}
	return d
}

// ftran computes u = B⁻¹ A_j into r.u.
func (r *revised) ftran(j int) {
	rows, vals := r.s.col(j)
	for idx, row := range rows {
		r.f.w[row] = vals[idx]
	}
	r.f.ftran(r.u)
}

// price returns the entering column under the duals in r.y, or -1 when no
// column below limitJ improves. *cursor is the partial-pricing position: each
// call prices the next m columns after it, cyclically, takes Dantzig's pick
// among them, and moves on to the following m only if there was none, so
// returning -1 means one full lap found nothing. Under bland the rule is
// Bland's instead: the first improving column from 0.
func (r *revised) price(cost []float64, limitJ int, bland bool, cursor *int) int {
	if bland {
		for j := 0; j < limitJ; j++ {
			if !r.inB[j] && r.reducedCost(cost, j) > costTol {
				return j
			}
		}
		return -1
	}
	start, row, val := r.s.start, r.s.row, r.s.val
	j := *cursor
	for left := limitJ; left > 0; {
		n := min(r.s.m, left)
		left -= n
		enter, best := -1, costTol
		for ; n > 0; n-- {
			if !r.inB[j] {
				// reducedCost over the flat arrays: a slice header per
				// two-entry column costs a tenth of the solve.
				d := cost[j]
				for k := start[j]; k < start[j+1]; k++ {
					d -= r.y[row[k]] * val[k]
				}
				if d > best {
					enter, best = j, d
				}
			}
			if j++; j == limitJ {
				j = 0
			}
		}
		if enter >= 0 {
			*cursor = j
			return enter
		}
	}
	return -1
}

// run pivots until optimality for the given cost vector. In phase 2
// artificial columns are barred from entering.
func (r *revised) run(cost []float64, phase1 bool, iterations *int) error {
	m := r.s.m
	limitJ := r.s.n
	if !phase1 {
		limitJ = r.s.artStart
	}
	limit := 200*(m+r.s.n) + 20000
	stall := 0
	cursor := 0 // per run, so a solve is a pure function of its input
	lastObj := r.objValue(cost)
	for iter := 0; ; iter++ {
		if iter > limit {
			return errIterationLimit
		}
		r.btran(cost)
		bland := stall > 2*m+50
		enter := r.price(cost, limitJ, bland, &cursor)
		if enter < 0 {
			return nil
		}
		if bland {
			r.bland++
		}
		r.ftran(enter)
		leave, theta := -1, 0.0
		for i := 0; i < m; i++ {
			ui := r.u[i]
			if ui <= pivotTol {
				continue
			}
			ratio := r.xB[i] / ui
			if ratio < 0 {
				ratio = 0 // clamp tiny negative basic values
			}
			if leave < 0 || ratio < theta-1e-12 ||
				(ratio < theta+1e-12 && r.basis[i] < r.basis[leave]) {
				leave, theta = i, ratio
			}
		}
		if leave < 0 {
			if phase1 {
				return fmt.Errorf("simplex: phase 1 unbounded (numerical failure)")
			}
			return errUnbounded
		}
		r.pivot(leave, enter, theta)
		*iterations++
		obj := r.objValue(cost)
		if obj > lastObj+1e-12 {
			stall = 0
			lastObj = obj
		} else {
			stall++
		}
		if r.since >= refactorEvery {
			if err := r.refactorize(); err != nil {
				return err
			}
		}
	}
}

// pivot replaces basis row `leave` with column `enter`, given the FTRAN
// result in r.u and the ratio theta.
func (r *revised) pivot(leave, enter int, theta float64) {
	for i := range r.xB {
		if i != leave {
			r.xB[i] -= theta * r.u[i]
			if r.xB[i] < 0 && r.xB[i] > -1e-11 {
				r.xB[i] = 0
			}
		}
	}
	r.xB[leave] = theta
	r.f.update(leave, r.u)
	r.inB[r.basis[leave]] = false
	r.inB[enter] = true
	r.basis[leave] = enter
	r.since++
}

// driveOutArtificials pivots artificial variables still basic (at zero) after
// phase 1 out of the basis, or leaves them pinned at zero when their row is
// redundant.
func (r *revised) driveOutArtificials() error {
	for row := 0; row < r.s.m; row++ {
		if r.basis[row] < r.s.artStart {
			continue
		}
		for j := 0; j < r.s.artStart; j++ {
			if r.inB[j] {
				continue
			}
			r.ftran(j)
			if math.Abs(r.u[row]) > 1e-7 {
				// Degenerate pivot: the artificial is at zero, so theta = 0
				// preserves feasibility regardless of the pivot sign; the
				// eta update needs u_row != 0, which ftran just provided.
				r.pivot(row, j, 0)
				break
			}
		}
	}
	return nil
}

// refactorize rebuilds the LU factorisation from the basis columns, drops the
// eta file, and recomputes xB = B⁻¹ b.
func (r *revised) refactorize() error {
	if err := r.f.factorize(r.s, r.basis); err != nil {
		return err
	}
	copy(r.f.w, r.s.b)
	r.f.ftran(r.xB)
	for i, v := range r.xB {
		if v < 0 && v > -1e-9 {
			r.xB[i] = 0
		}
	}
	r.since = 0
	return nil
}

// extractDuals returns y = c_B B^-1 with signs restored for rows negated
// during standardization.
func (r *revised) extractDuals(cost []float64) []float64 {
	r.btran(cost)
	duals := make([]float64, r.s.m)
	for i := 0; i < r.s.m; i++ {
		y := r.y[i]
		if r.s.flip[i] {
			y = -y
		}
		duals[i] = y
	}
	return duals
}

func (r *revised) objValue(cost []float64) float64 {
	v := 0.0
	for i, bj := range r.basis {
		v += cost[bj] * r.xB[i]
	}
	return v
}

func (r *revised) extract() []float64 {
	x := make([]float64, r.s.nStruct)
	for i, bj := range r.basis {
		if bj < r.s.nStruct {
			v := r.xB[i]
			if v < 0 {
				v = 0
			}
			x[bj] = v
		}
	}
	return x
}

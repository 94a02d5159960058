package simplex

import (
	"fmt"
)

// Dense-tableau two-phase simplex: the textbook method, kept simple to serve
// as the reference implementation for cross-validation of the revised solver.
// Memory and per-pivot cost are O(m·n); use Solve for large problems.

const (
	// costTol is the reduced-cost tolerance: columns below it are treated as
	// non-improving.
	costTol = 1e-9
	// pivotTol is the minimum magnitude accepted for a pivot element.
	pivotTol = 1e-9
	// feasTol is the residual tolerance for declaring phase-1 success.
	feasTol = 1e-7
)

// SolveDense solves the problem with the dense-tableau two-phase simplex.
func (p *Problem) SolveDense() (*Solution, error) {
	if len(p.cons) == 0 {
		return trivialSolution(p), nil
	}
	s := standardize(p)
	t := newTableau(s)
	sol := &Solution{}
	if s.artificialBasic() {
		if err := t.run(s.phase1Cost(), true, &sol.Iterations); err != nil {
			return nil, err
		}
		if t.objectiveValue() < -feasTol {
			sol.Status = Infeasible
			return sol, nil
		}
		t.driveOutArtificials()
	}
	if err := t.run(s.cost, false, &sol.Iterations); err != nil {
		if err == errUnbounded {
			sol.Status = Unbounded
			return sol, nil
		}
		return nil, err
	}
	sol.Status = Optimal
	sol.X = t.extract()
	sol.Objective = p.Value(sol.X)
	sol.Duals = t.extractDuals()
	return sol, nil
}

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

var errUnbounded = fmt.Errorf("simplex: unbounded")

// errIterationLimit is returned when a solve exceeds its pivot budget, which
// indicates cycling not broken by Bland's rule or a pathological instance.
var errIterationLimit = fmt.Errorf("simplex: iteration limit exceeded")

type tableau struct {
	s        *standard
	rows     [][]float64 // m rows of n coefficients
	rhs      []float64
	basis    []int
	art      int       // first artificial column
	curCost  []float64 // cost vector of the phase currently running
	finalRed []float64 // reduced costs at the end of the last run
}

func newTableau(s *standard) *tableau {
	t := &tableau{
		s:     s,
		rows:  make([][]float64, s.m),
		rhs:   append([]float64(nil), s.b...),
		basis: append([]int(nil), s.basis...),
		art:   s.artStart,
	}
	for i := range t.rows {
		t.rows[i] = make([]float64, s.n)
	}
	for j := 0; j < s.n; j++ {
		rows, vals := s.col(j)
		for idx, r := range rows {
			t.rows[r][j] = vals[idx]
		}
	}
	return t
}

// run performs simplex pivots for the given cost vector until optimality.
// In phase 2 (phase1 == false) artificial columns are barred from entering.
func (t *tableau) run(cost []float64, phase1 bool, iterations *int) error {
	m, n := t.s.m, t.s.n
	t.curCost = cost
	// Reduced costs r_j = c_j - c_Bᵀ T_j.
	red := make([]float64, n)
	for j := 0; j < n; j++ {
		red[j] = cost[j]
	}
	for i := 0; i < m; i++ {
		cb := cost[t.basis[i]]
		if cb == 0 {
			continue
		}
		row := t.rows[i]
		for j := 0; j < n; j++ {
			red[j] -= cb * row[j]
		}
	}
	limit := 200*(m+n) + 20000
	stall := 0
	lastObj := t.objValue(cost)
	for iter := 0; ; iter++ {
		if iter > limit {
			return errIterationLimit
		}
		bland := stall > 2*m+50
		enter := t.chooseEntering(red, phase1, bland)
		if enter < 0 {
			t.finalRed = red
			return nil // optimal for this phase
		}
		leave := t.ratioTest(enter)
		if leave < 0 {
			if phase1 {
				// Phase 1 is bounded by construction; numerical trouble.
				return fmt.Errorf("simplex: phase 1 unbounded (numerical failure)")
			}
			return errUnbounded
		}
		t.pivot(leave, enter, red)
		*iterations++
		obj := t.objValue(cost)
		if obj > lastObj+1e-12 {
			stall = 0
			lastObj = obj
		} else {
			stall++
		}
	}
}

func (t *tableau) chooseEntering(red []float64, phase1, bland bool) int {
	n := t.s.n
	limitJ := n
	best, bestVal := -1, costTol
	for j := 0; j < limitJ; j++ {
		if !phase1 && j >= t.art {
			break // artificials may not re-enter in phase 2
		}
		if red[j] > bestVal {
			if bland {
				return j
			}
			best, bestVal = j, red[j]
		}
	}
	return best
}

func (t *tableau) ratioTest(enter int) int {
	leave, bestRatio := -1, 0.0
	for i := 0; i < t.s.m; i++ {
		a := t.rows[i][enter]
		if a <= pivotTol {
			continue
		}
		ratio := t.rhs[i] / a
		if leave < 0 || ratio < bestRatio-1e-12 ||
			(ratio < bestRatio+1e-12 && t.basis[i] < t.basis[leave]) {
			leave, bestRatio = i, ratio
		}
	}
	return leave
}

func (t *tableau) pivot(leave, enter int, red []float64) {
	m, n := t.s.m, t.s.n
	prow := t.rows[leave]
	pval := prow[enter]
	inv := 1 / pval
	for j := 0; j < n; j++ {
		prow[j] *= inv
	}
	t.rhs[leave] *= inv
	for i := 0; i < m; i++ {
		if i == leave {
			continue
		}
		f := t.rows[i][enter]
		if f == 0 {
			continue
		}
		row := t.rows[i]
		for j := 0; j < n; j++ {
			row[j] -= f * prow[j]
		}
		row[enter] = 0 // exact zero to stop drift
		t.rhs[i] -= f * t.rhs[leave]
		if t.rhs[i] < 0 && t.rhs[i] > -1e-11 {
			t.rhs[i] = 0
		}
	}
	if red != nil {
		if f := red[enter]; f != 0 {
			for j := 0; j < n; j++ {
				red[j] -= f * prow[j]
			}
			red[enter] = 0
		}
	}
	t.basis[leave] = enter
}

// driveOutArtificials pivots any artificial variable still basic after a
// successful phase 1 (necessarily at value zero) out of the basis on some
// non-artificial column, so it cannot drift positive during phase 2. If a
// row has no non-artificial pivot candidate the constraint is redundant and
// the all-zero row is left in place harmlessly.
func (t *tableau) driveOutArtificials() {
	for i := 0; i < t.s.m; i++ {
		if t.basis[i] < t.art {
			continue
		}
		row := t.rows[i]
		for j := 0; j < t.art; j++ {
			if row[j] > pivotTol || row[j] < -pivotTol {
				t.pivot(i, j, nil)
				break
			}
		}
	}
}

// extractDuals recovers the dual values from the final reduced costs of the
// slack/surplus/artificial column attached to each row: a column with the
// single entry coef in row i has reduced cost -y_i*coef, so y_i follows
// directly; rows that were negated during standardization flip the sign
// back.
func (t *tableau) extractDuals() []float64 {
	if t.finalRed == nil {
		return nil
	}
	duals := make([]float64, t.s.m)
	for i := 0; i < t.s.m; i++ {
		col := t.s.rowAux[i]
		if col < 0 {
			col = t.s.rowArt[i]
		}
		coef := t.s.val[t.s.start[col]]
		y := -t.finalRed[col] / coef
		if t.s.flip[i] {
			y = -y
		}
		duals[i] = y
	}
	return duals
}

func (t *tableau) objValue(cost []float64) float64 {
	v := 0.0
	for i, bj := range t.basis {
		v += cost[bj] * t.rhs[i]
	}
	return v
}

func (t *tableau) objectiveValue() float64 { return t.objValue(t.curCost) }

func (t *tableau) extract() []float64 {
	x := make([]float64, t.s.nStruct)
	for i, bj := range t.basis {
		if bj < t.s.nStruct {
			x[bj] = t.rhs[i]
		}
	}
	return x
}

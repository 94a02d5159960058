// Package simplex is a self-contained linear-programming solver used to
// compute the upper bounds of Section 7 of Shestak et al. (IPPS 2005), which
// the paper obtained from the commercial package Lingo 9.0. Solve and
// SolveWithBasis run the two-phase primal simplex method (Dantzig 1963) as a
// revised simplex over flat column-major sparse storage whose basis inverse is
// a sparse LU factorisation plus a product-form eta file, refactorised every
// 64 pivots, priced partially over a cyclic window of m columns (m the row
// count) with a fall-back to Bland's rule when the objective stalls. A cold
// solve starts from a triangular crash basis that puts a structural column in
// each zero-right-side equality or ≥ row, so phase 1 runs only for the
// artificials the crash could not replace.
//
// Certify checks an optimal answer against the problem as stated, sharing no
// code with the solver: primal feasibility, dual signs, reduced costs and
// strong duality. It is the reference the tests hold the solver to.
//
// Problems are stated as: maximize cᵀx subject to linear constraints with
// relations ≤, ≥, =, and x ≥ 0. Minimization is achieved by negating the
// objective.
package simplex

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Relation is a constraint sense.
type Relation int8

const (
	// LE is "left side ≤ right side".
	LE Relation = iota
	// GE is "left side ≥ right side".
	GE
	// EQ is "left side = right side".
	EQ
)

func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("Relation(%d)", int8(r))
	}
}

// Constraint is one linear constraint in sparse form: the dot product of Vals
// with the variables indexed by Cols, related to RHS.
type Constraint struct {
	Cols []int
	Vals []float64
	Rel  Relation
	RHS  float64
}

// Problem is a linear program over NumCols non-negative variables.
type Problem struct {
	numCols int
	obj     []float64
	cons    []Constraint
}

// NewProblem creates a maximization LP with n non-negative variables and an
// all-zero objective.
func NewProblem(n int) *Problem {
	if n < 1 {
		panic(fmt.Sprintf("simplex: problem needs at least one variable, got %d", n))
	}
	return &Problem{numCols: n, obj: make([]float64, n)}
}

// NumCols returns the number of structural variables.
func (p *Problem) NumCols() int { return p.numCols }

// NumRows returns the number of constraints added so far.
func (p *Problem) NumRows() int { return len(p.cons) }

// SetObjective sets the maximization coefficient of variable col.
func (p *Problem) SetObjective(col int, coeff float64) {
	p.checkCol(col)
	p.obj[col] = coeff
}

// AddObjective adds coeff to the maximization coefficient of variable col.
func (p *Problem) AddObjective(col int, coeff float64) {
	p.checkCol(col)
	p.obj[col] += coeff
}

// Objective returns the coefficient of variable col.
func (p *Problem) Objective(col int) float64 {
	p.checkCol(col)
	return p.obj[col]
}

func (p *Problem) checkCol(col int) {
	if col < 0 || col >= p.numCols {
		panic(fmt.Sprintf("simplex: column %d out of range [0,%d)", col, p.numCols))
	}
}

// AddConstraint appends a constraint. Duplicate column indices are merged by
// summing their coefficients. Non-finite coefficients or right sides are
// rejected.
func (p *Problem) AddConstraint(cols []int, vals []float64, rel Relation, rhs float64) error {
	if len(cols) != len(vals) {
		return fmt.Errorf("simplex: %d columns with %d values", len(cols), len(vals))
	}
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		return fmt.Errorf("simplex: right side %v", rhs)
	}
	increasing := true
	for idx, c := range cols {
		if c < 0 || c >= p.numCols {
			return fmt.Errorf("simplex: column %d out of range [0,%d)", c, p.numCols)
		}
		if v := vals[idx]; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("simplex: coefficient %v for column %d", v, c)
		}
		increasing = increasing && (idx == 0 || cols[idx-1] < c)
	}
	con := Constraint{
		Cols: slices.Clone(cols),
		Vals: slices.Clone(vals),
		Rel:  rel,
		RHS:  rhs,
	}
	// The LP builders emit columns in strictly increasing order, which needs
	// neither sorting nor merging.
	if !increasing {
		sort.Stable(byCol(con))
	}
	// Compact in place: fold each run of equal columns into its sum and drop
	// the sums that are zero.
	out := 0
	for idx := 0; idx < len(con.Cols); {
		c, v := con.Cols[idx], 0.0
		for ; idx < len(con.Cols) && con.Cols[idx] == c; idx++ {
			v += con.Vals[idx]
		}
		if v != 0 {
			con.Cols[out], con.Vals[out] = c, v
			out++
		}
	}
	con.Cols, con.Vals = con.Cols[:out], con.Vals[:out]
	p.cons = append(p.cons, con)
	return nil
}

// byCol sorts a constraint's (column, coefficient) pairs by column.
type byCol Constraint

func (c byCol) Len() int           { return len(c.Cols) }
func (c byCol) Less(i, j int) bool { return c.Cols[i] < c.Cols[j] }
func (c byCol) Swap(i, j int) {
	c.Cols[i], c.Cols[j] = c.Cols[j], c.Cols[i]
	c.Vals[i], c.Vals[j] = c.Vals[j], c.Vals[i]
}

// MustAddConstraint is AddConstraint that panics on error, for construction
// code whose indices are correct by design.
func (p *Problem) MustAddConstraint(cols []int, vals []float64, rel Relation, rhs float64) {
	if err := p.AddConstraint(cols, vals, rel, rhs); err != nil {
		panic(err)
	}
}

// Status is a solve outcome.
type Status int

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means no point satisfies every constraint.
	Infeasible
	// Unbounded means the objective can grow without limit.
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// WarmRefusal says why SolveWithBasis did not finish on the basis it was
// given and fell back to the cold two-phase solve.
type WarmRefusal int8

const (
	// WarmNotRefused is the zero value: the basis was used, or none was
	// offered.
	WarmNotRefused WarmRefusal = iota
	// WarmShape: wrong length, or an out-of-range or repeated column.
	WarmShape
	// WarmSingular: the basis columns are singular under the new
	// coefficients.
	WarmSingular
	// WarmPrimalInfeasible: B⁻¹b has a negative component under the new right
	// sides, so phase 2 cannot start from it.
	WarmPrimalInfeasible
	// WarmArtificial: an artificial column is basic at a nonzero value.
	WarmArtificial
	// WarmNumerical: phase 2 started from the basis and failed numerically.
	WarmNumerical
)

func (w WarmRefusal) String() string {
	switch w {
	case WarmNotRefused:
		return "none"
	case WarmShape:
		return "shape"
	case WarmSingular:
		return "singular"
	case WarmPrimalInfeasible:
		return "primal-infeasible"
	case WarmArtificial:
		return "artificial-nonzero"
	case WarmNumerical:
		return "numerical"
	default:
		return fmt.Sprintf("WarmRefusal(%d)", int8(w))
	}
}

// Solution is the result of a solve.
type Solution struct {
	Status    Status
	Objective float64
	X         []float64 // structural variable values; nil unless Optimal
	// Duals holds one shadow price per constraint (in the order they were
	// added): the rate of objective change per unit of right-hand side. Nil
	// unless Optimal.
	Duals      []float64
	Iterations int
	// Basis is the optimal basis in standard-form column numbering, one
	// column per constraint row: the warm-start seed for SolveWithBasis on a
	// problem with identical structure. Nil unless Optimal.
	Basis []int
	// Warm reports that the solution came from a warm-started solve that
	// actually used the supplied basis (false when SolveWithBasis had to fall
	// back to the cold two-phase path, in which case Refusal says why).
	Warm    bool
	Refusal WarmRefusal
}

// Certify checks sol against the problem as stated and returns the worst
// term of its optimality certificate, each term relative to 1 + the
// magnitudes it sums: 0 when the certificate holds exactly, +Inf when sol is
// not an optimum with one X per column and one dual per row. The four parts
// are
//
//   - primal feasibility: x ≥ 0 and every row holds;
//   - dual signs: y ≥ 0 on ≤ rows and y ≤ 0 on ≥ rows (this is a
//     maximization);
//   - dual feasibility: every reduced cost c_j − Σ_i y_i a_ij ≤ 0;
//   - strong duality: yᵀb = cᵀx, and the reported objective is cᵀx.
//
// When all four hold, x is optimal and y proves it, whichever code produced
// them: Certify shares nothing with the solver but the Problem.
func (p *Problem) Certify(sol *Solution) float64 {
	if sol.Status != Optimal || len(sol.X) != p.numCols || len(sol.Duals) != len(p.cons) {
		return math.Inf(1)
	}
	worst := p.residual(sol.X)
	red := slices.Clone(p.obj)        // c_j − Σ_i y_i a_ij
	mag := make([]float64, p.numCols) // Σ_i |y_i a_ij|
	yb, ybMag := 0.0, 0.0
	for i, con := range p.cons {
		y := sol.Duals[i]
		if (con.Rel == LE && y < 0) || (con.Rel == GE && y > 0) {
			worst = math.Max(worst, math.Abs(y)/(1+math.Abs(y)))
		}
		yb += y * con.RHS
		ybMag += math.Abs(y * con.RHS)
		for idx, c := range con.Cols {
			t := y * con.Vals[idx]
			red[c] -= t
			mag[c] += math.Abs(t)
		}
	}
	cx, cxMag := 0.0, 0.0
	for j, c := range p.obj {
		worst = math.Max(worst, red[j]/(1+math.Abs(c)+mag[j]))
		cx += c * sol.X[j]
		cxMag += math.Abs(c * sol.X[j])
	}
	gap := math.Max(math.Abs(yb-cx), math.Abs(sol.Objective-cx))
	return math.Max(worst, gap/(1+ybMag+cxMag))
}

// residual is Certify's primal part: the worst of a negative variable's
// |x_j| / (1 + |x_j|) and a row's violation / (1 + |b_i| + Σ_j |a_ij x_j|).
func (p *Problem) residual(x []float64) float64 {
	worst := 0.0
	for _, v := range x {
		if v < 0 {
			worst = math.Max(worst, -v/(1-v))
		}
	}
	for _, con := range p.cons {
		lhs, mag := 0.0, 1+math.Abs(con.RHS)
		for idx, c := range con.Cols {
			t := con.Vals[idx] * x[c]
			lhs += t
			mag += math.Abs(t)
		}
		viol := lhs - con.RHS
		switch con.Rel {
		case GE:
			viol = -viol
		case EQ:
			viol = math.Abs(viol)
		}
		worst = math.Max(worst, viol/mag)
	}
	return worst
}

// Value evaluates the objective at x.
func (p *Problem) Value(x []float64) float64 {
	v := 0.0
	for c, coeff := range p.obj {
		if coeff != 0 {
			v += coeff * x[c]
		}
	}
	return v
}

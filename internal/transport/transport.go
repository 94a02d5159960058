// Package transport solves the small transportation problems that arise when
// realizing a fractional mapping from package lp: given the machine-fraction
// vectors of two consecutive applications in a string (the marginals), it
// constructs transfer fractions y[j1][j2] ≥ 0 with the prescribed row and
// column sums. The plan maximizes the diagonal (intra-machine) mass first —
// intra-machine routes have infinite bandwidth and zero cost in the TSCE
// model — and distributes the remainder by the northwest-corner rule.
//
// It is used to validate upper-bound solutions: constraint families (d) and
// (e) of the Section 7 LP always admit such a plan, and the off-diagonal mass
// it produces bounds the route capacity a relaxed (route-free) solution would
// actually need.
package transport

import (
	"fmt"
	"math"
)

// tol absorbs float64 accumulation error in the marginals.
const tol = 1e-9

// Plan returns y with row sums a and column sums b (whose totals must agree
// within tolerance), maximizing Σ_j y[j][j]. All inputs must be non-negative.
func Plan(a, b []float64) ([][]float64, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("transport: %d sources vs %d sinks", len(a), len(b))
	}
	sa, sb := 0.0, 0.0
	for _, v := range a {
		if v < -tol || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("transport: bad supply %v", v)
		}
		sa += v
	}
	for _, v := range b {
		if v < -tol || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("transport: bad demand %v", v)
		}
		sb += v
	}
	if math.Abs(sa-sb) > tol*(1+math.Abs(sa)) {
		return nil, fmt.Errorf("transport: supply %v != demand %v", sa, sb)
	}
	n := len(a)
	y := make([][]float64, n)
	for i := range y {
		y[i] = make([]float64, n)
	}
	ra := append([]float64(nil), a...) // remaining supplies
	rb := append([]float64(nil), b...) // remaining demands
	// Diagonal first: y[j][j] = min(a_j, b_j) is optimal for maximizing the
	// diagonal because each diagonal cell is capped independently by its own
	// row and column.
	for j := 0; j < n; j++ {
		d := math.Min(ra[j], rb[j])
		if d > 0 {
			y[j][j] = d
			ra[j] -= d
			rb[j] -= d
		}
	}
	// Northwest-corner on the remainder.
	i, j := 0, 0
	for i < n && j < n {
		if ra[i] <= tol {
			i++
			continue
		}
		if rb[j] <= tol {
			j++
			continue
		}
		d := math.Min(ra[i], rb[j])
		y[i][j] += d
		ra[i] -= d
		rb[j] -= d
	}
	return y, nil
}

// Check verifies a plan against its marginals, returning the worst deviation.
func Check(y [][]float64, a, b []float64) float64 {
	worst := 0.0
	for i := range y {
		rowSum := 0.0
		for j := range y[i] {
			if y[i][j] < 0 {
				worst = math.Max(worst, -y[i][j])
			}
			rowSum += y[i][j]
		}
		worst = math.Max(worst, math.Abs(rowSum-a[i]))
	}
	for j := range b {
		colSum := 0.0
		for i := range y {
			colSum += y[i][j]
		}
		worst = math.Max(worst, math.Abs(colSum-b[j]))
	}
	return worst
}

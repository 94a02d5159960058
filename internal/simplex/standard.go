package simplex

import (
	"math"
	"slices"
)

// Conversion to standard computational form: A x = b with b ≥ 0 and x ≥ 0,
// where A gains slack, surplus, and artificial columns. The revised solver
// prices and factorises straight off its sparse column storage.

// standard is a problem in equality standard form.
type standard struct {
	m, n    int // rows; total columns including slack/surplus/artificials
	nStruct int // structural columns (the problem's own variables)

	// Column-major sparse storage in three flat arrays: column j's nonzeros
	// are row[start[j]:start[j+1]] with coefficients val[start[j]:start[j+1]].
	// Pricing walks tens of thousands of two- and three-entry columns per
	// pivot, so they sit in contiguous memory, not behind a slice header each.
	start []int32
	row   []int32
	val   []float64

	b    []float64 // right sides, all non-negative
	cost []float64 // phase-2 objective (maximize), zero for non-structural

	artStart int   // columns >= artStart are artificial
	basis    []int // initial basis, one column per row: slacks and artificials, until crash

	// flip[i] records that original constraint i was negated to make b
	// non-negative (its dual changes sign); rowArt[i] is the artificial
	// column of row i, -1 for LE.
	flip   []bool
	rowArt []int
}

// col returns the rows and coefficients of column j.
func (s *standard) col(j int) ([]int32, []float64) {
	lo, hi := s.start[j], s.start[j+1]
	return s.row[lo:hi], s.val[lo:hi]
}

// standardize converts the problem. Rows with negative right sides are
// negated (flipping their relation) so b ≥ 0 throughout. Structural columns
// come first, then one slack or surplus per inequality row, then the
// artificials: LE rows get a slack that also serves as the initial basic
// variable; GE rows get a surplus plus an artificial; EQ rows get an
// artificial.
func standardize(p *Problem) *standard {
	m := len(p.cons)
	s := &standard{
		m:       m,
		nStruct: p.numCols,
		b:       make([]float64, m),
		basis:   make([]int, m),
		flip:    make([]bool, m),
		rowArt:  make([]int, m),
	}
	rel := make([]Relation, m)
	nnz, nAux, nArt := 0, 0, 0
	for i, con := range p.cons {
		rel[i] = con.Rel
		s.b[i] = con.RHS
		if con.RHS < 0 {
			s.flip[i] = true
			s.b[i] = -con.RHS
			switch con.Rel {
			case LE:
				rel[i] = GE
			case GE:
				rel[i] = LE
			}
		}
		nnz += len(con.Cols)
		if rel[i] != EQ {
			nAux++
		}
		if rel[i] != LE {
			nArt++
		}
	}
	s.artStart = s.nStruct + nAux
	s.n = s.artStart + nArt
	nnz += nAux + nArt

	// Count, prefix-sum, fill: start[j+1] first holds column j's count, then
	// its end offset; next[j] is the fill cursor.
	s.start = make([]int32, s.n+1)
	s.row = make([]int32, nnz)
	s.val = make([]float64, nnz)
	for _, con := range p.cons {
		for _, c := range con.Cols {
			s.start[c+1]++
		}
	}
	for j := s.nStruct; j < s.n; j++ {
		s.start[j+1] = 1
	}
	for j := 0; j < s.n; j++ {
		s.start[j+1] += s.start[j]
	}
	next := append([]int32(nil), s.start[:s.nStruct]...)
	for i, con := range p.cons {
		sign := 1.0
		if s.flip[i] {
			sign = -1
		}
		for idx, c := range con.Cols {
			s.row[next[c]] = int32(i)
			s.val[next[c]] = sign * con.Vals[idx]
			next[c]++
		}
	}
	single := func(j, row int, val float64) int {
		s.row[s.start[j]] = int32(row)
		s.val[s.start[j]] = val
		return j
	}
	aux, art := s.nStruct, s.artStart
	for i := range rel {
		s.rowArt[i] = -1
		switch rel[i] {
		case LE:
			s.basis[i] = single(aux, i, 1)
			aux++
		case GE:
			single(aux, i, -1)
			aux++
		}
		if rel[i] != LE {
			s.rowArt[i] = single(art, i, 1)
			s.basis[i] = art
			art++
		}
	}
	s.cost = make([]float64, s.n)
	copy(s.cost, p.obj)
	return s
}

// crash replaces the artificial basic in each row whose right side is 0 by a
// structural column, so the revised solver starts closer to an optimum and,
// when every artificial goes, skips phase 1. A column qualifies for row r
// when r is its only nonzero in a row with an artificial basic and all its
// other nonzeros sit in rows with a slack basic; among a row's candidates it
// takes the one with the smallest Σ|a| outside r, ties to the lowest index.
// On the bound LPs the zero rows are the (b) rows and the pick is the
// application's lightest machine.
//
// The result needs no threshold test. Each crashed column has one nonzero
// among the artificial rows, in its own row, so that block of the basis is
// diagonal and the rest is the slack identity: the basis is nonsingular and
// triangular. Its rows' right sides are 0, so each crashed column is basic at
// 0 and the slacks keep their values: the basis is primal feasible. The one
// bound is pivotTol on |a|, below which the ratio test would never have
// pivoted the column into that row either.
func (s *standard) crash() {
	mass := make([]float64, s.m) // off-row mass of row i's pick so far
	for j := 0; j < s.nStruct; j++ {
		rows, vals := s.col(j)
		r, off := -1, 0.0
		for idx, i := range rows {
			if s.rowArt[i] < 0 {
				off += math.Abs(vals[idx])
				continue
			}
			if r >= 0 || s.b[i] != 0 || math.Abs(vals[idx]) < pivotTol {
				r = -1
				break
			}
			r = int(i)
		}
		if r >= 0 && (s.basis[r] >= s.artStart || off < mass[r]) {
			s.basis[r], mass[r] = j, off
		}
	}
}

// artificialBasic reports whether the initial basis holds an artificial
// column, which only phase 1 can drive to zero.
func (s *standard) artificialBasic() bool {
	return slices.ContainsFunc(s.basis, func(j int) bool { return j >= s.artStart })
}

// phase1Cost returns the phase-1 objective: maximize -(sum of artificials).
func (s *standard) phase1Cost() []float64 {
	c := make([]float64, s.n)
	for j := s.artStart; j < s.n; j++ {
		c[j] = -1
	}
	return c
}

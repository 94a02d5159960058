package simplex

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// The basis inverse in product form: B⁻¹ = E_k⁻¹ ⋯ E_1⁻¹ (LU)⁻¹, a sparse LU
// factorisation of the basis as it stood at the last refactorisation followed
// by one eta matrix per pivot since. The upper-bound LPs have bases made of
// slack/artificial singletons and two- or three-entry x columns, so almost
// the whole basis peels off triangularly and both L and U stay close to the
// basis's own nonzero count; nothing here is ever m × m.

// luThreshold is the threshold-partial-pivoting factor: a candidate pivot is
// acceptable when its magnitude is at least this share of the column's
// largest, and among acceptable candidates the sparsest row wins.
const luThreshold = 0.1

// singularTol is the pivot magnitude below which the basis is declared
// singular.
const singularTol = 1e-12

// sparseCols is an append-only list of sparse vectors in flat storage: vector
// k is idx[start[k]:start[k+1]] with values val[start[k]:start[k+1]].
type sparseCols struct {
	start []int32
	idx   []int32
	val   []float64
}

func (c *sparseCols) reset() {
	c.start = append(c.start[:0], 0)
	c.idx = c.idx[:0]
	c.val = c.val[:0]
}

// push appends an entry to the vector under construction; end closes it.
func (c *sparseCols) push(i int32, v float64) {
	c.idx = append(c.idx, i)
	c.val = append(c.val, v)
}

func (c *sparseCols) end() { c.start = append(c.start, int32(len(c.idx))) }

func (c *sparseCols) col(k int) ([]int32, []float64) {
	lo, hi := c.start[k], c.start[k+1]
	return c.idx[lo:hi], c.val[lo:hi]
}

// factor holds P·B·Q = L·U and the eta file. Elimination step k took basis
// position pos[k] (Q) and pivoted on equation row piv[k] (P). Row-indexed
// vectors are addressed by equation row, position-indexed ones by the slot
// of revised.basis.
type factor struct {
	m        int
	pos, piv []int32
	diag     []float64  // diag[k]: U's diagonal entry of step k
	l        sparseCols // l.col(k): multipliers of step k by equation row; unit diagonal implied
	u        sparseCols // u.col(k): U's entries above the diagonal, by the pivot row of their step
	lSteps   []int32    // steps whose L column is non-empty, ascending

	// Eta file: pivot e replaced position etaPos[e] by a column whose FTRAN
	// image had etaPiv[e] at that position and eta.col(e) elsewhere.
	eta    sparseCols
	etaPos []int32
	etaPiv []float64

	w       []float64 // row-indexed work vector; zero between calls
	c       []float64 // position-indexed scratch for btran
	step    []int32   // step[row]: elimination step that pivoted on row, -1 while unpivoted
	mark    []bool    // row is in touched (factorize) or taken (order); false between uses
	touched []int32

	// Row-wise pattern of the basis, built by order: the positions with a
	// nonzero in row r are rowPos[rowStart[r]:rowStart[r+1]].
	rowStart []int32
	rowPos   []int32
	rowFill  []int32 // fill cursor per row
	free     []int32 // per position: nonzeros in rows no column has taken yet
	queue    []int32
}

func newFactor(m int) *factor {
	return &factor{
		m:    m,
		pos:  make([]int32, m),
		piv:  make([]int32, m),
		diag: make([]float64, m),
		w:    make([]float64, m),
		c:    make([]float64, m),
		step: make([]int32, m),
		mark: make([]bool, m),

		rowStart: make([]int32, m+1),
		rowFill:  make([]int32, m),
		free:     make([]int32, m),
	}
}

// order fills f.pos with an elimination order that leaves as little as
// possible for L. A basis of these LPs is close to a forest (an x column joins
// an application's row to a machine's row), so most of it permutes to upper
// triangular form by peeling leaves from both sides:
//
//   - front: a column with a single nonzero outside the rows already taken
//     takes that row, which may leave further columns with a single free
//     nonzero, outwards from the slack and artificial singletons;
//   - back: a row with a single column not yet placed gives that column the
//     row, and the column goes to the end of the order, ahead of those placed
//     there before it: by the time factorize reaches it every other row of it
//     has been pivoted on.
//
// factorize finds exactly one pivot candidate in each of those and they add
// nothing to L. The columns in neither set go in between, by free nonzero
// count.
func (f *factor) order(s *standard, basis []int) {
	m := f.m
	clear(f.rowStart)
	for p, j := range basis {
		rows, _ := s.col(j)
		f.free[p] = int32(len(rows))
		for _, r := range rows {
			f.rowStart[r+1]++
		}
	}
	for r := 0; r < m; r++ {
		f.rowStart[r+1] += f.rowStart[r]
	}
	copy(f.rowFill, f.rowStart)
	f.rowPos = slices.Grow(f.rowPos[:0], int(f.rowStart[m]))[:f.rowStart[m]]
	for p, j := range basis {
		rows, _ := s.col(j)
		for _, r := range rows {
			f.rowPos[f.rowFill[r]] = int32(p)
			f.rowFill[r]++
		}
	}
	rowCols := func(r int32) []int32 { return f.rowPos[f.rowStart[r]:f.rowStart[r+1]] }
	taken := f.mark // rows; cleared again before returning

	queue := f.queue[:0]
	for p := 0; p < m; p++ {
		if f.free[p] == 1 {
			queue = append(queue, int32(p))
		}
	}
	front := 0
	for head := 0; head < len(queue); head++ {
		p := queue[head]
		if f.free[p] != 1 {
			continue // another column took its last free row first
		}
		rows, _ := s.col(basis[p])
		for _, r := range rows {
			if taken[r] {
				continue
			}
			taken[r] = true
			for _, q := range rowCols(r) {
				if f.free[q]--; f.free[q] == 1 {
					queue = append(queue, q)
				}
			}
		}
		f.free[p] = -1 // placed
		f.pos[front] = p
		front++
	}

	// rowFill[r] now counts row r's columns that are still unplaced.
	unplaced := f.rowFill
	queue = queue[:0]
	for r := int32(0); r < int32(m); r++ {
		unplaced[r] = 0
		if taken[r] {
			continue
		}
		for _, q := range rowCols(r) {
			if f.free[q] >= 0 {
				unplaced[r]++
			}
		}
		if unplaced[r] == 1 {
			queue = append(queue, r)
		}
	}
	back := m
	for head := 0; head < len(queue); head++ {
		r := queue[head]
		if unplaced[r] != 1 {
			continue // its last column went to another row first
		}
		taken[r] = true
		for _, q := range rowCols(r) {
			if f.free[q] < 0 {
				continue
			}
			f.free[q] = -1
			back--
			f.pos[back] = q
			rows, _ := s.col(basis[q])
			for _, r2 := range rows {
				if unplaced[r2]--; unplaced[r2] == 1 && !taken[r2] {
					queue = append(queue, r2)
				}
			}
		}
	}
	f.queue = queue
	clear(taken)

	rest := f.pos[front:front]
	for p := 0; p < m; p++ {
		if f.free[p] >= 0 {
			rest = append(rest, int32(p))
		}
	}
	slices.SortStableFunc(rest, func(a, b int32) int { return cmp.Compare(f.free[a], f.free[b]) })
}

// factorize replaces the factorisation by a fresh LU of the given basis and
// empties the eta file. Left-looking: columns are taken in the order order
// chose, each is forward-solved against the L built so far, and the pivot is
// picked among its still-unpivoted rows by threshold partial pivoting with
// the sparsest row preferred. A column with no usable pivot makes the basis
// singular.
func (f *factor) factorize(s *standard, basis []int) error {
	m := f.m
	f.l.reset()
	f.u.reset()
	f.eta.reset()
	f.etaPos, f.etaPiv, f.lSteps = f.etaPos[:0], f.etaPiv[:0], f.lSteps[:0]
	f.order(s, basis)
	for i := range f.step {
		f.step[i] = -1
	}
	rowNNZ := func(r int32) int32 { return f.rowStart[r+1] - f.rowStart[r] }

	for k := 0; k < m; k++ {
		rows, vals := s.col(basis[f.pos[k]])
		touched := f.touched[:0]
		for idx, r := range rows {
			f.w[r] = vals[idx]
			f.mark[r] = true
			touched = append(touched, r)
		}
		for _, e := range f.lSteps {
			t := f.w[f.piv[e]]
			if t == 0 {
				continue
			}
			li, lv := f.l.col(int(e))
			for x, i := range li {
				if !f.mark[i] {
					f.mark[i] = true
					touched = append(touched, i)
				}
				f.w[i] -= lv[x] * t
			}
		}
		f.touched = touched

		amax := 0.0
		for _, r := range touched {
			if f.step[r] < 0 {
				amax = math.Max(amax, math.Abs(f.w[r]))
			}
		}
		if amax < singularTol {
			clear(f.w) // zero between calls, also after a failed one
			clear(f.mark)
			return fmt.Errorf("simplex: basis singular during refactorization (column %d)", basis[f.pos[k]])
		}
		pr := int32(-1)
		for _, r := range touched {
			if f.step[r] >= 0 || math.Abs(f.w[r]) < luThreshold*amax {
				continue
			}
			if pr < 0 || rowNNZ(r) < rowNNZ(pr) ||
				(rowNNZ(r) == rowNNZ(pr) && math.Abs(f.w[r]) > math.Abs(f.w[pr])) {
				pr = r
			}
		}
		pv := f.w[pr]
		for _, r := range touched {
			v := f.w[r]
			f.w[r], f.mark[r] = 0, false
			switch {
			case r == pr || v == 0:
			case f.step[r] >= 0:
				f.u.push(r, v)
			default:
				f.l.push(r, v/pv)
			}
		}
		f.u.end()
		f.l.end()
		if f.l.start[k+1] > f.l.start[k] {
			f.lSteps = append(f.lSteps, int32(k))
		}
		f.piv[k], f.diag[k], f.step[pr] = pr, pv, int32(k)
	}
	return nil
}

// update appends the eta of a pivot that replaces basis position leave by a
// column whose FTRAN image is u.
func (f *factor) update(leave int, u []float64) {
	for i, v := range u {
		if v != 0 && i != leave {
			f.eta.push(int32(i), v)
		}
	}
	f.eta.end()
	f.etaPos = append(f.etaPos, int32(leave))
	f.etaPiv = append(f.etaPiv, u[leave])
}

// ftran solves B·out = w for the row-indexed right side the caller has loaded
// into f.w, leaving f.w zero again; out is position-indexed.
func (f *factor) ftran(out []float64) {
	w := f.w
	for _, k := range f.lSteps {
		t := w[f.piv[k]]
		if t == 0 {
			continue
		}
		li, lv := f.l.col(int(k))
		for x, i := range li {
			w[i] -= lv[x] * t
		}
	}
	for k := f.m - 1; k >= 0; k-- {
		r := f.piv[k]
		t := w[r]
		w[r] = 0
		if t != 0 {
			t /= f.diag[k]
			ui, uv := f.u.col(k)
			for x, i := range ui {
				w[i] -= uv[x] * t
			}
		}
		out[f.pos[k]] = t
	}
	for e, p := range f.etaPos {
		t := out[p]
		if t == 0 {
			continue
		}
		t /= f.etaPiv[e]
		out[p] = t
		ei, ev := f.eta.col(e)
		for x, i := range ei {
			out[i] -= ev[x] * t
		}
	}
}

// btran solves yᵀ·B = cᵀ for the position-indexed c the caller has loaded
// into f.c (clobbered); y is row-indexed.
func (f *factor) btran(y []float64) {
	c := f.c
	for e := len(f.etaPos) - 1; e >= 0; e-- {
		p := f.etaPos[e]
		t := c[p]
		ei, ev := f.eta.col(e)
		for x, i := range ei {
			t -= ev[x] * c[i]
		}
		c[p] = t / f.etaPiv[e]
	}
	// The one loop here that runs m times per pivot whatever the sparsity:
	// index the flat arrays directly and skip the division for the zeros.
	us, ui, uv := f.u.start, f.u.idx, f.u.val
	for k := 0; k < f.m; k++ {
		t := c[f.pos[k]]
		for x := us[k]; x < us[k+1]; x++ {
			t -= uv[x] * y[ui[x]]
		}
		if t != 0 {
			t /= f.diag[k]
		}
		y[f.piv[k]] = t
	}
	for x := len(f.lSteps) - 1; x >= 0; x-- {
		k := f.lSteps[x]
		r := f.piv[k]
		t := y[r]
		li, lv := f.l.col(int(k))
		for x, i := range li {
			t -= lv[x] * y[i]
		}
		y[r] = t
	}
}

package simplex

import (
	"math"
	"math/rand"
	"testing"
)

// randomColumns builds the column storage of a standard form by hand: m unit
// columns (so a nonsingular basis always exists) followed by extra random
// sparse columns with one to four nonzeros each.
func randomColumns(rng *rand.Rand, m, extra int) *standard {
	s := &standard{m: m, n: m + extra, start: []int32{0}}
	for j := 0; j < s.n; j++ {
		rows := []int{j}
		if j >= m {
			rows = rng.Perm(m)[:min(m, 1+rng.Intn(4))]
		}
		for _, r := range rows {
			s.row = append(s.row, int32(r))
			s.val = append(s.val, 1+rng.Float64())
		}
		s.start = append(s.start, int32(len(s.row)))
	}
	return s
}

// gaussSolve solves A·x = b by dense Gaussian elimination with partial
// pivoting; A and b are clobbered. The oracle for the sparse factor.
func gaussSolve(a [][]float64, b []float64) []float64 {
	m := len(b)
	for c := 0; c < m; c++ {
		piv := c
		for i := c + 1; i < m; i++ {
			if math.Abs(a[i][c]) > math.Abs(a[piv][c]) {
				piv = i
			}
		}
		a[c], a[piv] = a[piv], a[c]
		b[c], b[piv] = b[piv], b[c]
		for i := c + 1; i < m; i++ {
			g := a[i][c] / a[c][c]
			if g == 0 {
				continue
			}
			for k := c; k < m; k++ {
				a[i][k] -= g * a[c][k]
			}
			b[i] -= g * b[c]
		}
	}
	x := make([]float64, m)
	for i := m - 1; i >= 0; i-- {
		v := b[i]
		for k := i + 1; k < m; k++ {
			v -= a[i][k] * x[k]
		}
		x[i] = v / a[i][i]
	}
	return x
}

// denseBasis returns B (transposed when asked) with B[row][position].
func denseBasis(s *standard, basis []int, transpose bool) [][]float64 {
	b := make([][]float64, s.m)
	for i := range b {
		b[i] = make([]float64, s.m)
	}
	for p, j := range basis {
		rows, vals := s.col(j)
		for idx, r := range rows {
			if transpose {
				b[p][r] = vals[idx]
			} else {
				b[r][p] = vals[idx]
			}
		}
	}
	return b
}

// checkFactor compares FTRAN of a random right side and BTRAN of a random
// cost row against dense solves with the current basis.
func checkFactor(t *testing.T, rng *rand.Rand, f *factor, s *standard, basis []int, when string) {
	t.Helper()
	m := s.m
	rhs, cost := make([]float64, m), make([]float64, m)
	for i := range rhs {
		if rng.Intn(3) == 0 {
			rhs[i] = rng.NormFloat64()
		}
		cost[i] = rng.NormFloat64()
	}
	got := make([]float64, m)
	copy(f.w, rhs)
	f.ftran(got)
	want := gaussSolve(denseBasis(s, basis, false), append([]float64(nil), rhs...))
	for i := range want {
		if !approx(got[i], want[i], 1e-8*(1+math.Abs(want[i]))) {
			t.Fatalf("%s: ftran[%d] = %v, dense solve %v", when, i, got[i], want[i])
		}
	}
	for i, v := range f.w {
		if v != 0 {
			t.Fatalf("%s: ftran left w[%d] = %v", when, i, v)
		}
	}
	copy(f.c, cost)
	f.btran(got)
	want = gaussSolve(denseBasis(s, basis, true), append([]float64(nil), cost...))
	for i := range want {
		if !approx(got[i], want[i], 1e-8*(1+math.Abs(want[i]))) {
			t.Fatalf("%s: btran[%d] = %v, dense solve %v", when, i, got[i], want[i])
		}
	}
}

// TestFactorAgainstDense: on random sparse nonsingular bases, FTRAN and BTRAN
// agree with a dense Gaussian solve on the fresh LU, after each of a string of
// eta updates (column replacements, as pivot makes them), and again after the
// refactorisation that folds those replacements into a new LU.
func TestFactorAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1605))
	nnzL := 0
	for trial := 0; trial < 40; trial++ {
		m := 2 + rng.Intn(30)
		s := randomColumns(rng, m, 3*m)
		basis := make([]int, m)
		inB := make([]bool, s.n)
		for p := range basis {
			basis[p], inB[p] = p, true
		}
		f := newFactor(m)
		if err := f.factorize(s, basis); err != nil {
			t.Fatalf("trial %d: identity basis: %v", trial, err)
		}
		checkFactor(t, rng, f, s, basis, "identity")
		u := make([]float64, m)
		for round := 0; round < 3; round++ {
			for etas := 0; etas < m; {
				j := rng.Intn(s.n)
				if inB[j] {
					continue
				}
				rows, vals := s.col(j)
				for idx, r := range rows {
					f.w[r] = vals[idx]
				}
				f.ftran(u)
				leave := rng.Intn(m)
				if math.Abs(u[leave]) < 0.1 {
					continue // would make the basis (nearly) singular
				}
				f.update(leave, u)
				inB[basis[leave]], inB[j] = false, true
				basis[leave] = j
				etas++
				checkFactor(t, rng, f, s, basis, "after eta update")
			}
			if err := f.factorize(s, basis); err != nil {
				t.Fatalf("trial %d round %d: refactorisation: %v", trial, round, err)
			}
			if len(f.etaPos) != 0 {
				t.Fatalf("refactorisation kept %d etas", len(f.etaPos))
			}
			nnzL += len(f.l.idx)
			checkFactor(t, rng, f, s, basis, "after refactorisation")
		}
	}
	if nnzL == 0 {
		t.Error("every basis was a permuted triangle: L was never exercised")
	}
}

// TestFactorSingular: a basis with a repeated column, and one whose columns
// are distinct but dependent, both come back as errors (which SolveWithBasis
// turns into WarmSingular and a cold solve), and the factor is usable again
// afterwards.
func TestFactorSingular(t *testing.T) {
	s := &standard{m: 3, n: 5,
		start: []int32{0, 2, 4, 6, 7, 9},
		row:   []int32{0, 1, 1, 2, 0, 2, 0, 0, 1},
		val:   []float64{1, 1, 1, 1, 1, -1, 1, 2, 2},
	}
	// Columns: (1,1,0), (0,1,1), (1,0,-1) = first − second, e0, 2·(1,1,0).
	f := newFactor(3)
	for _, basis := range [][]int{{0, 1, 2}, {0, 4, 3}} {
		if err := f.factorize(s, basis); err == nil {
			t.Errorf("basis %v factorised without error", basis)
		}
	}
	if err := f.factorize(s, []int{0, 1, 3}); err != nil {
		t.Fatalf("nonsingular basis after singular ones: %v", err)
	}
	checkFactor(t, rand.New(rand.NewSource(1)), f, s, []int{0, 1, 3}, "after singular attempts")

	p := NewProblem(2)
	p.SetObjective(0, 1)
	p.MustAddConstraint([]int{0, 1}, []float64{1, 1}, LE, 4)
	p.MustAddConstraint([]int{0, 1}, []float64{2, 2}, LE, 10)
	sol, err := p.SolveWithBasis([]int{0, 1}) // x0 and x1 are parallel columns
	if err != nil || sol.Status != Optimal || sol.Warm || sol.Refusal != WarmSingular {
		t.Errorf("singular warm basis: err %v, %+v", err, sol)
	}
}

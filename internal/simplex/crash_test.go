package simplex

import (
	"math/rand"
	"slices"
	"testing"
)

// crashed standardizes p and applies the crash, as Solve does.
func crashed(p *Problem) *standard {
	s := standardize(p)
	s.crash()
	return s
}

// slackOf returns the slack column of LE row i of s, or -1.
func slackOf(s *standard, i int) int {
	for j := s.nStruct; j < s.artStart; j++ {
		if rows, vals := s.col(j); int(rows[0]) == i && vals[0] == 1 {
			return j
		}
	}
	return -1
}

// TestCrashPicks pins the crash's choice row by row on small LPs: which rows
// get a structural column, and which one.
func TestCrashPicks(t *testing.T) {
	const (
		art = -1 // the row keeps its artificial
		slk = -2 // the row's slack
	)
	for _, c := range []struct {
		name string
		rows []Constraint
		want []int // per row: the structural column, art or slk
	}{
		{
			// Masses outside row 0: x0 3, x1 1, x2 2.
			name: "EQ zero row takes its lightest column",
			rows: []Constraint{
				{Cols: []int{0, 1, 2}, Vals: []float64{1, -1, -1}, Rel: EQ},
				{Cols: []int{0, 1, 2}, Vals: []float64{3, 1, 2}, Rel: LE, RHS: 10},
			},
			want: []int{1, slk},
		},
		{
			name: "GE zero row takes its lightest column",
			rows: []Constraint{
				{Cols: []int{0, 1}, Vals: []float64{1, -1}, Rel: GE},
				{Cols: []int{0, 1}, Vals: []float64{2, 1}, Rel: LE, RHS: 5},
			},
			want: []int{1, slk},
		},
		{
			// The second row is flipped to x0 + x1 = 3.
			name: "nonzero right side stays artificial",
			rows: []Constraint{
				{Cols: []int{0, 1}, Vals: []float64{1, 1}, Rel: EQ, RHS: 3},
				{Cols: []int{0, 1}, Vals: []float64{-1, -1}, Rel: EQ, RHS: -3},
				{Cols: []int{0, 1}, Vals: []float64{1, 1}, Rel: GE, RHS: 1},
			},
			want: []int{art, art, art},
		},
		{
			// x0 touches no slack row, so it is the lightest, but it sits in
			// two artificial rows.
			name: "column in two artificial rows is never taken",
			rows: []Constraint{
				{Cols: []int{0, 1}, Vals: []float64{1, -1}, Rel: EQ},
				{Cols: []int{0, 2}, Vals: []float64{1, -1}, Rel: EQ},
				{Cols: []int{1, 2}, Vals: []float64{1, 1}, Rel: LE, RHS: 1},
			},
			want: []int{1, 2, slk},
		},
		{
			// x0 is the lightest candidate of row 0 but also sits in the
			// nonzero row 1.
			name: "column in a nonzero artificial row is never taken",
			rows: []Constraint{
				{Cols: []int{0, 1}, Vals: []float64{1, -1}, Rel: EQ},
				{Cols: []int{0}, Vals: []float64{1}, Rel: EQ, RHS: 2},
				{Cols: []int{1}, Vals: []float64{4}, Rel: LE, RHS: 8},
			},
			want: []int{1, art, slk},
		},
		{
			// Every mass is 1, x1's too (it is Σ|a|): the lowest index wins.
			name: "ties go to the lowest index",
			rows: []Constraint{
				{Cols: []int{0, 1, 2}, Vals: []float64{-1, -1, 1}, Rel: EQ},
				{Cols: []int{0, 1, 2}, Vals: []float64{1, -1, 1}, Rel: LE, RHS: 1},
			},
			want: []int{0, slk},
		},
		{
			name: "a coefficient below pivotTol does not qualify",
			rows: []Constraint{
				{Cols: []int{0, 1}, Vals: []float64{1e-12, -1}, Rel: EQ},
				{Cols: []int{1}, Vals: []float64{5}, Rel: LE, RHS: 1},
			},
			want: []int{1, slk},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := NewProblem(3)
			for _, r := range c.rows {
				p.MustAddConstraint(r.Cols, r.Vals, r.Rel, r.RHS)
			}
			s := crashed(p)
			want := slices.Clone(c.want)
			for i, j := range want {
				switch j {
				case art:
					want[i] = s.rowArt[i]
				case slk:
					want[i] = slackOf(s, i)
				}
			}
			if !slices.Equal(s.basis, want) {
				t.Fatalf("basis %v, want %v", s.basis, want)
			}
			if got := slices.Contains(c.want, art); s.artificialBasic() != got {
				t.Errorf("artificialBasic %v, want %v", s.artificialBasic(), got)
			}
			// The crashed basis factorises and is primal feasible as is.
			r := newRevised(s, s.basis)
			if err := r.refactorize(); err != nil {
				t.Fatal(err)
			}
			for i, v := range r.xB {
				if v < 0 || (s.b[i] == 0 && v != 0) {
					t.Errorf("row %d: basic value %v, right side %v", i, v, s.b[i])
				}
			}
		})
	}
}

// TestCrashRedundantRowReachesDriveOut: the zero row is crashed, but rows 1
// and 2 are nonzero and linearly dependent, so phase 1 still runs and one of
// their artificials stays basic, pinned at zero by driveOutArtificials.
// max x0 + x2 with x0 = x1 + x2, x0 + x1 = 4, x2 ≤ 1: optimum 3.5.
func TestCrashRedundantRowReachesDriveOut(t *testing.T) {
	p := NewProblem(3)
	p.SetObjective(0, 1)
	p.SetObjective(2, 1)
	p.MustAddConstraint([]int{0, 1, 2}, []float64{1, -1, -1}, EQ, 0)
	p.MustAddConstraint([]int{0, 1}, []float64{1, 1}, EQ, 4)
	p.MustAddConstraint([]int{0, 1}, []float64{2, 2}, EQ, 8)
	p.MustAddConstraint([]int{2}, []float64{1}, LE, 1)
	s := crashed(p)
	if s.basis[0] != 2 || !s.artificialBasic() {
		t.Fatalf("crashed basis %v: want x2 in row 0 and artificials left for phase 1", s.basis)
	}
	sol := solve(t, p)
	if sol.Status != Optimal || !approx(sol.Objective, 3.5, 1e-9) {
		t.Fatalf("Solve: %+v, want optimal 3.5", sol)
	}
	if !slices.ContainsFunc(sol.Basis, func(j int) bool { return j >= s.artStart }) {
		t.Errorf("final basis %v holds no artificial, yet rows 1 and 2 are dependent", sol.Basis)
	}
}

// randomCrashLP builds a small LP with integer data in which half the EQ and
// GE rows have right side 0, so most trials crash some rows, and without box
// bounds, so some are infeasible and some unbounded.
func randomCrashLP(rng *rand.Rand) *Problem {
	n, m := 2+rng.Intn(7), 1+rng.Intn(7)
	p := NewProblem(n)
	for j := 0; j < n; j++ {
		p.SetObjective(j, float64(rng.Intn(7)-2))
	}
	for i := 0; i < m; i++ {
		nnz := 1 + rng.Intn(n)
		cols := rng.Perm(n)[:nnz]
		vals := make([]float64, nnz)
		for idx := range vals {
			vals[idx] = float64(rng.Intn(7) - 3)
		}
		rel, rhs := Relation(rng.Intn(3)), float64(rng.Intn(21)-5)
		if rel != LE && rng.Intn(2) == 0 {
			rhs = 0
		}
		p.MustAddConstraint(cols, vals, rel, rhs)
	}
	return p
}

// TestCrashStatusesCertified: on random LPs the crashed Solve's status
// carries its certificate (certifyStatus), whichever of the three it is. The
// trials must cover all three outcomes and both a phase-1-free solve and a
// crash that leaves phase 1 to run.
func TestCrashStatusesCertified(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	var statuses [3]int
	noPhase1, partial := 0, 0
	for trial := 0; trial < 2000; trial++ {
		p := randomCrashLP(rng)
		s := crashed(p)
		if slices.ContainsFunc(s.basis, func(j int) bool { return j < s.nStruct }) {
			if s.artificialBasic() {
				partial++
			} else if s.artStart < s.n {
				noPhase1++
			}
		}
		sol, err := p.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := certifyStatus(p, sol); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		statuses[sol.Status]++
	}
	t.Logf("optimal/infeasible/unbounded %v; crashed without phase 1 %d, with %d", statuses, noPhase1, partial)
	for st, k := range statuses {
		if k < 50 {
			t.Errorf("only %d %v trials", k, Status(st))
		}
	}
	if noPhase1 < 50 || partial < 50 {
		t.Errorf("crash engaged without phase 1 in %d trials and with it in %d, want 50 each", noPhase1, partial)
	}
}

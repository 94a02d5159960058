// Package lp builds and solves the fractional-mapping linear programs of
// Section 7 of Shestak et al. (IPPS 2005), whose optima are mathematically
// justified upper bounds (UB) on any integral allocation's performance: every
// application may be decomposed into per-machine fractions x[i,k,j], each
// fraction receiving/producing the equivalent fraction y[i,k,j1,j2] of the
// application's input/output over the corresponding route.
//
// Two formulations are provided:
//
//   - Full: the paper's complete LP with both x and y decision variables and
//     constraint families (a)-(g). Exact but large — the y variables number
//     (transfers × M²) — so it is intended for small and medium instances.
//   - Relaxed: drops the y variables together with constraint families (d),
//     (e) and (g). Because that only removes constraints from the paper's LP
//     (and the paper's LP is itself a relaxation of the integer allocation
//     problem), the relaxed optimum is still a valid upper bound, merely a
//     looser one. The gap is small in practice: the full LP can route
//     transfers intra-machine (infinite-bandwidth diagonal routes) whenever
//     it equalizes consecutive application fractions, making route capacity
//     rarely binding. Tests quantify the gap on small instances.
//
// Two objectives correspond to the paper's two experimental regimes:
//
//   - MaximizeWorth (scenarios 1 and 2, partial allocation): maximize the
//     worth-weighted mapped fractions, with constraint (a) as an inequality.
//   - MaximizeSlackness (scenario 3, complete allocation): maximize Λ with
//     every application fully mapped (constraint (a) as an equality) and
//     capacity constraints tightened to U + Λ ≤ 1.
package lp

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/simplex"
	"repro/internal/telemetry"
)

// Formulation selects the LP variant.
type Formulation int

const (
	// Full is the paper's complete formulation with x and y variables.
	Full Formulation = iota
	// Relaxed drops transfer variables and route-capacity rows; still a
	// valid (looser) upper bound, tractable at the paper's full scale.
	Relaxed
)

func (f Formulation) String() string {
	if f == Full {
		return "full"
	}
	return "relaxed"
}

// Objective selects the optimization goal.
type Objective int

const (
	// MaximizeWorth maximizes total worth of (fractionally) mapped strings;
	// used for the partial-allocation scenarios 1 and 2.
	MaximizeWorth Objective = iota
	// MaximizeSlackness maximizes system slackness Λ subject to a complete
	// mapping; used for the lightly loaded scenario 3.
	MaximizeSlackness
)

func (o Objective) String() string {
	if o == MaximizeWorth {
		return "max-worth"
	}
	return "max-slackness"
}

// Config controls the bound computation.
type Config struct {
	Formulation Formulation
	Objective   Objective
	// LiteralObjective reproduces the paper's printed worth objective
	// Σ_k Σ_i Σ_j I[k]·x[i,k,j], which weights each string by worth × its
	// application count. The default (false) maximizes Σ_k I[k]·f_k, the
	// quantity directly comparable to the heuristics' total-worth metric.
	// Ignored for MaximizeSlackness.
	LiteralObjective bool
	// MaxVariables guards against accidentally building an intractable LP;
	// 0 means the default of 400,000.
	MaxVariables int
	// WarmBasis warm-starts the revised simplex from the Basis of a previous
	// Bound computed with the same formulation and objective on a system of
	// identical shape (same machine count and the same strings with the same
	// application counts — only parameter values may differ, e.g. a surge
	// rescale). An unusable basis silently falls back to the cold solve;
	// Bound.WarmStarted reports the path taken.
	WarmBasis []int
}

// Bound is the result of an upper-bound computation.
type Bound struct {
	Status simplex.Status
	// Objective is the optimal LP value: an upper bound on total worth
	// (MaximizeWorth) or on system slackness (MaximizeSlackness).
	Objective float64
	// StringFraction[k] is f_k, the mapped fraction of string k (the sum of
	// the first application's machine fractions).
	StringFraction []float64
	// X[k][i][j] is the fraction of application i of string k assigned to
	// machine j.
	X [][][]float64
	// Iterations is the total simplex pivot count.
	Iterations int
	// Variables and Constraints describe the LP that was solved.
	Variables, Constraints int
	// MachineShadowPrice[j] is the dual value of machine j's capacity row:
	// the rate of objective improvement per unit of added CPU capacity — the
	// capacity-planning signal identifying bottleneck machines. Nil when the
	// LP is not optimal.
	MachineShadowPrice []float64
	// Basis is the optimal simplex basis, usable as Config.WarmBasis for a
	// re-solve after a parameter change on the same system shape. Nil unless
	// the LP is optimal.
	Basis []int
	// WarmStarted reports that a supplied Config.WarmBasis was actually used
	// (false when it was absent or the solver fell back to the cold path, in
	// which case WarmRefusal says why the basis was turned down).
	WarmStarted bool
	WarmRefusal simplex.WarmRefusal
}

// builder tracks the variable layout of one LP instance.
type builder struct {
	sys  *model.System
	cfg  Config
	m    int
	xOff []int // xOff[k]: first x column of string k; x[i,k,j] = xOff[k]+i*m+j
	yOff []int // yOff[k]: first y column of string k (Full only); -1 if none
	nX   int
	nY   int
	lam  int // λ column (MaximizeSlackness only); -1 otherwise
	prob *simplex.Problem
	// machineRow[j] is the constraint index of machine j's capacity row.
	machineRow []int
	// cols and vals are the row under construction; AddConstraint copies, so
	// one pair sized for the longest row serves every constraint. Rows are
	// emitted in increasing column order, which AddConstraint takes as is.
	cols []int
	vals []float64
}

// term appends one coefficient to the row under construction; addRow emits
// the row and starts the next.
func (b *builder) term(col int, val float64) {
	b.cols = append(b.cols, col)
	b.vals = append(b.vals, val)
}

func (b *builder) addRow(rel simplex.Relation, rhs float64) {
	b.prob.MustAddConstraint(b.cols, b.vals, rel, rhs)
	b.cols, b.vals = b.cols[:0], b.vals[:0]
}

// UpperBound builds the configured LP for the system and solves it with the
// revised simplex, warm-started from cfg.WarmBasis when one is supplied.
func UpperBound(sys *model.System, cfg Config) (*Bound, error) {
	b, err := build(sys, cfg)
	if err != nil {
		return nil, err
	}
	var sol *simplex.Solution
	if cfg.WarmBasis != nil {
		sol, err = b.prob.SolveWithBasis(cfg.WarmBasis)
		if sol != nil && telemetry.Enabled() {
			if sol.Warm {
				telemetry.C("lp.warm_used").Inc()
			} else {
				telemetry.C("lp.warm_fallback." + sol.Refusal.String()).Inc()
			}
		}
	} else {
		sol, err = b.prob.Solve()
	}
	if err != nil {
		return nil, fmt.Errorf("lp: %w", err)
	}
	return b.bound(sol), nil
}

// build assembles the LP: objective plus constraint families (a)-(g).
func build(sys *model.System, cfg Config) (*builder, error) {
	b, err := newBuilder(sys, cfg)
	if err != nil {
		return nil, err
	}
	b.addObjective()
	b.addMappingConstraints()
	b.addCapacityConstraints()
	if cfg.Formulation == Full {
		b.addTransferConstraints()
	}
	return b, nil
}

// bound maps a solution of b.prob back onto the system. It is solver-agnostic
// so the tests can cross-check the reference solvers on the same built LP.
func (b *builder) bound(sol *simplex.Solution) *Bound {
	sys := b.sys
	out := &Bound{
		Status:      sol.Status,
		Iterations:  sol.Iterations,
		Variables:   b.prob.NumCols(),
		Constraints: b.prob.NumRows(),
		Basis:       sol.Basis,
		WarmStarted: sol.Warm,
		WarmRefusal: sol.Refusal,
	}
	if sol.Status != simplex.Optimal {
		return out
	}
	out.Objective = sol.Objective
	if sol.Duals != nil {
		out.MachineShadowPrice = make([]float64, b.m)
		for j := 0; j < b.m; j++ {
			out.MachineShadowPrice[j] = sol.Duals[b.machineRow[j]]
		}
	}
	out.StringFraction = make([]float64, len(sys.Strings))
	out.X = make([][][]float64, len(sys.Strings))
	for k := range sys.Strings {
		n := len(sys.Strings[k].Apps)
		out.X[k] = make([][]float64, n)
		for i := 0; i < n; i++ {
			out.X[k][i] = make([]float64, b.m)
			for j := 0; j < b.m; j++ {
				out.X[k][i][j] = sol.X[b.xCol(k, i, j)]
			}
		}
		for j := 0; j < b.m; j++ {
			out.StringFraction[k] += out.X[k][0][j]
		}
	}
	return out
}

func newBuilder(sys *model.System, cfg Config) (*builder, error) {
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("lp: %w", err)
	}
	b := &builder{sys: sys, cfg: cfg, m: sys.Machines, lam: -1}
	b.xOff = make([]int, len(sys.Strings))
	b.yOff = make([]int, len(sys.Strings))
	cols := 0
	for k := range sys.Strings {
		b.xOff[k] = cols
		cols += len(sys.Strings[k].Apps) * b.m
	}
	b.nX = cols
	for k := range sys.Strings {
		b.yOff[k] = -1
		if cfg.Formulation == Full {
			if n := len(sys.Strings[k].Apps); n > 1 {
				b.yOff[k] = cols
				cols += (n - 1) * b.m * b.m
			}
		}
	}
	b.nY = cols - b.nX
	if cfg.Objective == MaximizeSlackness {
		b.lam = cols
		cols++
	}
	maxVars := cfg.MaxVariables
	if maxVars == 0 {
		maxVars = 400000
	}
	if cols > maxVars {
		return nil, fmt.Errorf("lp: %s formulation needs %d variables, exceeding the cap of %d (use the relaxed formulation or raise Config.MaxVariables)",
			cfg.Formulation, cols, maxVars)
	}
	b.prob = simplex.NewProblem(cols)
	// The longest rows are a machine's capacity row (one x per application,
	// plus λ) and, in the full form, a route's (one y per transfer, plus λ).
	longest := max(sys.NumApps()+1, 2*b.m)
	b.cols = make([]int, 0, longest)
	b.vals = make([]float64, 0, longest)
	return b, nil
}

// xCol returns the column of x[i,k,j].
func (b *builder) xCol(k, i, j int) int { return b.xOff[k] + i*b.m + j }

// yCol returns the column of y[i,k,j1,j2] (Full formulation, i < n_k-1).
func (b *builder) yCol(k, i, j1, j2 int) int {
	return b.yOff[k] + (i*b.m+j1)*b.m + j2
}

func (b *builder) addObjective() {
	switch b.cfg.Objective {
	case MaximizeWorth:
		for k := range b.sys.Strings {
			s := &b.sys.Strings[k]
			if b.cfg.LiteralObjective {
				for i := range s.Apps {
					for j := 0; j < b.m; j++ {
						b.prob.AddObjective(b.xCol(k, i, j), s.Worth)
					}
				}
			} else {
				for j := 0; j < b.m; j++ {
					b.prob.AddObjective(b.xCol(k, 0, j), s.Worth)
				}
			}
		}
	case MaximizeSlackness:
		b.prob.SetObjective(b.lam, 1)
	}
}

// addMappingConstraints emits constraint families (a), (b) (and the x ≥ 0
// family (c) is implicit in the solver).
func (b *builder) addMappingConstraints() {
	for k := range b.sys.Strings {
		// (a): Σ_j x[1,k,j] ≤ 1 (partial) or = 1 (complete mapping).
		for j := 0; j < b.m; j++ {
			b.term(b.xCol(k, 0, j), 1)
		}
		rel := simplex.LE
		if b.cfg.Objective == MaximizeSlackness {
			rel = simplex.EQ
		}
		b.addRow(rel, 1)
		// (b): Σ_j x[i,k,j] - Σ_j x[1,k,j] = 0 for i ≥ 2.
		for i := 1; i < len(b.sys.Strings[k].Apps); i++ {
			for j := 0; j < b.m; j++ {
				b.term(b.xCol(k, 0, j), -1)
			}
			for j := 0; j < b.m; j++ {
				b.term(b.xCol(k, i, j), 1)
			}
			b.addRow(simplex.EQ, 0)
		}
	}
}

// addCapacityConstraints emits (f) machine capacity and, for the Full
// formulation, prepares nothing here — route capacity (g) lives with the
// transfer constraints. Under MaximizeSlackness the rows become U + λ ≤ 1.
func (b *builder) addCapacityConstraints() {
	b.machineRow = make([]int, b.m)
	for j := 0; j < b.m; j++ {
		b.machineRow[j] = b.prob.NumRows()
		for k := range b.sys.Strings {
			for i := range b.sys.Strings[k].Apps {
				b.term(b.xCol(k, i, j), b.sys.MachineDemandUtil(k, i, j))
			}
		}
		if b.lam >= 0 {
			b.term(b.lam, 1)
		}
		b.addRow(simplex.LE, 1)
	}
}

// addTransferConstraints emits (d), (e) coupling x and y, and (g) route
// capacity, for the Full formulation.
func (b *builder) addTransferConstraints() {
	m := b.m
	// (d) and (e).
	for k := range b.sys.Strings {
		n := len(b.sys.Strings[k].Apps)
		for i := 0; i < n-1; i++ {
			for j1 := 0; j1 < m; j1++ {
				b.term(b.xCol(k, i, j1), -1)
				for j2 := 0; j2 < m; j2++ {
					b.term(b.yCol(k, i, j1, j2), 1)
				}
				b.addRow(simplex.EQ, 0)
			}
			for j2 := 0; j2 < m; j2++ {
				b.term(b.xCol(k, i+1, j2), -1)
				for j1 := 0; j1 < m; j1++ {
					b.term(b.yCol(k, i, j1, j2), 1)
				}
				b.addRow(simplex.EQ, 0)
			}
		}
	}
	// (g): per directed inter-machine route.
	for j1 := 0; j1 < m; j1++ {
		for j2 := 0; j2 < m; j2++ {
			if j1 == j2 {
				continue
			}
			for k := range b.sys.Strings {
				s := &b.sys.Strings[k]
				for i := 0; i < len(s.Apps)-1; i++ {
					if u := b.sys.RouteDemandUtil(s.Apps[i].OutputKB, s.Period, j1, j2); u != 0 {
						b.term(b.yCol(k, i, j1, j2), u)
					}
				}
			}
			if b.lam >= 0 {
				b.term(b.lam, 1)
			}
			if len(b.cols) > 0 {
				b.addRow(simplex.LE, 1)
			}
		}
	}
}

package transport

import (
	"math"
	"math/rand"
	"testing"
)

func TestPlanDiagonalOnly(t *testing.T) {
	a := []float64{0.5, 0.3, 0.2}
	y, err := Plan(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if got := offDiagonalMass(y); got != 0 {
		t.Errorf("identical marginals need off-diagonal mass %v, want 0", got)
	}
	if got := Check(y, a, a); got > 1e-12 {
		t.Errorf("plan deviates by %v", got)
	}
}

func TestPlanKnownOffDiagonal(t *testing.T) {
	a := []float64{1, 0}
	b := []float64{0, 1}
	y, err := Plan(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if y[0][1] != 1 || offDiagonalMass(y) != 1 {
		t.Errorf("plan = %v, want all mass on (0,1)", y)
	}
}

// TestPlanMinimalOffDiagonal: the off-diagonal mass must equal the total
// variation distance between the marginals (the information-theoretic
// minimum inter-machine flow).
func TestPlanMinimalOffDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		a := make([]float64, n)
		b := make([]float64, n)
		total := 0.0
		for j := range a {
			a[j] = rng.Float64()
			total += a[j]
		}
		rem := total
		for j := 0; j < n-1; j++ {
			b[j] = rem * rng.Float64()
			rem -= b[j]
		}
		b[n-1] = rem
		y, err := Plan(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if dev := Check(y, a, b); dev > 1e-9 {
			t.Fatalf("trial %d: plan deviates by %v", trial, dev)
		}
		wantOff := 0.0
		for j := range a {
			if d := a[j] - b[j]; d > 0 {
				wantOff += d
			}
		}
		if got := offDiagonalMass(y); math.Abs(got-wantOff) > 1e-9 {
			t.Fatalf("trial %d: off-diagonal %v, want TV distance %v", trial, got, wantOff)
		}
	}
}

func TestPlanErrors(t *testing.T) {
	if _, err := Plan([]float64{1}, []float64{1, 0}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Plan([]float64{1}, []float64{2}); err == nil {
		t.Error("unbalanced marginals accepted")
	}
	if _, err := Plan([]float64{-1}, []float64{-1}); err == nil {
		t.Error("negative supply accepted")
	}
	if _, err := Plan([]float64{math.NaN()}, []float64{0}); err == nil {
		t.Error("NaN supply accepted")
	}
	if _, err := Plan([]float64{1}, []float64{math.Inf(1)}); err == nil {
		t.Error("infinite demand accepted")
	}
}

func TestCheckDetectsBadPlan(t *testing.T) {
	a := []float64{1, 1}
	y := [][]float64{{1, 0.5}, {0, 0.5}}
	if dev := Check(y, a, a); dev < 0.4 {
		t.Errorf("Check missed a bad plan: deviation %v", dev)
	}
	neg := [][]float64{{-0.5, 1.5}, {1.5, -0.5}}
	if dev := Check(neg, a, a); dev < 0.5 {
		t.Errorf("Check missed negative entries: %v", dev)
	}
}

func TestZeroMassPlan(t *testing.T) {
	y, err := Plan([]float64{0, 0}, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if offDiagonalMass(y) != 0 || Check(y, []float64{0, 0}, []float64{0, 0}) != 0 {
		t.Error("zero-mass plan not empty")
	}
}

// offDiagonalMass returns the total inter-machine flow of a plan: the amount
// that must traverse real communication routes.
func offDiagonalMass(y [][]float64) float64 {
	total := 0.0
	for i := range y {
		for j, v := range y[i] {
			if i != j {
				total += v
			}
		}
	}
	return total
}

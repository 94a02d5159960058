package transport

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// marginals is a quick.Generator producing balanced non-negative supply and
// demand vectors of matching totals.
type marginals struct {
	A, B []float64
}

// Generate implements quick.Generator.
func (marginals) Generate(rng *rand.Rand, size int) reflect.Value {
	n := 1 + rng.Intn(9)
	a := make([]float64, n)
	b := make([]float64, n)
	total := 0.0
	for i := range a {
		a[i] = rng.Float64() * float64(size%7+1)
		total += a[i]
	}
	rem := total
	for i := 0; i < n-1; i++ {
		b[i] = rem * rng.Float64()
		rem -= b[i]
	}
	b[n-1] = rem
	return reflect.ValueOf(marginals{A: a, B: b})
}

// Property: every plan conserves marginals exactly (within float tolerance),
// has no negative cells, and its off-diagonal mass equals the total variation
// distance between the marginals.
func TestQuickPlanInvariants(t *testing.T) {
	f := func(m marginals) bool {
		y, err := Plan(m.A, m.B)
		if err != nil {
			return false
		}
		if Check(y, m.A, m.B) > 1e-9 {
			return false
		}
		tv := 0.0
		for i := range m.A {
			if d := m.A[i] - m.B[i]; d > 0 {
				tv += d
			}
		}
		return math.Abs(offDiagonalMass(y)-tv) <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

package genitor

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// permPair generates two random permutations of the same length plus a cut
// point, for crossover properties.
type permPair struct {
	A, B []int
	Cut  int
}

// Generate implements quick.Generator.
func (permPair) Generate(rng *rand.Rand, size int) reflect.Value {
	n := 2 + rng.Intn(12)
	return reflect.ValueOf(permPair{
		A:   rng.Perm(n),
		B:   rng.Perm(n),
		Cut: 1 + rng.Intn(n-1),
	})
}

// Property: reorderTop always yields a permutation, leaves the bottom part
// untouched, keeps the same gene *set* in the top part, and orders the top
// part by the other parent's positions.
func TestQuickReorderTop(t *testing.T) {
	f := func(p permPair) bool {
		n := len(p.A)
		child := reorderTop(p.A, p.B, p.Cut, make([]bool, n))
		if !IsPermutation(child, n) {
			return false
		}
		for i := p.Cut; i < n; i++ {
			if child[i] != p.A[i] {
				return false
			}
		}
		inTop := map[int]bool{}
		for _, g := range p.A[:p.Cut] {
			inTop[g] = true
		}
		pos := map[int]int{}
		for idx, g := range p.B {
			pos[g] = idx
		}
		for i := 0; i < p.Cut; i++ {
			if !inTop[child[i]] {
				return false
			}
			if i > 0 && pos[child[i-1]] > pos[child[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: bias selection stays within the population for any bias in
// [1, 2] and any draw.
func TestQuickBiasSelectionRange(t *testing.T) {
	f := func(biasRaw, seed uint16, popRaw uint8) bool {
		popSize := 2 + int(popRaw%60)
		bias := 1 + float64(biasRaw%101)/100
		e, err := New(Config{PopulationSize: popSize, Bias: bias, MaxIterations: 1, StallLimit: 1, Seed: int64(seed)},
			3, nil, func([]int) Fitness { return Fitness{} })
		if err != nil {
			return false
		}
		for i := 0; i < 50; i++ {
			r := e.selectRank()
			if r < 0 || r >= popSize {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

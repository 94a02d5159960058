package workers

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWorkersResolve(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d, want 7", got)
	}
}

func TestMapCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		const n = 500
		var hits [n]int32
		Map(workers, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times, want 1", workers, i, h)
			}
		}
	}
}

func TestMapSerialRunsInOrder(t *testing.T) {
	var order []int
	Map(1, 5, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("serial Map visited %v, want ascending order", order)
		}
	}
}

func TestMapDegenerateSizes(t *testing.T) {
	ran := 0
	Map(4, 0, func(int) { ran++ })
	if ran != 0 {
		t.Errorf("Map over zero items ran %d calls", ran)
	}
	Map(8, 1, func(i int) { ran++ })
	if ran != 1 {
		t.Errorf("Map over one item ran %d calls, want 1", ran)
	}
}

// TestWorkersRecoverPanic: a panic inside fn must come back as a *PanicError
// instead of crashing the process, for serial and parallel Map alike.
func TestWorkersRecoverPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := Map(workers, 32, func(i int) {
			if i == 7 {
				panic("boom")
			}
		})
		if err == nil {
			t.Fatalf("workers=%d: Map returned nil error for panicking fn", workers)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: error %T is not *PanicError", workers, err)
		}
		if pe.Value != "boom" {
			t.Errorf("workers=%d: recovered value %v, want boom", workers, pe.Value)
		}
		if !strings.Contains(err.Error(), "boom") || len(pe.Stack) == 0 {
			t.Errorf("workers=%d: error should carry panic value and stack: %v", workers, err)
		}
	}
}

// TestMapPanicAbortsRemainingWork: after the first panic, workers stop
// picking up new indices, and Map still returns (no deadlock).
func TestMapPanicAbortsRemainingWork(t *testing.T) {
	var ran int32
	err := Map(1, 1000, func(i int) {
		atomic.AddInt32(&ran, 1)
		if i == 3 {
			panic(i)
		}
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if got := atomic.LoadInt32(&ran); got != 4 {
		t.Errorf("serial Map ran %d calls after panic at index 3, want 4", got)
	}
}

// TestMapNoPanicReturnsNil: the happy path reports no error.
func TestMapNoPanicReturnsNil(t *testing.T) {
	if err := Map(4, 100, func(int) {}); err != nil {
		t.Fatalf("Map returned %v for panic-free fn", err)
	}
}

// TestMapDeterministicResults: per-index result storage is identical for any
// worker count — the contract the parallel PSG trials rely on.
func TestMapDeterministicResults(t *testing.T) {
	compute := func(workers int) [64]int {
		var out [64]int
		Map(workers, 64, func(i int) { out[i] = i * i })
		return out
	}
	want := compute(1)
	for _, w := range []int{2, 3, 8} {
		if got := compute(w); got != want {
			t.Fatalf("workers=%d produced different results", w)
		}
	}
}

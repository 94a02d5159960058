package faults

import (
	"reflect"
	"testing"
)

// TestScenariosSeedPrefix: a scenario depends on its seed alone, so a batch
// drawn with consecutive seeds seed0, seed0+1, ... is the same in any draw
// order, and a shorter batch is a prefix of a longer one.
func TestScenariosSeedPrefix(t *testing.T) {
	mc := MonteCarlo{CompartmentHits: 1, MachineOutages: 1, RouteOutages: 2, Window: 50, MeanDowntime: 10}
	const seed0, n = 42, 4
	forward := make([]*Scenario, n)
	for i := range forward {
		sc, err := mc.Sample(6, seed0+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		forward[i] = sc
	}
	for i := n - 1; i >= 0; i-- {
		sc, err := mc.Sample(6, seed0+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sc, forward[i]) {
			t.Errorf("scenario %d differs between draw orders", i)
		}
	}
	for i, sc := range forward {
		if sc.Seed != seed0+int64(i) {
			t.Errorf("scenario %d seed = %d, want %d", i, sc.Seed, seed0+int64(i))
		}
		if len(sc.Events) == 0 {
			t.Errorf("scenario %d drew no events", i)
		}
	}
}

// The worker fan-out lives in internal/workers but still reports under the
// pool.* metric names of DESIGN.md §8; these tests pin those names.

package pool

import (
	"testing"

	"repro/internal/telemetry"
	"repro/internal/workers"
)

// TestMapTelemetry: with a registry enabled, Map reports its shape (workers,
// tasks, calls) and the busy/capacity nanosecond pair the worker-utilization
// ratio is derived from — without changing any result.
func TestMapTelemetry(t *testing.T) {
	prev := telemetry.Active()
	reg := telemetry.Enable()
	t.Cleanup(func() { telemetry.EnableRegistry(prev) })
	const tasks = 64
	got := make([]int, tasks)
	workers.Map(4, tasks, func(i int) { got[i] = i * i })
	for i := range got {
		if got[i] != i*i {
			t.Fatalf("task %d ran wrong: %d", i, got[i])
		}
	}
	snap := reg.Snapshot()
	if n := snap.Counter("pool.tasks"); n != tasks {
		t.Errorf("pool.tasks = %d, want %d", n, tasks)
	}
	if n := snap.Counter("pool.map_calls"); n != 1 {
		t.Errorf("pool.map_calls = %d, want 1", n)
	}
	busy, capacity := snap.Counter("pool.busy_ns"), snap.Counter("pool.capacity_ns")
	if busy <= 0 || capacity <= 0 {
		t.Errorf("busy_ns=%d capacity_ns=%d, want both positive", busy, capacity)
	}
	if busy > capacity {
		t.Errorf("busy_ns %d exceeds capacity_ns %d", busy, capacity)
	}
	if w := snap.Gauges["pool.workers"]; w != 4 {
		t.Errorf("pool.workers gauge = %v, want 4", w)
	}
}

// TestMapWithTelemetryMatchesDisabled: wrapping the task function for
// metrics must not change what runs or in what index space.
func TestMapWithTelemetryMatchesDisabled(t *testing.T) {
	prev := telemetry.Active()
	t.Cleanup(func() { telemetry.EnableRegistry(prev) })
	const tasks = 32
	run := func() []int {
		out := make([]int, tasks)
		workers.Map(3, tasks, func(i int) { out[i] = 3*i + 1 })
		return out
	}
	telemetry.Disable()
	base := run()
	telemetry.Enable()
	live := run()
	for i := range base {
		if base[i] != live[i] {
			t.Fatalf("task %d diverged with telemetry on: %d vs %d", i, base[i], live[i])
		}
	}
}

// Package workers is a minimal worker-pool primitive the search heuristics
// use to fan independent units of work (PSG trials, batched chromosome
// evaluations, experiment runs) across OS threads. It is deliberately
// deterministic-friendly: Map only decides *where* fn(i) runs, never what it
// computes, so callers that write results into per-index storage get
// bit-identical output for every worker count. Its telemetry keeps the pool.*
// names it has always emitted.
package workers

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Workers resolves a requested worker count: any value below 1 means "use
// every available core" (GOMAXPROCS), larger values are taken as-is.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// PanicError is the error Map returns when fn panics on a worker: the
// recovered value plus the goroutine stack at the panic site, so long-running
// searches surface the failure in their error path instead of crashing the
// whole process.
type PanicError struct {
	Index int    // work-item index whose fn call panicked
	Value any    // recovered panic value
	Stack []byte // goroutine stack captured at recovery
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("pool: fn(%d) panicked: %v\n%s", p.Index, p.Value, p.Stack)
}

// Map runs fn(0) .. fn(n-1) across at most workers concurrent goroutines and
// returns once every call has completed. Indices are handed out dynamically,
// so uneven work items balance across workers. With workers <= 1 (or n <= 1)
// the calls run serially, in index order, on the caller's goroutine — no
// goroutines are spawned. fn must be safe for concurrent invocation with
// distinct indices and should communicate results through per-index storage.
//
// A panic inside fn is recovered on the worker and returned as a *PanicError
// instead of crashing the process; the first panic wins, workers stop picking
// up new indices, and in-flight calls finish before Map returns. Results of
// indices processed before the abort are still in the caller's per-index
// storage, but a non-nil error means the full range was not covered.
func Map(workers, n int, fn func(i int)) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	// Worker-utilization telemetry: busy nanoseconds summed over tasks versus
	// capacity nanoseconds (wall time × workers). Timing wraps fn only when a
	// registry is enabled, so the disabled path is byte-for-byte the old loop;
	// either way fn's computation — and thus every result — is untouched.
	var pm poolMetrics
	if telemetry.Enabled() {
		pm = newPoolMetrics(workers)
		fn = pm.timed(fn)
		defer pm.finish(time.Now())
	}
	var (
		aborted  atomic.Bool
		errMu    sync.Mutex
		firstErr error
	)
	call := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				aborted.Store(true)
				errMu.Lock()
				if firstErr == nil {
					firstErr = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
				}
				errMu.Unlock()
				if telemetry.Enabled() {
					telemetry.C("pool.panics").Inc()
				}
			}
		}()
		fn(i)
	}
	if workers <= 1 {
		for i := 0; i < n && !aborted.Load(); i++ {
			call(i)
		}
		return firstErr
	}
	var next int64 = -1
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !aborted.Load() {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				call(i)
			}
		}()
	}
	wg.Wait()
	errMu.Lock()
	defer errMu.Unlock()
	return firstErr
}

// poolMetrics carries the counters of one Map call.
type poolMetrics struct {
	workers  int
	tasks    *telemetry.Counter
	busyNS   *telemetry.Counter
	capNS    *telemetry.Counter
	mapCalls *telemetry.Counter
}

func newPoolMetrics(workers int) poolMetrics {
	telemetry.G("pool.workers").Set(float64(workers))
	return poolMetrics{
		workers:  workers,
		tasks:    telemetry.C("pool.tasks"),
		busyNS:   telemetry.C("pool.busy_ns"),
		capNS:    telemetry.C("pool.capacity_ns"),
		mapCalls: telemetry.C("pool.map_calls"),
	}
}

// timed wraps fn to accumulate per-task busy time.
func (m poolMetrics) timed(fn func(int)) func(int) {
	return func(i int) {
		start := time.Now()
		fn(i)
		m.busyNS.Add(time.Since(start).Nanoseconds())
		m.tasks.Inc()
	}
}

// finish records the call's capacity: wall time since start times the worker
// count. Worker utilization is busy_ns / capacity_ns.
func (m poolMetrics) finish(start time.Time) {
	m.capNS.Add(time.Since(start).Nanoseconds() * int64(m.workers))
	m.mapCalls.Inc()
}

package heuristics

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/feasibility"
	"repro/internal/genitor"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// withTelemetry enables a fresh registry plus collector sink for one test and
// restores the previous global state afterwards.
func withTelemetry(t testing.TB) (*telemetry.Registry, *telemetry.CollectorSink) {
	t.Helper()
	prev := telemetry.Active()
	reg := telemetry.Enable()
	col := &telemetry.CollectorSink{}
	reg.SetSink(col)
	t.Cleanup(func() { telemetry.EnableRegistry(prev) })
	return reg, col
}

// TestPSGMatchesWithTelemetryEnabled pins the "observe, don't decide"
// contract: a live registry and trace sink must not perturb the search. The
// baseline runs serially with telemetry off; the instrumented run uses four
// workers with a registry and collector sink attached, and must be
// bit-identical (the telemetry-enabled twin of TestParallelPSGMatchesSerial).
func TestPSGMatchesWithTelemetryEnabled(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	sys := randomTestSystem(rng, 3, 10)
	for _, name := range []string{"PSG", "SeededPSG", "ClassedPSG", "SSG"} {
		t.Run(name, func(t *testing.T) {
			cfg := testPSGConfig(17)
			cfg.Trials = 2
			cfg.Workers = 1
			telemetry.Disable()
			base := Run(name, sys, cfg)

			reg, col := withTelemetry(t)
			cfg.Workers = 4
			live := Run(name, sys, cfg)
			snap := reg.Snapshot()

			if base.Metric != live.Metric {
				t.Errorf("metric diverged: %+v vs %+v", base.Metric, live.Metric)
			}
			if base.NumMapped != live.NumMapped || base.Iterations != live.Iterations ||
				base.Evaluations != live.Evaluations || base.StopReason != live.StopReason {
				t.Errorf("run stats diverged: base {%d %d %d %s} vs live {%d %d %d %s}",
					base.NumMapped, base.Iterations, base.Evaluations, base.StopReason,
					live.NumMapped, live.Iterations, live.Evaluations, live.StopReason)
			}
			for k := range sys.Strings {
				if base.Alloc.Complete(k) != live.Alloc.Complete(k) {
					t.Fatalf("mapped set diverged at string %d", k)
				}
			}
			if name == "SSG" {
				if got := snap.Counter("heuristics.ssg.iterations"); got != int64(live.Iterations) {
					t.Errorf("ssg.iterations counter = %d, want %d", got, live.Iterations)
				}
				return
			}
			// The permutation-space heuristics place through the IMR, whose scan
			// computes machine terms and prices a route for some of them. The
			// final decode of the best order (MapSequence) scans in index order,
			// M terms a scan, as a decode of the same order under a fresh
			// registry reads back; the search's lanes scan in its scan order
			// and stop early, at least one term a scan and fewer than M.
			scans, read := snap.Counter("heuristics.imr.scans"), snap.Counter("heuristics.imr.machines_read")
			priced := snap.Counter("heuristics.imr.routes_priced")
			if scans == 0 || priced == 0 || priced > read {
				t.Errorf("imr counters: %d scans computed %d machine terms (M=%d) and priced %d routes", scans, read, sys.Machines, priced)
			}
			final := telemetry.Enable()
			MapSequence(sys, live.Order)
			telemetry.EnableRegistry(reg)
			fScans, fRead := final.Counter("heuristics.imr.scans").Value(), final.Counter("heuristics.imr.machines_read").Value()
			if fScans == 0 || fRead != fScans*int64(sys.Machines) {
				t.Errorf("final decode in index order: %d scans computed %d machine terms, want %d (M=%d)", fScans, fRead, fScans*int64(sys.Machines), sys.Machines)
			}
			if lScans, lRead := scans-fScans, read-fRead; lScans <= 0 || lRead < lScans || lRead >= lScans*int64(sys.Machines) {
				t.Errorf("lanes in scan order: %d scans computed %d machine terms, want at least one and fewer than M=%d a scan", lScans, lRead, sys.Machines)
			}
			if got := snap.Counter("heuristics.psg.trials"); got != 2 {
				t.Errorf("psg.trials counter = %d, want 2", got)
			}
			if got := snap.Counter("heuristics.psg.evaluations"); got != int64(live.Evaluations) {
				t.Errorf("psg.evaluations counter = %d, want %d", got, live.Evaluations)
			}
			hit := snap.Counter("heuristics.decode.memo_hit")
			miss := snap.Counter("heuristics.decode.memo_miss")
			if hit+miss != int64(live.Evaluations) {
				t.Errorf("memo hit %d + miss %d != %d evaluations", hit, miss, live.Evaluations)
			}
			spans := map[string]int{}
			for _, e := range col.Events() {
				if e.Kind == "span" {
					spans[e.Name]++
				}
			}
			if spans["psg.run"] != 1 || spans["psg.trial"] != 2 {
				t.Errorf("trace spans = %v, want one psg.run and two psg.trial", spans)
			}
		})
	}
}

// TestRunContextCanceled: a canceled context stops every search heuristic at
// its first poll, which must still yield a usable partial result (the best of
// the evaluated initial population) alongside the sentinel error.
func TestRunContextCanceled(t *testing.T) {
	sys := easySystem()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{"PSG", "SeededPSG", "ClassedPSG", "SSG"} {
		r, _, err := RunContext(ctx, name, sys, testPSGConfig(5))
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s: err = %v, want ErrCanceled", name, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: sentinel must wrap context.Canceled", name)
		}
		if r == nil {
			t.Fatalf("%s: canceled run must still return its partial result", name)
		}
		if r.StopReason != genitor.StopCanceled {
			t.Errorf("%s: stop reason %q, want %q", name, r.StopReason, genitor.StopCanceled)
		}
		if r.Evaluations <= 0 {
			t.Errorf("%s: partial result reports %d evaluations, want > 0 (initial population)", name, r.Evaluations)
		}
		if !r.Alloc.TwoStageFeasible() {
			t.Errorf("%s: partial mapping must still be feasible", name)
		}
		if r.Iterations != 0 {
			t.Errorf("%s: %d iterations under a pre-canceled context, want 0", name, r.Iterations)
		}
	}
	// One-shot heuristics are too quick to interrupt and ignore the context.
	for _, name := range []string{"MWF", "TF"} {
		r, _, err := RunContext(ctx, name, sys, testPSGConfig(5))
		if err != nil || r == nil || r.NumMapped == 0 {
			t.Errorf("%s must ignore cancellation, got r=%v err=%v", name, r, err)
		}
	}
}

// TestPSGContextUncanceled: a search started under a live context returns a
// nil error and no checkpoint on normal completion and matches Run exactly.
func TestPSGContextUncanceled(t *testing.T) {
	sys := easySystem()
	cfg := testPSGConfig(23)
	base := Run("SeededPSG", sys, cfg)
	live, scp, err := RunContext(context.Background(), "SeededPSG", sys, cfg)
	if err != nil || scp != nil {
		t.Fatalf("err %v, checkpoint %v", err, scp)
	}
	if base.Metric != live.Metric || base.Iterations != live.Iterations {
		t.Errorf("context variant diverged: %+v vs %+v", base.Metric, live.Metric)
	}
}

func TestPSGConfigDefaultsAndValidate(t *testing.T) {
	var zero PSGConfig
	if got, want := zero.WithDefaults(), DefaultPSGConfig(); got != want {
		t.Errorf("zero.WithDefaults() = %+v, want %+v", got, want)
	}
	if zero != (PSGConfig{}) {
		t.Error("WithDefaults mutated its receiver")
	}
	partial := PSGConfig{Config: genitor.Config{PopulationSize: 50, Seed: 9}, Workers: 3}
	got := partial.WithDefaults()
	if got.PopulationSize != 50 || got.Seed != 9 || got.Workers != 3 {
		t.Errorf("WithDefaults clobbered explicit fields: %+v", got)
	}
	if got.Bias != 1.6 || got.Trials != 4 {
		t.Errorf("WithDefaults missed zero fields: %+v", got)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("defaulted config must validate: %v", err)
	}
	noTrials := DefaultPSGConfig()
	noTrials.Trials = 0
	if err := noTrials.Validate(); err == nil {
		t.Error("Trials = 0 must fail validation")
	}
	badBias := DefaultPSGConfig()
	badBias.Bias = 5
	if err := badBias.Validate(); err == nil {
		t.Error("embedded genitor config errors must propagate")
	}
}

// TestDecodeHotPathZeroAlloc pins the decoder's steady state: once the memo
// holds a chromosome's terminal prefix, re-evaluating it allocates nothing —
// with telemetry off (nil counters) and on (shared atomic counters) alike.
func TestDecodeHotPathZeroAlloc(t *testing.T) {
	sys := easySystem()
	perm := []int{0, 1, 2, 3}
	prev := telemetry.Active()
	t.Cleanup(func() { telemetry.EnableRegistry(prev) })
	check := func(label string) {
		eval := newDecoderBank(sys, metricScore, 1, newSearchTables(sys))[0]
		eval(perm) // warm the memo
		if allocs := testing.AllocsPerRun(100, func() { eval(perm) }); allocs != 0 {
			t.Errorf("%s: memo-hit decode costs %v allocations, want 0", label, allocs)
		}
	}
	telemetry.Disable()
	check("telemetry disabled")
	telemetry.Enable()
	check("telemetry enabled")
}

// A memo-miss decode — IMR placement, delta evaluation and commit of every
// string on the lane's recycled scratch — allocates nothing when every string
// maps, and only the failing string's *Violation when one does not.
func TestDecodeMissAllocations(t *testing.T) {
	prev := telemetry.Active()
	t.Cleanup(func() { telemetry.EnableRegistry(prev) })
	telemetry.Disable()

	scratch := feasibility.New(easySystem())
	da := feasibility.Track(scratch)
	perm := []int{0, 1, 2, 3}
	decodeDelta(da, scratch, perm, searchTables{}) // grow the scratch and window buffers
	if allocs := testing.AllocsPerRun(100, func() { decodeDelta(da, scratch, perm, searchTables{}) }); allocs != 0 {
		t.Errorf("decode mapping every string costs %v allocations, want 0", allocs)
	}
	if scratch.NumComplete() != len(perm) {
		t.Fatalf("easy system mapped %d of %d strings", scratch.NumComplete(), len(perm))
	}

	// A fifth string whose second application cannot finish within the period.
	hard := easySystem()
	hard.AddString(model.AppString{Worth: 1, Period: 50, MaxLatency: 500,
		Apps: []model.Application{model.UniformApp(3, 2, 0.4, 20), model.UniformApp(3, 60, 0.4, 20)}})
	scratch = feasibility.New(hard)
	da = feasibility.Track(scratch)
	perm = []int{0, 1, 2, 3, 4}
	tables := newSearchTables(hard) // a decoder bank's form of the call
	scratch.AttachScanOrder(tables.order)
	decodeDelta(da, scratch, perm, tables)
	if allocs := testing.AllocsPerRun(100, func() { decodeDelta(da, scratch, perm, tables) }); allocs > 1 {
		t.Errorf("decode stopping at an unmappable string costs %v allocations, want at most 1", allocs)
	}
	if scratch.NumComplete() != 4 {
		t.Fatalf("hard system mapped %d strings, want 4 (the fifth must fail)", scratch.NumComplete())
	}
}

// BenchmarkDecodeTelemetry compares the decode hot path with telemetry off
// and on; the delta is the instrumentation overhead (two counter increments).
func BenchmarkDecodeTelemetry(b *testing.B) {
	sys := easySystem()
	perm := []int{0, 1, 2, 3}
	run := func(b *testing.B) {
		eval := newDecoderBank(sys, metricScore, 1, newSearchTables(sys))[0]
		eval(perm)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eval(perm)
		}
	}
	prev := telemetry.Active()
	defer telemetry.EnableRegistry(prev)
	b.Run("disabled", func(b *testing.B) {
		telemetry.Disable()
		run(b)
	})
	b.Run("enabled", func(b *testing.B) {
		telemetry.Enable()
		run(b)
	})
}

// Memo keys must keep every gene of the system distinct: at two bytes a gene,
// genes 0 and 65 536 of a 65 537-string system shared a key and the memo
// answered one permutation with another's fitness.
func TestMemoKeyWidth(t *testing.T) {
	for _, tc := range []struct{ nStrings, width int }{{65535, 2}, {65536, 2}, {65537, 4}} {
		if got := geneWidth(tc.nStrings); got != tc.width {
			t.Fatalf("geneWidth(%d) = %d, want %d", tc.nStrings, got, tc.width)
		}
		last := tc.nStrings - 1
		memo := newDecodeMemo(tc.nStrings)
		stored := genitor.Fitness{Primary: 7}
		key := appendGenes(nil, []int{last, 1}, memo.width)
		if len(key) != 2*tc.width {
			t.Fatalf("%d strings: two genes encode to %d bytes, want %d", tc.nStrings, len(key), 2*tc.width)
		}
		memo.store(key, stored)
		if fit, ok := memo.find(appendGenes(nil, []int{last, 1, 2}, memo.width)); !ok || fit != stored {
			t.Errorf("%d strings: a permutation extending the stored prefix [%d 1] missed the memo", tc.nStrings, last)
		}
		// Every gene that agrees with the last one modulo 65 536, or in one of
		// its bytes, must still miss.
		for _, g := range []int{0, last - 1<<16, last &^ 0xff, last & 0xff, last >> 8} {
			if g < 0 || g == last {
				continue
			}
			if _, ok := memo.find(appendGenes(nil, []int{g, 1, 2}, memo.width)); ok {
				t.Errorf("%d strings: gene %d hit the memo entry stored for gene %d", tc.nStrings, g, last)
			}
		}
	}
}

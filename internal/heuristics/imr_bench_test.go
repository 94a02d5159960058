package heuristics

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/feasibility"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// BenchmarkPlacementScan prices the IMR's candidate scan on the benchmark's two
// ships and one four times the fleet's size: an iteration is one skip-on-failure
// decode of every string of the ship on a recycled scratch. A lane row scans
// along the search's scan order, as a decoder lane does; an index row in index
// order, as one-shot decodes (MapSequence, MWF, TF), surge episodes and
// shipbench's ladder do; both choose the same machines. A view row scans as
// the service does: over a model.ScaledView of the ship at scales drawn from
// [0.7, 3], along the order over the ship, each placement averaging its own
// intensities. Besides ns/op it reports three exact counts (equal at 1x and
// at any -benchtime): scans/op, the same on the lane and index rows;
// machines_read/op, the machine terms computed — scans × M on an index row,
// fewer on a lane or view row, whose scans stop at the first machine that
// cannot win; and routes_priced/op, the candidates that survived the bound
// and had a route looked up and priced. routes_priced ÷ scans is ≈ ln M on an
// index row while the bound prunes and ≈ M − 1 when it does not.
func BenchmarkPlacementScan(b *testing.B) {
	prev := telemetry.Active()
	defer telemetry.EnableRegistry(prev)
	for _, m := range []int{12, 128, 512} {
		cfg := workload.ScenarioConfig(workload.HighlyLoaded)
		if m > 12 {
			cfg = workload.FleetConfig(m, 2)
		}
		sys := workload.MustGenerate(cfg, 1)
		tables := newSearchTables(sys)
		r := rand.New(rand.NewSource(int64(m)))
		scale := make([]float64, len(sys.Strings))
		for k := range scale {
			scale[k] = 0.7 + 2.3*r.Float64()
		}
		view := model.ScaledView(sys, scale)
		for _, path := range []string{"lane", "index", "view"} {
			t, over := tables, sys
			switch path {
			case "index":
				t.order = nil
			case "view":
				t, over = searchTables{order: tables.order}, view
			}
			b.Run(fmt.Sprintf("M=%d/%s", m, path), func(b *testing.B) {
				reg := telemetry.Enable() // before New: an allocation caches its counters
				a := feasibility.New(over)
				a.AttachScanOrder(t.order)
				da := feasibility.Track(a)
				defer da.Close()
				decode := func() {
					a.Reset()
					for k := range over.Strings {
						t.place(a, k)
						if da.FeasibleAfterDelta() {
							da.Commit()
						} else {
							da.Undo()
						}
					}
				}
				decode() // grow the scratch and window buffers
				scans := reg.Counter("heuristics.imr.scans")
				read := reg.Counter("heuristics.imr.machines_read")
				priced := reg.Counter("heuristics.imr.routes_priced")
				s0, r0, p0 := scans.Value(), read.Value(), priced.Value()
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					decode()
				}
				b.StopTimer()
				nScans, nRead, nPriced := scans.Value()-s0, read.Value()-r0, priced.Value()-p0
				if all := nScans * int64(m); path == "index" && nRead != all {
					b.Fatalf("%d machine terms computed over %d scans of %d machines in index order, want %d", nRead, nScans, m, all)
				} else if path != "index" && nRead >= all {
					b.Fatalf("%d machine terms computed over %d scans of %d machines in scan order, want fewer than %d", nRead, nScans, m, all)
				}
				b.ReportMetric(float64(nScans)/float64(b.N), "scans/op")
				b.ReportMetric(float64(nRead)/float64(b.N), "machines_read/op")
				b.ReportMetric(float64(nPriced)/float64(b.N), "routes_priced/op")
			})
		}
	}
}

// BenchmarkSearchTables prices what a PSG search builds once before its
// trials start (newSearchTables): every application's averaged intensity and
// its scan order, M indices sorted by own work, at the same three sizes.
func BenchmarkSearchTables(b *testing.B) {
	for _, m := range []int{12, 128, 512} {
		cfg := workload.ScenarioConfig(workload.HighlyLoaded)
		if m > 12 {
			cfg = workload.FleetConfig(m, 2)
		}
		sys := workload.MustGenerate(cfg, 1)
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if newSearchTables(sys).order == nil {
					b.Fatal("no scan order built over a generated ship")
				}
			}
		})
	}
}

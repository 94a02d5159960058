package heuristics

import (
	"fmt"
	"testing"

	"repro/internal/feasibility"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// BenchmarkPlacementScan prices the IMR's candidate scan on the benchmark's two
// ships and one four times the fleet's size: an iteration is one skip-on-failure
// decode of every string of the ship in index order on a recycled scratch, as a
// decoder lane runs it. Besides ns/op it reports three exact counts (equal at
// 1x and at any -benchtime): scans/op, machines_read/op — scans × M, the scan
// reads every machine utilization once — and routes_priced/op, the
// candidates that survived the bound and had a route looked up and priced.
// routes_priced ÷ scans is ≈ ln M (2.4 at M=12, 3.3 at M=128, 4.1 at M=512)
// while the bound prunes and ≈ M − 1 when it does not.
func BenchmarkPlacementScan(b *testing.B) {
	prev := telemetry.Active()
	defer telemetry.EnableRegistry(prev)
	for _, m := range []int{12, 128, 512} {
		cfg := workload.ScenarioConfig(workload.HighlyLoaded)
		if m > 12 {
			cfg = workload.FleetConfig(m, 2)
		}
		sys := workload.MustGenerate(cfg, 1)
		intensity := imrIntensities(sys)
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			reg := telemetry.Enable() // before New: an allocation caches its counters
			a := feasibility.New(sys)
			da := feasibility.Track(a)
			defer da.Close()
			decode := func() {
				a.Reset()
				for k := range sys.Strings {
					mapStringIMR(a, k, intensity[k], nil, nil)
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
			if nRead != nScans*int64(m) {
				b.Fatalf("%d machines read over %d scans of %d machines, want %d", nRead, nScans, m, nScans*int64(m))
			}
			b.ReportMetric(float64(nScans)/float64(b.N), "scans/op")
			b.ReportMetric(float64(nRead)/float64(b.N), "machines_read/op")
			b.ReportMetric(float64(nPriced)/float64(b.N), "routes_priced/op")
		})
	}
}

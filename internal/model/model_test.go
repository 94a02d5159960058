package model

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func twoMachineSystem() *System {
	sys := NewUniformSystem(2, 5) // 5 Mb/s everywhere
	sys.AddString(AppString{
		Worth:      WorthMedium,
		Period:     10,
		MaxLatency: 30,
		Apps: []Application{
			{NominalTime: []float64{2, 4}, NominalUtil: []float64{0.5, 1.0}, OutputKB: 100},
			{NominalTime: []float64{6, 2}, NominalUtil: []float64{1.0, 0.5}, OutputKB: 50},
		},
	})
	return sys
}

func TestTransferSeconds(t *testing.T) {
	// 100 KB over 1 Mb/s: 800 kilobits / 1000 kilobits/s = 0.8 s.
	if got := TransferSeconds(100, 1); !approx(got, 0.8, 1e-12) {
		t.Errorf("TransferSeconds(100, 1) = %v, want 0.8", got)
	}
	// 10 KB over 10 Mb/s: 80 kb / 10000 kb/s = 0.008 s.
	if got := TransferSeconds(10, 10); !approx(got, 0.008, 1e-12) {
		t.Errorf("TransferSeconds(10, 10) = %v, want 0.008", got)
	}
	if got := TransferSeconds(10, 0); !math.IsInf(got, 1) {
		t.Errorf("TransferSeconds with zero bandwidth = %v, want +Inf", got)
	}
}

func TestRouteTransferSeconds(t *testing.T) {
	sys := twoMachineSystem()
	if got := sys.RouteTransferSeconds(100, 0, 0); got != 0 {
		t.Errorf("intra-machine transfer = %v, want 0", got)
	}
	if got := sys.RouteTransferSeconds(100, 0, 1); !approx(got, 8*100/(1000*5.0), 1e-12) {
		t.Errorf("inter-machine transfer = %v", got)
	}
}

func TestDemandUtil(t *testing.T) {
	sys := twoMachineSystem()
	// App 0 on machine 0: t*u/P = 2*0.5/10 = 0.1.
	if got := sys.MachineDemandUtil(0, 0, 0); !approx(got, 0.1, 1e-12) {
		t.Errorf("MachineDemandUtil = %v, want 0.1", got)
	}
	// App 0 on machine 1: 4*1.0/10 = 0.4.
	if got := sys.MachineDemandUtil(0, 0, 1); !approx(got, 0.4, 1e-12) {
		t.Errorf("MachineDemandUtil = %v, want 0.4", got)
	}
	// Output of app 0 (100 KB) each 10 s over 5 Mb/s route:
	// demand = 0.8 Mb / 10 s = 0.08 Mb/s; util = 0.08/5 = 0.016.
	if got := sys.RouteDemandUtil(100, 10, 0, 1); !approx(got, 0.016, 1e-12) {
		t.Errorf("RouteDemandUtil = %v, want 0.016", got)
	}
	if got := sys.RouteDemandUtil(100, 10, 1, 1); got != 0 {
		t.Errorf("intra-machine RouteDemandUtil = %v, want 0", got)
	}
}

func TestAverages(t *testing.T) {
	sys := twoMachineSystem()
	if got := sys.AvgNominalTime(0, 0); !approx(got, 3, 1e-12) {
		t.Errorf("AvgNominalTime = %v, want 3", got)
	}
	if got := sys.AvgNominalUtil(0, 0); !approx(got, 0.75, 1e-12) {
		t.Errorf("AvgNominalUtil = %v, want 0.75", got)
	}
	if got := sys.AvgWork(0, 0); !approx(got, 2.25, 1e-12) {
		t.Errorf("AvgWork = %v, want 2.25", got)
	}
	// Two off-diagonal routes of 5 Mb/s among 4 slots: (2 * 1/5) / 4 = 0.1.
	if got := sys.AvgInvBandwidth(); !approx(got, 0.1, 1e-12) {
		t.Errorf("AvgInvBandwidth = %v, want 0.1", got)
	}
	// Transfer of 100 KB: 0.8 Mb * 0.1 s/Mb = 0.08 s.
	if got := sys.AvgTransferSeconds(0, 0); !approx(got, 0.08, 1e-12) {
		t.Errorf("AvgTransferSeconds = %v, want 0.08", got)
	}
	// AvgTightness: (3 + 0.08 + 4) / 30.
	want := (3 + 0.08 + 4.0) / 30
	if got := sys.AvgTightness(0); !approx(got, want, 1e-12) {
		t.Errorf("AvgTightness = %v, want %v", got, want)
	}
}

func TestCounts(t *testing.T) {
	sys := twoMachineSystem()
	sys.AddString(AppString{Worth: WorthHigh, Period: 5, MaxLatency: 10,
		Apps: []Application{UniformApp(2, 1, 0.5, 10)}})
	if got := sys.NumApps(); got != 3 {
		t.Errorf("NumApps = %d, want 3", got)
	}
	if got := sys.TotalWorth(); !approx(got, 110, 1e-12) {
		t.Errorf("TotalWorth = %v, want 110", got)
	}
}

func TestValidateAcceptsGoodSystem(t *testing.T) {
	if err := twoMachineSystem().Validate(); err != nil {
		t.Fatalf("valid system rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*System)
	}{
		{"no machines", func(s *System) { s.Machines = 0 }},
		{"bandwidth rows", func(s *System) { s.Bandwidth = s.Bandwidth[:1] }},
		{"bandwidth cols", func(s *System) { s.Bandwidth[0] = s.Bandwidth[0][:1] }},
		{"zero bandwidth", func(s *System) { s.Bandwidth[0][1] = 0 }},
		{"negative bandwidth", func(s *System) { s.Bandwidth[1][0] = -3 }},
		{"NaN bandwidth", func(s *System) { s.Bandwidth[0][1] = math.NaN() }},
		{"empty string", func(s *System) { s.Strings[0].Apps = nil }},
		{"zero period", func(s *System) { s.Strings[0].Period = 0 }},
		{"negative latency", func(s *System) { s.Strings[0].MaxLatency = -1 }},
		{"zero worth", func(s *System) { s.Strings[0].Worth = 0 }},
		{"short time vector", func(s *System) { s.Strings[0].Apps[0].NominalTime = nil }},
		{"zero nominal time", func(s *System) { s.Strings[0].Apps[0].NominalTime[0] = 0 }},
		{"util above one", func(s *System) { s.Strings[0].Apps[0].NominalUtil[1] = 1.5 }},
		{"zero util", func(s *System) { s.Strings[0].Apps[0].NominalUtil[0] = 0 }},
		{"negative output", func(s *System) { s.Strings[0].Apps[1].OutputKB = -4 }},
		{"infinite output", func(s *System) { s.Strings[0].Apps[0].OutputKB = math.Inf(1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := twoMachineSystem()
			tc.mutate(sys)
			if err := sys.Validate(); err == nil {
				t.Errorf("Validate accepted a system with %s", tc.name)
			}
		})
	}
}

func TestCloneIsDeep(t *testing.T) {
	sys := twoMachineSystem()
	cp := sys.Clone()
	cp.Bandwidth[0][1] = 99
	cp.Strings[0].Apps[0].NominalTime[0] = 99
	cp.Strings[0].Period = 99
	if sys.Bandwidth[0][1] == 99 || sys.Strings[0].Apps[0].NominalTime[0] == 99 || sys.Strings[0].Period == 99 {
		t.Fatal("Clone shares memory with the original")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	sys := twoMachineSystem()
	var buf bytes.Buffer
	if err := sys.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseSystem(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Machines != sys.Machines || len(got.Strings) != len(sys.Strings) {
		t.Fatalf("round trip lost structure: %+v", got)
	}
	if got.Strings[0].Apps[0].NominalTime[1] != 4 {
		t.Errorf("round trip lost nominal time")
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	if _, err := ParseSystem([]byte(`{"machines":0}`)); err == nil {
		t.Error("ParseSystem accepted an invalid system")
	}
	if _, err := ParseSystem([]byte(`not json`)); err == nil {
		t.Error("ParseSystem accepted malformed JSON")
	}
}

// Property: UniformApp's Work is the same on every machine and equals t*u.
func TestUniformAppWorkProperty(t *testing.T) {
	f := func(tRaw, uRaw uint16) bool {
		timeSec := 0.01 + float64(tRaw%1000)/100
		util := 0.01 + 0.99*float64(uRaw%100)/100
		a := UniformApp(7, timeSec, util, 1)
		for j := 0; j < 7; j++ {
			if !approx(a.Work(j), timeSec*util, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: AvgWork is always between the min and max per-machine work.
func TestAvgWorkBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		m := 1 + rng.Intn(8)
		a := Application{NominalTime: make([]float64, m), NominalUtil: make([]float64, m)}
		for j := 0; j < m; j++ {
			a.NominalTime[j] = 1 + 9*rng.Float64()
			a.NominalUtil[j] = 0.1 + 0.9*rng.Float64()
		}
		sys := NewUniformSystem(m, 5)
		sys.AddString(AppString{Worth: 1, Period: 10, MaxLatency: 10, Apps: []Application{a}})
		avgT, avgU := sys.AvgNominalTime(0, 0), sys.AvgNominalUtil(0, 0)
		minT, maxT := math.Inf(1), math.Inf(-1)
		for j := 0; j < m; j++ {
			minT = math.Min(minT, a.NominalTime[j])
			maxT = math.Max(maxT, a.NominalTime[j])
		}
		if avgT < minT-1e-9 || avgT > maxT+1e-9 {
			t.Fatalf("avg time %v outside [%v, %v]", avgT, minT, maxT)
		}
		if avgU < 0.1-1e-9 || avgU > 1+1e-9 {
			t.Fatalf("avg util %v outside [0.1, 1]", avgU)
		}
	}
}

package workload

import (
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/model"
)

// TestTable1 pins the per-scenario µ ranges to the paper's Table 1 and the
// Section 6 structural parameters.
func TestTable1(t *testing.T) {
	cases := []struct {
		s        Scenario
		strings  int
		muL, muP Range
	}{
		{HighlyLoaded, 150, Range{4, 6}, Range{3, 4.5}},
		{QoSLimited, 150, Range{1.25, 2.75}, Range{1.5, 2.5}},
		{LightlyLoaded, 25, Range{4, 6}, Range{3, 4.5}},
	}
	for _, c := range cases {
		cfg := ScenarioConfig(c.s)
		if cfg.Strings != c.strings {
			t.Errorf("%v: strings = %d, want %d", c.s, cfg.Strings, c.strings)
		}
		if cfg.MuLatency != c.muL || cfg.MuPeriod != c.muP {
			t.Errorf("%v: µ ranges = %+v/%+v, want %+v/%+v", c.s, cfg.MuLatency, cfg.MuPeriod, c.muL, c.muP)
		}
		if cfg.Machines != 12 || cfg.MaxAppsPerString != 10 {
			t.Errorf("%v: machines/apps = %d/%d, want 12/10", c.s, cfg.Machines, cfg.MaxAppsPerString)
		}
		if cfg.Bandwidth != (Range{1, 10}) || cfg.NominalTime != (Range{1, 10}) ||
			cfg.NominalUtil != (Range{0.1, 1}) || cfg.OutputKB != (Range{10, 100}) {
			t.Errorf("%v: sampling ranges deviate from Section 6: %+v", c.s, cfg)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%v: preset invalid: %v", c.s, err)
		}
	}
}

func TestScenarioString(t *testing.T) {
	for _, s := range []Scenario{HighlyLoaded, QoSLimited, LightlyLoaded, Scenario(9)} {
		if s.String() == "" {
			t.Errorf("empty name for %d", int(s))
		}
	}
}

func TestUnknownScenarioPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	ScenarioConfig(Scenario(42))
}

// TestGeneratedRanges verifies every sampled quantity respects its configured
// range and derived quantities match the Section 8 formulas.
func TestGeneratedRanges(t *testing.T) {
	cfg := ScenarioConfig(QoSLimited)
	cfg.Strings = 40 // keep the test fast
	sys := MustGenerate(cfg, 123)
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	if sys.Machines != 12 || len(sys.Strings) != 40 {
		t.Fatalf("structure: %d machines, %d strings", sys.Machines, len(sys.Strings))
	}
	for j1 := 0; j1 < sys.Machines; j1++ {
		for j2 := 0; j2 < sys.Machines; j2++ {
			if j1 == j2 {
				if sys.Bandwidth[j1][j2] != 0 {
					t.Errorf("diagonal bandwidth [%d][%d] = %v, want 0 (ignored)", j1, j2, sys.Bandwidth[j1][j2])
				}
				continue
			}
			if !cfg.Bandwidth.Contains(sys.Bandwidth[j1][j2]) {
				t.Errorf("bandwidth [%d][%d] = %v outside %+v", j1, j2, sys.Bandwidth[j1][j2], cfg.Bandwidth)
			}
		}
	}
	worthSeen := map[float64]bool{}
	for k := range sys.Strings {
		s := &sys.Strings[k]
		if len(s.Apps) < 1 || len(s.Apps) > 10 {
			t.Errorf("string %d has %d applications", k, len(s.Apps))
		}
		worthSeen[s.Worth] = true
		if s.Worth != 1 && s.Worth != 10 && s.Worth != 100 {
			t.Errorf("string %d worth %v not in {1,10,100}", k, s.Worth)
		}
		for i := range s.Apps {
			a := &s.Apps[i]
			if !cfg.OutputKB.Contains(a.OutputKB) {
				t.Errorf("string %d app %d output %v outside %+v", k, i, a.OutputKB, cfg.OutputKB)
			}
			for j := 0; j < sys.Machines; j++ {
				if !cfg.NominalTime.Contains(a.NominalTime[j]) {
					t.Errorf("string %d app %d time %v outside %+v", k, i, a.NominalTime[j], cfg.NominalTime)
				}
				if !cfg.NominalUtil.Contains(a.NominalUtil[j]) {
					t.Errorf("string %d app %d util %v outside %+v", k, i, a.NominalUtil[j], cfg.NominalUtil)
				}
			}
		}
		// Derived constraints: recompute the Section 8 bases and check the
		// implied µ landed in the configured range.
		n := len(s.Apps)
		latencyBase := sys.AvgNominalTime(k, n-1)
		periodBase := 0.0
		for i := 0; i < n; i++ {
			tAv := sys.AvgNominalTime(k, i)
			periodBase = math.Max(periodBase, tAv)
			if i < n-1 {
				tr := sys.AvgTransferSeconds(k, i)
				latencyBase += tAv + tr
				periodBase = math.Max(periodBase, tr)
			}
		}
		muL := s.MaxLatency / latencyBase
		muP := s.Period / periodBase
		if !cfg.MuLatency.Contains(muL) {
			t.Errorf("string %d implied µ_L = %v outside %+v", k, muL, cfg.MuLatency)
		}
		if !cfg.MuPeriod.Contains(muP) {
			t.Errorf("string %d implied µ_P = %v outside %+v", k, muP, cfg.MuPeriod)
		}
	}
	if len(worthSeen) < 2 {
		t.Errorf("worth sampling suspicious: only levels %v seen in 40 strings", worthSeen)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := ScenarioConfig(LightlyLoaded)
	a := MustGenerate(cfg, 7)
	b := MustGenerate(cfg, 7)
	c := MustGenerate(cfg, 8)
	if a.Strings[0].Period != b.Strings[0].Period || a.Bandwidth[0][1] != b.Bandwidth[0][1] {
		t.Error("same seed produced different systems")
	}
	same := a.Strings[0].Period == c.Strings[0].Period && a.Bandwidth[0][1] == c.Bandwidth[0][1] &&
		len(a.Strings[0].Apps) == len(c.Strings[0].Apps)
	if same {
		t.Error("different seeds produced identical systems (suspicious)")
	}
}

func TestWorthWeights(t *testing.T) {
	cfg := ScenarioConfig(LightlyLoaded)
	cfg.Strings = 60
	cfg.WorthWeights = []float64{0, 0, 1} // force all-high
	sys := MustGenerate(cfg, 3)
	for k := range sys.Strings {
		if sys.Strings[k].Worth != model.WorthHigh {
			t.Fatalf("string %d worth %v, want all high", k, sys.Strings[k].Worth)
		}
	}
}

func TestConfigValidateRejections(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Machines = 0 },
		func(c *Config) { c.Strings = 0 },
		func(c *Config) { c.MaxAppsPerString = 0 },
		func(c *Config) { c.Bandwidth = Range{0, 5} },
		func(c *Config) { c.Bandwidth = Range{5, 1} },
		func(c *Config) { c.NominalTime = Range{-1, 5} },
		func(c *Config) { c.NominalUtil = Range{0.1, 1.5} },
		func(c *Config) { c.NominalUtil = Range{0, 1} },
		func(c *Config) { c.OutputKB = Range{-1, 5} },
		func(c *Config) { c.MuLatency = Range{0, 5} },
		func(c *Config) { c.MuPeriod = Range{2, 1} },
		func(c *Config) { c.WorthLevels = nil },
		func(c *Config) { c.WorthWeights = []float64{1} },
		func(c *Config) { c.WorthWeights = []float64{-1, 1, 1} },
		func(c *Config) { c.WorthWeights = []float64{0, 0, 0} },
		func(c *Config) { c.RouteDensity = -0.5 },
		func(c *Config) { c.RouteDensity = math.NaN() },
		func(c *Config) { c.RouteDensity = math.Inf(1) },
		func(c *Config) { c.RouteDensity = 0.5 }, // Strings still set: ambiguous sizing
		func(c *Config) { c.Strings = 0; c.RouteDensity = 0.5; c.MaxAppsPerString = 1 },
	}
	for i, mutate := range mutations {
		cfg := ScenarioConfig(HighlyLoaded)
		mutate(&cfg)
		if _, err := Generate(cfg, 1); err == nil {
			t.Errorf("mutation %d: invalid config accepted", i)
		}
	}
}

// TestRouteDensitySizing pins the fleet-scale sizing contract: NumStrings
// derives the string count from RouteDensity so the expected transfer-edge
// budget reaches density x machines, FleetConfig produces a valid
// configuration at large M, and the edge budget stays linear in M (the
// property the sparse allocation core's footprint guarantees rely on).
func TestRouteDensitySizing(t *testing.T) {
	for _, m := range []int{64, 512, 2048} {
		cfg := FleetConfig(m, 0.5)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("FleetConfig(%d, 0.5): %v", m, err)
		}
		n := cfg.NumStrings()
		// Expected edges per string with app counts uniform on 1..4 is
		// (0+1+2+3)/4 = 1.5, so n must cover 0.5*m edges without ballooning.
		edgesPerString := 1.5
		if lo := 0.5 * float64(m) / edgesPerString; float64(n) < lo || float64(n) > lo+1 {
			t.Errorf("M=%d: NumStrings = %d, want ceil(%.1f)", m, n, lo)
		}
	}
	// Explicit Strings wins over density-derived sizing.
	cfg := ScenarioConfig(HighlyLoaded)
	if got := cfg.NumStrings(); got != cfg.Strings {
		t.Errorf("NumStrings with explicit Strings = %d, want %d", got, cfg.Strings)
	}
	// The generated system honors the derived count end to end.
	sys := MustGenerate(FleetConfig(64, 2), 33)
	if want := FleetConfig(64, 2).NumStrings(); len(sys.Strings) != want {
		t.Errorf("generated %d strings, want %d", len(sys.Strings), want)
	}
}

// TestScenarioLoadShape is a coarse sanity check of the scenario design:
// total CPU demand in scenario 1 (150 strings) must far exceed the 12-machine
// capacity, while scenario 3 (25 strings) must be near or below it — this is
// what makes one "highly loaded" and the other "lightly loaded".
func TestScenarioLoadShape(t *testing.T) {
	demand := func(s Scenario, seed int64) float64 {
		sys := MustGenerate(ScenarioConfig(s), seed)
		total := 0.0
		for k := range sys.Strings {
			for i := range sys.Strings[k].Apps {
				// Best-case demand: the machine needing the least capacity.
				best := math.Inf(1)
				for j := 0; j < sys.Machines; j++ {
					best = math.Min(best, sys.MachineDemandUtil(k, i, j))
				}
				total += best
			}
		}
		return total
	}
	d1 := demand(HighlyLoaded, 1)
	d3 := demand(LightlyLoaded, 1)
	// Best-case demand is optimistic (every application on its cheapest
	// machine, which a real mapping cannot achieve simultaneously), so even
	// 1.3x capacity means the system saturates well before all 150 strings.
	if d1 < 1.3*12 {
		t.Errorf("scenario 1 best-case demand %v should exceed capacity 12", d1)
	}
	if d3 > 12 {
		t.Errorf("scenario 3 best-case demand %v should fit within capacity 12", d3)
	}
}

// TestConsistentHeterogeneity: under the consistent model, the machine speed
// ordering is identical for every application (modulo clamping ties), and
// nominal times stay within the configured range.
func TestConsistentHeterogeneity(t *testing.T) {
	cfg := ScenarioConfig(LightlyLoaded)
	cfg.Heterogeneity = Consistent
	cfg.Strings = 20
	sys := MustGenerate(cfg, 5)
	// Recover the machine ordering from the first application and check
	// every other application agrees on all strict comparisons.
	ref := sys.Strings[0].Apps[0].NominalTime
	for k := range sys.Strings {
		for i := range sys.Strings[k].Apps {
			cur := sys.Strings[k].Apps[i].NominalTime
			for a := 0; a < sys.Machines; a++ {
				if !cfg.NominalTime.Contains(cur[a]) {
					t.Fatalf("time %v outside range", cur[a])
				}
				for b := 0; b < sys.Machines; b++ {
					// Strict order in ref must never invert (ties allowed
					// because clamping can flatten extremes).
					if ref[a] < ref[b] && cur[a] > cur[b]+1e-12 {
						t.Fatalf("string %d app %d inverts machine order (%d vs %d)", k, i, a, b)
					}
				}
			}
		}
	}
	if Consistent.String() == "" || Inconsistent.String() == "" {
		t.Error("heterogeneity names empty")
	}
}

// TestInconsistentHeterogeneityInverts: the default model should produce at
// least one ordering inversion across applications (overwhelmingly likely).
func TestInconsistentHeterogeneityInverts(t *testing.T) {
	cfg := ScenarioConfig(LightlyLoaded)
	cfg.Strings = 10
	sys := MustGenerate(cfg, 5)
	ref := sys.Strings[0].Apps[0].NominalTime
	for k := range sys.Strings {
		for i := range sys.Strings[k].Apps {
			cur := sys.Strings[k].Apps[i].NominalTime
			for a := 0; a < sys.Machines; a++ {
				for b := 0; b < sys.Machines; b++ {
					if ref[a] < ref[b] && cur[a] > cur[b] {
						return // found an inversion, as expected
					}
				}
			}
		}
	}
	t.Error("no ordering inversion found under the inconsistent model")
}

func TestRangeSample(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := Range{2, 5}
	for i := 0; i < 1000; i++ {
		v := r.Sample(rng)
		if !r.Contains(v) {
			t.Fatalf("sample %v escaped %+v", v, r)
		}
	}
	if r.Contains(1.9) || r.Contains(5.1) {
		t.Error("Contains accepts out-of-range values")
	}
}

// TestRangeSampleDegenerate: a degenerate range (lo == hi) is valid and every
// sample is exactly the single point — no floating-point wobble — while still
// consuming one draw so stream positions stay aligned.
func TestRangeSampleDegenerate(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	r := Range{3.7, 3.7}
	for i := 0; i < 100; i++ {
		if v := r.Sample(rnd); v != 3.7 {
			t.Fatalf("degenerate sample %d = %v, want exactly 3.7", i, v)
		}
	}
	// One draw per sample: a sibling generator that mirrors the draws stays
	// in lockstep with one that sampled the degenerate range.
	a, b := rand.New(rand.NewSource(2)), rand.New(rand.NewSource(2))
	r.Sample(a)
	b.Float64()
	if a.Float64() != b.Float64() {
		t.Error("degenerate Sample consumed a different number of draws than one Float64")
	}
	cfg := ScenarioConfig(LightlyLoaded)
	cfg.NominalTime = Range{5, 5}
	if err := cfg.Validate(); err != nil {
		t.Errorf("degenerate (lo == hi) range rejected: %v", err)
	}
}

// TestValidateInvertedRanges: every Range field rejects inverted bounds with
// an error naming the field, so a transposed {hi, lo} literal fails loudly
// instead of silently sampling outside the interval.
func TestValidateInvertedRanges(t *testing.T) {
	cases := []struct {
		field  string
		mutate func(*Config)
	}{
		{"bandwidth", func(c *Config) { c.Bandwidth = Range{10, 1} }},
		{"nominal time", func(c *Config) { c.NominalTime = Range{10, 1} }},
		{"nominal utilization", func(c *Config) { c.NominalUtil = Range{1, 0.1} }},
		{"output", func(c *Config) { c.OutputKB = Range{100, 10} }},
		{"µ latency", func(c *Config) { c.MuLatency = Range{6, 4} }},
		{"µ period", func(c *Config) { c.MuPeriod = Range{4.5, 3} }},
	}
	for _, c := range cases {
		cfg := ScenarioConfig(HighlyLoaded)
		c.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: inverted range accepted", c.field)
			continue
		}
		if !strings.Contains(err.Error(), "inverted") || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: error %q does not name the inverted field", c.field, err)
		}
	}
}

func TestPickWorthExhaustsWeights(t *testing.T) {
	// Degenerate rounding: r may equal the total; the last level must win.
	cfg := ScenarioConfig(LightlyLoaded)
	cfg.Strings = 200
	sys := MustGenerate(cfg, 99)
	counts := map[float64]int{}
	for k := range sys.Strings {
		counts[sys.Strings[k].Worth]++
	}
	for _, lvl := range []float64{1, 10, 100} {
		if counts[lvl] < 30 {
			t.Errorf("worth level %v drawn only %d/200 times under equal weights", lvl, counts[lvl])
		}
	}
}

// LoadSystem is the commands' one way to a system: -in wins over the
// generator flags, and without it -strings overrides the scenario's count.
func TestLoadSystem(t *testing.T) {
	gen, err := LoadSystem("", int(LightlyLoaded), 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ScenarioConfig(LightlyLoaded)
	cfg.Strings = 9
	if want := MustGenerate(cfg, 4); len(gen.Strings) != 9 || gen.Strings[8].Period != want.Strings[8].Period {
		t.Fatalf("generated %d strings (last period %v), want 9 (%v)", len(gen.Strings), gen.Strings[8].Period, want.Strings[8].Period)
	}
	if full, err := LoadSystem("", int(LightlyLoaded), 4, 0); err != nil || len(full.Strings) != ScenarioConfig(LightlyLoaded).NumStrings() {
		t.Fatalf("no override: %d strings, err %v", len(full.Strings), err)
	}
	path := filepath.Join(t.TempDir(), "system.json")
	if err := gen.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSystem(path, int(HighlyLoaded), 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Strings) != 9 || loaded.Machines != gen.Machines {
		t.Fatalf("-in ignored: %d strings on %d machines", len(loaded.Strings), loaded.Machines)
	}
	if _, err := LoadSystem(filepath.Join(t.TempDir(), "missing.json"), 1, 1, 0); err == nil {
		t.Fatal("missing -in file accepted")
	}
}

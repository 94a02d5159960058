// Package workload generates the synthetic TSCE workloads of Section 6 of
// Shestak et al. (IPPS 2005): a heterogeneous suite of machines with
// uniformly sampled route bandwidths, and strings whose application counts,
// nominal execution times, nominal CPU utilizations and output sizes are
// sampled from the paper's uniform ranges. End-to-end latency constraints and
// periods are derived from machine-averaged quantities scaled by the random
// variable µ, whose per-scenario ranges are given in Table 1.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/model"
	"repro/internal/rng"
)

// Scenario selects one of the paper's three workload scenarios.
type Scenario int

const (
	// HighlyLoaded is scenario 1: 150 strings with relaxed QoS constraints;
	// the sequential allocation stops when a hardware component reaches its
	// computation or communication capacity limit (first-stage analysis).
	HighlyLoaded Scenario = 1
	// QoSLimited is scenario 2: 150 strings with tight throughput and
	// latency constraints; allocation stops on a QoS violation before any
	// resource reaches its capacity limit.
	QoSLimited Scenario = 2
	// LightlyLoaded is scenario 3: 25 strings with relaxed QoS constraints;
	// the entire set can be allocated and only system slackness matters.
	LightlyLoaded Scenario = 3
)

func (s Scenario) String() string {
	switch s {
	case HighlyLoaded:
		return "scenario 1 (highly loaded)"
	case QoSLimited:
		return "scenario 2 (QoS-limited)"
	case LightlyLoaded:
		return "scenario 3 (lightly loaded)"
	default:
		return fmt.Sprintf("scenario %d", int(s))
	}
}

// Range is a closed interval sampled uniformly.
type Range struct{ Min, Max float64 }

// Sample draws uniformly from the range.
func (r Range) Sample(rng *rand.Rand) float64 {
	return r.Min + (r.Max-r.Min)*rng.Float64()
}

// Contains reports whether v lies in the range (with a small tolerance).
func (r Range) Contains(v float64) bool {
	const eps = 1e-12
	return v >= r.Min-eps && v <= r.Max+eps
}

// Config holds every generation parameter. Defaults (Section 6): 12
// machines, route bandwidths U[1,10] Mb/s, 1-10 applications per string,
// nominal times U[1,10] s, nominal utilizations U[0.1,1], outputs U[10,100]
// KB, worth uniform over {1,10,100}, and the Table 1 µ ranges.
type Config struct {
	Machines         int
	Strings          int
	MaxAppsPerString int
	Bandwidth        Range // Mb/s per inter-machine route
	NominalTime      Range // seconds per (application, machine)
	NominalUtil      Range // fraction per (application, machine)
	OutputKB         Range // kilobytes per application
	MuLatency        Range // µ for Lmax[k] (Table 1)
	MuPeriod         Range // µ for P[k] (Table 1)
	// WorthLevels and WorthWeights define the worth distribution. The paper
	// fixes the levels {1,10,100} but not the mixing proportions; equal
	// weights are the documented default.
	WorthLevels  []float64
	WorthWeights []float64
	// RouteDensity, when positive, sizes the suite for fleet-scale sparse
	// instances instead of a fixed string count: the generator derives the
	// number of strings so that the expected total of inter-application
	// transfer edges — an upper bound on the distinct inter-machine routes
	// any placement can activate — is RouteDensity × Machines. A density of
	// O(1) routes per machine keeps the active-route footprint linear in
	// machines no matter how large the fleet, which is what the sparse
	// allocation core and its benchmarks rely on. Strings and RouteDensity
	// are mutually exclusive: set exactly one. Requires MaxAppsPerString >= 2,
	// since single-application strings produce no transfers.
	RouteDensity float64
	// Heterogeneity selects how nominal execution times relate across
	// machines. The paper samples each (application, machine) value
	// independently, which is the "inconsistent" model of its reference [5]
	// (Ali et al., Tamkang J. Sci. Eng. 2000); the "consistent" model makes
	// machine speed orderings uniform across applications, an alternative
	// the heterogeneous-computing literature studies and the
	// HeterogeneityStudy ablation exercises.
	Heterogeneity Heterogeneity
}

// Heterogeneity selects the task/machine heterogeneity model for nominal
// execution times.
type Heterogeneity int

const (
	// Inconsistent samples every (application, machine) nominal time
	// independently (the paper's setup): machine A may be faster than B for
	// one application and slower for another.
	Inconsistent Heterogeneity = iota
	// Consistent derives nominal times from a per-application base time and
	// a per-machine speed factor, so one machine ordering holds for all
	// applications.
	Consistent
)

func (h Heterogeneity) String() string {
	if h == Consistent {
		return "consistent"
	}
	return "inconsistent"
}

// ScenarioConfig returns the paper's configuration for the given scenario
// (Section 6 and Table 1).
func ScenarioConfig(s Scenario) Config {
	cfg := Config{
		Machines:         12,
		Strings:          150,
		MaxAppsPerString: 10,
		Bandwidth:        Range{1, 10},
		NominalTime:      Range{1, 10},
		NominalUtil:      Range{0.1, 1},
		OutputKB:         Range{10, 100},
		WorthLevels:      []float64{model.WorthLow, model.WorthMedium, model.WorthHigh},
		WorthWeights:     []float64{1, 1, 1},
	}
	switch s {
	case HighlyLoaded:
		cfg.MuLatency = Range{4, 6}
		cfg.MuPeriod = Range{3, 4.5}
	case QoSLimited:
		cfg.MuLatency = Range{1.25, 2.75}
		cfg.MuPeriod = Range{1.5, 2.5}
	case LightlyLoaded:
		cfg.Strings = 25
		cfg.MuLatency = Range{4, 6}
		cfg.MuPeriod = Range{3, 4.5}
	default:
		panic(fmt.Sprintf("workload: unknown scenario %d", int(s)))
	}
	return cfg
}

// WithDefaults returns a copy of the configuration with every zero-valued
// field replaced by its Section 6 default — the HighlyLoaded scenario preset
// (12 machines, 150 strings, up to 10 applications per string, the paper's
// uniform sampling ranges, equal-weight worth levels {1,10,100}, and the
// Table 1 µ ranges of scenario 1). A zero Range counts as unset; the zero
// Heterogeneity already means Inconsistent, the paper's model. Value
// receiver — the original is never mutated. Matches the Validate/WithDefaults
// pattern shared by genitor.Config, heuristics.PSGConfig, and
// experiments.Options.
func (c Config) WithDefaults() Config {
	d := ScenarioConfig(HighlyLoaded)
	if c.Machines == 0 {
		c.Machines = d.Machines
	}
	if c.Strings == 0 && c.RouteDensity == 0 {
		c.Strings = d.Strings
	}
	if c.MaxAppsPerString == 0 {
		c.MaxAppsPerString = d.MaxAppsPerString
	}
	zero := Range{}
	if c.Bandwidth == zero {
		c.Bandwidth = d.Bandwidth
	}
	if c.NominalTime == zero {
		c.NominalTime = d.NominalTime
	}
	if c.NominalUtil == zero {
		c.NominalUtil = d.NominalUtil
	}
	if c.OutputKB == zero {
		c.OutputKB = d.OutputKB
	}
	if c.MuLatency == zero {
		c.MuLatency = d.MuLatency
	}
	if c.MuPeriod == zero {
		c.MuPeriod = d.MuPeriod
	}
	if len(c.WorthLevels) == 0 && len(c.WorthWeights) == 0 {
		c.WorthLevels = append([]float64(nil), d.WorthLevels...)
		c.WorthWeights = append([]float64(nil), d.WorthWeights...)
	}
	return c
}

// checkRange validates one named sampling range: inverted bounds (min > max)
// are always an error — Sample would silently draw outside the interval — and
// the bounds must respect the field's domain. A degenerate range (min == max)
// is valid and Sample returns the single point exactly.
func checkRange(field string, r Range, minFloor float64, floorExclusive bool, maxCeil float64) error {
	if r.Min > r.Max {
		return fmt.Errorf("workload: %s range inverted: min %v > max %v", field, r.Min, r.Max)
	}
	if floorExclusive && r.Min <= minFloor {
		return fmt.Errorf("workload: %s range min %v, want > %v", field, r.Min, minFloor)
	}
	if !floorExclusive && r.Min < minFloor {
		return fmt.Errorf("workload: %s range min %v, want >= %v", field, r.Min, minFloor)
	}
	if r.Max > maxCeil {
		return fmt.Errorf("workload: %s range max %v, want <= %v", field, r.Max, maxCeil)
	}
	return nil
}

// Validate reports configuration errors, naming the offending field.
func (c Config) Validate() error {
	switch {
	case c.Machines < 1:
		return fmt.Errorf("workload: %d machines", c.Machines)
	case c.Strings < 1 && c.RouteDensity <= 0:
		return fmt.Errorf("workload: %d strings", c.Strings)
	case c.MaxAppsPerString < 1:
		return fmt.Errorf("workload: max %d applications per string", c.MaxAppsPerString)
	}
	if c.RouteDensity != 0 {
		switch {
		case c.RouteDensity < 0 || math.IsNaN(c.RouteDensity) || math.IsInf(c.RouteDensity, 0):
			return fmt.Errorf("workload: route density %v, want finite positive", c.RouteDensity)
		case c.Strings > 0:
			return fmt.Errorf("workload: both %d strings and route density %v set, want exactly one", c.Strings, c.RouteDensity)
		case c.MaxAppsPerString < 2:
			return fmt.Errorf("workload: route density %v needs max applications per string >= 2, got %d (single-application strings produce no transfers)",
				c.RouteDensity, c.MaxAppsPerString)
		}
	}
	inf := math.Inf(1)
	for _, rc := range []struct {
		field          string
		r              Range
		minFloor       float64
		floorExclusive bool
		maxCeil        float64
	}{
		{"bandwidth", c.Bandwidth, 0, true, inf},
		{"nominal time", c.NominalTime, 0, true, inf},
		{"nominal utilization", c.NominalUtil, 0, true, 1},
		{"output", c.OutputKB, 0, false, inf},
		{"µ latency", c.MuLatency, 0, true, inf},
		{"µ period", c.MuPeriod, 0, true, inf},
	} {
		if err := checkRange(rc.field, rc.r, rc.minFloor, rc.floorExclusive, rc.maxCeil); err != nil {
			return err
		}
	}
	if len(c.WorthLevels) == 0 || len(c.WorthLevels) != len(c.WorthWeights) {
		return fmt.Errorf("workload: %d worth levels with %d weights", len(c.WorthLevels), len(c.WorthWeights))
	}
	total := 0.0
	for _, w := range c.WorthWeights {
		if w < 0 {
			return fmt.Errorf("workload: negative worth weight %v", w)
		}
		total += w
	}
	if total <= 0 {
		return fmt.Errorf("workload: worth weights sum to %v", total)
	}
	return nil
}

// NumStrings returns the effective string count of the configuration:
// Strings when set, otherwise the count derived from RouteDensity — the
// smallest suite whose expected inter-application transfer-edge total
// reaches RouteDensity × Machines. Application counts are uniform on
// [1, MaxAppsPerString], so a string carries (MaxAppsPerString-1)/2 transfer
// edges in expectation.
func (c Config) NumStrings() int {
	if c.Strings > 0 || c.RouteDensity <= 0 {
		return c.Strings
	}
	edgesPerString := float64(c.MaxAppsPerString-1) / 2
	n := int(math.Ceil(c.RouteDensity * float64(c.Machines) / edgesPerString))
	if n < 1 {
		n = 1
	}
	return n
}

// FleetConfig returns a configuration for fleet-scale sparse instances: m
// machines with the scenario-1 sampling ranges and relaxed QoS, short strings
// (at most four applications) so per-string placement stays cheap, and the
// string count derived from routesPerMachine — the target number of active
// inter-machine routes per machine, kept O(1) so the route footprint grows
// linearly in m rather than quadratically.
func FleetConfig(m int, routesPerMachine float64) Config {
	cfg := ScenarioConfig(HighlyLoaded)
	cfg.Machines = m
	cfg.Strings = 0
	cfg.MaxAppsPerString = 4
	cfg.RouteDensity = routesPerMachine
	return cfg
}

// Generate builds a system from the configuration, deterministically for a
// given seed. The returned system always passes model.Validate.
func Generate(cfg Config, seed int64) (*model.System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Strings = cfg.NumStrings()
	cfg.RouteDensity = 0
	rnd := rng.NewRand(seed, rng.SubsystemWorkload, 0)
	sys := &model.System{Machines: cfg.Machines}

	// Hardware first: the µ formulas need the system's average inverse
	// bandwidth. Routes are directed virtual point-to-point channels, each
	// sampled independently; intra-machine routes are infinite (diagonal
	// entries stay zero and are ignored by the model).
	sys.Bandwidth = make([][]float64, cfg.Machines)
	for j1 := range sys.Bandwidth {
		sys.Bandwidth[j1] = make([]float64, cfg.Machines)
		for j2 := range sys.Bandwidth[j1] {
			if j1 != j2 {
				sys.Bandwidth[j1][j2] = cfg.Bandwidth.Sample(rnd)
			}
		}
	}

	// The bandwidth matrix is final from here on, so its O(M^2) average is
	// hoisted out of the per-application µ formulas below; the transfer-time
	// expression matches model.AvgTransferSeconds term for term, keeping the
	// generated floats bit-identical to calling it directly.
	invBW := sys.AvgInvBandwidth()

	// Consistent heterogeneity: one speed factor per machine, applied to a
	// per-application base time (clamped back into the configured range, a
	// monotone transform that preserves the machine ordering).
	var speed []float64
	if cfg.Heterogeneity == Consistent {
		speed = make([]float64, cfg.Machines)
		for j := range speed {
			speed[j] = 0.75 + 0.5*rnd.Float64()
		}
	}

	for q := 0; q < cfg.Strings; q++ {
		n := 1 + rnd.Intn(cfg.MaxAppsPerString)
		apps := make([]model.Application, n)
		for i := range apps {
			apps[i] = model.Application{
				NominalTime: make([]float64, cfg.Machines),
				NominalUtil: make([]float64, cfg.Machines),
				OutputKB:    cfg.OutputKB.Sample(rnd),
			}
			base := cfg.NominalTime.Sample(rnd)
			for j := 0; j < cfg.Machines; j++ {
				if cfg.Heterogeneity == Consistent {
					t := base * speed[j]
					if t < cfg.NominalTime.Min {
						t = cfg.NominalTime.Min
					}
					if t > cfg.NominalTime.Max {
						t = cfg.NominalTime.Max
					}
					apps[i].NominalTime[j] = t
				} else {
					apps[i].NominalTime[j] = cfg.NominalTime.Sample(rnd)
				}
				apps[i].NominalUtil[j] = cfg.NominalUtil.Sample(rnd)
			}
		}
		s := model.AppString{
			Worth: pickWorth(cfg, rnd),
			Apps:  apps,
		}
		k := sys.AddString(s)
		str := &sys.Strings[k]

		// Section 8 formulas, on machine-averaged quantities:
		//   Lmax[k] = µ_L × [ Σ_{i<n}(t_av[i] + O[i]/w_av) + t_av[n] ]
		//   P[k]    = µ_P × max( max_i t_av[i], max_{z<n} O[z]/w_av )
		latencyBase := sys.AvgNominalTime(k, n-1)
		periodBase := 0.0
		for i := 0; i < n; i++ {
			t := sys.AvgNominalTime(k, i)
			if t > periodBase {
				periodBase = t
			}
			if i < n-1 {
				tr := 8 * str.Apps[i].OutputKB / 1000 * invBW
				latencyBase += t + tr
				if tr > periodBase {
					periodBase = tr
				}
			}
		}
		str.MaxLatency = cfg.MuLatency.Sample(rnd) * latencyBase
		str.Period = cfg.MuPeriod.Sample(rnd) * periodBase
	}
	if err := sys.Validate(); err != nil {
		return nil, fmt.Errorf("workload: generated invalid system: %w", err)
	}
	return sys, nil
}

// LoadSystem is how the commands get their system: the JSON file inFile when
// one is named, else paper scenario `scenario` generated from seed, with
// stringsOverride strings when that is positive.
func LoadSystem(inFile string, scenario int, seed int64, stringsOverride int) (*model.System, error) {
	if inFile != "" {
		return model.LoadFile(inFile)
	}
	cfg := ScenarioConfig(Scenario(scenario))
	if stringsOverride > 0 {
		cfg.Strings = stringsOverride
	}
	return Generate(cfg, seed)
}

// MustGenerate is Generate for configurations known to be valid (the
// scenario presets); it panics on error.
func MustGenerate(cfg Config, seed int64) *model.System {
	sys, err := Generate(cfg, seed)
	if err != nil {
		panic(err)
	}
	return sys
}

func pickWorth(cfg Config, rnd *rand.Rand) float64 {
	total := 0.0
	for _, w := range cfg.WorthWeights {
		total += w
	}
	r := rnd.Float64() * total
	for idx, w := range cfg.WorthWeights {
		if r < w {
			return cfg.WorthLevels[idx]
		}
		r -= w
	}
	return cfg.WorthLevels[len(cfg.WorthLevels)-1]
}

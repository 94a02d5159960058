// Package soak runs the full reproduction pipeline — workload generation,
// heuristic search, fault sampling and failover, surge sampling and
// degradation control, and discrete-event replay — as one keyed, fingerprinted
// unit, and asserts the determinism contract the keyed rng streams promise:
//
//   - identical SimulationKey ⇒ byte-identical results, across worker counts
//     and across a checkpoint/resume boundary (VerifyDeterminism);
//   - extra draws in one subsystem leave every other subsystem's stream — and
//     therefore every other stage's digest — bit-identical (VerifyIsolation).
//
// Each stage contributes a digest over its complete observable output; the
// run fingerprint hashes the stage digests together. A soak run's identity is
// its SimulationKey "root/soak/0": print it, and anyone can re-run the exact
// pipeline from the key alone (TestSoak's -soak.key).
//
// The package is test-only: every file is a _test.go file, and the harness
// runs as go test ./internal/soak (TestSoak and its -soak.* flags).
package soak

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"time"

	"repro/internal/dynamic"
	"repro/internal/faults"
	"repro/internal/heuristics"
	"repro/internal/overload"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Label is the subsystem label under which a soak run's identity key is
// printed; rng.ParseKey on a printed key recovers the root seed.
const Label = "soak"

// heuristic is the search every soak run uses.
const heuristic = "SeededPSG"

// Config parameterizes one soak pipeline run. Every stage derives its
// randomness from the single root seed through its own subsystem stream, so
// two configs differing only in one stage's parameters replay every other
// stage identically.
type Config struct {
	// Scenario and Strings shape the generated workload (Strings overrides
	// the scenario preset to keep soak instances small).
	Scenario workload.Scenario
	Strings  int
	// PSGPop, PSGIters, PSGTrials and Workers bound the SeededPSG search.
	PSGPop    int
	PSGIters  int
	PSGTrials int
	Workers   int
	// TrialDeadline, when positive, forces the search through the
	// checkpoint/resume path: each search call runs under a context with this
	// wall-clock timeout and interrupted searches resume from their
	// checkpoint until complete. Zero runs the search uninterrupted. The
	// trajectory is bit-identical either way — that is the property the
	// determinism harness exercises.
	TrialDeadline time.Duration
	// Hits and RouteOutages parameterize the sampled fault scenario;
	// FaultWindow and MeanDowntime its timing.
	Hits         int
	RouteOutages int
	FaultWindow  float64
	MeanDowntime float64
	// Bursts and MaxFactor parameterize the sampled surge scenario.
	Bursts    int
	MaxFactor float64
	// Periods is the number of data sets per string in the replay.
	Periods int
	// JournalOps is the length of the keyed op sequence the journal stage
	// drives through a journaled service before recovering it.
	JournalOps int
}

// WithDefaults returns a copy with every zero-valued field replaced by the
// default soak configuration: a reduced scenario-1 instance, a short
// SeededPSG search, one compartment hit plus one route outage with repair,
// three bursts up to 2.5x, and a four-period replay.
func (c Config) WithDefaults() Config {
	if c.Scenario == 0 {
		c.Scenario = workload.HighlyLoaded
	}
	if c.Strings == 0 {
		c.Strings = 15
	}
	if c.PSGPop == 0 {
		c.PSGPop = 30
	}
	if c.PSGIters == 0 {
		c.PSGIters = 80
	}
	if c.PSGTrials == 0 {
		c.PSGTrials = 2
	}
	if c.Hits == 0 {
		c.Hits = 1
	}
	if c.RouteOutages == 0 {
		c.RouteOutages = 1
	}
	if c.FaultWindow == 0 {
		c.FaultWindow = 40
	}
	if c.MeanDowntime == 0 {
		c.MeanDowntime = 25
	}
	if c.Bursts == 0 {
		c.Bursts = 3
	}
	if c.MaxFactor == 0 {
		c.MaxFactor = 2.5
	}
	if c.Periods == 0 {
		c.Periods = 4
	}
	if c.JournalOps == 0 {
		c.JournalOps = 24
	}
	return c
}

// Validate reports configuration errors on the already-defaulted values.
func (c Config) Validate() error {
	switch c.Scenario {
	case workload.HighlyLoaded, workload.QoSLimited, workload.LightlyLoaded:
	default:
		return fmt.Errorf("soak: unknown workload scenario %d", int(c.Scenario))
	}
	if c.Strings < 1 {
		return fmt.Errorf("soak: %d strings, want >= 1", c.Strings)
	}
	if c.TrialDeadline < 0 {
		return fmt.Errorf("soak: trial deadline %v, want >= 0", c.TrialDeadline)
	}
	if c.Periods < 1 {
		return fmt.Errorf("soak: %d periods, want >= 1", c.Periods)
	}
	if c.JournalOps < 1 {
		return fmt.Errorf("soak: %d journal ops, want >= 1", c.JournalOps)
	}
	return nil
}

// Result is the fingerprinted outcome of one soak run. The stage digests are
// hex strings over each stage's complete observable output; Fingerprint
// hashes them together. Two runs agree byte-for-byte exactly when their
// fingerprints agree.
type Result struct {
	Key  rng.SimulationKey
	Seed int64

	SystemDigest  string // generated workload
	AllocDigest   string // search result: mapping, worth, slackness
	DeltaDigest   string // incremental re-analysis of the search allocation
	FaultsDigest  string // sampled fault scenario (stream output only)
	SurgeDigest   string // sampled surge scenario (stream output only)
	ControlDigest string // failover + degradation outcomes (composes the above)
	SimDigest     string // discrete-event replay under faults + surge
	JournalDigest string // journaled service episode + bit-identical recovery

	Fingerprint string

	// Headline metrics, for humans reading soak logs.
	Worth         float64
	NumMapped     int
	FaultRetained float64 // worth ratio after failover
	SurgeRetained float64 // worth ratio after degradation control
	QoSViolations int
	Unfinished    int
	SearchResumes int // checkpoint/resume rounds the search needed (0 = uninterrupted)
}

// maxResumes bounds the checkpoint/resume loop: a deadline so tight that no
// search progress happens per round would otherwise loop forever.
const maxResumes = 10000

// Run executes the pipeline for one root seed.
func Run(cfg Config, seed int64) (*Result, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	out := &Result{Key: rng.Key(seed, Label, 0), Seed: seed}

	// Stage 1: workload. The generator draws from the workload subsystem
	// stream keyed by the root seed.
	wl := workload.ScenarioConfig(cfg.Scenario)
	wl.Strings = cfg.Strings
	sys, err := workload.Generate(wl, seed)
	if err != nil {
		return nil, fmt.Errorf("soak: workload: %w", err)
	}
	d := newDigest()
	d.add(sys.Machines, len(sys.Strings))
	for j1 := range sys.Bandwidth {
		d.addFloats(sys.Bandwidth[j1]...)
	}
	for k := range sys.Strings {
		s := &sys.Strings[k]
		d.add(len(s.Apps))
		d.addFloats(s.Worth, s.Period, s.MaxLatency)
		for i := range s.Apps {
			d.addFloats(s.Apps[i].OutputKB)
			d.addFloats(s.Apps[i].NominalTime...)
			d.addFloats(s.Apps[i].NominalUtil...)
		}
	}
	out.SystemDigest = d.sum()

	// Stage 2: heuristic search, seeded from the search subsystem stream.
	pcfg := heuristics.DefaultPSGConfig()
	pcfg.PopulationSize = cfg.PSGPop
	pcfg.MaxIterations = cfg.PSGIters
	pcfg.StallLimit = cfg.PSGIters
	pcfg.Trials = cfg.PSGTrials
	pcfg.Workers = cfg.Workers
	pcfg.Seed = rng.DeriveSeed(seed, rng.SubsystemSearch)
	// With a TrialDeadline each call gets its own budget; a call the budget
	// cut short returns ErrCanceled with a checkpoint and is resumed.
	var (
		r   *heuristics.Result
		scp *heuristics.SearchCheckpoint
	)
	for {
		ctx, cancel := context.Background(), func() {}
		if cfg.TrialDeadline > 0 {
			ctx, cancel = context.WithTimeout(ctx, cfg.TrialDeadline)
		}
		if scp == nil {
			r, scp, err = heuristics.RunContext(ctx, heuristic, sys, pcfg)
		} else {
			r, scp, err = heuristics.ResumeSearch(ctx, sys, scp)
		}
		cancel()
		if !errors.Is(err, heuristics.ErrCanceled) || scp == nil {
			break
		}
		if out.SearchResumes++; out.SearchResumes > maxResumes {
			return nil, fmt.Errorf("soak: search did not finish within %d resume rounds (deadline %v too tight)",
				maxResumes, cfg.TrialDeadline)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("soak: search: %w", err)
	}
	d = newDigest()
	d.add(r.Name, r.NumMapped)
	d.addFloats(r.Metric.Worth, r.Metric.Slackness)
	for k := range sys.Strings {
		d.add(r.Alloc.Complete(k))
		if r.Alloc.Complete(k) {
			d.add(r.Alloc.StringMachines(k))
		}
	}
	out.AllocDigest = d.sum()
	out.Worth = r.Metric.Worth
	out.NumMapped = r.NumMapped

	// Stage 2b: incremental re-analysis of the search allocation, drawing
	// from the delta subsystem stream (so the fault and surge stages below
	// replay identically whether or not this stage's parameters change). The
	// stage errors the run outright if the delta analyzer ever disagrees with
	// the full two-stage analysis or Undo fails to restore state
	// bit-identically.
	out.DeltaDigest, err = deltaStage(r.Alloc, seed)
	if err != nil {
		return nil, err
	}

	// Stage 3: fault scenario. Sample keys the root seed under the faults
	// subsystem internally, so the draw positions are independent of every
	// other stage.
	mc := faults.MonteCarlo{
		CompartmentHits: cfg.Hits,
		RouteOutages:    cfg.RouteOutages,
		Window:          cfg.FaultWindow,
		MeanDowntime:    cfg.MeanDowntime,
	}
	fsc, err := mc.Sample(sys.Machines, seed)
	if err != nil {
		return nil, fmt.Errorf("soak: faults: %w", err)
	}
	d = newDigest()
	d.add(len(fsc.Events))
	for _, e := range fsc.Events {
		d.add(e.Resource.Kind, e.Resource.Machine, e.Resource.From, e.Resource.To)
		d.addFloats(e.At, e.Duration)
	}
	out.FaultsDigest = d.sum()

	// Stage 4: surge scenario, from the overload subsystem stream.
	burst := overload.Burst{
		Bursts:       cfg.Bursts,
		Window:       cfg.FaultWindow,
		MaxFactor:    cfg.MaxFactor,
		MeanDuration: 20,
		GlobalProb:   0.3,
	}
	ssc, err := burst.Sample(len(sys.Strings), seed)
	if err != nil {
		return nil, fmt.Errorf("soak: surge: %w", err)
	}
	d = newDigest()
	d.add(len(ssc.Events))
	for _, e := range ssc.Events {
		d.add(e.Kind, e.Strings)
		d.addFloats(e.At, e.Duration, e.Factor, e.Rise)
	}
	out.SurgeDigest = d.sum()

	// Stage 5: composed control outcomes — failover against the fault trace
	// and degradation control against the surge trace (with the fault trace
	// on the same timeline). Both legitimately depend on every stage above,
	// so they get their own digest, separate from the pure stream outputs.
	// Failover runs against the collapsed outage set of every resource the
	// scenario ever fails (the static planning view).
	if err := fsc.Validate(sys.Machines); err != nil {
		return nil, fmt.Errorf("soak: failover: %w", err)
	}
	sres, err := dynamic.Survive(r.Alloc.Clone(), faults.SetFromScenario(fsc, sys.Machines))
	if err != nil {
		return nil, fmt.Errorf("soak: failover: %w", err)
	}
	cres, err := overload.Run(r.Alloc.Clone(), ssc, overload.Config{Faults: fsc})
	if err != nil {
		return nil, fmt.Errorf("soak: degradation: %w", err)
	}
	d = newDigest()
	d.add(len(sres.Actions), sres.Evacuated)
	d.addFloats(sres.WorthBefore, sres.WorthAfter, sres.Retained)
	d.add(cres.Shed, cres.Readmitted, cres.Migrated, cres.Feasible)
	d.addFloats(cres.WorthBefore, cres.WorthAfter, cres.Retained, cres.MinRetained, cres.SlacknessAfter)
	out.ControlDigest = d.sum()
	out.FaultRetained = sres.Retained
	out.SurgeRetained = cres.Retained

	// Stage 6: discrete-event replay of the planned mapping under the fault
	// and surge traces together.
	res, err := sim.Run(r.Alloc, sim.Config{
		Periods:  cfg.Periods,
		Failures: fsc.EventsOrNil(),
		Surge:    ssc,
	})
	if err != nil {
		return nil, fmt.Errorf("soak: replay: %w", err)
	}
	d = newDigest()
	d.add(res.QoSViolations, res.Unfinished, res.Events)
	d.addFloats(res.Duration)
	d.addFloats(res.MachineBusySeconds...)
	for k := range res.Strings {
		st := &res.Strings[k]
		d.add(st.Completed, st.ThroughputViolations, st.LatencyViolations)
		d.addFloats(st.MeanLatency, st.MaxLatency)
	}
	out.SimDigest = d.sum()
	out.QoSViolations = res.QoSViolations
	out.Unfinished = res.Unfinished

	// Stage 7: journaled service episode, drawing from the journal subsystem
	// stream. The stage recovers a write-ahead journaled daemon and errors the
	// run outright unless the recovered state is bit-identical to the live one.
	out.JournalDigest, err = journalStage(sys, cfg.JournalOps, seed)
	if err != nil {
		return nil, err
	}

	f := newDigest()
	f.add(out.SystemDigest, out.AllocDigest, out.DeltaDigest, out.FaultsDigest, out.SurgeDigest, out.ControlDigest, out.SimDigest, out.JournalDigest)
	out.Fingerprint = f.sum()
	return out, nil
}

// Stages returns the per-stage digests in pipeline order, labeled.
func (r *Result) Stages() []struct{ Name, Digest string } {
	return []struct{ Name, Digest string }{
		{"system", r.SystemDigest},
		{"alloc", r.AllocDigest},
		{"delta", r.DeltaDigest},
		{"faults", r.FaultsDigest},
		{"surge", r.SurgeDigest},
		{"control", r.ControlDigest},
		{"sim", r.SimDigest},
		{"journal", r.JournalDigest},
	}
}

// digest accumulates stage output into a sha256 sum. Floats are hashed by
// their IEEE 754 bit patterns, so two runs agree on a digest exactly when
// they agree bit-for-bit.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(vs ...any) {
	for _, v := range vs {
		fmt.Fprintf(d.h, "%v|", v)
	}
}

func (d *digest) addFloats(fs ...float64) {
	for _, f := range fs {
		fmt.Fprintf(d.h, "%016x|", math.Float64bits(f))
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

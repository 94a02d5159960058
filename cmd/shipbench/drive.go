package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/model"
	"repro/internal/service"
	"repro/internal/workload"
)

// shipSeed generates every ship. The ship is the fixture: -seed draws the
// request stream and the search trajectory, never the system, so runs with
// different seeds measure the same problem (LP solve time alone moves 75 %
// between scenario-1 systems of different seeds).
const shipSeed = 1

// readEvery is the steady mix's read share: one GET /v1/state per this many
// mutating ops.
const readEvery = 50

// ship is one generated system plus its sizing of each phase.
type ship struct {
	name string
	cfg  workload.Config
	sys  *model.System // pristine; every arm works on its own Clone
	file string        // the system as shipd, shipsched and lpbound load it

	warmOps        int // serve: untimed ops from the empty mapping to the steady mix
	roundOps       int // serve: ops of one round's segment, a whole number of compaction periods
	compactEvery   int // serve: shipd -compact-every (0 = the daemon's default 4096)
	journalRecords int // recover: length of the uncompacted journal
	psgIters       int // plan: GENITOR iterations per trial
	psgTrials      int // plan: GENITOR trials
	// segmentOps, when set, bounds each pass of the traced run over the
	// stream by ops instead of by time (smoke sizes only).
	segmentOps int
	// probePopulation overrides GENITOR's population of 250 in the traced
	// run's in-process PSG probes (0 keeps it). Only the smoke sizes set it:
	// evaluating the initial population is most of a race-detector run.
	probePopulation int
}

// newShip sizes the two workloads for the run length BENCHMARK.json asks for;
// smoke shrinks them to toy sizes that exercise every path.
func newShip(name string, smoke bool) (*ship, error) {
	var sh ship
	switch name {
	case "paper":
		sh = ship{name: name, cfg: workload.ScenarioConfig(workload.HighlyLoaded),
			warmOps: 2000, roundOps: 4096, journalRecords: 10000, psgIters: 100, psgTrials: 1}
	case "fleet":
		sh = ship{name: name, cfg: workload.FleetConfig(128, 2),
			warmOps: 2000, roundOps: 4096, compactEvery: 1024, journalRecords: 20000, psgIters: 40, psgTrials: 1}
	default:
		return nil, fmt.Errorf("unknown workload %q (want paper or fleet)", name)
	}
	if smoke {
		// M=12 with 16 strings and M=64 with 22: small enough for the LP and
		// the PSG control arm to finish in a second under the race detector.
		sh.cfg.Strings = 16
		if name == "fleet" {
			sh.cfg = workload.FleetConfig(64, 0.5)
		}
		sh.warmOps, sh.compactEvery, sh.journalRecords, sh.psgIters, sh.psgTrials = 100, 128, 300, 20, 1
		sh.roundOps, sh.segmentOps, sh.probePopulation = 200, 200, 20
	}
	return &sh, nil
}

// segment bounds one timed pass over the stream: d of wall time, or the
// ship's fixed op count at smoke size.
func (sh *ship) segment(d time.Duration) func(done int) bool {
	if sh.segmentOps > 0 {
		return forOps(sh.segmentOps)
	}
	return forDuration(d)
}

// generate builds the ship's system and saves it into dir, timing both steps.
func (sh *ship) generate(dir string) (gen, save time.Duration, err error) {
	t0 := time.Now()
	sh.sys, err = workload.Generate(sh.cfg, shipSeed)
	if err != nil {
		return 0, 0, err
	}
	gen = time.Since(t0)
	sh.file = filepath.Join(dir, sh.name+"-system.json")
	t0 = time.Now()
	err = sh.sys.SaveFile(sh.file)
	return gen, time.Since(t0), err
}

// arm is one way of executing the stream: the real daemon over HTTP, or a
// shorter rung of the ladder. read is the interleaved full-state read.
type arm interface {
	apply(o op) (accepted bool, err error)
	read() error
}

// svcArm drives a service.Service through its Go methods.
type svcArm struct{ svc *service.Service }

func (a svcArm) apply(o op) (bool, error) {
	var d service.Decision
	var err error
	switch o.Kind {
	case opAdmit:
		d, err = a.svc.Admit(o.K)
	case opRemove:
		d, err = a.svc.Remove(o.K)
	default:
		d, err = a.svc.Rescale(o.K, o.Factor)
	}
	return d.Accepted, err
}

func (a svcArm) read() error {
	_, err := a.svc.State()
	return err
}

// final reports the state the arm ended in; the ladder compares it across rungs.
func (a svcArm) final() (seq uint64, digest string, err error) {
	st, err := a.svc.State()
	return st.Seq, st.Digest, err
}

func (a svcArm) close() { a.svc.Close() }

// tally is the outcome accounting every arm of one stream must agree on.
type tally struct {
	Attempted int
	Failed    int
	Accepted  map[string]int
	Rejected  map[string]int
}

// plus adds two tallies of consecutive segments of one stream.
func (t tally) plus(u tally) tally {
	out := tally{Attempted: t.Attempted + u.Attempted, Failed: t.Failed + u.Failed,
		Accepted: map[string]int{}, Rejected: map[string]int{}}
	for _, k := range opKinds {
		out.Accepted[k] = t.Accepted[k] + u.Accepted[k]
		out.Rejected[k] = t.Rejected[k] + u.Rejected[k]
	}
	return out
}

// checkDecisions checks that two arms decided every op kind alike.
func checkDecisions(name string, got, want tally) check {
	c := check{Name: name, OK: true}
	for _, k := range opKinds {
		if got.Accepted[k] != want.Accepted[k] || got.Rejected[k] != want.Rejected[k] {
			c.OK = false
			c.Detail = fmt.Sprintf("accepted/rejected: got %v/%v, want %v/%v", got.Accepted, got.Rejected, want.Accepted, want.Rejected)
		}
	}
	return c
}

// recorder collects what one pass over the stream observed. Latencies are
// microseconds; a failed op is counted and never enters a latency sample.
type recorder struct {
	tally
	byKind   map[string][]float64
	mutating []float64 // every successful mutating op, in order
	reads    []float64
	wall     time.Duration // summed over the passes that shared this recorder
	firstErr error
}

func newRecorder() *recorder {
	return &recorder{
		tally:  tally{Accepted: map[string]int{}, Rejected: map[string]int{}},
		byKind: map[string][]float64{},
	}
}

func (r *recorder) fail(err error) {
	r.Failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// maxFailures stops a pass whose system under test is evidently gone.
const maxFailures = 50

// drive runs the stream against a until stop says so, interleaving one read
// per readEvery ops when reads is set. stop sees the number of ops done.
func drive(a arm, s *stream, r *recorder, reads bool, stop func(done int) bool) {
	begin := time.Now()
	for i := 0; !stop(i) && r.Failed < maxFailures; i++ {
		o := s.next()
		t0 := time.Now()
		accepted, err := a.apply(o)
		t1 := time.Now()
		r.Attempted++
		if err != nil {
			r.fail(fmt.Errorf("%s %d: %w", o.Kind, o.K, err))
			continue
		}
		s.observe(o, accepted)
		if accepted {
			r.Accepted[o.Kind]++
		} else {
			r.Rejected[o.Kind]++
		}
		us := float64(t1.Sub(t0).Nanoseconds()) / 1e3
		r.byKind[o.Kind] = append(r.byKind[o.Kind], us)
		r.mutating = append(r.mutating, us)
		if reads && (i+1)%readEvery == 0 {
			t0 = time.Now()
			if err := a.read(); err != nil {
				r.fail(fmt.Errorf("read state: %w", err))
				continue
			}
			r.reads = append(r.reads, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	r.wall += time.Since(begin)
}

func forOps(n int) func(int) bool { return func(done int) bool { return done >= n } }

func forDuration(d time.Duration) func(int) bool {
	deadline := time.Now().Add(d)
	return func(int) bool { return !time.Now().Before(deadline) }
}

// quantile returns the q-quantile of xs by nearest rank (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median averages the two middle values of an even-sized sample, which
// matters for the handful of repeats a process-level timing gets.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

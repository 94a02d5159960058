package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"repro/internal/heuristics"
	"repro/internal/lp"
	"repro/internal/service"
	"repro/internal/simplex"
)

// check is one correctness check; a failed check fails every op of the run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func checkEqual(name string, got, want any) check {
	c := check{Name: name, OK: fmt.Sprint(got) == fmt.Sprint(want)}
	if !c.OK {
		c.Detail = fmt.Sprintf("got %v, want %v", got, want)
	}
	return c
}

// serveArgs are the daemon flags of the serve phase.
func (sh *ship) serveArgs(journal string) []string {
	args := []string{"-in", sh.file, "-journal", journal, "-fsync", "batch",
		"-snapshot", filepath.Join(filepath.Dir(journal), "snapshot.json")}
	if sh.compactEvery != 0 {
		args = append(args, "-compact-every", strconv.Itoa(sh.compactEvery))
	}
	return args
}

// served is a warmed-up daemon with the stream that warmed it.
type served struct {
	d     *daemon
	s     *stream
	warm  *recorder
	genS  time.Duration
	saveS time.Duration
}

// startServing is the serve phase's set-up: generate and save the system,
// start shipd on it with a fresh journal, and run the warm-up ops.
func startServing(e env, sh *ship, seed int64, dir string) (*served, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	gen, save, err := sh.generate(dir)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(e, sh.serveArgs(filepath.Join(dir, "serve.wal"))...)
	if err != nil {
		return nil, err
	}
	sv := &served{d: d, s: newStream(seed, sh.name, len(sh.sys.Strings)), warm: newRecorder(),
		genS: gen, saveS: save}
	drive(d, sv.s, sv.warm, false, forOps(sh.warmOps))
	return sv, nil
}

// journalInfo describes the uncompacted journal the recover phase replays.
type journalInfo struct {
	path    string
	records int
	seq     uint64
	digest  string
}

// buildJournal writes an uncompacted journal of the ship's stream in-process
// and records the state it must recover to.
func buildJournal(sh *ship, seed int64, path string) (journalInfo, error) {
	svc, err := service.New(service.Config{System: sh.sys.Clone(), Journal: path, CompactEvery: -1})
	if err != nil {
		return journalInfo{}, err
	}
	defer svc.Close()
	rec := newRecorder()
	drive(svcArm{svc}, newStream(seed, sh.name, len(sh.sys.Strings)), rec, false, forOps(sh.journalRecords))
	if rec.Failed > 0 {
		return journalInfo{}, fmt.Errorf("building journal: %w", rec.firstErr)
	}
	st, err := svc.State()
	if err != nil {
		return journalInfo{}, err
	}
	return journalInfo{path: path, records: sh.journalRecords, seq: st.Seq, digest: st.Digest}, nil
}

// controlArm replays n ops of the stream through an unjournaled in-process
// service: the reference every other arm's final state is checked against.
func controlArm(sh *ship, seed int64, n int) (service.StateResponse, tally, error) {
	svc, err := service.New(service.Config{System: sh.sys.Clone()})
	if err != nil {
		return service.StateResponse{}, tally{}, err
	}
	defer svc.Close()
	rec := newRecorder()
	drive(svcArm{svc}, newStream(seed, sh.name, len(sh.sys.Strings)), rec, false, forOps(n))
	if rec.Failed > 0 {
		return service.StateResponse{}, tally{}, rec.firstErr
	}
	st, err := svc.State()
	return st, rec.tally, err
}

// serveOutcome is what the serve phase hands to reporting.
type serveOutcome struct {
	counters map[string]int64
	checks   []check
}

// finishServing reads the daemon's final state and counters and checks the outcome against the control arm.
func finishServing(sh *ship, seed int64, sv *served, timed tally) (*serveOutcome, error) {
	out := &serveOutcome{}
	final, err := sv.d.state()
	if err != nil {
		return nil, err
	}
	if out.counters, err = sv.d.counters(); err != nil {
		return nil, err
	}
	decided := sv.warm.Attempted - sv.warm.Failed + timed.Attempted - timed.Failed
	want, wantTally, err := controlArm(sh, seed, decided)
	if err != nil {
		return nil, fmt.Errorf("control arm: %w", err)
	}
	out.checks = []check{
		checkEqual("serve.seq", final.Seq, want.Seq),
		checkEqual("serve.digest", final.Digest, want.Digest),
		checkDecisions("serve.decisions", sv.warm.tally.plus(timed), wantTally),
	}
	return out, nil
}

var replayedRE = regexp.MustCompile(`(\d+) ops replayed`)

// recovery is one timed restart of shipd on the journal.
type recovery struct {
	startToReady time.Duration
	checks       []check
}

// recoverOnce starts shipd on the journal, waits for readiness, and checks
// that it recovered every record to the recorded state.
func recoverOnce(e env, j journalInfo) (recovery, error) {
	d, err := startDaemon(e, "-journal", j.path, "-compact-every", "-1")
	if err != nil {
		return recovery{}, err
	}
	defer d.stop()
	st, err := d.state()
	if err != nil {
		return recovery{}, err
	}
	replayed := "none"
	if m := replayedRE.FindSubmatch(d.output()); m != nil {
		replayed = string(m[1])
	}
	return recovery{startToReady: d.startToReady, checks: []check{
		checkEqual("recover.seq", st.Seq, j.seq),
		checkEqual("recover.digest", st.Digest, j.digest),
		checkEqual("recover.replayed", replayed, j.records),
	}}, nil
}

// runTimed runs a planning binary to completion and returns its process wall
// time and standard output.
func runTimed(e env, name string, args ...string) (time.Duration, []byte, error) {
	cmd := exec.CommandContext(e.ctx, filepath.Join(e.bin, name), args...)
	cmd.Dir = e.work
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %v: %v\n%s%s", name, args, err, out.Bytes(), errOut.Bytes())
	}
	return wall, out.Bytes(), nil
}

var (
	psgMetricRE = regexp.MustCompile(`total worth: (\S+)\s+system slackness: (\S+)`)
	psgItersRE  = regexp.MustCompile(`GENITOR: (\d+) iterations, (\d+) evaluations`)
	lpStatusRE  = regexp.MustCompile(`status: optimal \((\d+) simplex iterations`)
	lpBoundRE   = regexp.MustCompile(`upper bound on total worth: (\S+)`)
)

func (sh *ship) psgConfig(seed int64, workers int) heuristics.PSGConfig {
	cfg := heuristics.DefaultPSGConfig()
	cfg.MaxIterations = sh.psgIters
	cfg.Trials = sh.psgTrials
	cfg.Seed = seed
	cfg.Workers = workers
	return cfg
}

// psgArgs is the shipsched command line of the plan phase. One worker: the
// sandbox has two cores and -workers 2 spread 10 % where -workers 1 repeated
// within 2 %.
func (sh *ship) psgArgs(seed int64) []string {
	return []string{"-in", sh.file, "-seed", strconv.FormatInt(seed, 10), "-heuristic", "PSG",
		"-psg-iters", strconv.Itoa(sh.psgIters), "-psg-trials", strconv.Itoa(sh.psgTrials), "-workers", "1"}
}

// lpArgs is the lpbound command line: the relaxed worth bound. The full
// formulation is never run (at scenario 1 it passed 7.8 GB and ten minutes
// without finishing).
func (sh *ship) lpArgs() []string {
	return []string{"-in", sh.file, "-objective", "worth", "-form", "relaxed"}
}

// planControl computes in-process what shipsched and lpbound must print.
type planControl struct {
	psg   *heuristics.Result
	bound *lp.Bound
}

func planReference(sh *ship, seed int64) (planControl, error) {
	// Any worker count returns the same result, so the control arm may use
	// every core while the timed processes use one.
	r := heuristics.Run("PSG", sh.sys.Clone(), sh.psgConfig(seed, 0))
	b, err := lp.UpperBound(sh.sys.Clone(), lp.Config{Formulation: lp.Relaxed, Objective: lp.MaximizeWorth})
	if err != nil {
		return planControl{}, err
	}
	if b.Status != simplex.Optimal {
		return planControl{}, fmt.Errorf("control LP status %v", b.Status)
	}
	return planControl{psg: r, bound: b}, nil
}

func (pc planControl) checkPSG(out []byte) []check {
	m, it := psgMetricRE.FindSubmatch(out), psgItersRE.FindSubmatch(out)
	if m == nil || it == nil {
		return []check{{Name: "plan.psg.output", Detail: "unparsable shipsched output: " + string(out)}}
	}
	return []check{
		checkEqual("plan.psg.worth", string(m[1]), fmt.Sprintf("%.0f", pc.psg.Metric.Worth)),
		checkEqual("plan.psg.slackness", string(m[2]), fmt.Sprintf("%.4f", pc.psg.Metric.Slackness)),
		checkEqual("plan.psg.iterations", string(it[1]), pc.psg.Iterations),
		checkEqual("plan.psg.evaluations", string(it[2]), pc.psg.Evaluations),
	}
}

func (pc planControl) checkLP(out []byte) []check {
	st, b := lpStatusRE.FindSubmatch(out), lpBoundRE.FindSubmatch(out)
	if st == nil || b == nil {
		return []check{{Name: "plan.lp.output", Detail: "unparsable lpbound output: " + string(out)}}
	}
	return []check{
		checkEqual("plan.lp.bound", string(b[1]), fmt.Sprintf("%.4f", pc.bound.Objective)),
		checkEqual("plan.lp.iterations", string(st[1]), pc.bound.Iterations),
		{Name: "plan.lp.dominates", OK: pc.bound.Objective >= pc.psg.Metric.Worth,
			Detail: fmt.Sprintf("LP bound %.4f, PSG worth %.0f", pc.bound.Objective, pc.psg.Metric.Worth)},
	}
}

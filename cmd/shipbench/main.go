// Command shipbench is the repository's benchmark. One run takes one ship (a
// generated system) through the three things the repository's programs do for
// a user, each against the real binary:
//
//	serve    a real shipd over one HTTP connection, closed loop, a seeded
//	         stationary stream of admit/remove/rescale with interleaved reads
//	recover  shipd restarted on an uncompacted journal, process start → ready
//	plan     shipsched (PSG) and lpbound (relaxed LP bound) as processes
//
// and checks every result against an in-process control arm. With -trace 1
// it instead replays the stream down a ladder of ever shorter call paths
// (wire → handler → service → service-nojournal → core) and times the
// exported functions of each layer from outside.
//
//	go run ./cmd/shipbench                                  # both ships, end to end
//	go run ./cmd/shipbench -workload fleet -seed 7 -trace 1 # per-layer table
//	go run ./cmd/shipbench -compare a.jsonl b.jsonl         # two sets of -out runs
//
// See README.md in this directory for the load model and the baseline table.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	seed     int64
	seconds  float64
	smoke    bool
	trace    bool
	traceOut string
}

// value is one reported metric value.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many measurements the value summarises (0 for a count
	// read from the program).
	Samples int `json:"samples,omitempty"`
	// Rounds are the per-round values of an end-to-end timing metric at the
	// host's nominal speed, in the order measured, and Raw the same values as
	// measured; Value is the median of Rounds.
	Rounds []float64 `json:"rounds,omitempty"`
	Raw    []float64 `json:"raw,omitempty"`
}

// result is the outcome of one run; contractLine prints it as the last line
// of standard output in the shape the benchmark contract fixes.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// contractLine renders the result with each metric as exactly value and unit.
func (r result) contractLine() []byte {
	type bare struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]bare, len(r.Metrics))
	for name, v := range r.Metrics {
		metrics[name] = bare{v.Value, v.Unit}
	}
	line, _ := json.Marshal(map[string]any{ // cannot fail: numbers, strings and bools only
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics})
	return line
}

// record is one run as -out appends it and -compare reads it.
type record struct {
	Workload string            `json:"workload"`
	Trace    bool              `json:"trace"`
	Seed     int64             `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Env      map[string]string `json:"env"`
	Checks   []check           `json:"checks"`
	result
}

func main() {
	pinToOneCPU()
	os.Exit(run())
}

// pinnedEnv marks a process already re-executed under taskset; its value is
// "<cpu>/<nproc before pinning>".
const pinnedEnv = "SHIPBENCH_PINNED"

// pinToOneCPU re-executes the benchmark under taskset(1), so that the load
// generator and every process it starts share one CPU. In a closed loop the
// client and the daemon are never runnable together, so one CPU is enough,
// and on the 2-vCPU sandbox handing each request to the other vCPU cost about
// 100 us per op (admit p50 97 us pinned, 186 to 207 us unpinned, same minute)
// and moved by half as the host's load changed. Without taskset the run goes
// on unpinned and says so in its header.
func pinToOneCPU() {
	if os.Getenv(pinnedEnv) != "" {
		return
	}
	taskset, err := exec.LookPath("taskset")
	if err != nil {
		return
	}
	self, err := os.Executable()
	if err != nil {
		return
	}
	nproc := runtime.NumCPU()
	cpu := fmt.Sprint(nproc - 1)
	env := append(os.Environ(), fmt.Sprintf("%s=%s/%d", pinnedEnv, cpu, nproc))
	argv := append([]string{"taskset", "-c", cpu, self}, os.Args[1:]...)
	_ = syscall.Exec(taskset, argv, env) // returns only on failure: carry on unpinned
}

func run() int {
	var o options
	workload := flag.String("workload", "", "ship to run: paper | fleet (default: both, one after the other)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the request stream and the PSG search")
	flag.Float64Var(&o.seconds, "seconds", 40, "seconds of timed work per run: rounds of a serve segment, a recovery, a PSG run and an LP run until they are used up")
	trace := flag.Int("trace", 0, "1: run the layer ladder and probes and report the per-layer metrics instead")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1, write the ladder's spans to this JSONL file, one per ship (spans.jsonl becomes spans.paper.jsonl)")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizes (M=12 and M=64, a few hundred ops): exercises every path, measures nothing")
	out := flag.String("out", "", "append each run's record to this JSONL file (input of -compare)")
	compare := flag.Bool("compare", false, "compare two -out files: shipbench -compare a.jsonl b.jsonl")
	flag.Parse()
	o.trace = *trace != 0

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: shipbench -compare a.jsonl b.jsonl")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "shipbench:", err)
		return 1
	}
	// Everything the benchmark writes stays under .bench_build in the
	// checkout: the binaries under test and one private directory per run.
	build := filepath.Join(root, ".bench_build")
	e := env{ctx: ctx, bin: filepath.Join(build, "bin")}
	if err := os.MkdirAll(e.bin, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "shipbench:", err)
		return 1
	}
	if e.work, err = os.MkdirTemp(build, "run-"); err != nil {
		fmt.Fprintln(os.Stderr, "shipbench:", err)
		return 1
	}
	defer os.RemoveAll(e.work)

	t0 := time.Now()
	if err := buildBinaries(ctx, root, e.bin); err != nil {
		fmt.Fprintln(os.Stderr, "shipbench:", err)
		return 1
	}
	envInfo := describeEnv(root)
	fmt.Printf("shipbench: built shipd, shipsched, lpbound in %.1f s\n", time.Since(t0).Seconds())
	for _, k := range []string{"command", "git_rev", "go", "nproc", "pinned", "cpu"} {
		fmt.Printf("  %-8s %s\n", k, envInfo[k])
	}

	names := []string{*workload}
	if *workload == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	code := 0
	for _, name := range names {
		sh, err := newShip(name, o.smoke)
		if err != nil {
			fmt.Fprintln(os.Stderr, "shipbench:", err)
			return 2
		}
		dir := filepath.Join(e.work, name)
		var res result
		var checks []check
		if o.trace {
			res, checks, err = runTrace(e, sh, o, dir)
		} else {
			res, checks, err = runEndToEnd(e, sh, o, dir)
		}
		if err != nil {
			// No result line: the run could not be completed at all.
			if ctx.Err() != nil {
				err = fmt.Errorf("interrupted (%v)", err)
			}
			fmt.Fprintf(os.Stderr, "shipbench: %s: %v\n", name, err)
			return 1
		}
		defs := endToEnd
		if o.trace {
			defs = perLayer
		}
		printReport(os.Stdout, name, o, defs, res, checks)
		if *out != "" {
			rec := record{Workload: name, Trace: o.trace, Seed: o.seed, Seconds: o.seconds,
				Env: envInfo, Checks: checks, result: res}
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintln(os.Stderr, "shipbench:", err)
				return 1
			}
		}
		fmt.Printf("%s\n", res.contractLine())
		if !res.Correct || res.Failed > 0 {
			code = 1
		}
	}
	return code
}

// describeEnv records where and how the numbers were taken.
func describeEnv(root string) map[string]string {
	info := map[string]string{
		"command": strings.Join(os.Args, " "),
		"go":      runtime.Version(),
		"nproc":   fmt.Sprint(runtime.NumCPU()),
		"pinned":  "no (taskset not found)",
		"cpu":     "unknown",
		"git_rev": "unknown",
	}
	if cpu, nproc, ok := strings.Cut(os.Getenv(pinnedEnv), "/"); ok {
		info["nproc"], info["pinned"] = nproc, "to CPU "+cpu+" with every child process"
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				info["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if rev, err := cmd.Output(); err == nil {
		info["git_rev"] = strings.TrimSpace(string(rev))
	}
	return info
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printReport prints every metric by name with its unit and sample count,
// then the checks.
func printReport(w *os.File, name string, o options, defs []metricDef, res result, checks []check) {
	mode := "end to end, timings at the host's nominal speed, median of n rounds"
	if o.trace {
		mode = "per layer"
	}
	fmt.Fprintf(w, "\n%s, %s (seed %d, %g s): ops_attempted %d, ops_failed %d\n",
		name, mode, o.seed, o.seconds, res.Attempted, res.Failed)
	for _, d := range defs {
		v := res.Metrics[d.Name]
		n := ""
		if v.Samples > 0 {
			n = fmt.Sprintf("  (n=%d)", v.Samples)
		}
		fmt.Fprintf(w, "  %-36s %14.4f %-6s%s\n", d.Name, v.Value, v.Unit, n)
	}
	for _, c := range checks {
		if !c.OK {
			fmt.Fprintf(w, "  CHECK FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	fmt.Fprintf(w, "  checks: %d run, %d failed\n", len(checks), countFailed(checks))
}

func countFailed(checks []check) int {
	n := 0
	for _, c := range checks {
		if !c.OK {
			n++
		}
	}
	return n
}

// Sizing of the timed part of an end-to-end run.
const (
	// setUps is how many times a run sets up; setup_s is their median.
	setUps = 5
	// minRounds is the fewest rounds a run measures, whatever -seconds says.
	minRounds = 3
)

// roundSamples collects every timing metric's per-round values, as measured
// and at the host's nominal speed.
type roundSamples struct {
	raw, nominal map[string][]float64
}

// add records one round's value of a metric, measured while the host ran at
// the given slowdown.
func (rs roundSamples) add(name string, v, slowdown float64) {
	for _, d := range endToEnd {
		if d.Name == name {
			rs.raw[name] = append(rs.raw[name], v)
			rs.nominal[name] = append(rs.nominal[name], atNominal(d, v, slowdown))
			return
		}
	}
	panic("shipbench: metric " + name + " has no definition") // a bug in this package, never input
}

// addMedian adds the median of one round's latencies, if it took any.
func (rs roundSamples) addMedian(name string, us []float64, slowdown float64) {
	if len(us) > 0 {
		rs.add(name, median(us), slowdown)
	}
}

// runEndToEnd takes the ship through set-up, then through rounds of serve,
// recover and plan with tracing off, and reports the end-to-end metrics.
//
// The timed part is cut into rounds of equal work, each a serve segment of
// the ship's roundOps followed by one timed start of each process, so that
// every metric's samples are spread over the whole run. Each sample is taken
// between two readings of the yardstick and converted to the host's nominal
// speed (see yardstick.go); the reported value is the median of the rounds.
func runEndToEnd(e env, sh *ship, o options, dir string) (result, []check, error) {
	budget := time.Duration(o.seconds * float64(time.Second))
	setups, least := setUps, minRounds
	if o.smoke {
		setups, least = 1, 1
	}
	host, err := newHostClock(o.smoke)
	if err != nil {
		return result{}, nil, fmt.Errorf("yardstick: %w", err)
	}
	defer host.close()
	samples := roundSamples{raw: map[string][]float64{}, nominal: map[string][]float64{}}

	// Set-up, several times over so that the median is a steady number: the
	// system, a warmed-up daemon, and the journal the recover phase replays.
	// The last one is kept and measured.
	var (
		sv      *served
		journal journalInfo
	)
	for i := 0; i < setups; i++ {
		if sv != nil {
			sv.d.stop()
		}
		var took time.Duration
		slowdown, err := host.during(func() (err error) {
			t0 := time.Now()
			sv, journal, err = setUp(e, sh, o.seed, filepath.Join(dir, fmt.Sprintf("setup%d", i)))
			took = time.Since(t0)
			return err
		})
		if err != nil {
			return result{}, nil, err
		}
		samples.add("setup_s", took.Seconds(), slowdown)
	}
	defer sv.d.stop()

	// Untimed: the plan phase's control arm, and one discarded recovery.
	ref, err := planReference(sh, o.seed)
	if err != nil {
		return result{}, nil, err
	}
	warm, err := recoverOnce(e, journal)
	if err != nil {
		return result{}, nil, err
	}
	checks := warm.checks

	var timed tally // of every round's serve segment
	begin := time.Now()
	if err := host.read(); err != nil {
		return result{}, nil, fmt.Errorf("yardstick: %w", err)
	}
	for i := 0; ; i++ {
		t0 := time.Now()
		seg := newRecorder()
		slowdown, err := host.during(func() error {
			drive(sv.d, sv.s, seg, true, forOps(sh.roundOps))
			return nil // failed ops are counted in seg
		})
		if err != nil {
			return result{}, nil, fmt.Errorf("yardstick: %w", err)
		}
		timed = timed.plus(seg.tally)
		samples.add("ops_per_s", float64(len(seg.mutating))/seg.wall.Seconds(), slowdown)
		samples.addMedian("admit_p50_us", seg.byKind[opAdmit], slowdown)
		samples.addMedian("remove_p50_us", seg.byKind[opRemove], slowdown)
		samples.addMedian("rescale_p50_us", seg.byKind[opRescale], slowdown)
		samples.addMedian("state_read_p50_us", seg.reads, slowdown)

		var r recovery
		if slowdown, err = host.during(func() (err error) {
			r, err = recoverOnce(e, journal)
			return err
		}); err != nil {
			return result{}, nil, err
		}
		samples.add("recovery_s", r.startToReady.Seconds(), slowdown)
		checks = append(checks, r.checks...)

		var wall time.Duration
		var stdout []byte
		if slowdown, err = host.during(func() (err error) {
			wall, stdout, err = runTimed(e, "shipsched", sh.psgArgs(o.seed)...)
			return err
		}); err != nil {
			return result{}, nil, err
		}
		samples.add("psg_wall_s", wall.Seconds(), slowdown)
		checks = append(checks, ref.checkPSG(stdout)...)

		if slowdown, err = host.during(func() (err error) {
			wall, stdout, err = runTimed(e, "lpbound", sh.lpArgs()...)
			return err
		}); err != nil {
			return result{}, nil, err
		}
		samples.add("lpbound_wall_s", wall.Seconds(), slowdown)
		checks = append(checks, ref.checkLP(stdout)...)

		// Stop when another round like this one would overrun -seconds.
		if i+1 >= least && time.Since(begin)+time.Since(t0) > budget {
			break
		}
	}

	served, err := finishServing(sh, o.seed, sv, timed)
	if err != nil {
		return result{}, nil, err
	}
	checks = append(checks, served.checks...)
	processes := len(samples.raw["recovery_s"]) + len(samples.raw["psg_wall_s"]) + len(samples.raw["lpbound_wall_s"])
	attempted := sv.warm.Attempted + timed.Attempted + processes
	failed := sv.warm.Failed + timed.Failed

	appends := served.counters["service.journal.appends"]
	if appends == 0 {
		return result{}, nil, fmt.Errorf("daemon reports no journal appends")
	}
	ms := newMetricSet(endToEnd)
	ms.put("wal_bytes_per_op", float64(served.counters["service.journal.append_bytes"])/float64(appends), 0)
	for _, d := range endToEnd {
		if nominal, ok := samples.nominal[d.Name]; ok {
			ms.putRounds(d.Name, median(nominal), nominal, samples.raw[d.Name])
		}
	}
	if len(ms.values) != len(endToEnd) {
		return result{}, nil, fmt.Errorf("the timed ops left a metric without a sample: %d ops in %d rounds", timed.Attempted, len(samples.raw["ops_per_s"]))
	}
	return finish(ms, attempted, failed, checks), checks, nil
}

// setUp is one complete set-up: a warmed-up daemon on a freshly generated
// system, and the uncompacted journal of the same stream.
func setUp(e env, sh *ship, seed int64, dir string) (*served, journalInfo, error) {
	sv, err := startServing(e, sh, seed, dir)
	if err != nil {
		return nil, journalInfo{}, err
	}
	journal, err := buildJournal(sh, seed, filepath.Join(dir, "recover.wal"))
	if err != nil {
		sv.d.stop()
		return nil, journalInfo{}, err
	}
	return sv, journal, nil
}

// finish applies the correctness gate: one failed check fails every op.
func finish(ms *metricSet, attempted, failed int, checks []check) result {
	correct := countFailed(checks) == 0
	if !correct {
		failed = attempted
	}
	return result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: ms.values}
}

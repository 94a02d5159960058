// Package crashtest is the crash-injection harness for the shipd write-ahead
// journal: it drives a real shipd process through a randomized op stream,
// kills it at keyed-random points — SIGKILL between ops, SIGKILL racing an
// in-flight request, and torn writes mid-append via the injectable fault
// point (SHIPD_JOURNAL_CRASH_BYTES) — restarts it with the same -journal, and
// verifies after every recovery that the daemon's state is bit-identical to
// an uninterrupted in-process control arm advanced over the same ops.
//
// The op stream is not a pre-recorded list: the op taken at sequence S is a
// deterministic function of S and the observable state (so both arms derive
// it independently, and the crash arm resumes mid-stream from whatever seq it
// recovered to). Every generated op produces a Decision — conflicts are
// designed out by drawing admits from the unmapped set and removals from the
// mapped set — so sequence numbers and op steps stay one-to-one.
//
// Per recovery the harness asserts:
//
//   - recovered seq S is within [lastAcked, lastAcked+1]: no acknowledged op
//     is ever lost (the durability contract), and at most the single
//     in-flight op may have landed without its reply (the indeterminate op).
//   - the recovered digest equals the control arm's digest at seq S.
//   - replay-dedupe: re-sending the last acknowledged accepted admit is
//     rejected with a conflict envelope, exactly as the live path would.
package crashtest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/workload"
)

// lockedBuffer collects child-process output; os/exec writes it from a copy
// goroutine, so reads while the daemon is alive must synchronize.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// Config parameterizes a harness run.
type Config struct {
	Seed    int64 // keys the kill schedule and the op stream
	Cycles  int   // crash/recover cycles
	Strings int   // workload size (scenario 1, strings overridden)
	Logf    func(format string, args ...any)
}

// Result summarizes a harness run.
type Result struct {
	Cycles    int
	FinalSeq  uint64
	Digest    string
	TornTails int // recoveries that reported a discarded torn tail
	Skipped   int // recoveries that skipped already-compacted records
}

// opSpec is one derived operation.
type opSpec struct {
	kind   string // "admit" | "remove" | "rescale" | "faults"
	k      int
	factor float64
	res    faults.Resource
	fail   bool
}

// nextOp derives the op for the S -> S+1 transition from the observable
// state. Both arms call this with bit-identical states, so they derive
// identical ops.
func nextOp(seed int64, st *service.StateResponse) opSpec {
	r := rng.NewRand(seed, "crashtest", int64(st.Seq))
	var mapped, unmapped []int
	for _, ss := range st.StringStates {
		if ss.Mapped {
			mapped = append(mapped, ss.ID)
		} else {
			unmapped = append(unmapped, ss.ID)
		}
	}
	p := r.Intn(100)
	switch {
	case p < 45:
		if len(unmapped) == 0 {
			return opSpec{kind: "remove", k: mapped[r.Intn(len(mapped))]}
		}
		return opSpec{kind: "admit", k: unmapped[r.Intn(len(unmapped))]}
	case p < 65:
		if len(mapped) == 0 {
			return opSpec{kind: "admit", k: unmapped[r.Intn(len(unmapped))]}
		}
		return opSpec{kind: "remove", k: mapped[r.Intn(len(mapped))]}
	case p < 90:
		return opSpec{kind: "rescale", k: r.Intn(st.Strings), factor: 0.6 + 0.9*r.Float64()}
	default:
		return opSpec{kind: "faults", res: faults.Machine(r.Intn(st.Machines)), fail: r.Intn(2) == 0}
	}
}

// controlArm is the uninterrupted in-process reference daemon.
type controlArm struct {
	svc *service.Service
}

func newControlArm(seed int64, nStrings int) (*controlArm, error) {
	cfg := workload.ScenarioConfig(workload.Scenario(1))
	cfg.Strings = nStrings
	sys, err := workload.Generate(cfg, seed)
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Config{System: sys})
	if err != nil {
		return nil, err
	}
	return &controlArm{svc: svc}, nil
}

// advanceTo steps the control arm to sequence number seq.
func (c *controlArm) advanceTo(seed int64, seq uint64) error {
	for {
		st, err := c.svc.State()
		if err != nil {
			return err
		}
		if st.Seq == seq {
			return nil
		}
		if st.Seq > seq {
			return fmt.Errorf("control arm overshot: at seq %d, want %d", st.Seq, seq)
		}
		op := nextOp(seed, &st)
		if err := c.apply(op); err != nil {
			return fmt.Errorf("control op at seq %d (%+v): %w", st.Seq, op, err)
		}
	}
}

func (c *controlArm) apply(op opSpec) error {
	var err error
	switch op.kind {
	case "admit":
		_, err = c.svc.Admit(op.k)
	case "remove":
		_, err = c.svc.Remove(op.k)
	case "rescale":
		_, err = c.svc.Rescale(op.k, op.factor)
	case "faults":
		req := service.FaultsRequest{}
		if op.fail {
			req.Fail = []faults.Resource{op.res}
		} else {
			req.Repair = []faults.Resource{op.res}
		}
		_, err = c.svc.Faults(req)
	default:
		err = fmt.Errorf("unknown op kind %q", op.kind)
	}
	return err
}

func (c *controlArm) digestAndSeq() (string, uint64, error) {
	st, err := c.svc.State()
	if err != nil {
		return "", 0, err
	}
	return st.Digest, st.Seq, nil
}

// httpArm talks to the real shipd process.
type httpArm struct {
	base   string
	client *http.Client
}

// errDaemonGone marks a request that failed at the transport layer — the
// expected symptom of the daemon dying under us.
var errDaemonGone = errors.New("crashtest: daemon gone")

func (h *httpArm) state() (*service.StateResponse, error) {
	resp, err := h.client.Get(h.base + "/v1/state")
	if err != nil {
		return nil, errDaemonGone
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/state: status %d", resp.StatusCode)
	}
	var st service.StateResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, errDaemonGone
	}
	return &st, nil
}

// post sends one op payload; a Decision (accepted or rejected) comes back
// with its seq, an envelope error fails the harness, a transport error means
// the daemon died.
func (h *httpArm) post(path string, payload any) (*service.Decision, error) {
	body, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	resp, err := h.client.Post(h.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, errDaemonGone
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusUnprocessableEntity:
		var d service.Decision
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			return nil, errDaemonGone // reply cut mid-body
		}
		return &d, nil
	default:
		var env service.ErrorEnvelope
		_ = json.NewDecoder(resp.Body).Decode(&env)
		return nil, fmt.Errorf("POST %s: status %d, code %q", path, resp.StatusCode, env.Err.Code)
	}
}

func (h *httpArm) apply(op opSpec) (*service.Decision, error) {
	switch op.kind {
	case "admit":
		return h.post("/v1/admit", service.AdmitRequest{StringID: op.k})
	case "remove":
		return h.post("/v1/remove", service.RemoveRequest{StringID: op.k})
	case "rescale":
		return h.post("/v1/rescale", service.RescaleRequest{StringID: op.k, Factor: op.factor})
	case "faults":
		req := service.FaultsRequest{}
		if op.fail {
			req.Fail = []faults.Resource{op.res}
		} else {
			req.Repair = []faults.Resource{op.res}
		}
		return h.post("/v1/faults", req)
	}
	return nil, fmt.Errorf("unknown op kind %q", op.kind)
}

// BuildShipd compiles the shipd binary into dir and returns its path.
func BuildShipd(dir string) (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "shipd")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/shipd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build shipd: %v\n%s", err, out)
	}
	return bin, nil
}

func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("crashtest: go.mod not found above working directory")
		}
		dir = parent
	}
}

// freeAddr reserves a loopback port and releases it for the daemon to bind.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// daemon is one shipd process lifetime.
type daemon struct {
	cmd    *exec.Cmd
	out    *lockedBuffer
	exited chan struct{} // closed once the process has been reaped
}

func startDaemon(bin, addr, journalPath, fsyncPolicy string, compactEvery int, seed int64, nStrings int, crashBytes int64) (*daemon, error) {
	args := []string{
		"-addr", addr,
		"-scenario", "1",
		"-strings", fmt.Sprint(nStrings),
		"-seed", fmt.Sprint(seed),
		"-journal", journalPath,
		"-fsync", fsyncPolicy,
		"-compact-every", fmt.Sprint(compactEvery),
		"-snapshot", journalPath + ".manual.json",
	}
	cmd := exec.Command(bin, args...)
	out := &lockedBuffer{}
	cmd.Stdout = out
	cmd.Stderr = out
	cmd.Env = os.Environ()
	if crashBytes > 0 {
		cmd.Env = append(cmd.Env, fmt.Sprintf("SHIPD_JOURNAL_CRASH_BYTES=%d", crashBytes))
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, out: out, exited: make(chan struct{})}
	go func() { _ = cmd.Wait(); close(d.exited) }()
	return d, nil
}

// waitReady polls readyz until the daemon serves, it exits, or the deadline
// passes. Returns false if the process died first (a legitimate kill point
// when the crash fault fires during startup).
func (d *daemon) waitReady(base string, timeout time.Duration) (bool, error) {
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: 250 * time.Millisecond}
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return false, nil
		default:
		}
		resp, err := client.Get(base + "/v1/readyz")
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusOK {
				return true, nil
			}
		}
		time.Sleep(15 * time.Millisecond)
	}
	return false, fmt.Errorf("daemon not ready after %v; output:\n%s", timeout, d.out.String())
}

// kill SIGKILLs the daemon and waits for the reaper.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// reap waits for a daemon that is expected to die on its own (crash fault).
func (d *daemon) reap(timeout time.Duration) {
	select {
	case <-d.exited:
	case <-time.After(timeout):
		d.kill()
	}
}

// Run executes the harness: Cycles crash/recover rounds against one journal,
// each verified against the control arm, plus a final clean recovery.
func Run(cfg Config) (*Result, error) {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Cycles <= 0 {
		cfg.Cycles = 20
	}
	if cfg.Strings <= 0 {
		cfg.Strings = 16
	}
	dir, err := os.MkdirTemp("", "crashtest-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	bin, err := BuildShipd(dir)
	if err != nil {
		return nil, err
	}
	journalPath := filepath.Join(dir, "shipd.wal")
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	base := "http://" + addr
	arm := &httpArm{base: base, client: &http.Client{Timeout: 10 * time.Second}}
	ctl, err := newControlArm(cfg.Seed, cfg.Strings)
	if err != nil {
		return nil, err
	}
	defer ctl.svc.Close()

	sched := rng.NewRand(cfg.Seed, "crashtest-sched", 0)
	res := &Result{}
	var lastAcked uint64
	var lastAckedAdmit *service.Decision

	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		fsyncPolicy := []string{"always", "batch", "none"}[cycle%3]
		compactEvery := []int{0, 5, 9}[cycle%3] // 0 = default (no compaction at this scale)
		mode := sched.Intn(3)                   // 0: kill between ops, 1: torn write mid-append, 2: kill racing a request

		var crashBytes int64
		if mode == 1 {
			size := int64(0)
			if info, err := os.Stat(journalPath); err == nil {
				size = info.Size()
			}
			crashBytes = size + 120 + int64(sched.Intn(1400))
		}
		d, err := startDaemon(bin, addr, journalPath, fsyncPolicy, compactEvery, cfg.Seed, cfg.Strings, crashBytes)
		if err != nil {
			return nil, err
		}
		ready, err := d.waitReady(base, 30*time.Second)
		if err != nil {
			d.kill()
			return nil, fmt.Errorf("cycle %d: %v", cycle, err)
		}
		out := d.out.String()
		if strings.Contains(out, "torn tail") {
			res.TornTails++
		}
		if strings.Contains(out, "skipped") && !strings.Contains(out, " 0 skipped") {
			res.Skipped++
		}
		if !ready {
			// The crash fault fired during startup (journal header append):
			// a legitimate kill point; the next cycle recovers from it.
			cfg.Logf("cycle %d: daemon died during startup (crash fault at %d bytes)", cycle, crashBytes)
			continue
		}

		// Recovery checkpoint: seq within [lastAcked, lastAcked+1], state
		// bit-identical to the control arm at the same seq.
		st, err := arm.state()
		if err != nil {
			d.kill()
			return nil, fmt.Errorf("cycle %d: state after recovery: %v", cycle, err)
		}
		if st.Seq < lastAcked || st.Seq > lastAcked+1 {
			d.kill()
			return nil, fmt.Errorf("cycle %d: recovered seq %d outside [%d, %d]: an acked op was lost or invented",
				cycle, st.Seq, lastAcked, lastAcked+1)
		}
		if err := ctl.advanceTo(cfg.Seed, st.Seq); err != nil {
			d.kill()
			return nil, fmt.Errorf("cycle %d: %v", cycle, err)
		}
		ctlDigest, ctlSeq, err := ctl.digestAndSeq()
		if err != nil {
			d.kill()
			return nil, err
		}
		if st.Digest != ctlDigest || st.Seq != ctlSeq {
			d.kill()
			return nil, fmt.Errorf("cycle %d: recovered state diverged: seq %d digest %s, control seq %d digest %s\ndaemon output:\n%s",
				cycle, st.Seq, st.Digest, ctlSeq, ctlDigest, out)
		}
		lastAcked = st.Seq
		cfg.Logf("cycle %d: recovered seq %d ok (fsync=%s compact=%d mode=%d)", cycle, st.Seq, fsyncPolicy, compactEvery, mode)

		// Replay-dedupe probe: the last acked accepted admit must now be a
		// conflict, exactly as the live path rejects double admits. Only
		// meaningful if no later op unmapped the string again.
		stillMapped := lastAckedAdmit != nil
		if stillMapped {
			stillMapped = false
			for _, ss := range st.StringStates {
				if ss.ID == lastAckedAdmit.StringID && ss.Mapped {
					stillMapped = true
				}
			}
		}
		if stillMapped {
			_, err := arm.post("/v1/admit", service.AdmitRequest{StringID: lastAckedAdmit.StringID})
			if err == nil || errors.Is(err, errDaemonGone) {
				d.kill()
				return nil, fmt.Errorf("cycle %d: dedupe probe: duplicate admit of string %d not rejected (err=%v)",
					cycle, lastAckedAdmit.StringID, err)
			}
			if !strings.Contains(err.Error(), service.CodeConflict) {
				d.kill()
				return nil, fmt.Errorf("cycle %d: dedupe probe: %v, want %s", cycle, err, service.CodeConflict)
			}
		}

		// Drive ops until the kill point.
		nOps := 2 + sched.Intn(9)
		crashed := false
		var inflight chan struct{}
		for i := 0; i < nOps+40; i++ {
			st, err := arm.state()
			if err != nil {
				crashed = true // mode 1: the daemon tore an append and died
				break
			}
			op := nextOp(cfg.Seed, st)
			if mode == 2 && i == nOps {
				// Fire the op and kill the daemon while it is in flight: the
				// op may land journaled-but-unreplied (the indeterminate op).
				inflight = make(chan struct{})
				go func() { defer close(inflight); _, _ = arm.apply(op) }()
				time.Sleep(time.Duration(sched.Intn(2500)) * time.Microsecond)
				break
			}
			d2, err := arm.apply(op)
			if err != nil {
				if errors.Is(err, errDaemonGone) {
					crashed = true
					break
				}
				d.kill()
				return nil, fmt.Errorf("cycle %d op %d (%+v): %v", cycle, i, op, err)
			}
			lastAcked = d2.Seq
			if op.kind == "admit" && d2.Accepted {
				cp := *d2
				cp.StringID = op.k
				lastAckedAdmit = &cp
			}
			if mode != 1 && i >= nOps {
				break
			}
		}
		if crashed {
			d.reap(5 * time.Second)
		} else {
			d.kill()
		}
		if inflight != nil {
			// Join the in-flight request after the kill so a delayed POST
			// cannot land on the next cycle's daemon (same address).
			<-inflight
		}
	}

	// Final clean recovery and verdict.
	d, err := startDaemon(bin, addr, journalPath, "always", 0, cfg.Seed, cfg.Strings, 0)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	if ready, err := d.waitReady(base, 30*time.Second); err != nil || !ready {
		return nil, fmt.Errorf("final recovery not ready: %v\n%s", err, d.out.String())
	}
	st, err := arm.state()
	if err != nil {
		return nil, fmt.Errorf("final state: %v", err)
	}
	if st.Seq < lastAcked || st.Seq > lastAcked+1 {
		return nil, fmt.Errorf("final recovered seq %d outside [%d, %d]", st.Seq, lastAcked, lastAcked+1)
	}
	if err := ctl.advanceTo(cfg.Seed, st.Seq); err != nil {
		return nil, err
	}
	ctlDigest, ctlSeq, err := ctl.digestAndSeq()
	if err != nil {
		return nil, err
	}
	if st.Digest != ctlDigest || st.Seq != ctlSeq {
		return nil, fmt.Errorf("final state diverged: seq %d digest %s, control seq %d digest %s",
			st.Seq, st.Digest, ctlSeq, ctlDigest)
	}
	res.Cycles = cfg.Cycles
	res.FinalSeq = st.Seq
	res.Digest = st.Digest
	return res, nil
}

// TestCrashRecoveryBitIdentical is the acceptance gate for the durability
// work: a real shipd process is killed -9 at keyed-random points (between
// ops, mid-append via the injected torn-write fault, and racing an in-flight
// request), restarted with the same -journal, and after every recovery its
// observable state must be bit-identical to an uninterrupted control daemon
// that applied the same acknowledged ops — digests compared exactly. The
// replay-dedupe probe additionally re-posts the last acked admit and demands
// the same conflict the live path produces.
func TestCrashRecoveryBitIdentical(t *testing.T) {
	cycles := 20
	if testing.Short() {
		cycles = 6
	}
	res, err := Run(Config{Seed: 7, Cycles: cycles, Strings: 16, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("crashtest: %d cycles, final seq %d, digest %s, %d torn tails discarded, %d compaction skips",
		res.Cycles, res.FinalSeq, res.Digest, res.TornTails, res.Skipped)
	if res.TornTails < 1 {
		t.Errorf("torn tails discarded = %d, want >= 1 (the mid-append fault injection never fired)", res.TornTails)
	}
	if res.FinalSeq == 0 {
		t.Error("final seq = 0: the harness never drove an acknowledged op")
	}
}

// The service state. One mutex guards the live allocation and its
// DeltaAnalyzer; HTTP handlers and embedding callers run their operation on
// their own goroutine while holding it, one at a time. Single-writer ordering
// is what makes the delta path safe: every operation mutates the allocation
// inside an open analyzer window and then either Commits (accepted) or Undoes
// (rejected, bit-identical rollback), so the next operation always starts from
// a settled base. The serve path never runs a full two-stage re-analysis and
// never rebases the analyzer; the full analysis is the oracle the lockstep
// test in model_test.go re-runs from scratch beside it. Journal replay is the
// one place the state runs without an analyzer (st.da nil): it applies the
// journaled verdicts instead of judging again (replayOp in journal.go).
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dynamic"
	"repro/internal/faults"
	"repro/internal/feasibility"
	"repro/internal/heuristics"
	"repro/internal/journal"
	"repro/internal/lp"
	"repro/internal/model"
	"repro/internal/overload"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// Config configures a Service.
type Config struct {
	// System is the machine suite and string catalog the daemon serves. The
	// service never writes to it: live demand is System × scale[k], held in a
	// working view (see state.sys).
	System *model.System
	// Heuristic optionally names an initial mapping heuristic (heuristics.Run
	// names: MWF, TF, PSG, ...); empty starts with nothing mapped and lets
	// clients admit strings one by one.
	Heuristic string
	// Search configures the initial heuristic run.
	Search heuristics.PSGConfig
	// Overload configures surge episodes (POST /v1/surge).
	Overload overload.Config
	// LPBound enables the relaxed-LP upper bound on total worth, re-solved
	// with a warm-started simplex basis when a rescale changes the system.
	LPBound bool
	// SnapshotPath is the default target of POST /v1/snapshot.
	SnapshotPath string
	// Journal enables the write-ahead op journal at this path; every decided
	// mutation, accepted or rejected, is appended (and, per Fsync, synced)
	// before the reply.
	Journal string
	// Fsync is the journal durability policy: journal.FsyncAlways,
	// FsyncBatch (default), or FsyncNone.
	Fsync journal.FsyncPolicy
	// CompactEvery folds the journal into its sidecar snapshot after this
	// many appended records (default 4096; negative disables compaction).
	CompactEvery int
	// DigestEvery embeds a full feasibility.StateDigest into every Nth journal
	// record (default 1024; negative disables periodic digests). Smaller values
	// tighten replay verification at O(state) digest cost per embed; every
	// record is covered by the O(1) chained check regardless.
	DigestEvery int
	// JournalCrashAfter is the crash-injection fault point (bytes of journal
	// growth before the writer tears an append and crashes); 0 disables.
	// Test-only: see journal.Options.CrashAfter.
	JournalCrashAfter int64
}

// WithDefaults fills zero fields with usable defaults.
func (c Config) WithDefaults() Config {
	if c.SnapshotPath == "" {
		c.SnapshotPath = "shipd-snapshot.json"
	}
	if c.Fsync == "" {
		c.Fsync = journal.FsyncBatch
	}
	if c.CompactEvery == 0 {
		c.CompactEvery = 4096
	}
	if c.DigestEvery == 0 {
		c.DigestEvery = 1024
	}
	c.Overload = c.Overload.WithDefaults()
	return c
}

// Validate rejects unusable configurations; zero fields are defaulted first,
// so only genuinely invalid values (negative thresholds, nil system) fail.
func (c Config) Validate() error {
	c = c.WithDefaults()
	if c.System == nil {
		return errors.New("service: Config.System is nil")
	}
	var errs []error
	if err := c.System.Validate(); err != nil {
		errs = append(errs, err)
	}
	if err := c.Overload.Validate(); err != nil {
		errs = append(errs, err)
	}
	if _, err := journal.ParseFsyncPolicy(string(c.Fsync)); err != nil {
		errs = append(errs, fmt.Errorf("service: %w", err))
	}
	return errors.Join(errs...)
}

// state is the single-writer daemon state; only a function exec runs, holding
// Service.mu, touches it.
type state struct {
	cfg Config
	// base is the catalog as loaded and is never written; sys is the working
	// view the allocation is built over, model.ScaledView(base, scale):
	// string k's demand floats are base × scale[k], one multiply from the
	// pristine float. The view shares the slices a rescale never writes
	// (Bandwidth, NominalUtil) with base.
	base *model.System
	sys  *model.System
	// order is the scan order over base, built once per state and attached
	// to every allocation the state serves (attach): admits, rescales,
	// replay and failover re-placements scan machines cheapest own work
	// first along it, on any scale in force. nil when base has a work key
	// NewScanOrder refuses; the scans then run in index order.
	order *feasibility.ScanOrder
	// catalog names and hashes base's durable encoding; catalogAt records the
	// catalog files this process has written or verified (see writeCatalog).
	catalog     CatalogRef
	catalogAt   map[string]bool
	catalogLoad time.Duration // loadCatalog's wall time, for the RecoveryReport
	// alloc is the mapped set: string k is admitted iff alloc.Complete(k).
	alloc *feasibility.Allocation
	da    *feasibility.DeltaAnalyzer
	// worth and nMapped are O(1) summaries of the allocation's complete
	// strings so serving decisions never rescan the catalog: admit/remove
	// adjust them in place, control-plane rebuilds (faults, surge, restore)
	// recount them.
	worth   float64
	nMapped int
	// scale[k] is the demand multiplier in force on string k: the product of
	// its accepted /v1/rescale factors, applied to base in one multiply.
	scale  []float64
	down   *faults.Set
	seq    uint64
	events *eventLog
	// digestMemo is StateDigest(alloc) as of digestSeq; see digest.
	digestMemo string
	digestSeq  uint64
	// rows are GET /v1/state's kept stringStates elements, one per string,
	// each checked against the live state when read (appendState).
	rows []stateRow
	// bound is the current LP worth upper bound (nil when disabled or the
	// solve failed); boundWarm records whether the last re-solve reused the
	// previous simplex basis.
	bound     *lp.Bound
	boundWarm bool
	// Write-ahead journal state (jw nil when journaling is off): the record
	// encode buffers, the running chain check, compaction/digest cadence
	// counters, the sticky append-failure error, and the hook mirroring it to
	// the Service for health reporting.
	jw           *journal.Writer
	payloadBuf   wbuf // the string ops' journaled payload, appended per record
	recordBuf    wbuf // the record handed to jw.Append
	chain        string
	sinceCompact int
	sinceDigest  int
	broken       error
	onBroken     func(error)
}

// Service owns a live allocation and serializes all operations on it with one
// mutex: an operation runs on its caller's goroutine. All exported methods are
// safe for concurrent use.
type Service struct {
	mu     sync.Mutex
	st     *state // guarded by mu after New returns
	closed bool   // guarded by mu
	// phase drives GET /v1/readyz; journalErr holds the append failure that
	// broke the journal (a string, set at most once) for GET /v1/healthz.
	phase      atomic.Int32
	journalErr atomic.Value
}

// New builds the initial state (optionally running a mapping heuristic),
// attaches the delta analyzer, and starts serving.
func New(cfg Config) (*Service, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	scale := unitScales(len(cfg.System.Strings))
	sys := model.ScaledView(cfg.System, scale)
	st := &state{
		cfg:    cfg,
		base:   cfg.System,
		sys:    sys,
		order:  feasibility.NewScanOrder(cfg.System),
		down:   faults.NewSet(sys.Machines),
		scale:  scale,
		events: newEventLog(),
	}
	if cfg.Heuristic != "" {
		r, _, err := heuristics.RunContext(context.Background(), cfg.Heuristic, sys, cfg.Search)
		if err != nil {
			return nil, fmt.Errorf("service: initial mapping: %w", err)
		}
		st.attach(r.Alloc)
	} else {
		st.attach(feasibility.New(sys))
	}
	return startService(st)
}

// startService attaches the analyzer (the one startup rebase), bootstraps the
// journal when configured, and solves the initial LP bound. Shared by New,
// Restore, and Recover (which arrives with the journal writer already
// attached and the journal replayed).
func startService(st *state) (*Service, error) {
	if st.da = st.alloc.Tracker(); st.da == nil {
		st.da = feasibility.Track(st.alloc)
	}
	st.recount()
	if st.cfg.Journal != "" && st.jw == nil {
		if err := st.bootstrapJournal(); err != nil {
			return nil, err
		}
	}
	if st.cfg.LPBound {
		st.solveBound()
	}
	s := &Service{st: st}
	s.phase.Store(int32(PhaseReady))
	st.onBroken = func(err error) { s.journalErr.Store(err.Error()) }
	return s, nil
}

// attach makes a the live allocation, scanning along the state's order.
func (st *state) attach(a *feasibility.Allocation) {
	a.AttachScanOrder(st.order)
	st.alloc = a
}

func unitScales(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// Phase reports the lifecycle phase (ready/draining) for readiness checks.
func (s *Service) Phase() Phase { return Phase(s.phase.Load()) }

// BeginDrain marks the service draining: GET /v1/readyz starts failing so
// load balancers take the daemon out of rotation, while in-flight and new
// operations keep completing until Close. Safe to call more than once.
func (s *Service) BeginDrain() {
	s.phase.CompareAndSwap(int32(PhaseReady), int32(PhaseDraining))
}

// JournalBroken reports the sticky journal append failure, if any.
func (s *Service) JournalBroken() (string, bool) {
	v := s.journalErr.Load()
	if v == nil {
		return "", false
	}
	return v.(string), true
}

// Close waits for the operation in progress, then closes the journal
// (flushing any batched fsync); later calls fail with CodeUnavailable. Safe to
// call more than once.
func (s *Service) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.phase.Store(int32(PhaseDraining))
	if s.st.jw != nil {
		s.st.jw.Close()
	}
}

var errUnavailable = Errorf(CodeUnavailable, nil, "service is shut down")

// exec runs fn on the state under the mutex, on the caller's goroutine. A
// panic in fn never releases the mutex: the allocation may be left inside an
// open window, so crash ends the process rather than let the next op see it.
func (s *Service) exec(fn func(*state)) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errUnavailable
	}
	returned := false
	defer func() {
		if !returned {
			crash(recover())
		}
	}()
	fn(s.st)
	returned = true
	s.mu.Unlock()
	return nil
}

// crash re-raises a state function's panic value v, with the stack it was
// raised on, on a new goroutine: the caller's may be a net/http handler's,
// which recovers panics and would keep the daemon serving. The caller, still
// holding the mutex, waits for the process to end.
func crash(v any) {
	msg := fmt.Sprintf("service: state function panicked: %v\n\n%s", v, debug.Stack())
	go func() { panic(msg) }()
	select {}
}

// mutation is one state-changing request in the form the state applies it,
// live and on replay alike. Admit, remove and rescale are parsed once at the
// edge (or built by the Go methods below) and journaled by appending their
// wire form from k and factor. Faults and surge carry the json.Marshal of
// their request as payload, which the journal records as is, and what that
// payload parses back to (journaledMutation), which the state applies.
type mutation struct {
	op      string
	k       int     // admit, remove, rescale: the subject string
	factor  float64 // rescale
	faults  FaultsRequest
	surge   *overload.Scenario
	payload []byte
}

// mutate runs m through the journaled single-writer path: apply via the
// shared applyOp dispatch, append to the write-ahead journal (when enabled),
// then reply. Replay rebuilds the same mutation from the journaled payload
// and enters the same dispatch, which is the bit-identical-recovery contract.
func (s *Service) mutate(m mutation) (Decision, error) {
	var d Decision
	var e *ErrorEnvelope
	if err := s.exec(func(st *state) { d, e = st.mutateOp(&m) }); err != nil {
		return Decision{}, err
	}
	if e != nil {
		return Decision{}, e
	}
	return d, nil
}

// mutateEncoded is mutate for the ops whose request travels as its JSON: the
// state applies what that JSON parses back to, as a replay of it will.
func (s *Service) mutateEncoded(op string, req any) (Decision, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return Decision{}, Errorf(CodeBadRequest, nil, "encode %s op: %v", op, err)
	}
	m, err := journaledMutation(op, payload)
	if err != nil {
		return Decision{}, Errorf(CodeBadRequest, nil, "%v", err)
	}
	return s.mutate(m)
}

// Admit maps string k onto the surviving resources and accepts the admission
// iff the incremental two-stage analysis stays feasible.
func (s *Service) Admit(k int) (Decision, error) {
	return s.mutate(mutation{op: opAdmit, k: k})
}

// Remove unmaps string k.
func (s *Service) Remove(k int) (Decision, error) {
	return s.mutate(mutation{op: opRemove, k: k})
}

// Rescale multiplies string k's demand by factor and, if the string is
// mapped, re-places it; a rescale that cannot be placed feasibly is rejected
// and rolled back bit-identically.
func (s *Service) Rescale(k int, factor float64) (Decision, error) {
	// NaN/Inf factors are rejected here because they cannot be journaled
	// (JSON has no encoding for them); st.rescale re-checks for replay.
	if math.IsNaN(factor) || math.IsInf(factor, 0) {
		return Decision{}, Errorf(CodeBadRequest, nil, "rescale factor = %v, want finite positive", factor)
	}
	return s.mutate(mutation{op: opRescale, k: k, factor: factor})
}

// Faults applies resource outages/repairs and runs the fault-survival repair
// on the live allocation.
func (s *Service) Faults(req FaultsRequest) (Decision, error) {
	return s.mutateEncoded(opFaults, req)
}

// Surge runs a demand-surge episode through the degradation controller and
// adopts the resulting mapping.
func (s *Service) Surge(sc *overload.Scenario) (Decision, error) {
	if sc == nil {
		return Decision{}, Errorf(CodeBadRequest, nil, "surge scenario is empty")
	}
	return s.mutateEncoded(opSurge, sc)
}

// State returns the full observable daemon state.
func (s *Service) State() (StateResponse, error) {
	var resp StateResponse
	if err := s.exec(func(st *state) { resp = st.stateResponse() }); err != nil {
		return StateResponse{}, err
	}
	return resp, nil
}

// Events returns the buffered decisions with Seq > since, oldest first.
func (s *Service) Events(since uint64) ([]Decision, error) {
	var out []Decision
	if err := s.exec(func(st *state) { out = st.events.since(since) }); err != nil {
		return nil, err
	}
	return out, nil
}

// Metrics returns the telemetry snapshot plus derived ratios. It does not
// touch allocation state and takes no lock.
func (s *Service) Metrics() MetricsResponse {
	snap := telemetry.Capture()
	return MetricsResponse{
		SchemaVersion: SchemaVersion,
		Telemetry:     snap,
		Derived:       report.Derived(snap),
	}
}

// --- state operations, run by exec ---

// checkString validates a string index.
func (st *state) checkString(k int) *ErrorEnvelope {
	if k < 0 || k >= len(st.sys.Strings) {
		return Errorf(CodeUnknownString, nil, "string %d out of range [0,%d)", k, len(st.sys.Strings))
	}
	return nil
}

// recount rebuilds the incremental worth and mapped-count summaries from the
// allocation. Control-plane entry points (startup, faults, surge) call it;
// serving operations adjust the mirrors in O(1) instead. Worths in the paper
// workloads are small integers, so the incremental sum stays exact; for
// arbitrary float worths it is reporting-only and never feeds feasibility.
func (st *state) recount() {
	st.worth, st.nMapped = 0, 0
	for k := range st.sys.Strings {
		if st.alloc.Complete(k) {
			st.worth += st.sys.Strings[k].Worth
			st.nMapped++
		}
	}
}

// solveBound (re-)solves the relaxed worth LP, warm-starting from the
// previous optimal basis when one exists. The bound is advisory: a solver
// failure clears it rather than failing the operation.
func (st *state) solveBound() {
	cfg := lp.Config{Formulation: lp.Relaxed, Objective: lp.MaximizeWorth}
	if st.bound != nil {
		cfg.WarmBasis = st.bound.Basis
	}
	b, err := lp.UpperBound(st.sys, cfg)
	if err != nil {
		st.bound = nil
		st.boundWarm = false
		return
	}
	st.bound = b
	st.boundWarm = b.WarmStarted
}

// place runs the IMR on string k over the surviving resources. While nothing
// is down the masks are nil (the unmasked routine, by MapStringIMRMasked's
// contract), so a healthy ship's scans make no mask calls.
func (st *state) place(k int) bool {
	machineOK, routeOK := st.down.Masks()
	return heuristics.MapStringIMRMasked(st.alloc, k, machineOK, routeOK)
}

// finish stamps the common Decision fields, advances the sequence number,
// and records the decision in the event ring.
func (st *state) finish(d *Decision) Decision {
	st.seq++
	d.SchemaVersion = SchemaVersion
	d.Seq = st.seq
	d.Mapped = st.nMapped
	if d.WorthBefore > 0 {
		d.WorthRetained = d.WorthAfter / d.WorthBefore
	} else {
		d.WorthRetained = 1
	}
	if st.bound != nil {
		d.WorthBound = st.bound.Objective
		d.BoundWarmStarted = st.boundWarm
	}
	st.events.append(*d)
	return *d
}

// digest is feasibility.StateDigest of the live allocation, computed at most
// once per sequence number. seq is a sound key because every path that
// changes the allocation ends in finish (envelope errors return before
// touching it); the lockstep model test checks the memo after every op.
func (st *state) digest() string {
	if st.digestMemo == "" || st.digestSeq != st.seq {
		st.digestMemo, st.digestSeq = feasibility.StateDigest(st.alloc), st.seq
	}
	return st.digestMemo
}

// decide builds and finishes the Decision of an admit, remove or rescale on
// string k — rejected iff it comes with a reason (and the violations behind
// it) — reading worth and slackness off the settled state: an accepted op has
// been committed, a rejected one already rolled back, so it reports the worth
// it started from.
func (st *state) decide(op string, k int, worthBefore float64, reason string, viol []feasibility.Violation) Decision {
	d := Decision{
		Op:          op,
		Accepted:    reason == "",
		StringID:    k,
		Reason:      reason,
		WorthBefore: worthBefore,
		WorthAfter:  st.worth,
		Slackness:   st.alloc.Slackness(),
		Violations:  fromViolations(viol),
	}
	return st.finish(&d)
}

// admitEnvelope is the admit's envelope check: an unknown or already mapped
// string is an error, never a decision. Replay runs it on every journaled
// admit, which it places or folds in without deciding it again (replayOp).
func (st *state) admitEnvelope(k int) *ErrorEnvelope {
	if e := st.checkString(k); e != nil {
		return e
	}
	if st.alloc.Complete(k) {
		return Errorf(CodeConflict, nil, "string %d is already mapped", k)
	}
	return nil
}

func (st *state) admit(k int) (Decision, *ErrorEnvelope) {
	if e := st.admitEnvelope(k); e != nil {
		return Decision{}, e
	}
	if !st.place(k) {
		// The window must end in Commit or Undo; Undo unassigns the partial
		// placement again, each Unassign repricing its roster tails.
		st.da.Undo()
		return st.decide(opAdmit, k, st.worth, "no feasible placement on surviving resources", nil), nil
	}
	if !st.da.FeasibleAfterDelta() {
		viol := st.da.ViolationsAfterDelta()
		st.da.Undo()
		return st.decide(opAdmit, k, st.worth, "placement violates QoS of co-resident strings", viol), nil
	}
	st.da.Commit()
	return st.admitted(k), nil
}

// admitted books string k, placed by an accepted admit, into the worth
// mirrors and decides the admit. The live admit reaches it after Commit,
// replay straight after the placement (replayOp).
func (st *state) admitted(k int) Decision {
	worthBefore := st.worth
	st.worth += st.sys.Strings[k].Worth
	st.nMapped++
	return st.decide(opAdmit, k, worthBefore, "", nil)
}

func (st *state) remove(k int) (Decision, *ErrorEnvelope) {
	worthBefore, e := st.lift(k)
	if e != nil {
		return Decision{}, e
	}
	st.da.Commit()
	return st.decide(opRemove, k, worthBefore, "", nil), nil
}

// lift is the remove's envelope check — a known, mapped string — and its
// mutation: string k unassigned and taken out of the worth mirrors. It
// returns the worth before. Replay lifts a journaled remove the same way and
// commits nothing (replayOp).
func (st *state) lift(k int) (float64, *ErrorEnvelope) {
	if e := st.checkString(k); e != nil {
		return 0, e
	}
	if !st.alloc.Complete(k) {
		return 0, Errorf(CodeConflict, nil, "string %d is not mapped", k)
	}
	worthBefore := st.worth
	st.alloc.UnassignString(k)
	st.worth -= st.sys.Strings[k].Worth
	st.nMapped--
	return worthBefore, nil
}

// setScale recomputes string k's view floats from base at scale g. Safe only
// while string k is fully unassigned — the frozen-floats contract in package
// feasibility's comment: no utilization, roster term or memoised verdict is
// then derived from them. Recomputing at the scale already in force is a
// bit-identical no-op, which is how a rejected rescale rolls the catalog back.
func (st *state) setScale(k int, g float64) {
	model.ScaleDemand(st.sys.Strings[k].Apps, st.base.Strings[k].Apps, g)
}

// rescaleEnvelope is the rescale's envelope check — a known string, a finite
// positive factor and a finite positive scale after it — and returns that
// scale. Replay runs it on every journaled rescale (replayOp).
func (st *state) rescaleEnvelope(k int, factor float64) (float64, *ErrorEnvelope) {
	if e := st.checkString(k); e != nil {
		return 0, e
	}
	if !(factor > 0) || math.IsInf(factor, 0) {
		return 0, Errorf(CodeBadRequest, nil, "rescale factor = %v, want finite positive", factor)
	}
	scaled := st.scale[k] * factor
	if !(scaled > 0) || math.IsInf(scaled, 0) {
		return 0, Errorf(CodeBadRequest, nil,
			"rescale factor = %v takes string %d's scale from %v to %v, want finite positive", factor, k, st.scale[k], scaled)
	}
	return scaled, nil
}

func (st *state) rescale(k int, factor float64) (Decision, *ErrorEnvelope) {
	scaled, e := st.rescaleEnvelope(k, factor)
	if e != nil {
		return Decision{}, e
	}
	if !st.alloc.Complete(k) {
		// Catalog-only change; nothing placed, nothing to evaluate.
		st.setScale(k, scaled)
		return st.rescaled(k, scaled), nil
	}
	placed := st.replace(k, scaled)
	if placed && st.da.FeasibleAfterDelta() {
		st.da.Commit()
		return st.rescaled(k, scaled), nil
	}
	var viol []feasibility.Violation
	reason := "no feasible placement for rescaled demand"
	if placed {
		viol = st.da.ViolationsAfterDelta()
		reason = "rescaled placement violates QoS"
	}
	// Put the view back at the scale in force first, then roll the allocation
	// back bit-identically: Undo re-places the string on its pre-rescale
	// machines and prices it at the floats it finds, so the order matters.
	st.setScale(k, st.scale[k])
	st.da.Undo()
	return st.decide(opRescale, k, st.worth, reason, viol), nil
}

// replace is a mapped string's rescale: string k lifted off its machines, its
// view floats recomputed at scale g, and the IMR run on it again. It reports
// whether the IMR placed it.
func (st *state) replace(k int, g float64) bool {
	st.alloc.UnassignString(k)
	st.setScale(k, g)
	return st.place(k)
}

// rescaled puts scale g, which string k's view floats already read, in force
// and decides the accepted rescale. The live rescale reaches it after Commit
// (or with nothing placed), replay straight after the placement (replayOp).
func (st *state) rescaled(k int, g float64) Decision {
	st.scale[k] = g
	if st.cfg.LPBound {
		st.solveBound()
	}
	return st.decide(opRescale, k, st.worth, "", nil)
}

func (st *state) applyFaults(req *FaultsRequest) (Decision, *ErrorEnvelope) {
	for _, rs := range [][]faults.Resource{req.Fail, req.Repair} {
		for _, r := range rs {
			if err := r.Validate(st.sys.Machines); err != nil {
				return Decision{}, Errorf(CodeUnknownResource, nil, "%v", err)
			}
		}
	}
	for _, r := range req.Fail {
		st.down.Fail(r)
	}
	for _, r := range req.Repair {
		st.down.Repair(r)
	}
	// Live, Survive reuses the attached analyzer, so the fault path does not
	// rebase; on replay none is attached, and Survive attaches its own (one
	// Rebase) and closes it again. Repaired resources become placeable again
	// but previously shed strings are only re-admitted via explicit
	// /v1/admit calls.
	res, err := dynamic.Survive(st.alloc, st.down)
	if err != nil {
		if errors.Is(err, dynamic.ErrUnknownResource) {
			return Decision{}, Errorf(CodeUnknownResource, nil, "%v", err)
		}
		return Decision{}, Errorf(CodeInternal, nil, "fault repair failed: %v", err)
	}
	st.recount()
	d := FromRepair("faults", res)
	return st.finish(&d), nil
}

func (st *state) applySurge(sc *overload.Scenario) (Decision, *ErrorEnvelope) {
	if err := sc.Validate(len(st.sys.Strings)); err != nil {
		code := CodeBadRequest
		if errors.Is(err, scenario.ErrOutOfRange) {
			code = CodeUnknownString
		}
		return Decision{}, Errorf(code, nil, "%v", err)
	}
	cfg := st.cfg.Overload
	cfg.Faults = st.down.Scenario() // standing outages persist through the episode
	res, err := overload.Run(st.alloc, sc, cfg)
	if err != nil {
		return Decision{}, Errorf(CodeBadRequest, nil, "%v", err)
	}
	// The controller works on its own scaled view and allocation; adopt its
	// final mapping by re-placing it on the live system. The state is a
	// function of the mapping, so the rebuild has the digest journals embed
	// and replay verifies. It is a control-plane rebuild, not part of the
	// serve path.
	fresh, err := feasibility.FromSnapshot(st.sys, res.FinalAlloc.Snapshot())
	if err != nil {
		return Decision{}, Errorf(CodeInternal, nil, "adopt surge result: %v", err)
	}
	if st.da != nil { // nil in Recover's loop, which attaches one after it
		st.da.Close()
		st.da = feasibility.Track(fresh)
	}
	st.attach(fresh)
	st.recount()
	d := FromOverload("surge", res)
	return st.finish(&d), nil
}

// stateHeader is the live state's StateResponse without its stringStates:
// the fields GET /v1/state writes before its rows, which stateResponse fills
// in. Feasible is the committed verdict, so a read counts no evaluation.
func (st *state) stateHeader() StateResponse {
	m := st.alloc.Metric()
	resp := StateResponse{
		SchemaVersion: SchemaVersion,
		Seq:           st.seq,
		Machines:      st.sys.Machines,
		Strings:       len(st.sys.Strings),
		MappedCount:   st.nMapped,
		Worth:         m.Worth,
		Slackness:     m.Slackness,
		Feasible:      st.da.CommittedFeasible(),
		Digest:        st.digest(),
		MachinesDown:  st.down.MachinesDown(),
		RoutesDown:    st.down.RoutesDown(),
	}
	for k := range st.sys.Strings {
		resp.TotalWorth += st.sys.Strings[k].Worth
	}
	if st.bound != nil {
		resp.WorthBound = st.bound.Objective
	}
	return resp
}

// stateResponse is the live state as a value, for Service.State.
func (st *state) stateResponse() StateResponse {
	resp := st.stateHeader()
	// Every mapped string's machines are copied into one backing array.
	apps := 0
	for k := range st.sys.Strings {
		if st.alloc.Complete(k) {
			apps += len(st.sys.Strings[k].Apps)
		}
	}
	machines := make([]int, 0, apps)
	if n := len(st.sys.Strings); n > 0 { // none stays nil: the reply reads "stringStates":null
		resp.StringStates = make([]StringStatus, n)
	}
	for k := range st.sys.Strings {
		s := &st.sys.Strings[k]
		ss := StringStatus{ID: k, Mapped: st.alloc.Complete(k), Worth: s.Worth, Scale: st.scale[k]}
		if ss.Mapped {
			from := len(machines)
			for i := range s.Apps {
				machines = append(machines, st.alloc.Machine(k, i))
			}
			ss.Machines = machines[from:len(machines):len(machines)]
		}
		resp.StringStates[k] = ss
	}
	return resp
}

// stateRow is string k's kept stringStates element: its encoding, the
// bracket or comma before it included, and the inputs it was encoded from.
// A read compares the inputs with the live state and re-encodes on a
// mismatch, so a row needs no stale mark: no op, fault, surge or rebuild has
// to know the rows exist.
type stateRow struct {
	b        []byte // empty until encoded, and after a refused float
	mapped   bool   // alloc.Complete(k)
	worth    uint64 // bits of the catalog worth
	scale    uint64 // bits of scale[k]
	machines []int  // the assignment vector while mapped
}

// fresh reports whether r still encodes string k of the live state.
func (st *state) fresh(r *stateRow, k int) bool {
	s := &st.sys.Strings[k]
	if len(r.b) == 0 || r.mapped != st.alloc.Complete(k) ||
		r.worth != math.Float64bits(s.Worth) || r.scale != math.Float64bits(st.scale[k]) {
		return false
	}
	if r.mapped {
		if len(r.machines) != len(s.Apps) {
			return false
		}
		for i, j := range r.machines {
			if st.alloc.Machine(k, i) != j {
				return false
			}
		}
	}
	return true
}

// encodeRow re-encodes r from string k of the live state. A float JSON cannot
// carry is returned and leaves the row empty, so the next read tries again.
func (st *state) encodeRow(r *stateRow, k int) error {
	s := &st.sys.Strings[k]
	r.mapped = st.alloc.Complete(k)
	r.worth, r.scale = math.Float64bits(s.Worth), math.Float64bits(st.scale[k])
	r.machines = r.machines[:0]
	if r.mapped {
		for i := range s.Apps {
			r.machines = append(r.machines, st.alloc.Machine(k, i))
		}
	}
	rw := wbuf{b: r.b[:0]}
	rw.stringStatus(k, &StringStatus{ID: k, Mapped: r.mapped, Worth: s.Worth, Scale: st.scale[k], Machines: r.machines})
	r.b = rw.b
	if rw.err != nil {
		r.b = r.b[:0]
	}
	return rw.err
}

// appendState appends the body of GET /v1/state, the newline excluded: the
// bytes json.Marshal writes for stateResponse(). The header is encoded fresh
// and each row is the kept one, re-encoded only where its inputs changed.
func (st *state) appendState(w *wbuf) {
	h := st.stateHeader()
	w.stateHeader(&h)
	n := len(st.sys.Strings)
	if n == 0 {
		w.lit("null}")
		return
	}
	if len(st.rows) != n {
		st.rows = make([]stateRow, n)
	}
	encoded := 0
	for k := range st.rows {
		r := &st.rows[k]
		if !st.fresh(r, k) {
			encoded++
			if err := st.encodeRow(r, k); err != nil && w.err == nil {
				w.err = err
			}
		}
		w.b = append(w.b, r.b...)
	}
	w.lit("]}")
	telemetry.C("service.state.rows_encoded").Add(int64(encoded))
}

// --- event ring ---

// eventRing is the capacity of the decision event ring: the most recent
// decisions GET /v1/events can return.
const eventRing = 1024

// eventLog is a bounded ring of recent decisions, ordered by Seq.
type eventLog struct {
	buf  []Decision
	head int // index of the oldest entry
	n    int
}

func newEventLog() *eventLog { return &eventLog{buf: make([]Decision, eventRing)} }

func (l *eventLog) append(d Decision) {
	if l.n < len(l.buf) {
		l.buf[(l.head+l.n)%len(l.buf)] = d
		l.n++
		return
	}
	l.buf[l.head] = d
	l.head = (l.head + 1) % len(l.buf)
}

// since returns buffered decisions with Seq > after, oldest first.
func (l *eventLog) since(after uint64) []Decision {
	var out []Decision
	for i := 0; i < l.n; i++ {
		d := l.buf[(l.head+i)%len(l.buf)]
		if d.Seq > after {
			out = append(out, d)
		}
	}
	return out
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/feasibility"
	"repro/internal/heuristics"
	"repro/internal/model"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// span is one timed interval: an op on a ladder rung, or (parent >= 0) one
// exported call made on the op's behalf. Times are nanoseconds since the log
// was created. A layer's self time is its span minus its child spans.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Op     string `json:"op"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// spanLog keeps spans in memory until the run ends. current is the open op
// span; calls made on its behalf are recorded as its children.
type spanLog struct {
	origin  time.Time
	spans   []span
	current int
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now(), current: -1} }

// open starts the span of one op on a rung; close ends it.
func (l *spanLog) open(rung, op string) {
	l.current = len(l.spans)
	l.spans = append(l.spans, span{ID: l.current, Parent: -1, Name: rung, Op: op,
		Start: time.Since(l.origin).Nanoseconds()})
}

func (l *spanLog) close() {
	l.spans[l.current].End = time.Since(l.origin).Nanoseconds()
	l.current = -1
}

// child records one call made inside the open op span.
func (l *spanLog) child(name string, t0, t1 time.Time) {
	l.spans = append(l.spans, span{ID: len(l.spans), Parent: l.current, Name: name, Op: l.spans[l.current].Op,
		Start: t0.Sub(l.origin).Nanoseconds(), End: t1.Sub(l.origin).Nanoseconds()})
}

func (l *spanLog) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimeUS is the median over a rung's op spans of span minus children.
func (l *spanLog) selfTimeUS(rung string) float64 {
	children := make(map[int]int64)
	for _, s := range l.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	var self []float64
	for _, s := range l.spans {
		if s.Parent < 0 && s.Name == rung {
			self = append(self, float64(s.End-s.Start-children[s.ID])/1e3)
		}
	}
	return median(self)
}

// tracedArm records one span per op around the arm it wraps.
type tracedArm struct {
	arm
	log  *spanLog
	rung string
}

func (t tracedArm) apply(o op) (bool, error) {
	t.log.open(t.rung, o.Kind)
	accepted, err := t.arm.apply(o)
	t.log.close()
	return accepted, err
}

// handlerArm calls the service's HTTP handler directly: the codec without
// the wire.
type handlerArm struct {
	svcArm
	h http.Handler
}

func (a handlerArm) call(method, path, body string) (int, []byte) {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	a.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func (a handlerArm) apply(o op) (bool, error) {
	return decisionStatus(a.call(http.MethodPost, "/v1/"+o.Kind, o.body()))
}

func (a handlerArm) read() error {
	if status, _ := a.call(http.MethodGet, "/v1/state", ""); status != http.StatusOK {
		return fmt.Errorf("GET /v1/state: status %d", status)
	}
	return nil
}

// coreArm is the benchmark's own single-writer loop over the allocation core:
// what service.admit and service.remove do, minus the service. It times each
// exported call and records it as a child of the open op span.
type coreArm struct {
	alloc *feasibility.Allocation
	da    *feasibility.DeltaAnalyzer
	log   *spanLog
	calls map[string][]float64 // microseconds by exported call
}

func newCoreArm(sys *model.System, log *spanLog) *coreArm {
	a := feasibility.New(sys)
	return &coreArm{alloc: a, da: feasibility.Track(a), log: log, calls: map[string][]float64{}}
}

func (c *coreArm) timed(name string, fn func()) {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	c.calls[name] = append(c.calls[name], float64(t1.Sub(t0).Nanoseconds())/1e3)
	if c.log.current >= 0 {
		c.log.child(name, t0, t1)
	}
}

func anyMachine(int) bool    { return true }
func anyRoute(_, _ int) bool { return true }

func (c *coreArm) apply(o op) (bool, error) {
	accepted := true
	switch o.Kind {
	case opAdmit:
		var placed, feasible bool
		c.timed("heuristics.place", func() {
			placed = heuristics.MapStringIMRMasked(c.alloc, o.K, anyMachine, anyRoute)
		})
		if placed {
			c.timed("feasibility.delta_eval", func() { feasible = c.da.FeasibleAfterDelta() })
		}
		if placed && feasible {
			c.timed("feasibility.commit", c.da.Commit)
		} else {
			if placed {
				_ = c.da.ViolationsAfterDelta()
			}
			c.timed("feasibility.undo", c.da.Undo)
			accepted = false
		}
	case opRemove:
		c.timed("feasibility.unassign", func() { c.alloc.UnassignString(o.K) })
		c.timed("feasibility.delta_eval", func() { _ = c.da.FeasibleAfterDelta() })
		c.timed("feasibility.commit", c.da.Commit)
	default:
		return false, fmt.Errorf("core rung replays admit and remove only, got %s", o.Kind)
	}
	c.timed("feasibility.slackness", func() { _ = c.alloc.Slackness() })
	return accepted, nil
}

func (c *coreArm) read() error { return nil }

func (c *coreArm) final() (uint64, string, error) {
	return 0, feasibility.StateDigest(c.alloc), nil
}

func (c *coreArm) close() {}

// rungArm is an in-process arm that can report the state it ended in.
type rungArm interface {
	arm
	final() (seq uint64, digest string, err error)
	close()
}

// rung is the outcome of one ladder pass.
type rung struct {
	timed    *recorder
	seq      uint64
	digest   string
	decided  tally
	counters map[string]int64 // telemetry counter deltas over the whole pass
	allocs   float64          // heap allocations per timed op
	bytes    float64          // heap bytes per timed op
}

func (r rung) p50() float64 { return median(r.timed.mutating) }

// ladderPlan fixes the stream segment every rung replays: warm untimed ops,
// then timed ops; noRescale selects the admit/remove-only stream the core
// rung can follow.
type ladderPlan struct {
	sh        *ship
	seed      int64
	warm      int
	timed     int
	noRescale bool
}

// runRung replays the plan through the arm build creates on a fresh clone of
// the system, and snapshots the process-global telemetry around it.
func runRung(name string, p ladderPlan, log *spanLog, build func(sys *model.System) (rungArm, error)) (rung, error) {
	before := telemetry.Capture().Counters
	a, err := build(p.sh.sys.Clone())
	if err != nil {
		return rung{}, fmt.Errorf("%s rung: %w", name, err)
	}
	defer a.close()
	s := newStream(p.seed, p.sh.name, len(p.sh.sys.Strings))
	s.noRescale = p.noRescale
	warm, timed := newRecorder(), newRecorder()
	drive(a, s, warm, false, forOps(p.warm))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	drive(tracedArm{arm: a, log: log, rung: name}, s, timed, true, forOps(p.timed))
	runtime.ReadMemStats(&m1)
	if f := warm.Failed + timed.Failed; f > 0 {
		return rung{}, fmt.Errorf("%s rung: %d ops failed, first: %w", name, f, firstError(warm, timed))
	}
	r := rung{timed: timed, counters: map[string]int64{},
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(p.timed),
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(p.timed)}
	r.decided = warm.tally.plus(timed.tally)
	if r.seq, r.digest, err = a.final(); err != nil {
		return rung{}, fmt.Errorf("%s rung: %w", name, err)
	}
	for k, v := range telemetry.Capture().Counters {
		r.counters[k] = v - before[k]
	}
	return r, nil
}

// serviceRung builds the in-process rungs: a service with or without a
// journal, driven through its handler or its methods.
func serviceRung(sh *ship, journal string, viaHandler bool) func(*model.System) (rungArm, error) {
	return func(sys *model.System) (rungArm, error) {
		svc, err := service.New(service.Config{System: sys, Journal: journal, CompactEvery: sh.compactEvery})
		if err != nil {
			return nil, err
		}
		if viaHandler {
			return handlerArm{svcArm{svc}, svc.Handler()}, nil
		}
		return svcArm{svc}, nil
	}
}

// ladder is every rung's outcome plus what the wire passes measured.
type ladder struct {
	untraced  *recorder // wire, first segment, no spans
	wire      rung      // wire, second segment, traced
	handler   rung
	svc       rung
	noJournal rung
	subNoJ    rung // service-nojournal on the admit/remove stream
	core      rung
	coreArm   *coreArm
	sv        *served
	daemonC   map[string]int64
	rssMB     float64
	checks    []check
}

// runLadder replays one stream segment down the ladder, each rung one layer
// shorter, and checks that every rung ends in the same state.
func runLadder(e env, sh *ship, o options, dir string, log *spanLog) (*ladder, error) {
	sv, err := startServing(e, sh, o.seed, dir)
	if err != nil {
		return nil, err
	}
	defer sv.d.stop()
	ld := &ladder{sv: sv, untraced: newRecorder()}

	// Wire: an untraced segment sized by time, then a traced one of the same
	// number of ops; their p50 difference is the cost of tracing.
	drive(sv.d, sv.s, ld.untraced, true, sh.segment(time.Duration(0.2*o.seconds*float64(time.Second))))
	n := ld.untraced.Attempted
	traced := newRecorder()
	drive(tracedArm{arm: sv.d, log: log, rung: "wire"}, sv.s, traced, true, forOps(n))
	if f := sv.warm.Failed + ld.untraced.Failed + traced.Failed; f > 0 {
		return nil, fmt.Errorf("wire rung: %d ops failed, first: %v", f, firstError(sv.warm, ld.untraced, traced))
	}
	st, err := sv.d.state()
	if err != nil {
		return nil, err
	}
	if ld.daemonC, err = sv.d.counters(); err != nil {
		return nil, err
	}
	if ld.rssMB, err = sv.d.peakRSSMB(); err != nil {
		return nil, err
	}
	ld.wire = rung{timed: traced, seq: st.Seq, digest: st.Digest,
		decided: sv.warm.tally.plus(ld.untraced.tally).plus(traced.tally)}

	// The in-process rungs replay warm-up plus the untraced segment untimed,
	// then time the segment the traced wire pass covered.
	plan := ladderPlan{sh: sh, seed: o.seed, warm: sh.warmOps + n, timed: n}
	type step struct {
		dst   *rung
		name  string
		build func(*model.System) (rungArm, error)
	}
	for _, s := range []step{
		{&ld.handler, "handler", serviceRung(sh, filepath.Join(dir, "handler.wal"), true)},
		{&ld.svc, "service", serviceRung(sh, filepath.Join(dir, "service.wal"), false)},
		{&ld.noJournal, "service-nojournal", serviceRung(sh, "", false)},
	} {
		if *s.dst, err = runRung(s.name, plan, log, s.build); err != nil {
			return nil, err
		}
		ld.checks = append(ld.checks,
			checkEqual("ladder."+s.name+".seq", s.dst.seq, ld.wire.seq),
			checkEqual("ladder."+s.name+".digest", s.dst.digest, ld.wire.digest),
			checkDecisions("ladder."+s.name+".decisions", s.dst.decided, ld.wire.decided))
	}

	// Core replays the stream's admit/remove subsequence, and so does a
	// second service-nojournal pass whose state it must reproduce.
	sub := plan
	sub.noRescale = true
	if ld.subNoJ, err = runRung("service-nojournal.sub", sub, log, serviceRung(sh, "", false)); err != nil {
		return nil, err
	}
	ld.core, err = runRung("core", sub, log, func(sys *model.System) (rungArm, error) {
		ld.coreArm = newCoreArm(sys, log)
		return ld.coreArm, nil
	})
	if err != nil {
		return nil, err
	}
	ld.checks = append(ld.checks,
		checkEqual("ladder.core.digest", ld.core.digest, ld.subNoJ.digest),
		checkDecisions("ladder.core.decisions", ld.core.decided, ld.subNoJ.decided))
	return ld, nil
}

func firstError(rs ...*recorder) error {
	for _, r := range rs {
		if r.firstErr != nil {
			return r.firstErr
		}
	}
	return nil
}

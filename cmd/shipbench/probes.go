package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/dynamic"
	"repro/internal/feasibility"
	"repro/internal/genitor"
	"repro/internal/heuristics"
	"repro/internal/journal"
	"repro/internal/lp"
	"repro/internal/model"
	"repro/internal/service"
	"repro/internal/simplex"
	"repro/internal/telemetry"
)

// timeN calls fn n times and returns each call's duration in the given unit
// (nanoseconds per unit).
func timeN(n int, unit float64, fn func()) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		fn()
		out[i] = float64(time.Since(t0).Nanoseconds()) / unit
	}
	return out
}

// stallUS is the latency above which a mutating op counts as a stall: some
// fifty times the median, which at these sizes only a compaction reaches.
const stallUS = 20e3

const (
	perUS = 1e3
	perMS = 1e6
	perS  = 1e9
)

// runTrace is the traced run: the ladder, then probes that time the exported
// functions of each layer from outside, on the same ship. It reports the
// per-layer metrics; nothing here is gated.
func runTrace(e env, sh *ship, o options, dir string) (result, []check, error) {
	telemetry.Enable()
	defer telemetry.Disable()
	log := newSpanLog()
	ld, err := runLadder(e, sh, o, dir, log)
	if err != nil {
		return result{}, nil, err
	}
	checks := ld.checks
	ms := newMetricSet(perLayer)
	put := ms.put
	reps := 20
	if o.smoke {
		reps = 3
	}

	// The ladder: each difference is the layer one rung has and the next lacks.
	wire := ld.wire.timed.mutating
	n := len(wire)
	put("shipbench.trace_overhead_us", ld.wire.p50()-median(ld.untraced.mutating), n)
	put("shipd.wire_us", ld.wire.p50()-ld.handler.p50(), n)
	put("service.codec_us", ld.handler.p50()-ld.svc.p50(), n)
	put("service.journal_us", ld.svc.p50()-ld.noJournal.p50(), n)
	put("service.loop_us", ld.subNoJ.p50()-ld.core.p50(), len(ld.core.timed.mutating))
	put("shipbench.core_self_us", log.selfTimeUS("core"), len(ld.core.timed.mutating))
	put("service.allocs_per_op", ld.svc.allocs, n)
	put("service.bytes_per_op", ld.svc.bytes, n)
	put("service.state_us", median(ld.noJournal.timed.reads), len(ld.noJournal.timed.reads))

	// The wire pass: tails and stalls (diagnostic), exact counts from the daemon.
	put("shipd.start_to_ready_s", ld.sv.d.startToReady.Seconds(), 1)
	put("shipd.mutate_p99_us", quantile(wire, 0.99), n)
	put("shipd.mutate_p999_us", quantile(wire, 0.999), n)
	put("shipd.mutate_max_ms", quantile(wire, 1)/1e3, n)
	stalls, stallS := 0, 0.0
	for _, us := range wire {
		if us > stallUS {
			stalls++
			stallS += us / 1e6
		}
	}
	put("shipd.stall_count", float64(stalls), n)
	put("shipd.stall_total_s", stallS, n)
	put("shipd.serve_rss_mb", ld.rssMB, 0)
	d := ld.wire.decided
	rejected := 0
	for _, k := range opKinds {
		rejected += d.Rejected[k]
	}
	put("service.rejected_share", 100*float64(rejected)/float64(d.Attempted), 0)
	appends := float64(ld.daemonC["service.journal.appends"])
	put("journal.fsyncs_per_kop", 1000*float64(ld.daemonC["service.journal.fsyncs"])/appends, 0)
	put("journal.compactions", float64(ld.daemonC["service.journal.compactions"]), 0)

	// The core rung: the exported calls the benchmark's own loop made.
	// A call the stream never made (no rejection, so no Undo) reports 0.
	for _, call := range []string{"heuristics.place", "feasibility.delta_eval", "feasibility.commit",
		"feasibility.undo", "feasibility.unassign", "feasibility.slackness"} {
		us := ld.coreArm.calls[call]
		put(call+"_us", median(us), len(us))
	}
	evals := float64(ld.core.counters["feasibility.delta.evals"])
	dirty := ld.core.counters["feasibility.delta.dirty_strings"] + ld.core.counters["feasibility.delta.dirty_machines"] +
		ld.core.counters["feasibility.delta.dirty_routes"]
	put("feasibility.dirty_per_eval", float64(dirty)/evals, 0)
	put("feasibility.recheck_per_eval", float64(ld.core.counters["feasibility.delta.recheck_strings"])/evals, 0)
	loaded := ld.coreArm.alloc
	put("feasibility.full_eval_us", median(timeN(reps, perUS, func() { _ = loaded.TwoStageFeasible() })), reps)
	put("feasibility.state_digest_us", median(timeN(reps, perUS, func() { _ = feasibility.StateDigest(loaded) })), reps)

	if err := probeStorage(sh, o, dir, reps, put, &checks); err != nil {
		return result{}, nil, err
	}
	if err := probePlanning(sh, o, reps, put, &checks); err != nil {
		return result{}, nil, err
	}

	// Set-up costs, measured on their own.
	put("workload.generate_s", ld.sv.genS.Seconds(), 1)
	put("model.save_s", ld.sv.saveS.Seconds(), 1)
	var loadErr error
	put("model.load_s", median(timeN(3, perS, func() { _, loadErr = model.LoadFile(sh.file) })), 3)
	if loadErr != nil {
		return result{}, nil, loadErr
	}
	fi, err := os.Stat(sh.file)
	if err != nil {
		return result{}, nil, err
	}
	put("model.system_json_mb", float64(fi.Size())/(1<<20), 0)

	if o.traceOut != "" {
		// One file per ship: spans.jsonl becomes spans.paper.jsonl.
		ext := filepath.Ext(o.traceOut)
		path := strings.TrimSuffix(o.traceOut, ext) + "." + sh.name + ext
		if err := log.writeFile(path); err != nil {
			return result{}, nil, err
		}
		fmt.Printf("shipbench: %d spans written to %s\n", len(log.spans), path)
	}
	attempted := ld.wire.decided.Attempted
	return finish(ms, attempted, 0, checks), checks, nil
}

// probeStorage times the journal and snapshot layers: append per fsync
// policy, scan, snapshot, restore and in-process recovery.
func probeStorage(sh *ship, o options, dir string, reps int, put func(string, float64, int), checks *[]check) error {
	// journal.Writer.Append of a record the size the serve path writes.
	payload := make([]byte, 123)
	for policy, n := range map[journal.FsyncPolicy]int{journal.FsyncBatch: 4000, journal.FsyncNone: 4000, journal.FsyncAlways: 200} {
		if o.smoke {
			n = 50
		}
		w, _, err := journal.Open(filepath.Join(dir, "append-"+string(policy)+".wal"), journal.Options{Fsync: policy})
		if err != nil {
			return err
		}
		var appendErr error
		us := timeN(n, perUS, func() {
			if _, err := w.Append(payload); err != nil {
				appendErr = err
			}
		})
		if err := w.Close(); err != nil {
			return err
		}
		if appendErr != nil {
			return appendErr
		}
		put("journal.append_us."+string(policy), median(us), n)
	}

	// The recover phase's journal, replayed in-process.
	j, err := buildJournal(sh, o.seed, filepath.Join(dir, "probe.wal"))
	if err != nil {
		return err
	}
	fi, err := os.Stat(j.path)
	if err != nil {
		return err
	}
	var scanErr error
	scanS := median(timeN(3, perS, func() { _, scanErr = journal.Scan(j.path) }))
	if scanErr != nil {
		return scanErr
	}
	put("journal.scan_mb_per_s", float64(fi.Size())/(1<<20)/scanS, 3)

	t0 := time.Now()
	base, err := service.Restore(service.JournalSnapshotPath(j.path), service.Config{})
	if err != nil {
		return err
	}
	restoreS := time.Since(t0).Seconds()
	base.Close()
	put("service.restore_s", restoreS, 1)

	t0 = time.Now()
	svc, rep, err := service.Recover(j.path, service.Config{CompactEvery: -1})
	if err != nil {
		return err
	}
	recoverS := time.Since(t0).Seconds()
	defer svc.Close()
	*checks = append(*checks,
		checkEqual("probe.recover.seq", rep.FinalSeq, j.seq),
		checkEqual("probe.recover.digest", rep.Digest, j.digest),
		checkEqual("probe.recover.replayed", rep.Replayed, j.records))
	put("service.recover_s", recoverS, 1)
	put("service.replay_us_per_record", 1e6*(recoverS-restoreS-scanS)/float64(j.records), j.records)

	// Snapshot of the loaded, recovered state: what one compaction writes.
	snap := filepath.Join(dir, "probe-snapshot.json")
	var snapErr error
	ms := timeN(3, perMS, func() { _, snapErr = svc.Snapshot(snap) })
	if snapErr != nil {
		return snapErr
	}
	put("service.snapshot_ms", median(ms), 3)
	if fi, err = os.Stat(snap); err != nil {
		return err
	}
	put("service.snapshot_mb", float64(fi.Size())/(1<<20), 0)
	return nil
}

// probePlanning times the batch planner's layers in-process: sequence decode,
// the one-shot heuristics, serial PSG, one GENITOR step, and the LP bound cold
// and warm-started.
func probePlanning(sh *ship, o options, reps int, put func(string, float64, int), checks *[]check) error {
	sys := sh.sys.Clone()
	scratch := feasibility.New(sys)
	order := heuristics.MWFOrder(sys)
	put("heuristics.decode_us", median(timeN(reps, perUS, func() { _ = heuristics.MapSequenceInto(scratch, order) })), reps)
	put("heuristics.mwf_ms", median(timeN(3, perMS, func() { _ = heuristics.Run("MWF", sys, heuristics.PSGConfig{}) })), 3)
	put("heuristics.tf_ms", median(timeN(3, perMS, func() { _ = heuristics.Run("TF", sys, heuristics.PSGConfig{}) })), 3)

	psg := sh.psgConfig(o.seed, 1)
	if sh.probePopulation > 0 {
		psg.PopulationSize = sh.probePopulation
	}
	t0 := time.Now()
	serial := heuristics.Run("PSG", sys, psg)
	put("heuristics.psg_evals_per_s", float64(serial.Evaluations)/time.Since(t0).Seconds(), serial.Evaluations)

	eng, err := genitor.New(psg.Config, len(sys.Strings), nil, func(perm []int) genitor.Fitness {
		m := heuristics.MapSequenceInto(scratch, perm)
		return genitor.Fitness{Primary: m.Worth, Secondary: m.Slackness}
	})
	if err != nil {
		return err
	}
	put("genitor.step_us", median(timeN(reps, perUS, func() { eng.Step() })), reps)

	cfg := lp.Config{Formulation: lp.Relaxed, Objective: lp.MaximizeWorth}
	t0 = time.Now()
	cold, err := lp.UpperBound(sys, cfg)
	if err != nil {
		return err
	}
	put("lp.bound_cold_ms", float64(time.Since(t0).Nanoseconds())/perMS, 1)
	put("lp.simplex_iterations", float64(cold.Iterations), 0)
	scaled, err := dynamic.ScaleWorkload(sys, 1.1)
	if err != nil {
		return err
	}
	cfg.WarmBasis = cold.Basis
	t0 = time.Now()
	warm, err := lp.UpperBound(scaled, cfg)
	if err != nil {
		return err
	}
	put("lp.bound_warm_ms", float64(time.Since(t0).Nanoseconds())/perMS, 1)
	*checks = append(*checks,
		check{Name: "probe.lp.optimal", OK: cold.Status == simplex.Optimal && warm.Status == simplex.Optimal,
			Detail: fmt.Sprintf("cold %v, warm %v", cold.Status, warm.Status)},
		check{Name: "probe.lp.dominates", OK: cold.Objective >= serial.Metric.Worth,
			Detail: fmt.Sprintf("LP bound %.4f, PSG worth %.0f", cold.Objective, serial.Metric.Worth)})
	return nil
}

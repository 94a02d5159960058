package main

// metricDef describes one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds (a test holds the two together); Moves
// is the benchmark's written-down prediction of which end-to-end metric a
// layer metric should move, and where.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: tolerated worsening as a share of the parent's median
	Moves  string  // per-layer only: "<end-to-end metric> on <workload>[, ...]" or "diagnostic"
}

// metricSet collects one run's values; each takes its unit from its
// definition, so a report cannot disagree with BENCHMARK.json about units.
type metricSet struct {
	defs   []metricDef
	values map[string]value
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]value, len(defs))}
}

// put records a value summarising samples measurements (0 for a count read
// from the program).
func (ms *metricSet) put(name string, v float64, samples int) {
	for _, d := range ms.defs {
		if d.Name == name {
			ms.values[name] = value{Value: v, Unit: d.Unit, Samples: samples}
			return
		}
	}
	panic("shipbench: metric " + name + " has no definition") // a bug in this package, never input
}

// putRounds records an end-to-end timing metric: the summary of its per-round
// values, and the values themselves for the -out record.
func (ms *metricSet) putRounds(name string, v float64, rounds, raw []float64) {
	ms.put(name, v, len(rounds))
	val := ms.values[name]
	val.Rounds, val.Raw = rounds, raw
	ms.values[name] = val
}

// endToEnd are the metrics a user of shipd, shipsched and lpbound sees. Every
// run reports all of them: the run takes one ship through serve, recover and
// plan.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "admit_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "remove_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "rescale_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "state_read_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "wal_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.01},
	{Name: "recovery_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "psg_wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "lpbound_wall_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// workloadDef is one ship and the reason it is measured.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{Name: "paper", Why: "scenario 1 (M=12, 150 strings, heavily loaded): wire, JSON codec and journal append dominate an op, so O(M) work must show nothing here"},
	{Name: "fleet", Why: "FleetConfig(128,2) (M=128, 171 strings, 3.9 MB catalog): compaction snapshots, state digests and O(M) placement scans become visible"},
}

// perLayer are the traced run's metrics, named by module. None is gated; each
// says which end-to-end metric it should move and on which ship, written down
// before measuring. With one closed-loop client nothing overlaps, so a faster
// layer saves at most its own share of the op.
var perLayer = []metricDef{
	// The ladder: differences between neighbouring rungs' p50.
	{Name: "shipbench.trace_overhead_us", Unit: "us", Better: "lower", Moves: "diagnostic"},
	{Name: "shipbench.core_self_us", Unit: "us", Better: "lower", Moves: "diagnostic"},
	{Name: "shipd.wire_us", Unit: "us", Better: "lower", Moves: "admit_p50_us on paper, ops_per_s on paper"},
	{Name: "service.codec_us", Unit: "us", Better: "lower", Moves: "admit_p50_us on paper, remove_p50_us on paper, rescale_p50_us on paper"},
	{Name: "service.journal_us", Unit: "us", Better: "lower", Moves: "ops_per_s on paper, ops_per_s on fleet"},
	{Name: "service.loop_us", Unit: "us", Better: "lower", Moves: "admit_p50_us on paper"},
	{Name: "service.allocs_per_op", Unit: "count", Better: "lower", Moves: "ops_per_s on paper"},
	{Name: "service.bytes_per_op", Unit: "B", Better: "lower", Moves: "ops_per_s on paper"},
	{Name: "service.state_us", Unit: "us", Better: "lower", Moves: "state_read_p50_us on paper, state_read_p50_us on fleet"},
	// The wire pass: tails, stalls and the daemon's own counts.
	{Name: "shipd.start_to_ready_s", Unit: "s", Better: "lower", Moves: "setup_s on fleet"},
	{Name: "shipd.mutate_p99_us", Unit: "us", Better: "lower", Moves: "diagnostic"},
	{Name: "shipd.mutate_p999_us", Unit: "us", Better: "lower", Moves: "diagnostic"},
	{Name: "shipd.mutate_max_ms", Unit: "ms", Better: "lower", Moves: "diagnostic"},
	{Name: "shipd.stall_count", Unit: "count", Better: "lower", Moves: "ops_per_s on fleet"},
	{Name: "shipd.stall_total_s", Unit: "s", Better: "lower", Moves: "ops_per_s on fleet"},
	{Name: "shipd.serve_rss_mb", Unit: "MB", Better: "lower", Moves: "diagnostic"},
	{Name: "service.rejected_share", Unit: "%", Better: "lower", Moves: "diagnostic"},
	{Name: "journal.fsyncs_per_kop", Unit: "count", Better: "lower", Moves: "ops_per_s on fleet"},
	{Name: "journal.compactions", Unit: "count", Better: "lower", Moves: "ops_per_s on fleet"},
	// The core rung: the exported calls of the benchmark's own loop.
	{Name: "heuristics.place_us", Unit: "us", Better: "lower", Moves: "recovery_s on fleet, admit_p50_us on fleet"},
	{Name: "feasibility.delta_eval_us", Unit: "us", Better: "lower", Moves: "recovery_s on fleet, psg_wall_s on paper"},
	{Name: "feasibility.full_eval_us", Unit: "us", Better: "lower", Moves: "diagnostic"},
	{Name: "feasibility.commit_us", Unit: "us", Better: "lower", Moves: "recovery_s on fleet"},
	{Name: "feasibility.undo_us", Unit: "us", Better: "lower", Moves: "recovery_s on paper"},
	{Name: "feasibility.unassign_us", Unit: "us", Better: "lower", Moves: "remove_p50_us on fleet, recovery_s on fleet"},
	{Name: "feasibility.slackness_us", Unit: "us", Better: "lower", Moves: "recovery_s on fleet"},
	{Name: "feasibility.state_digest_us", Unit: "us", Better: "lower", Moves: "state_read_p50_us on fleet, recovery_s on fleet"},
	{Name: "feasibility.dirty_per_eval", Unit: "count", Better: "lower", Moves: "diagnostic"},
	{Name: "feasibility.recheck_per_eval", Unit: "count", Better: "lower", Moves: "diagnostic"},
	// Journal and snapshot layers.
	{Name: "journal.append_us.batch", Unit: "us", Better: "lower", Moves: "ops_per_s on paper"},
	{Name: "journal.append_us.always", Unit: "us", Better: "lower", Moves: "diagnostic"},
	{Name: "journal.append_us.none", Unit: "us", Better: "lower", Moves: "ops_per_s on paper"},
	{Name: "journal.scan_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "recovery_s on paper, recovery_s on fleet"},
	{Name: "service.snapshot_ms", Unit: "ms", Better: "lower", Moves: "ops_per_s on fleet"},
	{Name: "service.snapshot_mb", Unit: "MB", Better: "lower", Moves: "ops_per_s on fleet"},
	{Name: "service.restore_s", Unit: "s", Better: "lower", Moves: "recovery_s on fleet"},
	{Name: "service.recover_s", Unit: "s", Better: "lower", Moves: "recovery_s on paper, recovery_s on fleet"},
	{Name: "service.replay_us_per_record", Unit: "us", Better: "lower", Moves: "recovery_s on paper, recovery_s on fleet"},
	// The batch planner.
	{Name: "heuristics.decode_us", Unit: "us", Better: "lower", Moves: "psg_wall_s on paper, psg_wall_s on fleet"},
	{Name: "heuristics.mwf_ms", Unit: "ms", Better: "lower", Moves: "diagnostic"},
	{Name: "heuristics.tf_ms", Unit: "ms", Better: "lower", Moves: "diagnostic"},
	{Name: "heuristics.psg_evals_per_s", Unit: "1/s", Better: "higher", Moves: "psg_wall_s on paper, psg_wall_s on fleet"},
	{Name: "genitor.step_us", Unit: "us", Better: "lower", Moves: "psg_wall_s on paper"},
	{Name: "lp.bound_cold_ms", Unit: "ms", Better: "lower", Moves: "lpbound_wall_s on paper, lpbound_wall_s on fleet"},
	{Name: "lp.bound_warm_ms", Unit: "ms", Better: "lower", Moves: "diagnostic"},
	{Name: "lp.simplex_iterations", Unit: "count", Better: "lower", Moves: "lpbound_wall_s on paper"},
	// Set-up.
	{Name: "workload.generate_s", Unit: "s", Better: "lower", Moves: "setup_s on fleet"},
	{Name: "model.save_s", Unit: "s", Better: "lower", Moves: "setup_s on fleet"},
	{Name: "model.load_s", Unit: "s", Better: "lower", Moves: "setup_s on fleet, recovery_s on fleet"},
	{Name: "model.system_json_mb", Unit: "MB", Better: "lower", Moves: "setup_s on fleet"},
}

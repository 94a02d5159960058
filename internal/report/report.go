// Package report renders human-readable summaries of allocations: the
// operator-facing view of the "interactive software application ...
// [allowing] simulation, testing, and demonstration of the heuristics"
// described in Section 8. Output is plain text suitable for terminals and
// logs: utilization bars per machine, the busiest routes, per-string
// placement tables, and a QoS headroom column showing how close each string
// sits to its latency bound.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/feasibility"
	"repro/internal/telemetry"
)

// barWidth is the character width of utilization bars.
const barWidth = 30

// bar renders a [0,1] utilization as a fixed-width gauge.
func bar(u float64) string {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	fill := int(u*barWidth + 0.5)
	return "[" + strings.Repeat("#", fill) + strings.Repeat(".", barWidth-fill) + "]"
}

// WriteUtilization prints one gauge per machine plus the most utilized
// routes (up to topRoutes; zero-utilization routes are omitted).
func WriteUtilization(w io.Writer, a *feasibility.Allocation, topRoutes int) {
	sys := a.System()
	fmt.Fprintln(w, "machine utilization:")
	for j := 0; j < sys.Machines; j++ {
		u := a.MachineUtilization(j)
		fmt.Fprintf(w, "  m%-3d %s %6.1f%%\n", j, bar(u), 100*u)
	}
	type routeU struct {
		j1, j2 int
		u      float64
	}
	var routes []routeU
	a.ActiveRoutes(func(j1, j2 int, u float64) {
		if u > 0 {
			routes = append(routes, routeU{j1, j2, u})
		}
	})
	sort.Slice(routes, func(x, y int) bool { return routes[x].u > routes[y].u })
	if len(routes) > topRoutes {
		routes = routes[:topRoutes]
	}
	if len(routes) > 0 {
		fmt.Fprintln(w, "busiest routes:")
		for _, r := range routes {
			fmt.Fprintf(w, "  m%d->m%-3d %s %6.1f%%\n", r.j1, r.j2, bar(r.u), 100*r.u)
		}
	}
	fmt.Fprintf(w, "system slackness: %.3f\n", a.Slackness())
}

// WriteStrings prints one row per completely mapped string: worth, relative
// tightness, estimated end-to-end latency against its bound (headroom), and
// the machine vector. Unmapped strings are summarized by a count.
func WriteStrings(w io.Writer, a *feasibility.Allocation) {
	sys := a.System()
	fmt.Fprintf(w, "%-6s %6s %9s %12s %10s  %s\n",
		"string", "worth", "tightness", "latency", "headroom", "machines")
	unmapped := 0
	for k := range sys.Strings {
		if !a.Complete(k) {
			unmapped++
			continue
		}
		lat := a.StringLatency(k)
		bound := sys.Strings[k].MaxLatency
		fmt.Fprintf(w, "S%-5d %6.0f %9.3f %7.2f/%-4.0f %9.0f%%  %v\n",
			k, sys.Strings[k].Worth, a.Tightness(k), lat, bound,
			100*(1-lat/bound), a.StringMachines(k))
	}
	if unmapped > 0 {
		fmt.Fprintf(w, "(%d strings unmapped)\n", unmapped)
	}
}

// WriteViolations lists every QoS violation of the current mapping (useful
// after workload growth, before repair); it prints a confirmation line when
// the mapping is clean.
func WriteViolations(w io.Writer, a *feasibility.Allocation) {
	violations := a.Violations()
	if len(violations) == 0 && a.Stage1Feasible() {
		fmt.Fprintln(w, "two-stage analysis: feasible, no violations")
		return
	}
	if !a.Stage1Feasible() {
		sys := a.System()
		for j := 0; j < sys.Machines; j++ {
			if u := a.MachineUtilization(j); u > 1 {
				fmt.Fprintf(w, "stage 1: machine %d over capacity at %.1f%%\n", j, 100*u)
			}
			a.ActiveRoutesFrom(j, func(j2 int, u float64) {
				if u > 1 {
					fmt.Fprintf(w, "stage 1: route %d->%d over capacity at %.1f%%\n", j, j2, 100*u)
				}
			})
		}
	}
	for _, v := range violations {
		fmt.Fprintf(w, "stage 2: %s\n", v.Error())
	}
}

// derivedMetric names one derived ratio and how to render it.
type derivedMetric struct {
	key     string // stable map key for machine consumers (/v1/metrics)
	label   string // human label for the text report
	percent bool
}

// derivedOrder fixes the presentation order of the derived ratios.
var derivedOrder = []derivedMetric{
	{"decode_memo_hit_rate", "decode memo hit rate", true},
	{"worker_utilization", "worker utilization", true},
	{"delta_dirty_strings_per_eval", "delta dirty strings/eval", false},
	{"delta_recheck_strings_per_eval", "delta recheck strings/eval", false},
	{"delta_wait_terms_per_eval", "delta wait terms/eval", false},
}

// Derived computes the derived ratios operators actually read — decode-memo
// hit rate and worker-pool utilization (both in [0,1]), and the delta
// analyzer's average dirty and recheck set sizes and waiting-sum additions
// (the rosters' prefix upkeep) per incremental evaluation — from their
// constituent counters. Ratios whose denominator counters are zero
// are omitted, so an empty snapshot yields an empty map. The text report and
// the service /v1/metrics endpoint share this computation.
func Derived(snap telemetry.Snapshot) map[string]float64 {
	out := make(map[string]float64)
	hit := snap.Counter("heuristics.decode.memo_hit")
	miss := snap.Counter("heuristics.decode.memo_miss")
	if hit+miss > 0 {
		out["decode_memo_hit_rate"] = float64(hit) / float64(hit+miss)
	}
	if capacity := snap.Counter("pool.capacity_ns"); capacity > 0 {
		out["worker_utilization"] = float64(snap.Counter("pool.busy_ns")) / float64(capacity)
	}
	if evals := snap.Counter("feasibility.delta.evals"); evals > 0 {
		out["delta_dirty_strings_per_eval"] =
			float64(snap.Counter("feasibility.delta.dirty_strings")) / float64(evals)
		out["delta_recheck_strings_per_eval"] =
			float64(snap.Counter("feasibility.delta.recheck_strings")) / float64(evals)
		out["delta_wait_terms_per_eval"] =
			float64(snap.Counter("feasibility.delta.wait_terms")) / float64(evals)
	}
	return out
}

// WriteTelemetry renders a telemetry snapshot: the raw instrument dump
// followed by the Derived ratios, computed at print time from their
// constituent counters. Empty snapshots print nothing.
func WriteTelemetry(w io.Writer, snap telemetry.Snapshot) {
	if snap.Empty() {
		return
	}
	fmt.Fprintln(w, "telemetry:")
	snap.WriteText(w)
	derived := Derived(snap)
	if len(derived) > 0 {
		fmt.Fprintln(w, "derived:")
	}
	for _, m := range derivedOrder {
		v, ok := derived[m.key]
		if !ok {
			continue
		}
		if m.percent {
			fmt.Fprintf(w, "  %-42s %11.1f%%\n", m.label, 100*v)
		} else {
			fmt.Fprintf(w, "  %-42s %12.2f\n", m.label, v)
		}
	}
}

// Write produces the full report: utilization, strings, violations, and —
// when telemetry is enabled — the instrument snapshot appendix.
func Write(w io.Writer, a *feasibility.Allocation) {
	WriteUtilization(w, a, 5)
	fmt.Fprintln(w)
	WriteStrings(w, a)
	fmt.Fprintln(w)
	WriteViolations(w, a)
	if snap := telemetry.Capture(); !snap.Empty() {
		fmt.Fprintln(w)
		WriteTelemetry(w, snap)
	}
}

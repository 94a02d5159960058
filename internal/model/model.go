// Package model defines the Total Ship Computing Environment (TSCE) system
// model from Section 2 of Shestak et al., "Resource Allocation for Periodic
// Applications in a Shipboard Environment" (IPPS 2005): a suite of
// heterogeneous multitasking machines connected by point-to-point
// communication routes, running continuously executing strings of periodic
// applications subject to throughput and end-to-end latency constraints.
//
// Unit conventions used throughout this repository:
//
//   - nominal execution times, periods and latency bounds are in seconds;
//   - nominal CPU utilizations are dimensionless fractions in (0, 1];
//   - application output sizes are in kilobytes (KB);
//   - route bandwidths are in megabits per second (Mb/s).
//
// TransferSeconds converts between the latter two.
package model

import (
	"fmt"
	"math"
)

// Worth levels preassigned to strings (Section 2: I[k] ∈ {1, 10, 100}).
const (
	WorthLow    = 1.0
	WorthMedium = 10.0
	WorthHigh   = 100.0
)

// Application is one application a_i^k inside a string. Its execution cost is
// machine dependent: NominalTime[j] is the time in seconds the application
// needs to process one data set when it is the only application executing on
// machine j, and NominalUtil[j] is the average CPU utilization of machine j
// during that execution. The product NominalTime[j]*NominalUtil[j] is the
// fixed amount of CPU work the application requires on machine j.
type Application struct {
	// NominalTime[j] is t^k[i, j] in seconds; one entry per machine.
	NominalTime []float64 `json:"nominalTime"`
	// NominalUtil[j] is u^k[i, j] in (0, 1]; one entry per machine.
	NominalUtil []float64 `json:"nominalUtil"`
	// OutputKB is O^k[i], the size in kilobytes of the data set this
	// application passes to its successor in the string. The output of the
	// last application in a string goes to actuators and never traverses a
	// modeled route, but the field is still populated by generators.
	OutputKB float64 `json:"outputKB"`
}

// Work returns the fixed amount of CPU work (in CPU-seconds) the application
// requires on machine j: t[i,j] * u[i,j].
func (a *Application) Work(j int) float64 {
	return a.NominalTime[j] * a.NominalUtil[j]
}

// AppString is one application string S^k: an ordered sequence of
// applications connected in precedence order by data transfers. Data is
// received by the string with a fixed period; every application must execute
// once each period, and a data set must traverse the whole string within the
// end-to-end latency bound.
type AppString struct {
	// ID identifies the string within its System; Systems built by this
	// package and by package workload use the index into System.Strings.
	ID int `json:"id"`
	// Worth is the preassigned importance factor I[k] ∈ {1, 10, 100}.
	Worth float64 `json:"worth"`
	// Period is P[k] in seconds.
	Period float64 `json:"period"`
	// MaxLatency is Lmax[k] in seconds.
	MaxLatency float64 `json:"maxLatency"`
	// Apps is the ordered application sequence a_1^k ... a_n^k.
	Apps []Application `json:"apps"`
}

// Len returns n_k, the number of applications in the string.
func (s *AppString) Len() int { return len(s.Apps) }

// System is the hardware and workload description handed to the allocation
// heuristics: M machines, a directed bandwidth matrix, and the set of strings
// considered for mapping. A System is treated as immutable once built.
type System struct {
	// Machines is M, the number of machines in the suite.
	Machines int `json:"machines"`
	// Bandwidth[j1][j2] is w[j1, j2] in Mb/s, the total reserved bandwidth
	// of the virtual point-to-point route from machine j1 to machine j2.
	// Diagonal entries are ignored: intra-machine routes have infinite
	// bandwidth (Section 6).
	Bandwidth [][]float64 `json:"bandwidth"`
	// Strings is the set of strings considered for mapping.
	Strings []AppString `json:"strings"`
}

// TransferSeconds returns the time in seconds needed to move kb kilobytes
// over a route of mbps megabits per second: 8*kb/(1000*mbps). Time-of-flight
// is neglected per Section 6. A non-positive bandwidth yields +Inf.
func TransferSeconds(kb, mbps float64) float64 {
	if mbps <= 0 {
		return math.Inf(1)
	}
	return 8 * kb / (1000 * mbps)
}

// RouteTransferSeconds returns the nominal time to transfer kb kilobytes from
// machine j1 to machine j2 in sys. Intra-machine transfers take zero time.
func (sys *System) RouteTransferSeconds(kb float64, j1, j2 int) float64 {
	if j1 == j2 {
		return 0
	}
	return TransferSeconds(kb, sys.Bandwidth[j1][j2])
}

// RouteDemandUtil returns the fraction of route (j1, j2) capacity consumed by
// transferring kb kilobytes once per period seconds: the minimum average
// bandwidth O[i]/P[k] that completes the transfer without a throughput
// violation, divided by the route bandwidth (the summand of equation (3)).
// Intra-machine transfers consume no route capacity.
func (sys *System) RouteDemandUtil(kb, period float64, j1, j2 int) float64 {
	if j1 == j2 {
		return 0
	}
	return DemandMbps(kb, period) / sys.Bandwidth[j1][j2]
}

// DemandMbps converts "kb kilobytes every period seconds" into an average
// bandwidth demand in Mb/s: the numerator of RouteDemandUtil, which does not
// depend on the route.
func DemandMbps(kb, period float64) float64 {
	return 8 * kb / (1000 * period)
}

// MachineDemandUtil returns the fraction of machine j capacity consumed by
// application i of string k: t[i,j]*u[i,j]/P[k], the minimum average CPU
// utilization that lets the application finish each data set within its
// period (the summand of equation (2)).
func (sys *System) MachineDemandUtil(k, i, j int) float64 {
	s := &sys.Strings[k]
	return s.Apps[i].Work(j) / s.Period
}

// NumApps returns the total number of applications across all strings.
func (sys *System) NumApps() int {
	n := 0
	for i := range sys.Strings {
		n += len(sys.Strings[i].Apps)
	}
	return n
}

// TotalWorth returns the sum of worth factors over all strings: the maximum
// primary-metric value any allocation could attain.
func (sys *System) TotalWorth() float64 {
	w := 0.0
	for i := range sys.Strings {
		w += sys.Strings[i].Worth
	}
	return w
}

// ScaleDemand writes src's demand floats times g into dst (dst may be src):
// the workload-change rule, stated once. Nominal execution times and output
// sizes scale; nominal utilizations do not — the application demands the same
// CPU share for proportionally longer, so its CPU work t·u and its route
// demand both scale by g. Every dst[i].NominalTime must already have its
// src's length.
func ScaleDemand(dst, src []Application, g float64) {
	for i := range src {
		for j, t := range src[i].NominalTime {
			dst[i].NominalTime[j] = t * g
		}
		dst[i].OutputKB = src[i].OutputKB * g
	}
}

// ScaledView returns the catalog base × scale: string k's demand floats are
// base's times scale[k] under ScaleDemand, one multiply from the pristine
// float. Only the NominalTime rows and the Application structs are fresh
// memory; Bandwidth and every NominalUtil row are base's own slices, which
// ScaleDemand never writes, so rewriting the view's demand in place with
// ScaleDemand(view.Strings[k].Apps, base.Strings[k].Apps, g) leaves base
// untouched. scale must have one entry per string.
func ScaledView(base *System, scale []float64) *System {
	view := &System{
		Machines:  base.Machines,
		Bandwidth: base.Bandwidth,
		Strings:   make([]AppString, len(base.Strings)),
	}
	for k := range base.Strings {
		src := base.Strings[k].Apps
		apps := make([]Application, len(src))
		for i := range src {
			apps[i].NominalTime = make([]float64, len(src[i].NominalTime))
			apps[i].NominalUtil = src[i].NominalUtil
		}
		ScaleDemand(apps, src, scale[k])
		view.Strings[k] = base.Strings[k]
		view.Strings[k].Apps = apps
	}
	return view
}

// Clone returns a deep copy of the system.
func (sys *System) Clone() *System {
	out := &System{Machines: sys.Machines}
	out.Bandwidth = make([][]float64, len(sys.Bandwidth))
	for i, row := range sys.Bandwidth {
		out.Bandwidth[i] = append([]float64(nil), row...)
	}
	out.Strings = make([]AppString, len(sys.Strings))
	for i := range sys.Strings {
		src := &sys.Strings[i]
		dst := &out.Strings[i]
		*dst = *src
		dst.Apps = make([]Application, len(src.Apps))
		for a := range src.Apps {
			dst.Apps[a] = Application{
				NominalTime: append([]float64(nil), src.Apps[a].NominalTime...),
				NominalUtil: append([]float64(nil), src.Apps[a].NominalUtil...),
				OutputKB:    src.Apps[a].OutputKB,
			}
		}
	}
	return out
}

// Validate checks structural and numeric sanity of the system description and
// returns a descriptive error for the first violation found. Heuristics and
// the feasibility analysis assume a validated system.
func (sys *System) Validate() error {
	if sys.Machines <= 0 {
		return fmt.Errorf("model: system needs at least one machine, got %d", sys.Machines)
	}
	if len(sys.Bandwidth) != sys.Machines {
		return fmt.Errorf("model: bandwidth matrix has %d rows, want %d", len(sys.Bandwidth), sys.Machines)
	}
	for j1, row := range sys.Bandwidth {
		if len(row) != sys.Machines {
			return fmt.Errorf("model: bandwidth row %d has %d entries, want %d", j1, len(row), sys.Machines)
		}
		for j2, w := range row {
			if j1 == j2 {
				continue // diagonal ignored: infinite intra-machine bandwidth
			}
			if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("model: bandwidth[%d][%d] = %v, want finite positive", j1, j2, w)
			}
		}
	}
	for k := range sys.Strings {
		s := &sys.Strings[k]
		if len(s.Apps) == 0 {
			return fmt.Errorf("model: string %d has no applications", k)
		}
		if s.Period <= 0 || math.IsNaN(s.Period) || math.IsInf(s.Period, 0) {
			return fmt.Errorf("model: string %d period = %v, want finite positive", k, s.Period)
		}
		if s.MaxLatency <= 0 || math.IsNaN(s.MaxLatency) || math.IsInf(s.MaxLatency, 0) {
			return fmt.Errorf("model: string %d max latency = %v, want finite positive", k, s.MaxLatency)
		}
		if s.Worth <= 0 {
			return fmt.Errorf("model: string %d worth = %v, want positive", k, s.Worth)
		}
		for i := range s.Apps {
			a := &s.Apps[i]
			if len(a.NominalTime) != sys.Machines || len(a.NominalUtil) != sys.Machines {
				return fmt.Errorf("model: string %d app %d has %d/%d machine entries, want %d",
					k, i, len(a.NominalTime), len(a.NominalUtil), sys.Machines)
			}
			for j := 0; j < sys.Machines; j++ {
				if t := a.NominalTime[j]; t <= 0 || math.IsNaN(t) || math.IsInf(t, 0) {
					return fmt.Errorf("model: string %d app %d nominal time on machine %d = %v, want finite positive", k, i, j, t)
				}
				if u := a.NominalUtil[j]; u <= 0 || u > 1 || math.IsNaN(u) {
					return fmt.Errorf("model: string %d app %d nominal utilization on machine %d = %v, want in (0, 1]", k, i, j, u)
				}
			}
			if a.OutputKB < 0 || math.IsNaN(a.OutputKB) || math.IsInf(a.OutputKB, 0) {
				return fmt.Errorf("model: string %d app %d output = %v KB, want finite non-negative", k, i, a.OutputKB)
			}
		}
	}
	return nil
}

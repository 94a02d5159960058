// Package service is the online allocation daemon behind cmd/shipd: a
// long-lived owner of one live feasibility.Allocation, tracked by a
// DeltaAnalyzer, serving admission control over a versioned HTTP/JSON API.
// The shipboard setting of the paper is inherently online — strings arrive,
// depart, and rescale while the ship fights through faults and surges — and
// the incremental analyzer makes every serving decision O(changed) instead of
// a full two-stage re-analysis.
//
// This file defines the wire contract: request/response DTOs stamped with
// SchemaVersion, the single error envelope every endpoint uses, and the
// common Decision shape through which admissions, repairs (dynamic.Result),
// and degradation runs (overload.Result) all report worth retained,
// violations, and actions.
package service

import (
	"fmt"

	"repro/internal/dynamic"
	"repro/internal/faults"
	"repro/internal/feasibility"
	"repro/internal/overload"
	"repro/internal/telemetry"
)

// SchemaVersion is stamped into every response, journal record and snapshot
// file; clients reject versions newer than they understand. Version 2 took
// the catalog out of the snapshot file (see snapshot.go); version 3 keeps
// every roster in canonical priority order, which changes every state digest
// (feasibility.SnapshotVersion 3); version 4 makes every utilization its
// roster's total, which moves state digests and slackness bits, and leaves
// the utilizations out of the snapshot (feasibility.SnapshotVersion 4). The
// alloc section going to the assignment vectors alone
// (feasibility.SnapshotVersion 5) left the schema at 4: a version-4 file is
// refused by the alloc section's own version.
const SchemaVersion = 4

// Error codes carried by the error envelope. The HTTP layer maps them to
// status codes; programmatic clients switch on the code, not the message.
const (
	// CodeBadRequest: malformed JSON or invalid parameters.
	CodeBadRequest = "bad_request"
	// CodeUnknownString: a string index outside the system's catalog.
	CodeUnknownString = "unknown_string"
	// CodeUnknownResource: a fault names a machine or route the suite lacks.
	CodeUnknownResource = "unknown_resource"
	// CodeConflict: the operation contradicts current state (admitting a
	// mapped string, removing an unmapped one).
	CodeConflict = "conflict"
	// CodeUnavailable: the service is shutting down.
	CodeUnavailable = "unavailable"
	// CodeInternal: an unexpected internal failure.
	CodeInternal = "internal"
)

// ErrorBody is the single error shape of the API.
type ErrorBody struct {
	Code    string   `json:"code"`
	Message string   `json:"message"`
	Details []string `json:"details,omitempty"`
}

// ErrorEnvelope wraps ErrorBody with the schema version; it is both the JSON
// error response body and the Go error value the service methods return.
type ErrorEnvelope struct {
	SchemaVersion int       `json:"schemaVersion"`
	Err           ErrorBody `json:"error"`
}

// Error implements the error interface.
func (e *ErrorEnvelope) Error() string { return e.Err.Code + ": " + e.Err.Message }

// Errorf builds an error envelope.
func Errorf(code string, details []string, format string, args ...any) *ErrorEnvelope {
	return &ErrorEnvelope{
		SchemaVersion: SchemaVersion,
		Err:           ErrorBody{Code: code, Message: fmt.Sprintf(format, args...), Details: details},
	}
}

// AdmitRequest asks the daemon to admit string StringID into the mapping.
type AdmitRequest struct {
	StringID int `json:"stringId"`
}

// RemoveRequest asks the daemon to remove string StringID from the mapping.
type RemoveRequest struct {
	StringID int `json:"stringId"`
}

// RescaleRequest rescales the demand of string StringID (nominal computation
// times and transfer sizes multiplied by Factor) and re-places it if mapped.
type RescaleRequest struct {
	StringID int     `json:"stringId"`
	Factor   float64 `json:"factor"`
}

// FaultsRequest injects resource outages and repairs; failed resources are
// masked from placement and every string touching one is evacuated and
// repaired via dynamic.Survive.
type FaultsRequest struct {
	Fail   []faults.Resource `json:"fail,omitempty"`
	Repair []faults.Resource `json:"repair,omitempty"`
}

// SnapshotRequest asks the daemon to write a snapshot file; an empty Path
// uses the configured default.
type SnapshotRequest struct {
	Path string `json:"path,omitempty"`
}

// SnapshotResponse reports a written snapshot: the state file and the
// catalog file beside it that the state file pins. A copy needs both.
type SnapshotResponse struct {
	SchemaVersion int    `json:"schemaVersion"`
	Path          string `json:"path"`
	Catalog       string `json:"catalog"`
	Digest        string `json:"digest"`
	Seq           uint64 `json:"seq"`
}

// Violation is the wire form of a stage-2 QoS violation (equation (1)).
type Violation struct {
	StringID int     `json:"stringId"`
	Kind     string  `json:"kind"`
	App      int     `json:"app"`
	Value    float64 `json:"value"`
	Bound    float64 `json:"bound"`
}

// Action is one controller decision inside a Decision: a repair migration or
// eviction (dynamic), a shed or re-admission (overload), or the placement of
// an admitted string.
type Action struct {
	Time        float64 `json:"time,omitempty"`
	StringID    int     `json:"stringId"`
	Kind        string  `json:"kind"`
	Reason      string  `json:"reason,omitempty"`
	MovedApps   int     `json:"movedApps,omitempty"`
	CostSeconds float64 `json:"costSeconds,omitempty"`
}

// Decision is the common outcome shape of every state-changing operation:
// admissions, removals, rescales, fault repairs, and surge episodes all
// report worth accounting, violations, and actions through it, instead of
// three ad-hoc result structs.
type Decision struct {
	SchemaVersion int `json:"schemaVersion"`
	// Seq is the state sequence number after the operation; the event stream
	// is ordered by it.
	Seq uint64 `json:"seq"`
	// Op names the operation: "admit", "remove", "rescale", "faults", "surge".
	Op string `json:"op"`
	// Accepted reports whether the operation changed the mapping as asked; a
	// rejected admission or rescale leaves the state bit-identical.
	Accepted bool `json:"accepted"`
	// StringID is the subject string, or -1 for system-wide operations.
	StringID int `json:"stringId"`
	// Reason explains a rejection in one line. A rejection replayed from the
	// journal reads "rejected before the restart; replayed from the journal
	// without re-deciding" and carries no Violations: the journal records
	// neither.
	Reason string `json:"reason,omitempty"`
	// WorthBefore/WorthAfter bracket the operation; WorthRetained is their
	// ratio (1 when nothing was mapped before; above 1 for admissions).
	WorthBefore   float64 `json:"worthBefore"`
	WorthAfter    float64 `json:"worthAfter"`
	WorthRetained float64 `json:"worthRetained"`
	// Slackness is the system slackness Λ after the operation.
	Slackness float64 `json:"slackness"`
	// Mapped is the number of completely mapped strings after the operation.
	Mapped int `json:"mapped"`
	// WorthBound is the LP upper bound on total worth (0 when bounds are
	// disabled); BoundWarmStarted reports whether the last bound re-solve
	// reused the previous simplex basis.
	WorthBound       float64 `json:"worthBound,omitempty"`
	BoundWarmStarted bool    `json:"boundWarmStarted,omitempty"`
	// Violations lists the stage-2 violations that rejected the operation.
	Violations []Violation `json:"violations,omitempty"`
	// Actions logs controller activity (repair, shed, re-admit, placement).
	Actions []Action `json:"actions,omitempty"`
	// Evacuated lists strings forced off failed resources (faults only).
	Evacuated []int `json:"evacuated,omitempty"`
}

// StringStatus is the per-string row of a StateResponse.
type StringStatus struct {
	ID       int     `json:"id"`
	Mapped   bool    `json:"mapped"`
	Worth    float64 `json:"worth"`
	Scale    float64 `json:"scale"`
	Machines []int   `json:"machines,omitempty"`
}

// StateResponse is the full observable daemon state.
type StateResponse struct {
	SchemaVersion int     `json:"schemaVersion"`
	Seq           uint64  `json:"seq"`
	Machines      int     `json:"machines"`
	Strings       int     `json:"strings"`
	MappedCount   int     `json:"mappedCount"`
	Worth         float64 `json:"worth"`
	TotalWorth    float64 `json:"totalWorth"`
	Slackness     float64 `json:"slackness"`
	Feasible      bool    `json:"feasible"`
	// WorthBound is the LP upper bound on total worth (0 when disabled).
	WorthBound float64 `json:"worthBound,omitempty"`
	// Digest is the feasibility.StateDigest fingerprint of the live
	// allocation; bit-identical states have equal digests.
	Digest       string         `json:"digest"`
	MachinesDown int            `json:"machinesDown"`
	RoutesDown   int            `json:"routesDown"`
	StringStates []StringStatus `json:"stringStates"`
}

// MetricsResponse is the telemetry snapshot plus the derived ratios of
// report.Derived.
type MetricsResponse struct {
	SchemaVersion int                `json:"schemaVersion"`
	Telemetry     telemetry.Snapshot `json:"telemetry"`
	Derived       map[string]float64 `json:"derived,omitempty"`
}

// Phase is the daemon lifecycle phase reported by GET /v1/readyz. Liveness
// (GET /v1/healthz) is orthogonal: a recovering or draining daemon is alive
// but not ready.
type Phase int32

const (
	// PhaseRecovering: journal replay is in progress; state is not yet
	// servable (reported by the pre-recovery handler, see RecoveringHandler).
	PhaseRecovering Phase = iota
	// PhaseReady: serving.
	PhaseReady
	// PhaseDraining: graceful shutdown has begun; in-flight operations
	// complete but the daemon should be removed from rotation.
	PhaseDraining
)

func (p Phase) String() string {
	switch p {
	case PhaseRecovering:
		return "recovering"
	case PhaseReady:
		return "ready"
	case PhaseDraining:
		return "draining"
	}
	return fmt.Sprintf("phase(%d)", int32(p))
}

// HealthResponse is the body of GET /v1/healthz (and a ready GET /v1/readyz).
// A not-ready readyz responds with the standard 503 CodeUnavailable error
// envelope instead, carrying the phase in the message and details.
type HealthResponse struct {
	SchemaVersion int    `json:"schemaVersion"`
	Status        string `json:"status"`
	Phase         string `json:"phase"`
	// Reason explains a failed health check (e.g. a broken journal).
	Reason string `json:"reason,omitempty"`
}

// fromViolations converts analyzer violations to their wire form.
func fromViolations(vs []feasibility.Violation) []Violation {
	if len(vs) == 0 {
		return nil
	}
	out := make([]Violation, len(vs))
	for i, v := range vs {
		out[i] = Violation{StringID: v.StringID, Kind: v.Kind, App: v.App, Value: v.Value, Bound: v.Bound}
	}
	return out
}

// FromRepair maps a dynamic.Result (Survive/Repair) onto the common Decision
// shape. The caller fills Seq, Slackness-independent state counts, and bound
// fields.
func FromRepair(op string, r *dynamic.Result) Decision {
	d := Decision{
		SchemaVersion: SchemaVersion,
		Op:            op,
		Accepted:      true,
		StringID:      -1,
		WorthBefore:   r.WorthBefore,
		WorthAfter:    r.WorthAfter,
		WorthRetained: r.Retained,
		Slackness:     r.SlacknessAfter,
		Evacuated:     append([]int(nil), r.Evacuated...),
	}
	for _, a := range r.Actions {
		d.Actions = append(d.Actions, Action{
			StringID:    a.StringID,
			Kind:        string(a.Kind),
			MovedApps:   a.MovedApps,
			CostSeconds: a.CostSeconds,
		})
	}
	return d
}

// FromOverload maps an overload.Result (degradation controller run) onto the
// common Decision shape.
func FromOverload(op string, r *overload.Result) Decision {
	d := Decision{
		SchemaVersion: SchemaVersion,
		Op:            op,
		Accepted:      true,
		StringID:      -1,
		WorthBefore:   r.WorthBefore,
		WorthAfter:    r.WorthAfter,
		WorthRetained: r.Retained,
		Slackness:     r.SlacknessAfter,
	}
	for _, a := range r.Actions {
		d.Actions = append(d.Actions, Action{
			Time:     a.Time,
			StringID: a.StringID,
			Kind:     string(a.Kind),
			Reason:   a.Reason,
		})
	}
	return d
}

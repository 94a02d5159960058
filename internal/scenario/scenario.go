// Package scenario is the shared loader for JSON scenario files. The faults
// package (timed resource outages) and the overload package (timed demand
// surges) grew two near-identical loaders: decode JSON, run the per-event
// structural checks that need no system, and leave range validation against a
// concrete system to the caller. This package folds that envelope into one
// versioned loader both route through, so scenario files of either kind share
// version gating, error shape, and the ErrOutOfRange sentinel used for
// resource/string range failures.
//
// A scenario type participates by implementing Structural and embedding an
// optional "version" field. Version 0 (absent) marks pre-versioned files and
// is always accepted; files declaring a version newer than MaxVersion are
// rejected before the payload is decoded, so an old binary fails fast on a
// new file instead of silently dropping fields.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// MaxVersion is the newest scenario file version this build understands.
const MaxVersion = 1

// ErrOutOfRange is the sentinel wrapped by range-validation errors when a
// scenario names a machine, route, or string outside the system it is applied
// to; callers (e.g. dynamic.SurviveScenario) test it with errors.Is. The
// faults package aliases it, so faults.ErrOutOfRange and scenario.ErrOutOfRange
// are the same value.
var ErrOutOfRange = errors.New("resource out of range")

// Structural is implemented by scenario payloads that can validate their own
// system-independent structure (finite times, positive factors, duplicate
// event IDs, ...). Range checks against a concrete system happen later, via
// the payload's own ValidateFor/Validate(n) entry points.
type Structural interface {
	ValidateStructure() error
}

// Parse decodes a scenario payload from JSON bytes into sc and runs its
// structural validation. label prefixes decode errors ("faults", "overload").
// A name sc has no field for is refused, and so (by the version pass) is
// anything after the document.
func Parse(data []byte, label string, sc Structural) error {
	var env struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return fmt.Errorf("%s: decoding scenario: %w", label, err)
	}
	if env.Version < 0 || env.Version > MaxVersion {
		return fmt.Errorf("%s: scenario file version %d not supported (max %d)",
			label, env.Version, MaxVersion)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields() // a misspelt name must not read as a field left out
	if err := dec.Decode(sc); err != nil {
		return fmt.Errorf("%s: decoding scenario: %w", label, err)
	}
	return sc.ValidateStructure()
}

// ParseScenarioFile loads a scenario from a JSON file (see Parse).
func ParseScenarioFile(path, label string, sc Structural) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("%s: %w", label, err)
	}
	return Parse(data, label, sc)
}

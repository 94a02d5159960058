// Options for the repair controllers. Repair and Survive terminate naturally
// (each repair iteration migrates a string at most once or evicts it; each
// reclaim pass must land at least one string to continue), but operators of a
// long-lived serving loop want explicit ceilings so a pathological input
// degrades into a bounded, honestly-reported partial repair instead of a long
// stall. The zero Options preserves the natural bounds exactly.

package dynamic

import (
	"errors"
	"fmt"
	"math"
)

// Unbounded disables a repair ceiling, leaving only the controller's natural
// termination bound.
const Unbounded = math.MaxInt

// Options bounds the migrate/evict/reclaim controllers behind Repair and
// Survive. The zero value means "no explicit ceilings" (WithDefaults resolves
// zero fields to Unbounded), matching the historical behavior.
type Options struct {
	// MaxRepairIterations caps iterations of the migrate-then-evict repair
	// loop; when the cap is hit, the repair stops and the result reports
	// Feasible=false if violations remain. 0 means Unbounded.
	MaxRepairIterations int
	// MaxReclaimPasses caps reclaim passes over the evicted strings. 0 means
	// Unbounded.
	MaxReclaimPasses int
}

// WithDefaults returns a copy with zero fields resolved to their defaults
// (both ceilings default to Unbounded).
func (o Options) WithDefaults() Options {
	if o.MaxRepairIterations == 0 {
		o.MaxRepairIterations = Unbounded
	}
	if o.MaxReclaimPasses == 0 {
		o.MaxReclaimPasses = Unbounded
	}
	return o
}

// Validate reports every invalid field (negative ceilings), one error per
// field, joined.
func (o Options) Validate() error {
	var errs []error
	if o.MaxRepairIterations < 0 {
		errs = append(errs, fmt.Errorf("dynamic: MaxRepairIterations = %d, want >= 0 (0 = unbounded)", o.MaxRepairIterations))
	}
	if o.MaxReclaimPasses < 0 {
		errs = append(errs, fmt.Errorf("dynamic: MaxReclaimPasses = %d, want >= 0 (0 = unbounded)", o.MaxReclaimPasses))
	}
	return errors.Join(errs...)
}

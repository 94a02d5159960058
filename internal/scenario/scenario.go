// Package scenario reads the envelope the JSON scenario files share: the
// faults package's timed resource outages and the overload package's timed
// demand surges are both {"version","name","seed","events"} documents. Parse
// reads that envelope in one pass over internal/jsonscan's cursor, under the
// one rule every request body and scenario file is read by — the fields under
// exactly their names, each at most once, nothing after the document, every
// refusal with its byte offset — and hands each event to the reader of its
// kind. Range validation against a concrete system stays with the caller;
// resource and string range failures wrap the shared ErrOutOfRange.
//
// Version 0 (absent) marks pre-versioned files and is always accepted; a
// version newer than MaxVersion is refused as soon as it is read, and every
// writer puts it first, so an old binary fails fast on a new file instead of
// tripping over the first field it does not know.
package scenario

import (
	"errors"
	"fmt"

	"repro/internal/jsonscan"
)

// MaxVersion is the newest scenario file version this build understands.
const MaxVersion = 1

// ErrOutOfRange is the sentinel wrapped by range-validation errors when a
// scenario names a machine, route, or string outside the system it is applied
// to; callers (e.g. the service's surge op) test it with errors.Is. The
// faults package aliases it, so faults.ErrOutOfRange and scenario.ErrOutOfRange
// are the same value.
var ErrOutOfRange = errors.New("resource out of range")

var envelopeFields = []string{"version", "name", "seed", "events"}

// Parse reads a scenario document into the envelope fields and events of one
// scenario type; event reads one element of "events", the cursor on it, into
// e. label prefixes every error ("faults", "overload"). The one null accepted
// is "events":null, which json.Marshal writes for a scenario without events;
// "events":[] reads as an empty slice, not a nil one, as encoding/json reads it.
func Parse[E any](data []byte, label string, version *int, name *string, seed *int64, events *[]E,
	event func(c *jsonscan.Cursor, e *E) error) error {
	c := jsonscan.Cursor{B: data}
	err := c.End(c.Object(envelopeFields, false, func(f int) (err error) {
		switch f {
		case 0:
			if err = c.Number(version); err == nil && (*version < 0 || *version > MaxVersion) {
				err = fmt.Errorf("scenario file version %d not supported (max %d)", *version, MaxVersion)
			}
		case 1:
			*name, err = c.String()
		case 2:
			err = c.Number(seed)
		case 3:
			if c.Null() {
				return nil
			}
			*events = []E{}
			err = c.Array(func() error {
				*events = append(*events, *new(E))
				return event(&c, &(*events)[len(*events)-1])
			})
		}
		return err
	}))
	if err != nil {
		return fmt.Errorf("%s: decoding scenario: %w", label, err)
	}
	return nil
}

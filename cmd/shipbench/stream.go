package main

import (
	"fmt"
	"math/rand"

	"repro/internal/rng"
)

// Op kinds of the steady mix.
const (
	opAdmit   = "admit"
	opRemove  = "remove"
	opRescale = "rescale"
)

// opKinds fixes the reporting order of per-kind results.
var opKinds = []string{opAdmit, opRemove, opRescale}

// op is one mutating request of the stream.
type op struct {
	Kind   string
	K      int
	Factor float64 // rescale only
}

// body is the request's wire form; the byte sequence of a stream is a pure
// function of (seed, ship name, string count, outcomes observed so far).
func (o op) body() string {
	if o.Kind == opRescale {
		return fmt.Sprintf(`{"stringId":%d,"factor":%g}`, o.K, o.Factor)
	}
	return fmt.Sprintf(`{"stringId":%d}`, o.K)
}

// stream is the seeded, stationary op generator shared by every arm: the real
// daemon, the in-process control arm and each ladder rung draw the same ops
// as long as they observe the same decisions. It draws a string uniformly;
// an unmapped string is admitted, a mapped one is removed or rescaled on a
// fair coin. A rescale aims at an absolute demand level target ~ U[0.7,1.3]
// (factor = target / current scale), so cumulative demand neither drifts up
// nor down however long the stream runs.
type stream struct {
	r      *rand.Rand
	mapped []bool
	scale  []float64
	// noRescale drops the rescales and yields the admit/remove subsequence,
	// the part of the mix the core rung of the ladder can follow.
	noRescale bool
}

func newStream(seed int64, ship string, nStrings int) *stream {
	s := &stream{
		r:      rng.NewRand(seed, "shipbench/"+ship, 0),
		mapped: make([]bool, nStrings),
		scale:  make([]float64, nStrings),
	}
	for k := range s.scale {
		s.scale[k] = 1
	}
	return s
}

// next draws the next op from the mirrored state.
func (s *stream) next() op {
	for {
		k := s.r.Intn(len(s.mapped))
		if !s.mapped[k] {
			return op{Kind: opAdmit, K: k}
		}
		if s.r.Intn(2) == 0 {
			return op{Kind: opRemove, K: k}
		}
		target := 0.7 + 0.6*s.r.Float64()
		if !s.noRescale {
			return op{Kind: opRescale, K: k, Factor: target / s.scale[k]}
		}
	}
}

// observe mirrors the decision the system under test returned for o, with the
// same arithmetic the service applies to its own scale table.
func (s *stream) observe(o op, accepted bool) {
	if !accepted {
		return
	}
	switch o.Kind {
	case opAdmit:
		s.mapped[o.K] = true
	case opRemove:
		s.mapped[o.K] = false
	case opRescale:
		s.scale[o.K] *= o.Factor
	}
}

// Package rng is the determinism substrate of the repository: every seeded
// subsystem draws from a stream derived from a SimulationKey — a root seed, a
// subsystem label, and a stream index — instead of seeding math/rand directly.
// Keyed derivation gives each subsystem an independent stream, so composing
// scenarios (a workload with a fault trace with a surge) never makes one
// subsystem's draws perturb another's, and adding a draw somewhere cannot
// silently shift every downstream result. The alternative it replaces — each
// package calling rand.NewSource(seed) with ad-hoc seed arithmetic (seed*31,
// seed*7919) — made any two subsystems sharing a seed share a stream, and made
// derived seeds collide.
//
// Streams are splitmix64 generators: the key mixes down to a 64-bit starting
// state, and each draw advances the state by a fixed odd increment before
// applying the splitmix64 finalizer. Two properties matter here. First,
// distinct keys yield distinct states (collisions need a 64-bit hash
// collision), so streams are independent for all practical purposes — pinned
// by the fuzz test. Second, the state after n draws is state0 + n·gamma, so a
// stream restores to any recorded position in O(1): every stream carries a
// draw counter and the checkpoint machinery (genitor, soak) serializes
// (key, calls) pairs instead of replaying draws.
package rng

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// Canonical subsystem labels. Every seeded package owns one label; the soak
// harness derives its stage seeds under "soak/..." labels. Re-keying a
// subsystem silently is caught by the first-draw table test in this package.
const (
	SubsystemWorkload = "workload"
	SubsystemFaults   = "faults"
	SubsystemOverload = "overload"
	SubsystemGenitor  = "genitor"
	SubsystemSSG      = "heuristics/ssg"
	SubsystemPSGTrial = "heuristics/psg-trial"
	SubsystemPhasing  = "experiments/phasing"
	SubsystemSearch   = "experiments/search"
	SubsystemDelta    = "feasibility/delta"
	SubsystemSparse   = "feasibility/sparse"
	SubsystemJournal  = "service/journal"
)

// SimulationKey identifies one deterministic stream: the run's root seed, the
// subsystem drawing from the stream, and a stream index for subsystems that
// need several independent streams (per-trial, per-run). The zero Stream is
// the subsystem's primary stream.
type SimulationKey struct {
	Root      int64  `json:"root"`
	Subsystem string `json:"subsystem"`
	Stream    int64  `json:"stream"`
}

// Key is shorthand for constructing a SimulationKey.
func Key(root int64, subsystem string, stream int64) SimulationKey {
	return SimulationKey{Root: root, Subsystem: subsystem, Stream: stream}
}

// String renders the key in the canonical "root/subsystem/stream" form that
// ParseKey reads back; the soak harness prints keys in this form so any run
// can be reproduced from its log line.
func (k SimulationKey) String() string {
	return fmt.Sprintf("%d/%s/%d", k.Root, k.Subsystem, k.Stream)
}

// ParseKey parses the canonical "root/subsystem/stream" form. The subsystem
// label may itself contain slashes ("heuristics/psg-trial"); the first and
// last fields are the numbers.
func ParseKey(s string) (SimulationKey, error) {
	first := strings.Index(s, "/")
	last := strings.LastIndex(s, "/")
	if first < 0 || last <= first {
		return SimulationKey{}, fmt.Errorf("rng: key %q, want root/subsystem/stream", s)
	}
	root, err := strconv.ParseInt(s[:first], 10, 64)
	if err != nil {
		return SimulationKey{}, fmt.Errorf("rng: key %q root: %v", s, err)
	}
	stream, err := strconv.ParseInt(s[last+1:], 10, 64)
	if err != nil {
		return SimulationKey{}, fmt.Errorf("rng: key %q stream: %v", s, err)
	}
	sub := s[first+1 : last]
	if sub == "" {
		return SimulationKey{}, fmt.Errorf("rng: key %q has an empty subsystem label", s)
	}
	return SimulationKey{Root: root, Subsystem: sub, Stream: stream}, nil
}

// Splitmix64 constants: the golden-ratio increment and the finalizer
// multipliers (Steele, Lea & Flood, "Fast Splittable Pseudorandom Number
// Generators", OOPSLA 2014).
const (
	gamma = 0x9E3779B97F4A7C15
	mixA  = 0xBF58476D1CE4E5B9
	mixB  = 0x94D049BB133111EB
)

// mix64 is the splitmix64 finalizer: a bijective avalanche over 64 bits.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * mixA
	z = (z ^ (z >> 27)) * mixB
	return z ^ (z >> 31)
}

// hashLabel folds the subsystem label into 64 bits (FNV-1a).
func hashLabel(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// state0 mixes the key down to the stream's starting state. Each component
// passes through the finalizer before the next is folded in, so keys that
// differ in any one component land in unrelated states.
func (k SimulationKey) state0() uint64 {
	s := mix64(uint64(k.Root) ^ gamma)
	s = mix64(s ^ hashLabel(k.Subsystem))
	return mix64(s ^ uint64(k.Stream))
}

// Seed64 derives a plain int64 seed from the key, for handing a keyed
// identity to an API that still takes a scalar seed (genitor.Config.Seed, the
// faults/overload Sample entry points). The callee re-keys under its own
// subsystem label, which composes: nested mixing is still collision-resistant
// derivation.
func (k SimulationKey) Seed64() int64 {
	return int64(k.state0())
}

// DeriveSeed derives an int64 seed from a root seed, a subsystem label, and
// an optional path of stream indices — the variadic form of Seed64 for call
// sites that need more than one index (per-run and per-cell, say).
func DeriveSeed(root int64, subsystem string, path ...int64) int64 {
	s := Key(root, subsystem, 0).state0()
	for _, p := range path {
		s = mix64(s ^ uint64(p))
	}
	return int64(s)
}

// Stream is one keyed splitmix64 stream. It implements rand.Source64, counts
// every draw, and restores to any recorded position in O(1), so every stream
// is checkpointable: serialize State() and rebuild with Restore. Wrap with
// Rand() (or rand.New) for the full distribution toolkit. Not safe for
// concurrent use — give each goroutine its own stream, which is what keyed
// derivation is for.
type Stream struct {
	key   SimulationKey
	state uint64
	calls uint64
}

// NewStream returns the stream the key identifies, positioned at its first
// draw.
func NewStream(key SimulationKey) *Stream {
	return &Stream{key: key, state: key.state0()}
}

// NewRand is shorthand for rand.New(NewStream(Key(root, subsystem, stream))).
func NewRand(root int64, subsystem string, stream int64) *rand.Rand {
	return rand.New(NewStream(Key(root, subsystem, stream)))
}

// Uint64 advances the stream by one draw.
func (s *Stream) Uint64() uint64 {
	s.state += gamma
	s.calls++
	return mix64(s.state)
}

// Int63 advances the stream by one draw. Like the standard library's source,
// Int63 and Uint64 both advance the generator by exactly one step, so the
// draw counter alone pins the stream position regardless of which methods
// rand.Rand dispatched to.
func (s *Stream) Int63() int64 {
	return int64(s.Uint64() >> 1)
}

// Seed rewinds the stream to the start of the stream identified by the same
// key with the given root — it exists to satisfy rand.Source. Deriving a
// fresh stream with NewStream is almost always what callers want instead.
func (s *Stream) Seed(seed int64) {
	k := s.key
	k.Root = seed
	*s = Stream{key: k, state: k.state0()}
}

// Key returns the key identifying this stream.
func (s *Stream) Key() SimulationKey { return s.key }

// Calls returns the number of draws consumed so far.
func (s *Stream) Calls() uint64 { return s.calls }

// Skip advances the stream by n draws in O(1): the state after n draws is
// state0 + n·gamma. Checkpoint restoration fast-forwards with this instead of
// burning draws.
func (s *Stream) Skip(n uint64) {
	s.state += gamma * n
	s.calls += n
}

// Rand wraps the stream in a *rand.Rand. Draws through the returned Rand
// advance (and are counted by) this stream.
func (s *Stream) Rand() *rand.Rand { return rand.New(s) }

// StreamState is the serializable position of a stream: the key plus the
// number of draws consumed. Restore rebuilds an identical continuation.
type StreamState struct {
	Key   SimulationKey `json:"key"`
	Calls uint64        `json:"calls"`
}

// State captures the stream's current position.
func (s *Stream) State() StreamState {
	return StreamState{Key: s.key, Calls: s.calls}
}

// Restore rebuilds a stream at a recorded position. The continuation is
// bit-identical to the stream the state was captured from.
func Restore(st StreamState) *Stream {
	s := NewStream(st.Key)
	s.Skip(st.Calls)
	return s
}

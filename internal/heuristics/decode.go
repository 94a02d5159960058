package heuristics

import (
	"sync"

	"repro/internal/feasibility"
	"repro/internal/genitor"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// This file is the evaluation engine behind the PSG variants: decoding a
// permutation chromosome into a mapping is by far the dominant cost of a
// GENITOR run (each decode runs the IMR plus the two-stage analysis for every
// string of a feasible prefix), so the decoder avoids the two sources of
// redundant work the naive path pays for:
//
//   - a fresh feasibility.Allocation per decode — replaced by a per-lane
//     scratch allocation Reset in place, so the sparse route adjacency and
//     roster buffers are allocated once per GENITOR trial and recycled across
//     evaluations instead of rebuilt per decode;
//   - re-decoding chromosomes the search has already seen — replaced by a
//     memo keyed on the consumed permutation prefix, which GENITOR hits more
//     and more often as the population converges toward the elite.

// scoreFunc reduces a decoded allocation to a GENITOR fitness. It must read
// only the allocation (pure), since decodes may run on any evaluator lane.
type scoreFunc func(a *feasibility.Allocation) genitor.Fitness

// metricScore is the Section 4 two-component metric as a lexicographic
// fitness: total mapped worth, then system slackness.
func metricScore(a *feasibility.Allocation) genitor.Fitness {
	m := a.Metric()
	return genitor.Fitness{Primary: m.Worth, Secondary: m.Slackness}
}

// memoLimit bounds the decode memo; when full it is discarded wholesale. At
// geneWidth bytes per gene — two at paper scale — a full memo of paper-scale
// chromosomes stays within a few MB per trial.
const memoLimit = 1 << 14

// geneWidth returns how many bytes a memo key spends on a gene of a system
// with nStrings strings: the fewest of two or four that keep genes
// 0..nStrings-1 distinct.
func geneWidth(nStrings int) int {
	if nStrings <= 1<<16 {
		return 2
	}
	return 4
}

// appendGenes appends the memo-key encoding of perm: width big-endian bytes
// per gene.
func appendGenes(key []byte, perm []int, width int) []byte {
	for _, g := range perm {
		if width == 4 {
			key = append(key, byte(g>>24), byte(g>>16))
		}
		key = append(key, byte(g>>8), byte(g))
	}
	return key
}

// decodeMemo caches decoded fitnesses keyed on the *consumed* prefix of the
// permutation: the feasibly mapped prefix plus the string whose addition
// failed, or the whole permutation when every string mapped. Stop-on-failure
// decoding never reads past that prefix, so every permutation sharing it
// decodes to the same fitness. Keys are prefix-free — a permutation starting
// with a stored prefix would itself have stopped there — so the first prefix
// hit while scanning left to right is exact. Safe for concurrent use by the
// evaluator lanes of one engine.
type decodeMemo struct {
	width   int // bytes per gene in a key, geneWidth of the system
	mu      sync.Mutex
	entries map[string]genitor.Fitness
}

func newDecodeMemo(nStrings int) *decodeMemo {
	return &decodeMemo{width: geneWidth(nStrings), entries: make(map[string]genitor.Fitness)}
}

// find scans the encoded permutation's prefixes (shortest first) for a stored
// terminal prefix. key is appendGenes of the permutation at the memo's width.
func (m *decodeMemo) find(key []byte) (genitor.Fitness, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for l := m.width; l <= len(key); l += m.width {
		if fit, ok := m.entries[string(key[:l])]; ok {
			return fit, true
		}
	}
	return genitor.Fitness{}, false
}

func (m *decodeMemo) store(key []byte, fit genitor.Fitness) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.entries) >= memoLimit {
		m.entries = make(map[string]genitor.Fitness)
	}
	m.entries[string(key)] = fit
}

// seqDecoder evaluates permutation chromosomes for one GENITOR lane. It owns
// a scratch allocation reused across decodes and shares the decode memo with
// the other lanes of its trial. A seqDecoder must only be used by one
// goroutine at a time (the engine guarantees this per lane).
type seqDecoder struct {
	sys     *model.System
	scratch *feasibility.Allocation
	delta   *feasibility.DeltaAnalyzer // persistent tracker over scratch
	tables  searchTables               // the search's, shared by every trial and lane
	score   scoreFunc
	memo    *decodeMemo
	key     []byte // reusable memo-key encoding buffer

	// Shared memo counters; nil (no-op) when telemetry is disabled, so the
	// per-decode overhead is a nil check — pinned by
	// TestDecodeHotPathZeroAlloc and BenchmarkDecodeTelemetry.
	memoHit  *telemetry.Counter
	memoMiss *telemetry.Counter
}

// newDecoderBank builds the evaluator lanes for one GENITOR trial: each lane
// gets its own scratch allocation, all lanes share one memo, and every trial
// of the search reads the same tables (read-only once built).
func newDecoderBank(sys *model.System, score scoreFunc, lanes int, tables searchTables) []genitor.Evaluator {
	memo := newDecodeMemo(len(sys.Strings))
	evals := make([]genitor.Evaluator, lanes)
	for i := range evals {
		evals[i] = newSeqDecoder(sys, score, memo, tables).fitness
	}
	return evals
}

// newSeqDecoder builds one lane over a fresh tracked scratch allocation that
// scans along the tables' order.
func newSeqDecoder(sys *model.System, score scoreFunc, memo *decodeMemo, tables searchTables) *seqDecoder {
	scratch := feasibility.New(sys)
	scratch.AttachScanOrder(tables.order)
	return &seqDecoder{
		sys:      sys,
		scratch:  scratch,
		delta:    feasibility.Track(scratch),
		tables:   tables,
		score:    score,
		memo:     memo,
		key:      make([]byte, 0, memo.width*len(sys.Strings)),
		memoHit:  telemetry.C("heuristics.decode.memo_hit"),
		memoMiss: telemetry.C("heuristics.decode.memo_miss"),
	}
}

// fitness decodes the permutation with the stop-on-failure semantics of
// MapSequence, consulting the memo first. GENITOR only ever hands it valid
// permutations (crossover and mutation preserve the gene set), so unlike the
// exported MapSequence it skips the permutation check on this hot path.
func (d *seqDecoder) fitness(perm []int) genitor.Fitness {
	d.key = appendGenes(d.key[:0], perm, d.memo.width)
	if fit, ok := d.memo.find(d.key); ok {
		d.memoHit.Inc()
		return fit
	}
	d.memoMiss.Inc()
	consumed := decodeDelta(d.delta, d.scratch, perm, d.tables)
	fit := d.score(d.scratch)
	d.memo.store(d.key[:d.memo.width*consumed], fit)
	return fit
}

// decodeDelta is the stop-on-failure mapOrder over the tracked scratch
// allocation, Reset first (which rebases the analyzer onto the empty committed
// state); it returns how many order entries were consumed. After the call,
// exactly the feasibly mapped strings are Complete in the scratch. tables are
// the search's, or the zero value to have each placement average its own
// intensities; every scan runs along the scratch's attached order, if any.
func decodeDelta(da *feasibility.DeltaAnalyzer, a *feasibility.Allocation, order []int, tables searchTables) int {
	a.Reset()
	consumed, _ := mapOrder(da, order, false, func(k int) { tables.place(a, k) })
	return consumed
}

// MapSequenceInto is the allocation-reusing form of MapSequence: scratch is
// Reset in place and the stop-on-failure decode applied to it, returning the
// final two-component metric. Callers that evaluate many orders over one
// system avoid the per-decode allocation rebuild this way; scratch must have
// been created by feasibility.New over the same system. If scratch already
// has a DeltaAnalyzer attached it is reused; otherwise one is attached for
// the duration of the call. Like MapSequence it panics if order is not a
// permutation of all string indices.
func MapSequenceInto(scratch *feasibility.Allocation, order []int) feasibility.Metric {
	validateOrder(len(scratch.System().Strings), order)
	da := scratch.Tracker()
	if da == nil {
		da = feasibility.Track(scratch)
		defer da.Close()
	}
	decodeDelta(da, scratch, order, searchTables{})
	return scratch.Metric()
}

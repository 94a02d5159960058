package feasibility

import (
	"crypto/sha256"
	"encoding/hex"
)

// StateDigest fingerprints an allocation's complete observable state —
// per-string assignments and cached tightness, per-machine and per-route
// utilizations and rosters — via the canonical WriteState encoding. Two
// allocations share a digest exactly when they are bit-identical.
//
// The digest is the one durability anchors are built on: service snapshots
// record it and refuse to restore a state that cannot reproduce it, and the
// write-ahead journal embeds it periodically so recovery replay is verified
// against the exact bits the live daemon held.
//
// A tracked allocation with a clean window is digested from its analyzer's
// line cache, which re-formats only the lines a Commit changed since the last
// digest; any other allocation formats the whole text. Both hash the same
// bytes.
func StateDigest(a *Allocation) string {
	// Byte-compatible with the soak digest accumulator, which hashes each
	// value as "%v|": the digest covers the WriteState text plus a trailing
	// separator. Changing this breaks every recorded snapshot digest.
	var sum [sha256.Size]byte
	if da := a.tracker; da != nil && da.clean() {
		sum = sha256.Sum256(da.statePreimage())
	} else {
		// The paper-scale state text is 14 KB; a constant-size buffer that
		// does not escape lives on the stack, and a bigger ship's text grows
		// out of it.
		sum = sha256.Sum256(append(a.appendState(make([]byte, 0, 16<<10)), '|'))
	}
	return hex.EncodeToString(sum[:8])
}

// lineCache is a DeltaAnalyzer's copy of the WriteState text, kept in chunks:
// chunk k is string k's line, chunk K+j machine j's, chunk K+M+j1 the route
// lines out of machine j1 (empty while none is active), so the chunks in
// index order are appendState's text. A chunk is as of the commit point it
// was formatted at; stale marks the ones a Commit has changed since, and
// valid false (a Rebase) marks them all. Undo needs no mark: it restores the
// committed state the chunks were formatted from, bit for bit. The cache is
// read only on a clean window, whose state is the committed one.
type lineCache struct {
	chunks [][]byte
	stale  []bool
	valid  bool
	text   []byte // the last preimage, reused as the next one's buffer
}

// statePreimage returns StateDigest's preimage of the committed state — the
// WriteState text and a '|' — formatting only the chunks that are stale. The
// window must be clean. The slice is the cache's and valid until the next call.
func (da *DeltaAnalyzer) statePreimage() []byte {
	a := da.a
	nStr, nMach := len(a.machineOf), len(a.machineUtil)
	lc := da.lines
	if lc == nil {
		n := nStr + 2*nMach
		lc = &lineCache{chunks: make([][]byte, n), stale: make([]bool, n)}
		da.lines = lc
	}
	lc.text = lc.text[:0]
	for c := range lc.chunks {
		if !lc.valid || lc.stale[c] {
			b := lc.chunks[c][:0]
			switch {
			case c < nStr:
				b = a.appendStringLine(b, c)
			case c < nStr+nMach:
				b = a.appendMachineLine(b, c-nStr)
			default:
				b = a.appendRoutesFrom(b, c-nStr-nMach)
			}
			lc.chunks[c], lc.stale[c] = b, false
		}
		lc.text = append(lc.text, lc.chunks[c]...)
	}
	lc.valid = true
	lc.text = append(lc.text, '|')
	return lc.text
}

// markLines marks stale the chunks of everything the window being committed
// touched: its dirty strings, machines and route sources.
func (da *DeltaAnalyzer) markLines() {
	lc := da.lines
	if lc == nil || !lc.valid {
		return
	}
	nStr, nMach := len(da.a.machineOf), len(da.a.machineUtil)
	for _, k := range da.dirtyStr {
		lc.stale[k] = true
	}
	for _, j := range da.dirtyMach {
		lc.stale[nStr+j] = true
	}
	for _, j1 := range da.dirtyRouteSrc {
		lc.stale[nStr+nMach+j1] = true
	}
}

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
func StateDigest(a *Allocation) string {
	// Byte-compatible with the soak digest accumulator, which hashes each
	// value as "%v|": the digest covers the WriteState text plus a trailing
	// separator. Changing this breaks every recorded snapshot digest.
	// The paper-scale state text is 14 KB; a constant-size buffer that does
	// not escape lives on the stack, and a bigger ship's text grows out of it.
	sum := sha256.Sum256(append(a.appendState(make([]byte, 0, 16<<10)), '|'))
	return hex.EncodeToString(sum[:])[:16]
}

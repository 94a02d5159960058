package feasibility

import (
	"bytes"
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
	var buf bytes.Buffer
	a.WriteState(&buf)
	// Byte-compatible with the soak digest accumulator, which hashes each
	// value as "%v|": the digest covers the WriteState text plus a trailing
	// separator. Changing this breaks every recorded snapshot digest.
	h := sha256.New()
	h.Write(buf.Bytes())
	h.Write([]byte{'|'})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

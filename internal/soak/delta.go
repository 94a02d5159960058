package soak

// delta.go is the incremental-analysis stage of the soak pipeline: it drives
// a keyed random delta sequence over the search allocation through a
// feasibility.DeltaAnalyzer and digests the incremental answers. The stage
// hard-fails (errors the whole run) on the two contracts the analyzer makes —
// FeasibleAfterDelta must agree with the full two-stage analysis, and Undo
// must restore the committed allocation bit-identically — so every soak run,
// every determinism replay, and every CI soak smoke doubles as an equivalence
// check. The digest covers the metric of every window, which extends the
// multi-worker determinism contract to the incremental path.

import (
	"bytes"
	"fmt"

	"repro/internal/feasibility"
	"repro/internal/rng"
)

// deltaRounds is the number of commit/undo windows the stage replays.
const deltaRounds = 12

// deltaStage exercises the delta analyzer over a clone of the search
// allocation with randomized assign/unassign windows drawn from the delta
// subsystem stream, returning a digest over the incremental answers.
func deltaStage(alloc *feasibility.Allocation, seed int64) (string, error) {
	a := alloc.Clone()
	da := feasibility.Track(a)
	defer da.Close()
	r := rng.NewRand(seed, rng.SubsystemDelta, 0)
	sys := a.System()
	n := len(sys.Strings)
	d := newDigest()
	var before, after bytes.Buffer
	for round := 0; round < deltaRounds; round++ {
		da.Commit()
		before.Reset()
		a.WriteState(&before)
		for op := 0; op < 1+r.Intn(3); op++ {
			k := r.Intn(n)
			if a.Complete(k) {
				a.UnassignString(k)
				continue
			}
			a.UnassignString(k) // clear any partial placement first
			machines := make([]int, len(sys.Strings[k].Apps))
			for i := range machines {
				machines[i] = r.Intn(sys.Machines)
			}
			a.AssignString(k, machines)
		}
		feas := da.FeasibleAfterDelta()
		if full := a.TwoStageFeasible(); feas != full {
			return "", fmt.Errorf("soak: delta stage round %d: FeasibleAfterDelta %v, full analysis %v", round, feas, full)
		}
		m := a.Metric()
		ds, dm, dr := da.Dirty()
		d.add(feas, ds, dm, dr)
		d.addFloats(m.Worth, m.Slackness)
		if r.Intn(2) == 0 {
			da.Undo()
			after.Reset()
			a.WriteState(&after)
			if !bytes.Equal(before.Bytes(), after.Bytes()) {
				return "", fmt.Errorf("soak: delta stage round %d: Undo did not restore the committed allocation bit-identically", round)
			}
			d.add("undo")
		} else {
			da.Commit()
			d.add("commit")
		}
	}
	d.add(feasibility.StateDigest(a))
	return d.sum(), nil
}

package feasibility

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/rng"
)

// writeStateFmt is the encoder WriteState shipped with until it stopped going
// through fmt: three Fprintf("%v") lines over the assignment vector and the
// rosters of {k i} pairs. It defines the bytes every recorded StateDigest
// hashes, and stays here as the oracle for appendState.
func writeStateFmt(w io.Writer, a *Allocation) {
	refs := func(roster []rosterEntry) []appRef {
		out := make([]appRef, len(roster))
		for idx := range roster {
			out[idx] = roster[idx].appRef
		}
		return out
	}
	for k := range a.machineOf {
		fmt.Fprintf(w, "s%d n%d t%016x %v\n", k, a.nAssigned[k], math.Float64bits(a.tightness[k]), a.machineOf[k])
	}
	for j := range a.machineUtil {
		fmt.Fprintf(w, "m%d u%016x %v\n", j, math.Float64bits(a.machineUtil[j]), refs(a.perMachine[j]))
	}
	for j1, adj := range a.adj {
		for _, r := range adj {
			e := &a.routes[r.slot]
			fmt.Fprintf(w, "r%d,%d u%016x %v\n", j1, r.peer, math.Float64bits(e.util), refs(e.apps))
		}
	}
}

// Property: WriteState is byte for byte the fmt encoder's text — on churned
// random allocations (empty rosters, Unassigned entries, NaN tightness of
// incomplete strings) and on a 2048-machine system whose loaded machines and routes carry four-digit
// indices.
func TestWriteStateMatchesFmtOracle(t *testing.T) {
	check := func(label string, a *Allocation) {
		t.Helper()
		var want bytes.Buffer
		writeStateFmt(&want, a)
		if got := fingerprint(t, a); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: WriteState differs from the fmt encoder\ngot:\n%s\nwant:\n%s", label, got, want.Bytes())
		}
	}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		sys := randomSystem(rng, 1+rng.Intn(5), 1+rng.Intn(12), 5)
		a := New(sys)
		check(fmt.Sprintf("trial %d empty", trial), a)
		churn(rng, a, 20+rng.Intn(300))
		check(fmt.Sprintf("trial %d churned", trial), a)
	}

	machines := 2048
	if testing.Short() {
		machines = 128 // the 2048 x 2048 bandwidth matrix is 32 MB
	}
	sys := model.NewUniformSystem(machines, 100)
	for k := 0; k < 120; k++ {
		sys.AddString(model.AppString{
			Worth: 1, Period: 100, MaxLatency: 500,
			Apps: []model.Application{
				model.UniformApp(machines, 1, 0.2, 10),
				model.UniformApp(machines, 1, 0.2, 10),
				model.UniformApp(machines, 1, 0.2, 10),
			},
		})
	}
	a := New(sys)
	for k := range sys.Strings {
		if k%7 == 3 {
			a.Assign(k, 1, machines-1-k) // partial: NaN tightness, -1 entries
			continue
		}
		a.AssignString(k, []int{machines - 1 - k, machines - 1 - k%5, k % 3})
	}
	check(fmt.Sprintf("M=%d", machines), a)
}

// TestStateDigest: the digest is stable on a clone, moves on any mutation,
// and returns to the original after the analyzer rolls the mutation back —
// the fingerprint the soak delta stage's Undo check relies on.
func TestStateDigest(t *testing.T) {
	sys := model.NewUniformSystem(3, 5)
	for k := 0; k < 4; k++ {
		sys.AddString(model.AppString{
			Worth: 10, Period: 20, MaxLatency: 100,
			Apps: []model.Application{model.UniformApp(3, 2, 0.4, 10), model.UniformApp(3, 3, 0.3, 10)},
		})
	}
	a := New(sys)
	a.AssignString(0, []int{0, 1})
	a.AssignString(1, []int{1, 2})
	base := StateDigest(a)
	if base == "" {
		t.Fatal("empty digest")
	}
	if got := StateDigest(a.Clone()); got != base {
		t.Errorf("clone digest %s, want %s", got, base)
	}
	da := Track(a)
	defer da.Close()
	a.UnassignString(1)
	a.AssignString(2, []int{2, 2})
	if got := StateDigest(a); got == base {
		t.Error("digest unchanged after mutation")
	}
	da.Undo()
	if got := StateDigest(a); got != base {
		t.Errorf("digest after Undo %s, want the pre-delta %s", got, base)
	}
}

// uncachedDigest is StateDigest by its definition, with no line cache in the
// way: the first 16 hex digits of sha256 over the whole appendState text and
// a '|'.
func uncachedDigest(a *Allocation) string {
	sum := sha256.Sum256(append(a.appendState(nil), '|'))
	return hex.EncodeToString(sum[:])[:16]
}

// Property: StateDigest of a tracked allocation — served from the analyzer's
// line cache whenever the window is clean — equals the uncached digest after
// every settle: Commit, Undo, Reset, Rebase and a re-Track, one to three of
// them between digests so stale marks pile up across commits, and with a
// digest sometimes asked while a window is open (the uncached path, which
// must leave the cache as it was). A failing digest reports the first line
// the cached text gets wrong.
func TestStateDigestLineCacheProperty(t *testing.T) {
	incremental := 0 // digests that re-formatted only stale chunks
	for trial := 0; trial < 30; trial++ {
		r := rng.NewRand(int64(trial), rng.SubsystemDelta, 5)
		sys := randomSystem(r, 2+r.Intn(6), 2+r.Intn(8), 4)
		if trial%2 == 1 {
			heatUp(sys, 3, 40) // full machines and routes: rosters grow and empty
		}
		a := New(sys)
		da := Track(a)
		for step := 0; step < 60; step++ {
			label := fmt.Sprintf("trial %d step %d", trial, step)
			for settles := 1 + r.Intn(3); settles > 0; settles-- {
				applyRandomDelta(t, r, a)
				if r.Intn(4) == 0 {
					if got, want := StateDigest(a), uncachedDigest(a); got != want {
						t.Fatalf("%s: open-window digest %s, want %s", label, got, want)
					}
				}
				switch r.Intn(12) {
				case 0, 1, 2:
					da.Undo()
				case 3:
					a.Reset()
				case 4:
					da.Rebase()
				case 5:
					da.Commit()
					da.Close()
					da = Track(a)
				default:
					da.Commit()
				}
			}
			if da.lines != nil && da.lines.valid {
				incremental++
			}
			got, want := StateDigest(a), uncachedDigest(a)
			if got != want {
				text, oracle := da.statePreimage(), append(a.appendState(nil), '|')
				lines, wantLines := bytes.SplitAfter(text, []byte("\n")), bytes.SplitAfter(oracle, []byte("\n"))
				for i := range wantLines {
					if i >= len(lines) || !bytes.Equal(lines[i], wantLines[i]) {
						t.Fatalf("%s: digest %s, want %s; line %d of the cached text is %q, want %q",
							label, got, want, i, lines[min(i, len(lines)-1)], wantLines[i])
					}
				}
				t.Fatalf("%s: digest %s, want %s; cached text %q is longer than %q", label, got, want, text, oracle)
			}
		}
		da.Close()
	}
	if incremental < 600 {
		t.Fatalf("%d digests re-formatted only stale chunks; want at least 600", incremental)
	}
}

// Property: rosters, and with them the whole state, are a function of the
// mapping. Random op histories — detours through other machines, whole strings
// placed and lifted, windows committed, undone and reset under a tracker, or
// no tracker at all — that end on the same mapping leave every roster in the
// order, with the running sums, that assigning that mapping into a fresh
// allocation in (string, application) order builds, and reach that
// allocation's StateDigest and Slackness bits: every utilization is its
// roster's total.
func TestRostersAreFunctionOfMapping(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		r := rng.NewRand(int64(trial), rng.SubsystemDelta, 7)
		sys := randomSystem(r, 2+r.Intn(5), 3+r.Intn(8), 5)
		if trial%3 == 0 {
			sys = tieSystem(2+r.Intn(3), 4+r.Intn(5))
		}
		// The target: most applications placed, so most strings complete.
		target := make([][]int, len(sys.Strings))
		var apps []appRef
		want := New(sys)
		for k := range target {
			target[k] = make([]int, len(sys.Strings[k].Apps))
			for i := range target[k] {
				apps = append(apps, appRef{k, i})
				target[k][i] = Unassigned
				if r.Intn(8) != 0 {
					target[k][i] = r.Intn(sys.Machines)
					want.Assign(k, i, target[k][i])
				}
			}
		}
		wantText, wantDigest, wantSlack := rosterText(want), StateDigest(want), math.Float64bits(want.Slackness())
		for history := 0; history < 4; history++ {
			label := fmt.Sprintf("trial %d history %d", trial, history)
			a := New(sys)
			var da *DeltaAnalyzer
			if history%2 == 1 {
				da = Track(a)
			}
			for step := 0; step < 40; step++ {
				applyRandomDelta(t, r, a)
				if da != nil {
					switch r.Intn(5) {
					case 0:
						da.Undo()
					case 1:
						a.Reset()
					default:
						da.Commit()
					}
				}
			}
			// Converge on the target: off every machine it does not name, in a
			// random order, then onto the ones it does, in another.
			r.Shuffle(len(apps), func(x, y int) { apps[x], apps[y] = apps[y], apps[x] })
			for _, ref := range apps {
				if j := a.Machine(ref.k, ref.i); j != Unassigned && j != target[ref.k][ref.i] {
					a.Unassign(ref.k, ref.i)
				}
			}
			r.Shuffle(len(apps), func(x, y int) { apps[x], apps[y] = apps[y], apps[x] })
			for _, ref := range apps {
				if j := target[ref.k][ref.i]; j != Unassigned && a.Machine(ref.k, ref.i) == Unassigned {
					a.Assign(ref.k, ref.i, j)
				}
			}
			if da != nil {
				da.Commit()
				StateDigest(a) // fill the line cache, then read it after one more window
				k := r.Intn(len(sys.Strings))
				a.UnassignString(k)
				da.Commit()
				for i, j := range target[k] {
					if j != Unassigned {
						a.Assign(k, i, j)
					}
				}
				da.Commit()
			}
			if got := rosterText(a); got != wantText {
				t.Fatalf("%s: rosters\n%s\nthe mapping assigned fresh builds\n%s", label, got, wantText)
			}
			if got := StateDigest(a); got != wantDigest {
				t.Fatalf("%s: state digest %s, the mapping assigned fresh gives %s", label, got, wantDigest)
			}
			if got := math.Float64bits(a.Slackness()); got != wantSlack {
				t.Fatalf("%s: slackness bits %016x, the mapping assigned fresh gives %016x", label, got, wantSlack)
			}
			if da != nil {
				da.Close()
			}
		}
	}
}

// rosterText prints what canonical order makes a function of the mapping:
// every string's assignments and tightness bits, and every machine's and
// active route's roster with each entry's running sum, leaving the
// utilizations out.
func rosterText(a *Allocation) string {
	var b bytes.Buffer
	entries := func(roster []rosterEntry) {
		for _, e := range roster {
			fmt.Fprintf(&b, " {%d %d %016x}", e.k, e.i, math.Float64bits(e.pre))
		}
		b.WriteByte('\n')
	}
	for k := range a.machineOf {
		fmt.Fprintf(&b, "s%d t%016x %v\n", k, math.Float64bits(a.tightness[k]), a.machineOf[k])
	}
	for j := range a.perMachine {
		fmt.Fprintf(&b, "m%d", j)
		entries(a.perMachine[j])
	}
	for j1, adj := range a.adj {
		for _, r := range adj {
			fmt.Fprintf(&b, "r%d,%d", j1, r.peer)
			entries(a.routes[r.slot].apps)
		}
	}
	return b.String()
}

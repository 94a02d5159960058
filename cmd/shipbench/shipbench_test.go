package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// drawOps draws n requests against a system that accepts every op, which
// makes the stream a pure function of the seed.
func drawOps(seed int64, ship string, nStrings, n int) []string {
	s := newStream(seed, ship, nStrings)
	out := make([]string, n)
	for i := range out {
		o := s.next()
		s.observe(o, true)
		out[i] = o.Kind + " " + o.body()
	}
	return out
}

func TestStreamSameSeedSameRequests(t *testing.T) {
	a, b := drawOps(1, "paper", 150, 5000), drawOps(1, "paper", 150, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed drew different request sequences")
	}
	if reflect.DeepEqual(a, drawOps(2, "paper", 150, 5000)) {
		t.Fatal("seeds 1 and 2 drew the same request sequence")
	}
	if reflect.DeepEqual(a, drawOps(1, "fleet", 150, 5000)) {
		t.Fatal("ships paper and fleet share one stream")
	}
}

// TestStreamPinned pins the first 32 requests of seed 1 against an
// accept-everything system: a change here changes every recorded baseline.
func TestStreamPinned(t *testing.T) {
	want := strings.Split(strings.TrimSpace(pinnedSeed1), "\n")
	got := drawOps(1, "paper", 150, len(want))
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("op %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

// TestStreamStationary checks that the rescale targets are absolute levels:
// however long the stream runs, no string's cumulative scale leaves
// [0.7, 1.3], and the mapped share settles instead of drifting.
func TestStreamStationary(t *testing.T) {
	s := newStream(1, "paper", 150)
	const eps = 1e-9
	for i := 0; i < 100000; i++ {
		o := s.next()
		s.observe(o, true)
		for k, sc := range s.scale {
			if sc != 1 && (sc < 0.7-eps || sc > 1.3+eps) {
				t.Fatalf("op %d: string %d cumulative scale %v outside [0.7,1.3]", i, k, sc)
			}
		}
	}
	mapped := 0
	for _, m := range s.mapped {
		if m {
			mapped++
		}
	}
	// Accept-all equilibrium: admit at rate (1-p), remove at rate p/2, so p = 2/3.
	if mapped < 75 || mapped > 125 {
		t.Fatalf("mapped %d of 150 after 1e5 ops, want about 100", mapped)
	}
}

func TestNoRescaleStreamHasNoRescales(t *testing.T) {
	s := newStream(1, "paper", 150)
	s.noRescale = true
	for i := 0; i < 5000; i++ {
		o := s.next()
		if o.Kind == opRescale {
			t.Fatalf("op %d is a rescale", i)
		}
		s.observe(o, true)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "latency", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c * 1.005, c * 0.995} }
	wide := func(c float64) []float64 { return []float64{c * 0.8, c, c * 1.2, c * 1.1, c * 0.9} }
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, tight(100), tight(101), verdictWithin},
		{"slower beyond bound", lower, tight(100), tight(120), verdictWorse},
		{"faster beyond spread", lower, tight(100), tight(80), verdictBetter},
		{"rate dropped", higher, tight(1000), tight(800), verdictWorse},
		{"rate rose", higher, tight(1000), tight(1200), verdictBetter},
		{"noisy and overlapping", lower, wide(100), wide(115), verdictUnresolved},
		{"noisy but every run faster", lower, wide(100), wide(50), verdictBetter},
		{"noisy but every run slower", lower, wide(100), wide(200), verdictWorse},
	} {
		if got, _ := judge(tc.d, newSample(tc.a), newSample(tc.b)); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareExitsNonZeroOnWorse(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, latency float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 5; i++ {
			rec := record{Workload: "paper", result: result{Correct: true, Attempted: 1, Metrics: map[string]value{
				"admit_p50_us": {Value: latency * (1 + 0.001*float64(i)), Unit: "us"}}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, same, slow := write("a.jsonl", 400), write("same.jsonl", 401), write("slow.jsonl", 600)
	var out strings.Builder
	if code := compareFiles(&out, a, same); code != 0 {
		t.Fatalf("equal sets: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, a, slow); code != 1 {
		t.Fatalf("50 %% slower set: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), verdictWorse) || !strings.Contains(out.String(), "base") {
		t.Fatalf("report names neither the verdict nor the base:\n%s", out.String())
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestBenchmarkJSON holds BENCHMARK.json to the contract's schema and to the
// definitions this package reports by.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	if len(keys) != 6 {
		t.Fatalf("keys %v, want exactly command, paths, run_seconds, workloads, end_to_end, per_layer", keys)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []jsonMetric  `json:"end_to_end"`
		PerLayer   []jsonMetric  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Paths, []string{"cmd/shipbench"}) {
		t.Errorf("paths = %v", b.Paths)
	}
	if !reflect.DeepEqual(b.Command, []string{"go", "run", "./cmd/shipbench"}) {
		t.Errorf("command = %v", b.Command)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	if !reflect.DeepEqual(b.Workloads, workloads) {
		t.Errorf("workloads differ from metrics.go:\n%v\n%v", b.Workloads, workloads)
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range b.Workloads {
		checkName(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			checkName(g.Name)
			if !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: unit %q", g.Name, g.Unit)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s: better = %q", g.Name, g.Better)
			}
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, metrics.go %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, w.Name, w.Unit, w.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.Bound || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s: bound %v, metrics.go %v, allowed (0, 0.25]", g.Name, g.Bound, w.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", g.Name)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd, true)
	compare("per_layer", b.PerLayer, perLayer, false)
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better")
	}
	for _, d := range endToEnd[1:] {
		if d.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}

	// Every per-layer metric names what it should move, or that it is a
	// diagnostic.
	e2e, ships := map[string]bool{}, map[string]bool{}
	for _, d := range endToEnd {
		e2e[d.Name] = true
	}
	for _, w := range workloads {
		ships[w.Name] = true
	}
	for _, d := range perLayer {
		if d.Moves == "diagnostic" {
			continue
		}
		for _, target := range strings.Split(d.Moves, ", ") {
			metric, ship, ok := strings.Cut(target, " on ")
			if !ok || !e2e[metric] || !ships[ship] {
				t.Errorf("%s: moves %q names no end-to-end metric and workload", d.Name, target)
			}
		}
	}
}

// TestSmoke takes both ships through every phase, the whole ladder and every
// probe at toy sizes, against freshly built binaries.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts real binaries")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	e := env{ctx: context.Background(), bin: t.TempDir(), work: t.TempDir()}
	if err := buildBinaries(e.ctx, root, e.bin); err != nil {
		t.Fatal(err)
	}
	o := options{seed: 1, seconds: 1, smoke: true, traceOut: filepath.Join(e.work, "spans.jsonl")}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				sh, err := newShip(w.Name, true)
				if err != nil {
					t.Fatal(err)
				}
				o.trace = trace
				dir := filepath.Join(e.work, fmt.Sprintf("%s-%v", w.Name, trace))
				runFn, defs := runEndToEnd, endToEnd
				if trace {
					runFn, defs = runTrace, perLayer
				}
				res, checks, err := runFn(e, sh, o, dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range checks {
					if !c.OK {
						t.Errorf("check %s failed: %s", c.Name, c.Detail)
					}
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, %d defined", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s not reported", d.Name)
					} else if v.Unit != d.Unit {
						t.Errorf("metric %s reported in %q, defined in %q", d.Name, v.Unit, d.Unit)
					}
				}
				if trace {
					if fi, err := os.Stat(filepath.Join(e.work, "spans."+w.Name+".jsonl")); err != nil || fi.Size() == 0 {
						t.Errorf("span file: %v", err)
					}
				}
			})
		}
	}
}

const pinnedSeed1 = `
admit {"stringId":33}
admit {"stringId":34}
admit {"stringId":31}
admit {"stringId":135}
admit {"stringId":137}
admit {"stringId":127}
admit {"stringId":129}
admit {"stringId":27}
admit {"stringId":109}
admit {"stringId":61}
admit {"stringId":52}
rescale {"stringId":137,"factor":1.260666178661837}
admit {"stringId":106}
rescale {"stringId":109,"factor":1.084935315798132}
remove {"stringId":27}
admit {"stringId":105}
admit {"stringId":79}
admit {"stringId":99}
admit {"stringId":46}
admit {"stringId":121}
remove {"stringId":109}
remove {"stringId":121}
admit {"stringId":119}
admit {"stringId":103}
admit {"stringId":8}
admit {"stringId":26}
admit {"stringId":40}
admit {"stringId":86}
admit {"stringId":15}
admit {"stringId":77}
admit {"stringId":5}
admit {"stringId":75}
`

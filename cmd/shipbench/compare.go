package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readRecords loads the runs an -out file holds.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %v", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// quartiles are Python's statistics.quantiles(xs, n=4): the exclusive
// method, which is what the benchmark's acceptance check uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		} else if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// sample is one side's runs of one metric on one workload.
type sample struct {
	values      []float64
	median, iqr float64
}

func newSample(values []float64) sample {
	q1, q2, q3 := quartiles(values)
	return sample{values: values, median: q2, iqr: q3 - q1}
}

// spread is the interquartile distance as a share of the median.
func (s sample) spread() float64 {
	if s.median == 0 {
		return 0
	}
	return s.iqr / s.median
}

// Verdicts of one (metric, workload) row.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge applies the metric's bound to sides a (the base) and b. worsening is
// b's median against a's in the metric's bad direction, as a share of a's.
// Where either side's run-to-run spread is wider than the bound the row is
// unresolved, unless every run of b reads better (or worse) than every run of
// a.
func judge(d metricDef, a, b sample) (verdict string, worsening float64) {
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	if a.median != 0 {
		worsening = sign * (b.median - a.median) / a.median
	}
	bad := func(x, y float64) bool { return sign*(x-y) > 0 } // x reads worse than y
	allB := func(worse bool) bool {
		for _, x := range b.values {
			for _, y := range a.values {
				if bad(x, y) != worse || x == y {
					return false
				}
			}
		}
		return true
	}
	spread := a.spread()
	if s := b.spread(); s > spread {
		spread = s
	}
	switch {
	case spread > d.Bound && allB(false):
		return verdictBetter, worsening
	case spread > d.Bound && !(allB(true) && worsening > d.Bound):
		return verdictUnresolved, worsening
	case worsening > d.Bound:
		return verdictWorse, worsening
	case worsening < -spread && worsening < 0:
		return verdictBetter, worsening
	}
	return verdictWithin, worsening
}

// compareFiles prints one row per (metric, workload) present in both files
// and returns 1 if any end-to-end row is worse, else 0.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readRecords(pathA)
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s holds no runs", pathA)
	}
	var b []record
	if err == nil {
		b, err = readRecords(pathB)
	}
	if err == nil && len(b) == 0 {
		err = fmt.Errorf("%s holds no runs", pathB)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "shipbench:", err)
		return 2
	}
	collect := func(recs []record, workload string, trace bool, metric string) []float64 {
		var out []float64
		for _, r := range recs {
			if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == trace {
				out = append(out, v.Value)
			}
		}
		return out
	}
	fmt.Fprintf(w, "a = %s (%d runs), b = %s (%d runs); every ratio is b/a with a as its base\n", pathA, len(a), pathB, len(b))
	fmt.Fprintf(w, "%-9s %-32s %-6s %13s %9s %3s %13s %9s %3s %8s %7s  %s\n",
		"workload", "metric", "unit", "a median", "a iqr", "n", "b median", "b iqr", "n", "b/a", "bound", "verdict")
	worse := 0
	for _, wl := range workloads {
		for _, set := range []struct {
			defs  []metricDef
			trace bool
		}{{endToEnd, false}, {perLayer, true}} {
			for _, d := range set.defs {
				va, vb := collect(a, wl.Name, set.trace, d.Name), collect(b, wl.Name, set.trace, d.Name)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				sa, sb := newSample(va), newSample(vb)
				ratio := 0.0
				if sa.median != 0 {
					ratio = sb.median / sa.median
				}
				verdict, bound := "not gated", "-"
				if !set.trace {
					verdict, _ = judge(d, sa, sb)
					bound = fmt.Sprintf("%.2f", d.Bound)
					if verdict == verdictWorse {
						worse++
					}
				}
				fmt.Fprintf(w, "%-9s %-32s %-6s %13.4f %9.4f %3d %13.4f %9.4f %3d %8.4f %7s  %s\n",
					wl.Name, d.Name, d.Unit, sa.median, sa.iqr, len(va), sb.median, sb.iqr, len(vb), ratio, bound, verdict)
			}
		}
	}
	if worse > 0 {
		fmt.Fprintf(w, "%d end-to-end rows are worse than their bound allows\n", worse)
		return 1
	}
	return 0
}

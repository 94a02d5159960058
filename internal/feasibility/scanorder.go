package feasibility

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/model"
)

// ScanOrder is the order PlacementScans visit machines in: for every
// application (k, i) of a catalog, the machine indices ascending by the
// application's own work key NominalTime[j]*NominalUtil[j], compared by its
// bits, ties broken by index. Along a row the scan's own machine term t·u/P
// never decreases (P is the string's, common to the row) — exactly over the
// floats the order was built from, and within eight roundings over a
// model.ScaledView of them, whose times are those times one factor per
// string — so the scan stops at the first machine whose term alone exceeds
// the incumbent by a margin (see PlacementScan).
//
// The table holds indices, not prices: it does not depend on a string's
// Period or scale, and costs one int32 per (application, machine), a quarter
// of the catalog's NominalTime and NominalUtil bytes. An allocation scans
// along the order attached to it (Allocation.AttachScanOrder): a search builds
// one over its immutable catalog and its lanes share it read-only; the
// service builds one over its pristine catalog and scans its rescaled view
// along it.
type ScanOrder struct {
	sys  *model.System
	base []int   // base[k]: offset in idx of string k's application 0
	idx  []int32 // one row of Machines indices per application
}

// NewScanOrder builds the scan order of every application of sys, or returns
// nil when sys fails model.Validate or has a work key that is not a finite
// normal float: the stop is exact only on the finite, positive times, periods
// and bandwidths and the utilizations in (0, 1] Validate checks, and only on
// keys rounded within half an ulp of their product. A nil order scans in
// index order.
func NewScanOrder(sys *model.System) *ScanOrder {
	if sys.Validate() != nil {
		return nil
	}
	for k := range sys.Strings {
		for i := range sys.Strings[k].Apps {
			app := &sys.Strings[k].Apps[i]
			for j, t := range app.NominalTime {
				if !normal(t * app.NominalUtil[j]) {
					return nil
				}
			}
		}
	}
	m, apps := sys.Machines, 0
	base := make([]int, len(sys.Strings))
	for k := range sys.Strings {
		base[k] = apps * m
		apps += len(sys.Strings[k].Apps)
	}
	o := &ScanOrder{sys: sys, base: base, idx: make([]int32, apps*m)}
	// A positive float's bits order as the float does. A row sorts as plain
	// integers — each key with its low bits replaced by the machine index —
	// and then by (key, index) in full, by insertion, which moves only
	// machines whose keys differ in those low bits alone.
	low := uint64(1)<<bits.Len(uint(m-1)) - 1
	keys, packed := make([]uint64, m), make([]uint64, m)
	for k := range sys.Strings {
		for i := range sys.Strings[k].Apps {
			app := &sys.Strings[k].Apps[i]
			for j := range keys {
				keys[j] = math.Float64bits(app.NominalTime[j] * app.NominalUtil[j])
				packed[j] = keys[j]&^low | uint64(j)
			}
			slices.Sort(packed)
			row := o.Row(k, i)
			for n, p := range packed {
				j := int32(p & low)
				for ; n > 0 && keys[row[n-1]] > keys[j]; n-- {
					row[n] = row[n-1]
				}
				row[n] = j
			}
		}
	}
	return o
}

// Row returns application i of string k's machine order; nil on a nil order.
func (o *ScanOrder) Row(k, i int) []int32 {
	if o == nil {
		return nil
	}
	m := o.sys.Machines
	off := o.base[k] + i*m
	return o.idx[off : off+m : off+m]
}

// fits reports whether o may order the scans of an allocation over sys: o
// was built over sys itself, or over the catalog sys is a model.ScaledView
// of — the same machines and strings, each application's NominalUtil row the
// catalog's own slice.
func (o *ScanOrder) fits(sys *model.System) bool {
	if o.sys == sys {
		return true
	}
	if sys.Machines != o.sys.Machines || len(sys.Strings) != len(o.sys.Strings) {
		return false
	}
	for k := range sys.Strings {
		apps, base := sys.Strings[k].Apps, o.sys.Strings[k].Apps
		if len(apps) != len(base) {
			return false
		}
		for i := range apps {
			u, b := apps[i].NominalUtil, base[i].NominalUtil
			if len(u) != len(b) || len(apps[i].NominalTime) != len(b) || &u[0] != &b[0] {
				return false
			}
		}
	}
	return true
}

// normal reports whether x is a finite normal float: its exponent field is
// neither all zeros (zero, subnormal) nor all ones (infinity, NaN).
func normal(x float64) bool {
	e := math.Float64bits(x) >> 52 & 0x7ff
	return e != 0 && e != 0x7ff
}

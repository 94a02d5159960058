package feasibility

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/model"
)

// ScanOrder is the order a search's PlacementScans visit machines in: for
// every application (k, i) of a catalog, the machine indices ascending by the
// application's own work NominalTime[j]*NominalUtil[j] — the product the scan
// computes, compared by its bits — ties broken by index. Along a row the
// scan's own machine term t·u/P never decreases (P is the string's, common to
// the row), so the scan stops at the first machine whose term alone exceeds
// the incumbent (see PlacementScan).
//
// The table holds indices, not prices: it does not depend on a string's
// Period, and costs one int32 per (application, machine), a quarter of the
// catalog's NominalTime and NominalUtil bytes. It is valid only while the
// floats it was built from stand: a search whose catalog is immutable for
// its whole run builds one and shares it read-only between its lanes; the
// service, whose rescales move the floats, scans in index order.
type ScanOrder struct {
	sys  *model.System
	base []int   // base[k]: offset in idx of string k's application 0
	idx  []int32 // one row of Machines indices per application
}

// NewScanOrder builds the scan order of every application of sys, or returns
// nil when sys fails model.Validate: the stop is exact only on the finite,
// positive times, periods and bandwidths and the utilizations in (0, 1] it
// checks, and a nil order scans in index order.
func NewScanOrder(sys *model.System) *ScanOrder {
	if sys.Validate() != nil {
		return nil
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

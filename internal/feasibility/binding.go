package feasibility

import "math"

// Resource names a machine or an inter-machine route: machine From when To is
// Unassigned, the route From -> To otherwise.
type Resource struct{ From, To int }

// IsRoute reports whether r names a route.
func (r Resource) IsRoute() bool { return r.To != Unassigned }

// before reports whether r precedes s in walk order, every scan's order here:
// machines ascending, then routes in ascending (From, To) order.
func (r Resource) before(s Resource) bool {
	if r.IsRoute() != s.IsRoute() {
		return s.IsRoute()
	}
	return r.From < s.From || r.From == s.From && r.To < s.To
}

// binding is Λ's binding resource kept between walks: maxU, the highest
// utilization over the machines and the active routes, held first in walk order
// by res; stale, that a write lowered res or dropped it (maxU is then a bound).
type binding struct {
	maxU  float64
	res   Resource
	stale bool
}

// emptyBinding is an empty allocation's: every machine at 0, machine 0 first.
var emptyBinding = binding{res: Resource{0, Unassigned}}

// noteUtil keeps the binding resource across a write of utilization u to r. A
// write above the maximum takes over, stale or not (a stale maxU still bounds
// every other utilization); a write equal to it from a resource earlier in walk
// order takes over; a write that lowers the holder leaves the state stale. A
// route dropped to absent is written as 0: it lowers a holder, and it takes
// over nothing, since machine 0 at +0 or more precedes every route.
func (a *Allocation) noteUtil(r Resource, u float64) {
	b := &a.bind
	switch {
	case u > b.maxU:
		*b = binding{maxU: u, res: r}
	case r == b.res:
		if u < b.maxU {
			b.stale = true
		}
	case u == b.maxU && r.before(b.res):
		b.res = r
	}
}

// walkBinding finds the binding resource by walking the machines and the active
// routes: a strict > keeps the first holder.
func (a *Allocation) walkBinding() binding {
	b := binding{maxU: math.Inf(-1), res: Resource{0, Unassigned}}
	for j, u := range a.machineUtil {
		if u > b.maxU {
			b.maxU, b.res = u, Resource{j, Unassigned}
		}
	}
	a.ActiveRoutes(func(j1, j2 int, u float64) {
		if u > b.maxU {
			b.maxU, b.res = u, Resource{j1, j2}
		}
	})
	return b
}

// current returns the binding resource, walking first only if it is stale.
func (a *Allocation) current() binding {
	if a.bind.stale {
		a.tel.slackRescans.Inc()
		a.bind = a.walkBinding()
	}
	return a.bind
}

// BindingResource returns equation (7)'s binding resource: the machine or
// active route with the highest utilization, whose remaining capacity is Λ,
// the first in walk order on a tie (machine 0 while nothing is loaded).
func (a *Allocation) BindingResource() Resource { return a.current().res }

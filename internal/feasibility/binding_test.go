package feasibility

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/model"
)

// auditSlackness is checkBinding plus the oracle of Slackness: equation (7) as
// the walk it replaced, the minimum over 1 − u, bit for bit. It leaves the kept
// state as it found it, so an audit inside a window changes nothing after it.
func auditSlackness(a *Allocation) error {
	if err := a.checkBinding(); err != nil {
		return err
	}
	lam := 1.0
	for _, u := range a.machineUtil {
		if s := 1 - u; s < lam {
			lam = s
		}
	}
	a.ActiveRoutes(func(_, _ int, u float64) {
		if s := 1 - u; s < lam {
			lam = s
		}
	})
	kept := a.bind
	got := a.Slackness()
	a.bind = kept
	if math.Float64bits(got) != math.Float64bits(lam) {
		return fmt.Errorf("slackness %v, the walk over 1 - u finds %v", got, lam)
	}
	return nil
}

// The edges of the kept binding resource, each held to the walk by
// auditSlackness and to the resource the walk names: a tie goes to the first
// resource in walk order, losing the holder leaves a walk to the next read, and
// Reset, Clone, FromSnapshot and Undo carry the state exactly.
func TestBindingResourceEdges(t *testing.T) {
	// At period 10 on 1 Mb/s routes one is 0.2 of a machine, and half is 0.1 of
	// a machine whose output is 0.2 of a route — the same float as one's.
	sys := model.NewUniformSystem(4, 1)
	one, half := model.UniformApp(4, 2, 1, 0), model.UniformApp(4, 1, 1, 250)
	for _, apps := range [][]model.Application{{one}, {one}, {half, half}} {
		sys.AddString(model.AppString{Worth: 1, Period: 10, MaxLatency: 100, Apps: apps})
	}
	machine := func(j int) Resource { return Resource{j, Unassigned} }
	holds := func(label string, a *Allocation, want Resource) {
		t.Helper()
		if err := auditSlackness(a); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got := a.BindingResource(); got != want {
			t.Fatalf("%s: binding resource %v, want %v", label, got, want)
		}
	}
	// Machine 3 at 0.4 holds; route 0->1 at 0.2, machines 0 and 1 at 0.1.
	loaded := func() *Allocation {
		a := New(sys)
		a.Assign(0, 0, 3)
		a.Assign(1, 0, 3)
		a.AssignString(2, []int{0, 1})
		holds("loaded", a, machine(3))
		return a
	}
	cases := []struct {
		name  string
		build func() *Allocation
		want  Resource
	}{
		{"two machines tie: the first in walk order holds", func() *Allocation {
			a := New(sys)
			a.Assign(0, 0, 2)
			a.Assign(1, 0, 1)
			return a
		}, machine(1)},
		{"a route ties the holding machine: the machine keeps it", func() *Allocation {
			a := New(sys)
			a.Assign(0, 0, 3)
			a.AssignString(2, []int{0, 1})
			return a
		}, machine(3)},
		{"a machine ties the holding route: the machine takes over", func() *Allocation {
			a := New(sys)
			a.AssignString(2, []int{0, 1})
			holds("route alone", a, Resource{0, 1})
			a.Assign(0, 0, 3)
			return a
		}, machine(3)},
		{"the holder's route drops to absent", func() *Allocation {
			a := New(sys)
			a.AssignString(2, []int{0, 1})
			a.Unassign(2, 1)
			return a
		}, machine(0)},
		{"the holder lowered while another is tied with it", func() *Allocation {
			a := New(sys)
			a.Assign(0, 0, 1)
			a.Assign(1, 0, 2)
			holds("tied", a, machine(1))
			a.Unassign(0, 0)
			return a
		}, machine(2)},
		{"Reset", func() *Allocation {
			a := loaded()
			a.Reset()
			return a
		}, machine(0)},
		{"Clone is independent", func() *Allocation {
			a := loaded()
			cp := a.Clone()
			cp.UnassignString(0)
			cp.UnassignString(1)
			holds("clone", cp, Resource{0, 1})
			return a
		}, machine(3)},
		{"FromSnapshot", func() *Allocation {
			a, err := FromSnapshot(sys, loaded().Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			return a
		}, machine(3)},
		{"Undo after a window that moved the holder", func() *Allocation {
			a := loaded()
			da := Track(a)
			defer da.Close()
			kept := a.bind
			a.UnassignString(0)
			a.UnassignString(1)
			holds("inside the window", a, Resource{0, 1})
			da.Undo()
			if a.bind != kept {
				t.Fatalf("Undo left the binding state %+v, the window opened on %+v", a.bind, kept)
			}
			return a
		}, machine(3)},
	}
	for _, c := range cases {
		holds(c.name, c.build(), c.want)
	}
}

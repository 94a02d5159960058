package feasibility

import (
	"testing"

	"repro/internal/model"
)

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

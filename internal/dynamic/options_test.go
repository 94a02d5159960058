package dynamic

import (
	"strings"
	"testing"
)

func TestOptionsValidate(t *testing.T) {
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero options rejected: %v", err)
	}
	if err := (Options{MaxRepairIterations: 5, MaxReclaimPasses: 2}).Validate(); err != nil {
		t.Errorf("positive ceilings rejected: %v", err)
	}
	err := Options{MaxRepairIterations: -1, MaxReclaimPasses: -3}.Validate()
	if err == nil {
		t.Fatal("negative ceilings accepted")
	}
	for _, frag := range []string{"MaxRepairIterations", "MaxReclaimPasses"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q should report field %s", err, frag)
		}
	}
}

func TestOptionsWithDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.MaxRepairIterations != Unbounded || o.MaxReclaimPasses != Unbounded {
		t.Errorf("zero fields should resolve to Unbounded, got %+v", o)
	}
	o = Options{MaxRepairIterations: 7, MaxReclaimPasses: 3}.WithDefaults()
	if o.MaxRepairIterations != 7 || o.MaxReclaimPasses != 3 {
		t.Errorf("explicit ceilings overwritten: %+v", o)
	}
}

func TestRepairOptsRejectsInvalid(t *testing.T) {
	if _, err := Repair(nil, Options{MaxRepairIterations: -1}); err == nil {
		t.Error("Repair accepted invalid options")
	}
	if _, err := Survive(nil, nil, Options{MaxReclaimPasses: -1}); err == nil {
		t.Error("Survive accepted invalid options")
	}
}

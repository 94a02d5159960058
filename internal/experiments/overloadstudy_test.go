package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestOverloadStudySmallScale(t *testing.T) {
	opts := fastOpts()
	opts.Strings = 8
	c, err := RunOverloadStudy(context.Background(), opts, []float64{1.5, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Panel {
		pts := c.Rows[name]
		if len(pts) != 2 {
			t.Fatalf("%s: %d points, want 2", name, len(pts))
		}
		for _, pt := range pts {
			if pt.Retained.N() != opts.Runs {
				t.Errorf("%s factor %v: %d samples, want %d", name, pt.MaxFactor, pt.Retained.N(), opts.Runs)
			}
			if pt.Retained.Min() < 0 || pt.Retained.Max() > 1+1e-9 {
				t.Errorf("%s factor %v: retained outside [0,1]: [%v,%v]",
					name, pt.MaxFactor, pt.Retained.Min(), pt.Retained.Max())
			}
			if pt.MinRetained.Max() > pt.Retained.Max()+1e-9 {
				t.Errorf("%s factor %v: worth trough above final retention", name, pt.MaxFactor)
			}
			if pt.Shed.Min() < 0 || pt.OverTime.Min() < 0 {
				t.Errorf("%s factor %v: negative shed count or over-capacity time", name, pt.MaxFactor)
			}
		}
		// A 4x peak surge can only shed at least as much as a 1.5x one on
		// the same traces (means, with any reasonable sample).
		if pts[1].Shed.Mean() < pts[0].Shed.Mean()-1e-9 {
			t.Errorf("%s: fewer sheds at factor 4 (%v) than 1.5 (%v)",
				name, pts[1].Shed.Mean(), pts[0].Shed.Mean())
		}
		if c.InitialSlackness[name].N() != opts.Runs {
			t.Errorf("%s: slackness samples %d", name, c.InitialSlackness[name].N())
		}
	}
	var buf bytes.Buffer
	c.WriteTable(&buf)
	out := buf.String()
	if !strings.Contains(out, "retained worth") || !strings.Contains(out, "GENITOR") {
		t.Errorf("table render incomplete:\n%s", out)
	}
}

func TestOverloadStudyCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, err := RunOverloadStudy(ctx, fastOpts(), nil)
	if err != ErrCanceled && !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if c.Runs != 0 {
		t.Errorf("canceled before any run, but %d runs reported", c.Runs)
	}
}

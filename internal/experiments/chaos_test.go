package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestChaosStudySmallScale(t *testing.T) {
	opts := fastOpts()
	opts.Strings = 8
	c, err := RunChaosStudy(context.Background(), opts, []int{1, 3})
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
				t.Errorf("%s hits %d: %d samples, want %d", name, pt.Hits, pt.Retained.N(), opts.Runs)
			}
			if pt.Retained.Min() < 0 || pt.Retained.Max() > 1+1e-9 {
				t.Errorf("%s hits %d: retained outside [0,1]: [%v,%v]",
					name, pt.Hits, pt.Retained.Min(), pt.Retained.Max())
			}
			if pt.Cost.Min() < 0 || pt.Evictions.Min() < 0 {
				t.Errorf("%s hits %d: negative cost or evictions", name, pt.Hits)
			}
		}
		// Losing 3 compartments can only hurt retention relative to 1 on
		// average (same scenarios, nested failure sets are not guaranteed,
		// but the means should order with any reasonable sample).
		if pts[1].Retained.Mean() > pts[0].Retained.Mean()+1e-9 {
			t.Errorf("%s: retention after 3 hits (%v) above 1 hit (%v)",
				name, pts[1].Retained.Mean(), pts[0].Retained.Mean())
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

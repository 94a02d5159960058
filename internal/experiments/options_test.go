package experiments

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/heuristics"
)

func TestOptionsWithDefaults(t *testing.T) {
	var zero Options
	got := zero.WithDefaults()
	if got.Runs != 10 {
		t.Errorf("runs = %d, want 10", got.Runs)
	}
	if got.PSG != heuristics.DefaultPSGConfig() {
		t.Errorf("PSG = %+v, want the paper defaults", got.PSG)
	}
	explicit := Options{Runs: 3, PSG: heuristics.DefaultPSGConfig()}
	explicit.PSG.PopulationSize = 40
	explicit.PSG.Workers = 2
	got = explicit.WithDefaults()
	if got.Runs != 3 || got.PSG.PopulationSize != 40 || got.PSG.Workers != 2 {
		t.Errorf("WithDefaults clobbered explicit fields: %+v", got)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("defaulted options must validate: %v", err)
	}
}

func TestOptionsValidateErrors(t *testing.T) {
	ok := Options{}.WithDefaults()
	cases := []struct {
		name   string
		mutate func(*Options)
	}{
		{"negative runs", func(o *Options) { o.Runs = -1 }},
		{"negative string override", func(o *Options) { o.Strings = -5 }},
		{"negative worth weight", func(o *Options) { o.WorthWeights = []float64{0.5, -0.5} }},
		{"zero-sum worth weights", func(o *Options) { o.WorthWeights = []float64{0, 0} }},
		{"bad PSG config", func(o *Options) { o.PSG.Bias = 9 }},
	}
	for _, tc := range cases {
		o := ok
		tc.mutate(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, o)
		}
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("defaulted options must validate: %v", err)
	}
}

// TestStudiesValidateOptions: the shared run loop is the one place options
// are validated, so a study handed a negative run count or string override
// fails with the Validate message instead of printing a zero-sample table.
func TestStudiesValidateOptions(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Options)
		want   string
	}{
		{"negative runs", func(o *Options) { o.Runs = -1 }, "-1 runs"},
		{"negative string override", func(o *Options) { o.Strings = -5 }, "string override -5"},
	} {
		opts := fastOpts()
		tc.mutate(&opts)
		var buf bytes.Buffer
		err := Run(context.Background(), &buf, "fig3", opts)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want the Validate message containing %q", tc.name, err, tc.want)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: a table was printed for invalid options:\n%s", tc.name, buf.String())
		}
	}
}

// TestRunChaosStudyContextCanceled: a pre-canceled context truncates the
// study before its first run, returning an empty-but-well-formed result and
// the sentinel error.
func TestRunChaosStudyContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := fastOpts()
	opts.Strings = 8
	out, err := RunChaosStudy(ctx, opts, []int{1})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("sentinel must wrap context.Canceled")
	}
	if out == nil {
		t.Fatal("canceled study must still return its partial result")
	}
	if out.Runs != 0 {
		t.Errorf("completed runs = %d, want 0 under a pre-canceled context", out.Runs)
	}
	// No lopsided samples: every heuristic reports the same (zero) count.
	for _, name := range Panel {
		if n := out.InitialSlackness[name].N(); n != 0 {
			t.Errorf("%s: %d slackness samples recorded in a canceled run, want 0", name, n)
		}
		for _, pt := range out.Rows[name] {
			if pt.Retained.N() != 0 {
				t.Errorf("%s: %d retained samples recorded in a canceled run, want 0", name, pt.Retained.N())
			}
		}
	}
}

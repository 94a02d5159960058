package experiments

import (
	"bytes"
	"context"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/heuristics"
)

// TestStudiesGolden pins every table cmd/experiments prints: the registry,
// run at toy size, must reproduce testdata/studies_tiny.golden byte for byte.
// The golden file is the output of the pre-registry cmd/experiments (one
// hand-written loop per study) at
//
//	-runs 2 -strings 12 -psg-iters 40 -psg-trials 1 -seed 3
//
// so it holds the shared run loop, panel and series collector to the seed
// derivations, evaluation order and formatting of the code they replaced.
// Two entries differ: the relaxation audit solves the full LP, which at 12
// strings takes 10 s (minutes under -race), so it runs, and was recorded, at
// -strings 6; the timing table is wall-clock, so only its row names and
// counts are checked. A change that means to alter a table regenerates the
// file with that command line, one -exp NAME per registry entry in order
// (timing left out), dropping each "total wall time" line.
func TestStudiesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every study")
	}
	opts := Options{Runs: 2, Seed: 3, Strings: 12, PSG: heuristics.DefaultPSGConfig()}
	opts.PSG.MaxIterations = 40
	opts.PSG.Trials = 1
	var got bytes.Buffer
	for _, s := range Studies {
		if s.Name != "timing" {
			opts := opts
			if s.Name == "relaxation" {
				opts.Strings = 6
			}
			if err := s.Run(context.Background(), opts, &got); err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			continue
		}
		var buf bytes.Buffer
		if err := s.Run(context.Background(), opts, &buf); err != nil {
			t.Fatalf("timing: %v", err)
		}
		lines := strings.Split(buf.String(), "\n")
		for i, name := range []string{"PSG", "MWF", "TF", "SeededPSG", "UB"} {
			row := strings.Fields(lines[2+i])
			if len(row) != 4 || row[0] != name || row[3] != "2" {
				t.Errorf("timing row %d = %q, want series %s with n = 2", i, lines[2+i], name)
			}
		}
	}
	want, err := os.ReadFile("testdata/studies_tiny.golden")
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		g, w := "<end of output>", "<end of file>"
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("tables diverge from testdata/studies_tiny.golden at line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}

// TestRegistryMatchesDocs keeps the documentation and the registry from
// drifting apart: every "-exp NAME" the docs tell a reader to run must
// resolve, and every registry entry's experiment ID must have its row in
// DESIGN.md section 4.
func TestRegistryMatchesDocs(t *testing.T) {
	names := StudyNames()
	expFlag := regexp.MustCompile(`-exp ([a-z0-9|]+)`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile("../../" + doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range expFlag.FindAllStringSubmatch(string(text), -1) {
			for _, name := range strings.Split(m[1], "|") {
				if !slices.Contains(names, name) {
					t.Errorf("%s: %q names no registered study", doc, "-exp "+name)
				}
			}
		}
	}
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, index, ok := strings.Cut(string(design), "\n## 4. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 4")
	}
	index, _, _ = strings.Cut(index, "\n## ")
	for _, s := range Studies {
		if !regexp.MustCompile(`(?m)^\| ` + s.ID + `[ (]`).MatchString(index) {
			t.Errorf("-exp %s: DESIGN.md section 4 has no %s row", s.Name, s.ID)
		}
	}
}

package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// payload is a minimal Structural implementation for loader tests.
type payload struct {
	Version int      `json:"version,omitempty"`
	Name    string   `json:"name,omitempty"`
	Items   []string `json:"items,omitempty"`
}

func (p *payload) ValidateStructure() error {
	for i, it := range p.Items {
		if it == "" {
			return fmt.Errorf("test: item %d empty", i)
		}
	}
	return nil
}

func TestParseVersionGate(t *testing.T) {
	var p payload
	if err := Parse([]byte(`{"name":"ok"}`), "test", &p); err != nil {
		t.Fatalf("pre-versioned file rejected: %v", err)
	}
	if err := Parse([]byte(fmt.Sprintf(`{"version":%d}`, MaxVersion)), "test", &p); err != nil {
		t.Fatalf("current version rejected: %v", err)
	}
	err := Parse([]byte(fmt.Sprintf(`{"version":%d}`, MaxVersion+1)), "test", &p)
	if err == nil {
		t.Fatal("future version accepted")
	}
	if !strings.Contains(err.Error(), "version") {
		t.Errorf("error %q should mention the version", err)
	}
	if err := Parse([]byte(`{"version":-1}`), "test", &p); err == nil {
		t.Fatal("negative version accepted")
	}
}

func TestParseErrors(t *testing.T) {
	var p payload
	if err := Parse([]byte(`{`), "test", &p); err == nil {
		t.Error("malformed JSON accepted")
	}
	for _, doc := range []string{`{"nmae":"x"}`, `{"name":"x"} {}`, `{"name":"x"}]`} {
		if err := Parse([]byte(doc), "test", &p); err == nil {
			t.Errorf("%s accepted", doc)
		}
	}
	err := Parse([]byte(`{"items":["a",""]}`), "test", &p)
	if err == nil {
		t.Fatal("structurally invalid payload accepted")
	}
	if !strings.Contains(err.Error(), "item 1") {
		t.Errorf("structural error %q should come from the payload", err)
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sc.json")
	in := &payload{Version: 1, Name: "rt", Items: []string{"a", "b"}}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := ParseScenarioFile(path, "test", &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || len(out.Items) != 2 || out.Version != 1 {
		t.Errorf("round trip changed the payload: %+v", out)
	}
	if err := ParseScenarioFile(filepath.Join(t.TempDir(), "missing.json"), "test", &out); err == nil {
		t.Error("missing file accepted")
	}
}

func TestErrOutOfRangeIsSentinel(t *testing.T) {
	wrapped := fmt.Errorf("test: string 9 out of range [0,3): %w", ErrOutOfRange)
	if !errors.Is(wrapped, ErrOutOfRange) {
		t.Error("wrapped range error should match the sentinel")
	}
}

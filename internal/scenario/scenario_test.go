package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/jsonscan"
)

// payload is a minimal scenario type for loader tests: its events are
// non-empty strings.
type payload struct {
	Version int      `json:"version,omitempty"`
	Name    string   `json:"name,omitempty"`
	Seed    int64    `json:"seed,omitempty"`
	Items   []string `json:"events"`
}

func parse(data []byte) (*payload, error) {
	p := new(payload)
	return p, Parse(data, "test", &p.Version, &p.Name, &p.Seed, &p.Items, func(c *jsonscan.Cursor, it *string) (err error) {
		if *it, err = c.String(); err == nil && *it == "" {
			err = fmt.Errorf("item %d empty", len(p.Items)-1)
		}
		return err
	})
}

func TestParseVersionGate(t *testing.T) {
	if _, err := parse([]byte(`{"name":"ok"}`)); err != nil {
		t.Fatalf("pre-versioned file rejected: %v", err)
	}
	if _, err := parse([]byte(fmt.Sprintf(`{"version":%d}`, MaxVersion))); err != nil {
		t.Fatalf("current version rejected: %v", err)
	}
	// A newer file is refused for its version, before a field this build
	// does not know is reached.
	_, err := parse([]byte(fmt.Sprintf(`{"version":%d,"newField":1}`, MaxVersion+1)))
	if err == nil {
		t.Fatal("future version accepted")
	}
	if !strings.Contains(err.Error(), "version") || strings.Contains(err.Error(), "newField") {
		t.Errorf("error %q should be about the version", err)
	}
	if _, err := parse([]byte(`{"version":-1}`)); err == nil {
		t.Fatal("negative version accepted")
	}
}

func TestParseErrors(t *testing.T) {
	for _, doc := range []string{`{`, `{"nmae":"x"}`, `{"name":"x"} {}`, `{"name":"x"}]`, `{"name":"x","name":"y"}`,
		`{"Name":"x"}`, `{"name":"x",}`, `{"name":null}`, `{"events":[null]}`, `{"seed":1.5}`, `null`} {
		if _, err := parse([]byte(doc)); err == nil || !strings.Contains(err.Error(), "test: decoding scenario") {
			t.Errorf("%s: %v, want a refusal labelled by the caller", doc, err)
		}
	}
	_, err := parse([]byte(`{"events":["a",""]}`))
	if err == nil || !strings.Contains(err.Error(), "item 1") {
		t.Errorf("an event the caller's reader refuses: %v, want its error", err)
	}
	// The null json.Marshal writes for no events reads as nil, [] as empty.
	for doc, isNil := range map[string]bool{`{"events":null}`: true, `{"events":[]}`: false, `{}`: true} {
		if p, err := parse([]byte(doc)); err != nil || (p.Items == nil) != isNil || len(p.Items) != 0 {
			t.Errorf("%s: %+v, %v", doc, p, err)
		}
	}
}

// What json.Marshal writes, read back from a file, is what was written.
func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sc.json")
	in := &payload{Version: 1, Name: "rt \"<é>\"", Seed: -9, Items: []string{"a", "b "}}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out, err := parse(back)
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || out.Seed != in.Seed || len(out.Items) != 2 || out.Items[1] != in.Items[1] || out.Version != 1 {
		t.Errorf("round trip changed the payload: %+v", out)
	}
}

func TestErrOutOfRangeIsSentinel(t *testing.T) {
	wrapped := fmt.Errorf("test: string 9 out of range [0,3): %w", ErrOutOfRange)
	if !errors.Is(wrapped, ErrOutOfRange) {
		t.Error("wrapped range error should match the sentinel")
	}
}

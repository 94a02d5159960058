package service

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// do issues one JSON request and decodes the response body into out (which
// may be nil to skip decoding). It returns the status code.
func do(t *testing.T, client *http.Client, method, url, body string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func TestHandlerEndpoints(t *testing.T) {
	svc := newTestService(t, 6, Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	snapPath := filepath.Join(t.TempDir(), "snap.json")

	type check func(t *testing.T, status int, raw json.RawMessage)
	wantDecision := func(accepted bool) check {
		return func(t *testing.T, status int, raw json.RawMessage) {
			var d Decision
			if err := json.Unmarshal(raw, &d); err != nil {
				t.Fatalf("decision decode: %v", err)
			}
			if d.SchemaVersion != SchemaVersion {
				t.Errorf("schemaVersion = %d, want %d", d.SchemaVersion, SchemaVersion)
			}
			if d.Accepted != accepted {
				t.Errorf("accepted = %v, want %v (reason %q)", d.Accepted, accepted, d.Reason)
			}
		}
	}
	wantError := func(code string) check {
		return func(t *testing.T, status int, raw json.RawMessage) {
			var env ErrorEnvelope
			if err := json.Unmarshal(raw, &env); err != nil {
				t.Fatalf("envelope decode: %v", err)
			}
			if env.SchemaVersion != SchemaVersion {
				t.Errorf("schemaVersion = %d, want %d", env.SchemaVersion, SchemaVersion)
			}
			if env.Err.Code != code {
				t.Errorf("error code = %q, want %q (message %q)", env.Err.Code, code, env.Err.Message)
			}
			if env.Err.Message == "" {
				t.Error("error envelope has no message")
			}
		}
	}

	// One byte over the body limit: whitespace padding keeps the JSON valid,
	// so only the size can be what is wrong with it.
	oversize := func(doc string) string { return strings.Repeat(" ", maxBodyBytes+1-len(doc)) + doc }
	wantTooLarge := func(t *testing.T, status int, raw json.RawMessage) {
		wantError(CodeBadRequest)(t, status, raw)
		if !strings.Contains(string(raw), "exceeds the 1048576-byte limit") {
			t.Errorf("oversize body not reported as such: %s", raw)
		}
	}

	// Sequential: later cases depend on the state earlier ones build.
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		check      check
	}{
		{"admit success", "POST", "/v1/admit", `{"stringId": 0}`, 200, wantDecision(true)},
		{"admit second", "POST", "/v1/admit", `{"stringId": 1}`, 200, wantDecision(true)},
		{"admit malformed JSON", "POST", "/v1/admit", `{"stringId":}`, 400, wantError(CodeBadRequest)},
		{"admit unknown field", "POST", "/v1/admit", `{"stringID": 2, "bogus": true}`, 400, wantError(CodeBadRequest)},
		{"admit trailing data", "POST", "/v1/admit", `{"stringId": 2} {"stringId": 3}`, 400, wantError(CodeBadRequest)},
		{"admit oversize body", "POST", "/v1/admit", oversize(`{"stringId": 2}`), 400, wantTooLarge},
		{"admit unknown string", "POST", "/v1/admit", `{"stringId": 99}`, 404, wantError(CodeUnknownString)},
		{"admit conflict", "POST", "/v1/admit", `{"stringId": 0}`, 409, wantError(CodeConflict)},
		{"remove success", "POST", "/v1/remove", `{"stringId": 1}`, 200, wantDecision(true)},
		{"remove unmapped", "POST", "/v1/remove", `{"stringId": 1}`, 409, wantError(CodeConflict)},
		{"rescale success", "POST", "/v1/rescale", `{"stringId": 0, "factor": 1.1}`, 200, wantDecision(true)},
		{"rescale bad factor", "POST", "/v1/rescale", `{"stringId": 0, "factor": -1}`, 400, wantError(CodeBadRequest)},
		{"rescale huge then admit is infeasible", "POST", "/v1/rescale", `{"stringId": 1, "factor": 300}`, 200, wantDecision(true)},
		{"infeasible admit", "POST", "/v1/admit", `{"stringId": 1}`, 422, wantDecision(false)},
		{"faults unknown resource", "POST", "/v1/faults", `{"fail": [{"kind": "machine", "machine": 42}]}`, 404, wantError(CodeUnknownResource)},
		{"faults success", "POST", "/v1/faults", `{"fail": [{"kind": "machine", "machine": 5}]}`, 200, wantDecision(true)},
		{"surge malformed", "POST", "/v1/surge", `{"events": [{"kind": "step"}]}`, 400, wantError(CodeBadRequest)},
		{"surge future version", "POST", "/v1/surge", `{"version": 99, "events": []}`, 400, wantError(CodeBadRequest)},
		{"surge oversize body", "POST", "/v1/surge",
			oversize(`{"events": [{"kind": "step", "at": 0, "duration": 20, "factor": 1.3}]}`), 400, wantTooLarge},
		{"surge success", "POST", "/v1/surge",
			`{"events": [{"kind": "step", "at": 0, "duration": 20, "factor": 1.3}]}`, 200, wantDecision(true)},
		{"snapshot success", "POST", "/v1/snapshot", `{"path": "` + snapPath + `"}`, 200, nil},
		{"method mismatch", "GET", "/v1/admit", "", 405, nil},
	}
	client := srv.Client()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var raw json.RawMessage
			_ = json.NewDecoder(resp.Body).Decode(&raw)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.wantStatus, raw)
			}
			if tc.check != nil {
				tc.check(t, resp.StatusCode, raw)
			}
		})
	}

	if _, err := os.Stat(snapPath); err != nil {
		t.Errorf("snapshot endpoint wrote no file: %v", err)
	}

	var st StateResponse
	if status := do(t, client, "GET", srv.URL+"/v1/state", "", &st); status != 200 {
		t.Fatalf("state status = %d", status)
	}
	if st.SchemaVersion != SchemaVersion || st.Digest == "" || st.Strings != 6 {
		t.Errorf("state response incomplete: %+v", st)
	}
	if st.MachinesDown != 1 {
		t.Errorf("state machines down = %d, want 1", st.MachinesDown)
	}

	var mr MetricsResponse
	if status := do(t, client, "GET", srv.URL+"/v1/metrics", "", &mr); status != 200 {
		t.Fatalf("metrics status = %d", status)
	}
	if mr.SchemaVersion != SchemaVersion {
		t.Errorf("metrics schemaVersion = %d", mr.SchemaVersion)
	}
}

// A surge body with a misspelt name used to load as the name left out: an
// event's "strngs" and "duraton" dropped made a permanent surge on every
// string. Each is a 400 now, and no state moves.
func TestSurgeRefusesMisspeltNames(t *testing.T) {
	svc := newTestService(t, 4, Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	mustAdmit(t, svc, 0)
	before, err := svc.State()
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		`{"strngs":[3],"factor":2,"duraton":5}`,
		`{"events":[{"kind":"step","strngs":[3],"at":0,"factor":2,"duraton":5}]}`,
		`{"events":[{"kind":"step","at":0,"duration":5,"factor":2}]} {}`,
	} {
		if status := do(t, srv.Client(), "POST", srv.URL+"/v1/surge", body, nil); status != http.StatusBadRequest {
			t.Errorf("POST /v1/surge %s: status %d, want 400", body, status)
		}
	}
	after, err := svc.State()
	if err != nil {
		t.Fatal(err)
	}
	if after.Seq != before.Seq || after.Digest != before.Digest {
		t.Errorf("refused surges moved the state: seq %d -> %d, digest %s -> %s", before.Seq, after.Seq, before.Digest, after.Digest)
	}
}

func TestHandlerEventStream(t *testing.T) {
	svc := newTestService(t, 4, Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := srv.Client()

	for k := 0; k < 3; k++ {
		if status := do(t, client, "POST", srv.URL+"/v1/admit",
			`{"stringId": `+string(rune('0'+k))+`}`, nil); status != 200 {
			t.Fatalf("admit %d: status %d", k, status)
		}
	}

	readSeqs := func(url string) []uint64 {
		resp, err := client.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("events content type = %q", ct)
		}
		var seqs []uint64
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var d Decision
			if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
				t.Fatalf("event line: %v", err)
			}
			seqs = append(seqs, d.Seq)
		}
		return seqs
	}

	all := readSeqs(srv.URL + "/v1/events")
	if len(all) != 3 {
		t.Fatalf("event stream has %d lines, want 3", len(all))
	}
	for i, s := range all {
		if s != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, s, i+1)
		}
	}
	tail := readSeqs(srv.URL + "/v1/events?since=2")
	if len(tail) != 1 || tail[0] != 3 {
		t.Fatalf("since=2 returned %v, want [3]", tail)
	}
	if status := do(t, client, "GET", srv.URL+"/v1/events?since=banana", "", nil); status != 400 {
		t.Fatalf("bad since: status %d, want 400", status)
	}
}

// HTTP layer: a stateless translation between the versioned JSON wire
// contract and the Service methods. Every request body is read by its one
// strict reader (wire.go, overload.Parse), every reply is compact JSON ending
// in a newline with Content-Length set, every error is the single envelope
// shape, and error codes map to HTTP statuses here and nowhere else. The hot
// replies — Decision, StateResponse — go through the codec in wire.go; the
// rest are written by encoding/json.
package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/overload"
)

// maxBodyBytes bounds request bodies; scenario files are small.
const maxBodyBytes = 1 << 20

// Connection limits for the http.Server that serves Handler (cmd/shipd sets
// them): a client gets ReadHeaderTimeout to send its request headers, and a
// keep-alive connection with no request in flight is closed after
// IdleTimeout. There is deliberately no whole-request read or write timeout:
// the /v1/events NDJSON stream and a client's long-lived keep-alive
// connection must not be cut mid-use.
const (
	ReadHeaderTimeout = 10 * time.Second
	IdleTimeout       = 2 * time.Minute
)

// Handler returns the daemon's HTTP API.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/admit", s.handleAdmit)
	mux.HandleFunc("POST /v1/remove", s.handleRemove)
	mux.HandleFunc("POST /v1/rescale", s.handleRescale)
	mux.HandleFunc("POST /v1/faults", s.handleFaults)
	mux.HandleFunc("POST /v1/surge", s.handleSurge)
	mux.HandleFunc("POST /v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /v1/state", s.handleState)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/events", s.handleEvents)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	return mux
}

// RecoveringHandler is the HTTP surface a daemon serves while journal replay
// is still running: healthz reports alive-and-recovering, everything else
// (including readyz) is 503 CodeUnavailable. cmd/shipd swaps in the real
// handler once Recover returns.
func RecoveringHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, HealthResponse{
			SchemaVersion: SchemaVersion, Status: "ok", Phase: PhaseRecovering.String(),
		})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusServiceUnavailable,
			Errorf(CodeUnavailable, []string{PhaseRecovering.String()},
				"service is recovering: journal replay in progress"))
	})
	return mux
}

// handleHealthz is liveness: 200 while the daemon can serve anything at all,
// 500 once the journal is broken (mutations fail fast; reads still work, but
// the daemon wants replacing).
func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	phase := s.Phase().String()
	if reason, broken := s.JournalBroken(); broken {
		writeJSON(w, http.StatusInternalServerError, HealthResponse{
			SchemaVersion: SchemaVersion, Status: "failed", Phase: phase,
			Reason: "journal append failed: " + reason,
		})
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{
		SchemaVersion: SchemaVersion, Status: "ok", Phase: phase,
	})
}

// handleReadyz is readiness: 200 only when the daemon should receive traffic.
// Draining (graceful shutdown) and a broken journal both answer 503 with the
// standard CodeUnavailable envelope.
func (s *Service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if p := s.Phase(); p != PhaseReady {
		writeJSON(w, http.StatusServiceUnavailable,
			Errorf(CodeUnavailable, []string{p.String()}, "service is %s", p))
		return
	}
	if reason, broken := s.JournalBroken(); broken {
		writeJSON(w, http.StatusServiceUnavailable,
			Errorf(CodeUnavailable, []string{"journal"}, "journal append failed: %s", reason))
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{
		SchemaVersion: SchemaVersion, Status: "ready", Phase: PhaseReady.String(),
	})
}

// statusFor maps envelope error codes to HTTP statuses.
func statusFor(code string) int {
	switch code {
	case CodeBadRequest:
		return http.StatusBadRequest
	case CodeUnknownString, CodeUnknownResource:
		return http.StatusNotFound
	case CodeConflict:
		return http.StatusConflict
	case CodeUnavailable:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// writeJSON is the cold DTOs' reply (error envelope, health, snapshot,
// metrics). A value encoding/json refuses is answered with a 500 envelope.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		// An envelope is two strings and an int: this Marshal cannot fail.
		data, _ = json.Marshal(Errorf(CodeInternal, nil, "encode response: %v", err))
	}
	writeBody(w, status, "application/json", append(data, '\n'))
}

// writeErr renders any error as the envelope; non-envelope errors become
// CodeInternal.
func writeErr(w http.ResponseWriter, err error) {
	var env *ErrorEnvelope
	if !errors.As(err, &env) {
		env = Errorf(CodeInternal, nil, "%v", err)
	}
	writeJSON(w, statusFor(env.Err.Code), env)
}

// bodyError names what went wrong reading a request body: over the size
// limit, or whatever doing reports (e.g. "malformed request body").
func bodyError(doing string, err error) *ErrorEnvelope {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return Errorf(CodeBadRequest, nil, "request body exceeds the %d-byte limit", tooBig.Limit)
	}
	return Errorf(CodeBadRequest, nil, "%s: %v", doing, err)
}

// readBody reads a faults, surge or snapshot body into a pooled buffer and
// hands it to its parser, once; a body over the limit or one parse refuses is
// answered with a 400 envelope and false. parse must copy what it keeps.
func readBody(w http.ResponseWriter, r *http.Request, parse func([]byte) error) bool {
	buf := getWbuf()
	defer putWbuf(buf)
	err := buf.readBody(w, r)
	if err == nil {
		err = parse(buf.b)
	}
	if err != nil {
		writeErr(w, bodyError("malformed request body", err))
	}
	return err == nil
}

// reply sends what encode appends to a pooled buffer as the whole response
// body. A value JSON cannot carry (a non-finite float) is answered with a 500
// envelope, not with a status line and half a body.
func reply(w http.ResponseWriter, status int, contentType string, encode func(*wbuf)) {
	buf := getWbuf()
	defer putWbuf(buf)
	encode(buf)
	send(w, status, contentType, buf)
}

// send writes what buf holds as the whole response body, or the 500
// envelope if encoding it latched an error.
func send(w http.ResponseWriter, status int, contentType string, buf *wbuf) {
	if buf.err != nil {
		writeErr(w, Errorf(CodeInternal, nil, "encode response: %v", buf.err))
		return
	}
	writeBody(w, status, contentType, buf.b)
}

// writeDecision renders a Decision: accepted operations are 200, rejected
// ones 422 so curl -f and scripts can branch on the status alone.
func writeDecision(w http.ResponseWriter, d *Decision, err error) {
	if err != nil {
		writeErr(w, err)
		return
	}
	status := http.StatusOK
	if !d.Accepted {
		status = http.StatusUnprocessableEntity
	}
	reply(w, status, "application/json", func(buf *wbuf) {
		buf.decision(d)
		buf.lit("\n")
	})
}

// readStringOp reads an admit, remove or rescale body into a pooled buffer
// and parses it, once.
func readStringOp(w http.ResponseWriter, r *http.Request, rescale bool) (k int, factor float64, err error) {
	buf := getWbuf()
	defer putWbuf(buf)
	if err := buf.readBody(w, r); err != nil {
		return 0, 0, bodyError("read request body", err)
	}
	if k, factor, err = parseStringOp(buf.b, rescale); err != nil {
		return 0, 0, Errorf(CodeBadRequest, nil, "malformed request body: %v", err)
	}
	return k, factor, nil
}

func (s *Service) handleStringOp(w http.ResponseWriter, r *http.Request, op string) {
	k, factor, err := readStringOp(w, r, op == opRescale)
	if err != nil {
		writeErr(w, err)
		return
	}
	d, err := s.mutate(mutation{op: op, k: k, factor: factor})
	writeDecision(w, &d, err)
}

func (s *Service) handleAdmit(w http.ResponseWriter, r *http.Request) {
	s.handleStringOp(w, r, opAdmit)
}

func (s *Service) handleRemove(w http.ResponseWriter, r *http.Request) {
	s.handleStringOp(w, r, opRemove)
}

func (s *Service) handleRescale(w http.ResponseWriter, r *http.Request) {
	s.handleStringOp(w, r, opRescale)
}

func (s *Service) handleFaults(w http.ResponseWriter, r *http.Request) {
	var req FaultsRequest
	if !readBody(w, r, func(b []byte) (err error) { req, err = parseFaults(b); return err }) {
		return
	}
	d, err := s.Faults(req)
	writeDecision(w, &d, err)
}

// handleSurge takes a surge scenario file as its body, read by the reader the
// CLIs load one with, so the API and the CLIs accept identical files.
func (s *Service) handleSurge(w http.ResponseWriter, r *http.Request) {
	var sc *overload.Scenario
	if !readBody(w, r, func(b []byte) (err error) { sc, err = overload.Parse(b); return err }) {
		return
	}
	d, err := s.Surge(sc)
	writeDecision(w, &d, err)
}

func (s *Service) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	var req SnapshotRequest
	if !readBody(w, r, func(b []byte) (err error) { req, err = parseSnapshotRequest(b); return err }) {
		return
	}
	resp, err := s.Snapshot(req.Path)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleState has the state append the reply into a pooled buffer, under the
// mutex: the header, then the state's kept rows (state.appendState). No
// StateResponse is built for a read.
func (s *Service) handleState(w http.ResponseWriter, r *http.Request) {
	buf := getWbuf()
	defer putWbuf(buf)
	if err := s.exec(func(st *state) { st.appendState(buf) }); err != nil {
		writeErr(w, err)
		return
	}
	buf.lit("\n")
	send(w, http.StatusOK, "application/json", buf)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

// handleEvents streams the buffered decisions with Seq > since as JSONL, one
// decision per line.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	since := uint64(0)
	if q := r.URL.Query().Get("since"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			writeErr(w, Errorf(CodeBadRequest, nil, "since = %q, want a non-negative integer", q))
			return
		}
		since = v
	}
	events, err := s.Events(since)
	if err != nil {
		writeErr(w, err)
		return
	}
	reply(w, http.StatusOK, "application/x-ndjson", func(buf *wbuf) {
		for i := range events {
			buf.decision(&events[i])
			buf.lit("\n")
		}
	})
}

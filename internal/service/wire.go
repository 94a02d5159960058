// The wire codec. Every hot wire type has exactly one encoder and one decoder,
// all of them here: Decision (every mutation's reply and every /v1/events
// line) and StateResponse (GET /v1/state: a header, then rows the state keeps
// encoded), which the daemon only writes; the journal record, written
// per op and read back on replay; and the {"stringId":N[,"factor":F]} body of
// admit, remove and rescale — as a request body and as a journaled payload
// alike.
//
// The contract is encoding/json's bytes: each encoder appends exactly what
// json.Marshal writes for the same value (compact, struct field order, the
// same omitempty rules, ES6 number form, <>& and invalid UTF-8 escaped), so a
// client, an old journal and a new journal cannot tell the two apart, and
// TestWireMatchesEncodingJSON holds them equal on random values. What differs
// is the cost — no reflection, no intermediate copy, one pooled buffer per
// request — and the decoders' strictness, which encoding/json cannot be
// configured into: a field under its exact name, at most once (a string op's
// exactly once), refused with its byte offset otherwise; the faults and
// snapshot bodies are read here under the same rule, a surge body by
// overload.Parse. The cold replies and the faults and surge journal payloads
// are written by encoding/json, and the snapshot state file stays on it.
package service

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/faults"
	"repro/internal/jsonscan"
)

// wbuf is the append buffer a hot wire type is encoded into and a hot request
// body is read into. The encoders are flat lists of fields; the one value JSON
// cannot carry, a non-finite float, latches err rather than threading an error
// through every append, and the caller checks it once.
type wbuf struct {
	b   []byte
	err error
}

// maxPooledBuf keeps a one-off large body or event listing from pinning its
// buffer in the pool; a state reply of a few hundred strings fits well inside.
const maxPooledBuf = 64 << 10

var wbufPool = sync.Pool{New: func() any { return &wbuf{b: make([]byte, 0, 1024)} }}

func getWbuf() *wbuf { return wbufPool.Get().(*wbuf) }

func putWbuf(w *wbuf) {
	if cap(w.b) > maxPooledBuf {
		return
	}
	w.reset()
	wbufPool.Put(w)
}

func (w *wbuf) reset() { w.b, w.err = w.b[:0], nil }

// --- encode ---
//
// Each appender takes the literal that precedes its value — `,"seq":` before a
// field, "," between array elements — so an encoder reads as the field list of
// its type, in struct order.

func (w *wbuf) lit(s string)              { w.b = append(w.b, s...) }
func (w *wbuf) int(pre string, v int)     { w.b = strconv.AppendInt(append(w.b, pre...), int64(v), 10) }
func (w *wbuf) uint(pre string, v uint64) { w.b = strconv.AppendUint(append(w.b, pre...), v, 10) }
func (w *wbuf) bool(pre string, v bool)   { w.b = strconv.AppendBool(append(w.b, pre...), v) }

// float appends f the way encoding/json does (jsonscan.AppendFloat). A float
// JSON has no form for sets the error and appends 0 in its place.
func (w *wbuf) float(pre string, f float64) {
	b, ok := jsonscan.AppendFloat(append(w.b, pre...), f)
	if !ok {
		if w.err == nil {
			w.err = fmt.Errorf("unsupported value: %v", f)
		}
		b = append(b, '0')
	}
	w.b = b
}

const hexDigits = "0123456789abcdef"

// str appends s as a JSON string with encoding/json's default escaping:
// quote, backslash and control bytes, the HTML-sensitive <, > and &, invalid
// UTF-8 as U+FFFD, and U+2028/U+2029.
func (w *wbuf) str(pre, s string) {
	b := append(append(w.b, pre...), '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			start = i + size
		case r == 0x2028 || r == 0x2029: // line and paragraph separator
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
			start = i + size
		}
		i += size
	}
	b = append(b, s[start:]...)
	w.b = append(b, '"')
}

// ints appends the non-empty vs as a JSON array.
func (w *wbuf) ints(pre string, vs []int) {
	w.lit(pre)
	for i, v := range vs {
		w.int(sep(i), v)
	}
	w.lit("]")
}

// sep is what precedes element i of an array.
func sep(i int) string {
	if i == 0 {
		return "["
	}
	return ","
}

// decision appends d; the only encoder of a Decision.
func (w *wbuf) decision(d *Decision) {
	w.int(`{"schemaVersion":`, d.SchemaVersion)
	w.uint(`,"seq":`, d.Seq)
	w.str(`,"op":`, d.Op)
	w.bool(`,"accepted":`, d.Accepted)
	w.int(`,"stringId":`, d.StringID)
	if d.Reason != "" {
		w.str(`,"reason":`, d.Reason)
	}
	w.float(`,"worthBefore":`, d.WorthBefore)
	w.float(`,"worthAfter":`, d.WorthAfter)
	w.float(`,"worthRetained":`, d.WorthRetained)
	w.float(`,"slackness":`, d.Slackness)
	w.int(`,"mapped":`, d.Mapped)
	if d.WorthBound != 0 {
		w.float(`,"worthBound":`, d.WorthBound)
	}
	if d.BoundWarmStarted {
		w.lit(`,"boundWarmStarted":true`)
	}
	if len(d.Violations) > 0 {
		w.lit(`,"violations":`)
		for i := range d.Violations {
			v := &d.Violations[i]
			w.lit(sep(i))
			w.int(`{"stringId":`, v.StringID)
			w.str(`,"kind":`, v.Kind)
			w.int(`,"app":`, v.App)
			w.float(`,"value":`, v.Value)
			w.float(`,"bound":`, v.Bound)
			w.lit("}")
		}
		w.lit("]")
	}
	if len(d.Actions) > 0 {
		w.lit(`,"actions":`)
		for i := range d.Actions {
			a := &d.Actions[i]
			w.lit(sep(i))
			if a.Time != 0 {
				w.float(`{"time":`, a.Time)
				w.int(`,"stringId":`, a.StringID)
			} else {
				w.int(`{"stringId":`, a.StringID)
			}
			w.str(`,"kind":`, a.Kind)
			if a.Reason != "" {
				w.str(`,"reason":`, a.Reason)
			}
			if a.MovedApps != 0 {
				w.int(`,"movedApps":`, a.MovedApps)
			}
			if a.CostSeconds != 0 {
				w.float(`,"costSeconds":`, a.CostSeconds)
			}
			w.lit("}")
		}
		w.lit("]")
	}
	if len(d.Evacuated) > 0 {
		w.ints(`,"evacuated":`, d.Evacuated)
	}
	w.lit("}")
}

// stateHeader appends every field of s up to its stringStates, and that
// field's name; stringStatus appends the rows that follow (state.appendState
// composes a reply from the two).
func (w *wbuf) stateHeader(s *StateResponse) {
	w.int(`{"schemaVersion":`, s.SchemaVersion)
	w.uint(`,"seq":`, s.Seq)
	w.int(`,"machines":`, s.Machines)
	w.int(`,"strings":`, s.Strings)
	w.int(`,"mappedCount":`, s.MappedCount)
	w.float(`,"worth":`, s.Worth)
	w.float(`,"totalWorth":`, s.TotalWorth)
	w.float(`,"slackness":`, s.Slackness)
	w.bool(`,"feasible":`, s.Feasible)
	if s.WorthBound != 0 {
		w.float(`,"worthBound":`, s.WorthBound)
	}
	w.str(`,"digest":`, s.Digest)
	w.int(`,"machinesDown":`, s.MachinesDown)
	w.int(`,"routesDown":`, s.RoutesDown)
	w.lit(`,"stringStates":`)
}

// stringStatus appends ss as element i of a stringStates array, the bracket
// or comma before it included; the only encoder of a StringStatus.
func (w *wbuf) stringStatus(i int, ss *StringStatus) {
	w.lit(sep(i))
	w.int(`{"id":`, ss.ID)
	w.bool(`,"mapped":`, ss.Mapped)
	w.float(`,"worth":`, ss.Worth)
	w.float(`,"scale":`, ss.Scale)
	if len(ss.Machines) > 0 {
		w.ints(`,"machines":`, ss.Machines)
	}
	w.lit("}")
}

// opRecord appends rec, header records included; the only encoder of a
// journal record. The payload goes in as it is: it is stringOp's output or
// json.Marshal's, so it is already compact and HTML-escaped, which is all
// json.Marshal would do to a RawMessage.
func (w *wbuf) opRecord(rec *opRecord) {
	w.int(`{"v":`, rec.V)
	w.uint(`,"seq":`, rec.Seq)
	w.str(`,"op":`, rec.Op)
	if len(rec.Payload) > 0 {
		w.lit(`,"payload":`)
		w.b = append(w.b, rec.Payload...)
	}
	w.bool(`,"accepted":`, rec.Accepted)
	w.str(`,"check":`, rec.Check)
	if rec.StateDigest != "" {
		w.str(`,"stateDigest":`, rec.StateDigest)
	}
	w.lit("}")
}

// stringOp appends the wire form of an admit, remove or rescale request:
// what json.Marshal writes for AdmitRequest, RemoveRequest and RescaleRequest,
// which is what every journal carries as those ops' payload.
func (w *wbuf) stringOp(k int, factor float64, rescale bool) {
	w.int(`{"stringId":`, k)
	if rescale {
		w.float(`,"factor":`, factor)
	}
	w.lit("}")
}

// --- decode ---

// The decoders are tables of field names over internal/jsonscan's cursor.
var (
	stringOpFields = []string{"stringId", "factor"}
	faultsFields   = []string{"fail", "repair"}
	snapshotFields = []string{"path"}
	recordFields   = []string{"v", "seq", "op", "payload", "accepted", "check", "stateDigest"}
	opNames        = [...]string{opAdmit, opRemove, opRescale, opFaults, opSurge, opHeader}
)

// parseFaults parses a faults request, {"fail":[R…],"repair":[R…]} with each
// R a resource (faults.ReadResource) and either list left out at will: the
// one decoder of a faults body, from the wire and from the journal. Whatever
// it accepts, a strict json.Decoder reads the same (FuzzParseFaults).
func parseFaults(b []byte) (req FaultsRequest, err error) {
	c := jsonscan.Cursor{B: b}
	err = c.End(c.Object(faultsFields, false, func(f int) error {
		rs := [...]*[]faults.Resource{&req.Fail, &req.Repair}[f]
		*rs = []faults.Resource{}
		return c.Array(func() error {
			r, err := faults.ReadResource(&c)
			*rs = append(*rs, r)
			return err
		})
	}))
	return req, err
}

// parseSnapshotRequest parses {"path":P}, the path optional.
func parseSnapshotRequest(b []byte) (req SnapshotRequest, err error) {
	c := jsonscan.Cursor{B: b}
	err = c.End(c.Object(snapshotFields, false, func(int) (err error) {
		req.Path, err = c.String()
		return err
	}))
	return req, err
}

// parseStringOp parses {"stringId":N} or, for a rescale,
// {"stringId":N,"factor":F}: one flat JSON object whose fields are all
// required, each exactly once, under exactly these names, with numeric values
// (N written as an integer), and nothing but whitespace around it. It is the
// only decoder of an admit, remove or rescale body, from the wire and from
// the journal, and accepts nothing a strict json.Decoder refuses
// (FuzzParseStringOp).
func parseStringOp(b []byte, rescale bool) (k int, factor float64, err error) {
	names := stringOpFields[:1]
	if rescale {
		names = stringOpFields
	}
	c := jsonscan.Cursor{B: b}
	var seen uint32
	err = c.End(c.Object(names, false, func(f int) error {
		seen |= 1 << f
		if f == 0 {
			return c.Number(&k)
		}
		return c.Number(&factor)
	}))
	for f, name := range names {
		if err == nil && seen&(1<<f) == 0 {
			err = fmt.Errorf("missing field %q", name)
		}
	}
	return k, factor, err
}

// internOp returns the op constant spelt s, or a copy of s: a name no binary
// wrote (which replay then refuses as an unknown op), a chain value, a digest.
func internOp(s []byte) string {
	for _, op := range opNames {
		if string(s) == op {
			return op
		}
	}
	return string(s)
}

// decodeOpRecord parses a journal record; the only decoder of one, beside its
// only encoder. Fields come in any order, each at most once; a field this
// binary does not know (an older binary's "rngCalls") is stepped over. The
// strings are plain (op names and hex digests are all a record ever held), and
// Payload is a sub-slice of b, still to be parsed by journaledMutation before
// it is applied. Whatever this accepts, json.Unmarshal accepts
// and reads the same (FuzzParseOpRecord).
func decodeOpRecord(b []byte) (rec opRecord, err error) {
	c := jsonscan.Cursor{B: b}
	strs := [...]*string{2: &rec.Op, 5: &rec.Check, 6: &rec.StateDigest}
	err = c.End(c.Object(recordFields, true, func(f int) (err error) {
		switch f {
		case 0:
			return c.Number(&rec.V)
		case 1:
			return c.Number(&rec.Seq)
		case 3:
			rec.Payload, err = c.Raw()
		case 4:
			rec.Accepted, err = c.Bool()
		default:
			var s []byte
			s, err = c.Plain()
			*strs[f] = internOp(s)
		}
		return err
	}))
	return rec, err
}

// --- HTTP ---

// readBody reads the size-limited request body into w.
func (w *wbuf) readBody(rw http.ResponseWriter, r *http.Request) error {
	body := http.MaxBytesReader(rw, r.Body, maxBodyBytes)
	w.b = w.b[:0]
	for {
		if len(w.b) == cap(w.b) {
			w.b = append(w.b, 0)[:len(w.b)]
		}
		n, err := body.Read(w.b[len(w.b):cap(w.b)])
		w.b = w.b[:len(w.b)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// writeBody sends body as the whole reply: Content-Length set, one Write.
func writeBody(rw http.ResponseWriter, status int, contentType string, body []byte) {
	h := rw.Header()
	h.Set("Content-Type", contentType)
	h.Set("Content-Length", strconv.Itoa(len(body)))
	rw.WriteHeader(status)
	_, _ = rw.Write(body) // a client that hung up is not the handler's to report
}

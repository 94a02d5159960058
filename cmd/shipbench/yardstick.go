package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"
)

// The yardstick is a fixed piece of work the benchmark does itself, on the
// CPU everything is pinned to, right before and right after each thing it
// times. The sandbox is a small VM on a shared host that is slowed down by
// its neighbours for seconds or for a quarter of an hour at a time (a fixed
// lpbound run: 1.5 s, or 2.5 s; two sets of ten runs of the same code half an
// hour apart: every timing a third to a half longer in the second). No run
// length the contract allows averages that away, so every timing is divided
// by how much slower than nominal the yardstick ran around it: the reported
// seconds are seconds on a quiet host. The yardstick shares no code with the
// programs under test, so a change to them moves the timings and not the
// yardstick.
//
// It has two halves, because the neighbours do not slow all work alike.
// Plain computation (the sort) lost a quarter where allocation, system calls
// and the loopback path (the exchanges) lost half, and the programs under
// test (a wire op, a process start, a dense LP) sit between the two. A
// reading is the mean of the two halves' slowdowns.

// Nominal times of the two halves on the sandbox (2.1 GHz Xeon vCPU) while
// the host is quiet: between the first quartile and the median of 300
// readings in a row. They only fix the scale of the reported numbers, so that
// on a quiet host these are plain seconds; comparisons do not depend on them.
const (
	sortNominal     = 32 * time.Millisecond
	exchangeNominal = 30 * time.Microsecond
	// Size of a reading: 2 MB to sort, and exchanges for about half as long.
	sortFloats = 1 << 18
	exchanges  = 500
)

// exchangeReply is about what shipd answers a decision with.
var exchangeReply = strings.Repeat("{\"k\": 1234567, \"accepted\": true},\n", 16)

// hostClock reads the host's speed with the yardstick.
type hostClock struct {
	buf    []float64
	n      int              // exchanges per reading
	srv    *httptest.Server // answers every request with exchangeReply
	client *http.Client     // one keep-alive connection, as to shipd
	last   float64          // the latest reading
}

// newHostClock starts the yardstick; smoke shrinks a reading to a token size
// (the smoke sizes measure nothing, and the race detector makes a full
// reading take half a second).
func newHostClock(smoke bool) (*hostClock, error) {
	size, n := sortFloats, exchanges
	if smoke {
		size, n = size/64, n/50
	}
	h := &hostClock{
		buf: make([]float64, size),
		n:   n,
		srv: httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body) // a failed exchange fails in the client
			w.Header().Set("Content-Type", "application/json")
			_, _ = io.WriteString(w, exchangeReply)
		})),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}},
	}
	// The first reading also faults the buffer's pages in and dials the connection.
	for i := 0; i < 2; i++ {
		if err := h.read(); err != nil {
			h.close()
			return nil, err
		}
	}
	return h, nil
}

func (h *hostClock) close() {
	h.client.CloseIdleConnections()
	h.srv.Close()
}

// read runs the yardstick once and keeps the host's slowdown: 1 at nominal
// speed, 1.3 when everything takes 30 % longer.
//
// The sort half fills 2 MB with a fixed pseudo-random sequence and sorts it:
// branches, cache and memory traffic in the mix of an ordinary Go program.
// The exchange half posts a small JSON body to a handler in this process that
// does nothing, over loopback TCP on one connection: the system calls,
// scheduler hand-offs and allocations of a wire op, with no work behind them.
func (h *hostClock) read() error {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := range h.buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h.buf[i] = float64(x >> 11)
	}
	sort.Float64s(h.buf)
	sorted := time.Since(t0)

	t0 = time.Now()
	for i := 0; i < h.n; i++ {
		resp, err := h.client.Post(h.srv.URL, "application/json", strings.NewReader(`{"k": 1234567, "factor": 1.0625}`))
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
	}
	exchanged := time.Since(t0)

	// At smoke size the two nominal times do not apply; nothing reads the result.
	h.last = (float64(sorted)/float64(sortNominal) + float64(exchanged)/float64(exchanges*exchangeNominal)) / 2
	return nil
}

// during runs f between two readings and returns the host's slowdown while
// it ran: the mean of the reading right before it (the one that ended the
// previous timed thing) and the one right after.
func (h *hostClock) during(f func() error) (slowdown float64, err error) {
	before := h.last
	if err := f(); err != nil {
		return 0, err
	}
	if err := h.read(); err != nil {
		return 0, err
	}
	return (before + h.last) / 2, nil
}

// atNominal converts a measured value of metric d to the host's nominal
// speed: a time shrinks by the slowdown, a rate grows by it.
func atNominal(d metricDef, v, slowdown float64) float64 {
	if d.Better == "higher" {
		return v * slowdown
	}
	return v / slowdown
}

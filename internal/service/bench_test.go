package service

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// benchSystem builds the loaded admission workload: M uniform machines
// carrying 2M two-app strings, so every machine hosts ~4 applications at ~80%
// utilization. Dense rosters are the operating point that matters for a
// daemon — full re-analysis has to walk every string's sharing neighborhood
// while the delta path rechecks only the strings touching the two machines
// the admitted string landed on.
func benchSystem(m int) *model.System {
	sys := model.NewUniformSystem(m, 100)
	for k := 0; k < 2*m; k++ {
		sys.AddString(model.AppString{
			Worth:      1 + float64(k%7),
			Period:     100,
			MaxLatency: 500,
			Apps: []model.Application{
				model.UniformApp(m, 1.0, 0.2, 10),
				model.UniformApp(m, 1.0, 0.2, 10),
			},
		})
	}
	return sys
}

// benchAdmitRemove loads all 2M strings, frees string 0, and times admitting
// and removing it again.
func benchAdmitRemove(b *testing.B, svc *Service, m int) {
	for k := 0; k < 2*m; k++ {
		if d, err := svc.Admit(k); err != nil || !d.Accepted {
			b.Fatalf("admit %d: %v %+v", k, err, d)
		}
	}
	if _, err := svc.Remove(0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		d, err := svc.Admit(0)
		if err != nil || !d.Accepted {
			b.Fatalf("admit: %v %+v", err, d)
		}
		if _, err := svc.Remove(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceAdmit measures served admission throughput on a loaded
// M-machine, 2M-string system: each iteration admits one held-out string and
// removes it again through the full service path (request channel, masked IMR
// placement, delta evaluation, commit, decision assembly). The full-analysis
// baseline for the same evaluation is cmd/shipbench's feasibility.full_eval_us.
func BenchmarkServiceAdmit(b *testing.B) {
	for _, m := range []int{64, 512} {
		b.Run(fmt.Sprintf("delta/M=%d", m), func(b *testing.B) {
			svc, err := New(Config{System: benchSystem(m)})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			benchAdmitRemove(b, svc, m)
		})
	}
}

// BenchmarkServiceAdmitJournaled is BenchmarkServiceAdmit with the
// write-ahead journal on, one sub-benchmark per fsync policy. The difference
// against BenchmarkServiceAdmit delta/M=512 is the full durability overhead on
// the serve path — record marshal, chained check, append, and (policy-
// dependent) fsync. The acceptance target is batch <= 2x the unjournaled path
// at M=512. Compaction is disabled so the numbers isolate the append path.
func BenchmarkServiceAdmitJournaled(b *testing.B) {
	for _, m := range []int{64, 512} {
		for _, policy := range []journal.FsyncPolicy{journal.FsyncAlways, journal.FsyncBatch, journal.FsyncNone} {
			b.Run(fmt.Sprintf("fsync=%s/M=%d", policy, m), func(b *testing.B) {
				dir := b.TempDir()
				svc, err := New(Config{
					System:       benchSystem(m),
					Journal:      filepath.Join(dir, "bench.wal"),
					Fsync:        policy,
					CompactEvery: -1,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer svc.Close()
				benchAdmitRemove(b, svc, m)
			})
		}
	}
}

// BenchmarkCompact times one journal compaction — digest, state snapshot,
// atomic write, journal reset and header sync — on the benchmark's fleet ship
// (workload.FleetConfig(M, 2)) after a few hundred mixed ops, and reports the
// size of the snapshot it leaves. The catalog is written at bootstrap, outside
// the timer; a compaction that re-serialised it would cost tens of
// milliseconds and megabytes at M=128 and ~16x that at M=512.
func BenchmarkCompact(b *testing.B) {
	for _, m := range []int{128, 512} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			sys := workload.MustGenerate(workload.FleetConfig(m, 2), 1)
			journalPath := filepath.Join(b.TempDir(), "bench.wal")
			svc, err := New(Config{System: sys, Journal: journalPath, Fsync: journal.FsyncNone, CompactEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			r := rng.NewRand(1, "service/bench", 0)
			for step := 0; step < 400; step++ {
				op, k, factor := modelOp(r, len(sys.Strings))
				_, _ = applyModelOp(svc, op, k, factor)
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if err := svc.exec(func(st *state) {
					st.seq++ // a compaction at a new seq, as on the serve path: no memoised digest
					if err := st.compact(); err != nil {
						b.Error(err)
					}
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(1e3*b.Elapsed().Seconds()/float64(b.N), "ms/op")
			fi, err := os.Stat(JournalSnapshotPath(journalPath))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(fi.Size()), "snapshot-bytes")
		})
	}
}

// BenchmarkRecoverFleet times a restart — Recover of a journal of about 5 000
// mixed-op records (drawn like BenchmarkCompact's, written once, outside the
// timer) over the benchmark's fleet ship: state file, the 2.4 MB pinned
// catalog, then every record decoded, replayed and chain-checked. ns/record
// is the whole restart spread over its records, catalog load included;
// rejected/record is the share of them that were rejections, folded in
// without being decided again. rescans/record is an exact count from one
// more restart with telemetry on, outside the timer: the replayed decisions
// whose Λ read found the kept binding resource stale and walked every
// machine and route. A jump toward 1 means the kept maximum stopped engaging.
// machines_read/record and routes_priced/record are exact counts from the
// same restart (recoveryScans): the machine terms and routes replay's IMR
// scans computed and priced, per record.
func BenchmarkRecoverFleet(b *testing.B) {
	sys := workload.MustGenerate(workload.FleetConfig(128, 2), 1)
	journalPath := filepath.Join(b.TempDir(), "bench.wal")
	svc, err := New(Config{System: sys, Journal: journalPath, Fsync: journal.FsyncNone, CompactEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.NewRand(1, "service/bench", 1)
	for step := 0; step < 7800; step++ { // a third of the draws are conflicts, which are not journaled
		op, k, factor := modelOp(r, len(sys.Strings))
		_, _ = applyModelOp(svc, op, k, factor)
	}
	svc.Close()
	b.ResetTimer()
	var rep *RecoveryReport
	for n := 0; n < b.N; n++ {
		rec, r, err := Recover(journalPath, Config{CompactEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		rep = r
		b.StopTimer()
		rec.Close()
		b.StartTimer()
	}
	b.StopTimer()
	records := rep.Replayed
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(records), "ns/record")
	b.ReportMetric(float64(records), "records")
	b.ReportMetric(float64(rep.Rejected)/float64(records), "rejected/record")
	prev := telemetry.Active()
	reg := telemetry.Enable()
	rec, _, err := Recover(journalPath, Config{CompactEvery: -1})
	telemetry.EnableRegistry(prev)
	if err != nil {
		b.Fatal(err)
	}
	rec.Close()
	b.ReportMetric(float64(reg.Counter("feasibility.slackness_rescans").Value())/float64(records), "rescans/record")
	recoveryScans(b, reg, records)
}

// recoveryScans reports the IMR scan counts a telemetry restart recorded in
// reg, per replayed record: machines_read/record, the machine terms the scans
// computed, and routes_priced/record, the candidates that survived the bound
// and had a route priced. Replay scans along the order over the pinned
// catalog, stopping at the first machine that cannot win; machines_read
// jumping back toward M terms a scan (records × scans a record × M) means the
// order is no longer attached on restart, or its stop no longer fires.
func recoveryScans(b *testing.B, reg *telemetry.Registry, records int) {
	b.ReportMetric(float64(reg.Counter("heuristics.imr.machines_read").Value())/float64(records), "machines_read/record")
	b.ReportMetric(float64(reg.Counter("heuristics.imr.routes_priced").Value())/float64(records), "routes_priced/record")
}

// paperJournal serves the benchmark's `paper` ship (scenario 1, seed 1) a
// stream of steps ops drawn the way shipbench draws its stream — a uniform
// string, admitted if unmapped, otherwise removed or rescaled on a fair coin,
// a rescale aiming at a demand level drawn from U[0.7, 1.3] — with the
// journal at path and compaction off, and returns the decisions in order and
// the GET /v1/state body of the state they end on. No draw is an envelope
// error, so there is one record per step; the ship is loaded heavily enough
// that about two in five are rejections.
func paperJournal(tb testing.TB, path string, steps int) (decisions []Decision, live []byte) {
	tb.Helper()
	sys := workload.MustGenerate(workload.ScenarioConfig(workload.HighlyLoaded), 1)
	svc, err := New(Config{System: sys, Journal: path, Fsync: journal.FsyncNone, CompactEvery: -1})
	if err != nil {
		tb.Fatal(err)
	}
	defer svc.Close()
	r := rng.NewRand(1, "service/bench", 2)
	mapped := make([]bool, len(sys.Strings))
	scale := make([]float64, len(sys.Strings))
	for k := range scale {
		scale[k] = 1
	}
	decisions = make([]Decision, 0, steps)
	for step := 0; step < steps; step++ {
		k := r.Intn(len(sys.Strings))
		var d Decision
		switch {
		case !mapped[k]:
			if d, err = svc.Admit(k); err == nil && d.Accepted {
				mapped[k] = true
			}
		case r.Intn(2) == 0:
			if d, err = svc.Remove(k); err == nil && d.Accepted {
				mapped[k] = false
			}
		default:
			factor := (0.7 + 0.6*r.Float64()) / scale[k]
			if d, err = svc.Rescale(k, factor); err == nil && d.Accepted {
				scale[k] *= factor
			}
		}
		if err != nil {
			tb.Fatal(err)
		}
		decisions = append(decisions, d)
	}
	return decisions, requireStateRead(tb, svc, "paper stream")
}

// BenchmarkRecoverPaper is BenchmarkRecoverFleet on the benchmark's `paper`
// ship over paperJournal's 12 000 records. Replay, not the 60 KB catalog, is
// the restart here: re-placing the accepted records is most of it. No record
// is judged again: an accepted one is placed and booked with no analyzer
// attached, and a rejected one (rejected/record, about 0.38) is folded in
// from the state as it stands. string_checks/record and slack_skips/record
// are exact counts from one more restart with telemetry on, outside the
// timer: the equation-(1) checks the restart ran (0.005417, the 65 mapped
// strings the analyzer's one Rebase checks after the loop; 4.886 while
// replay judged every accepted record, 10.31 before the slack budgets, 15.10
// while a replayed remove rechecked the sharers of the string it lifted off a
// feasible ship) and the rechecked sharers whose slack budget covered a
// window instead (0; 5.429 while accepted records were judged).
// machines_read/record and routes_priced/record are recoveryScans' counts
// from the same restart.
func BenchmarkRecoverPaper(b *testing.B) {
	journalPath := filepath.Join(b.TempDir(), "bench.wal")
	paperJournal(b, journalPath, 12000)
	b.ResetTimer()
	var rep *RecoveryReport
	for n := 0; n < b.N; n++ {
		rec, r, err := Recover(journalPath, Config{CompactEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		rep = r
		b.StopTimer()
		rec.Close()
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rep.Replayed), "ns/record")
	b.ReportMetric(float64(rep.Replayed), "records")
	b.ReportMetric(float64(rep.Rejected)/float64(rep.Replayed), "rejected/record")
	prev := telemetry.Active()
	reg := telemetry.Enable()
	rec, _, err := Recover(journalPath, Config{CompactEvery: -1})
	telemetry.EnableRegistry(prev)
	if err != nil {
		b.Fatal(err)
	}
	rec.Close()
	b.ReportMetric(float64(reg.Counter("feasibility.delta.string_checks").Value())/float64(rep.Replayed), "string_checks/record")
	b.ReportMetric(float64(reg.Counter("feasibility.delta.slack_skips").Value())/float64(rep.Replayed), "slack_skips/record")
	recoveryScans(b, reg, rep.Replayed)
}

// paperHandler is where the wire path was profiled: the benchmark's `paper`
// ship (scenario 1, seed 1) behind the HTTP handler with the journal on,
// loaded by admitting every string in index order. It returns the handler and
// the last string admitted, which the callers remove and re-admit.
func paperHandler(tb testing.TB) (http.Handler, int) {
	svc, admitted := paperService(tb)
	return svc.Handler(), admitted[len(admitted)-1]
}

// paperService is paperHandler's service and the strings it admitted, in
// index order.
func paperService(tb testing.TB) (*Service, []int) {
	tb.Helper()
	sys := workload.MustGenerate(workload.ScenarioConfig(workload.HighlyLoaded), 1)
	svc, err := New(Config{System: sys, Journal: filepath.Join(tb.TempDir(), "bench.wal"), CompactEvery: -1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(svc.Close)
	var admitted []int
	for k := range sys.Strings {
		d, err := svc.Admit(k)
		if err != nil {
			tb.Fatal(err)
		}
		if d.Accepted {
			admitted = append(admitted, k)
		}
	}
	if len(admitted) == 0 {
		tb.Fatal("the paper ship admitted nothing")
	}
	return svc, admitted
}

// BenchmarkServiceContended times remove + admit pairs through the Go API
// from four callers at once, each on its own admitted string of the paper
// ship, while a fifth goroutine reads State() throughout. ns/op is wall time
// per pair across all callers; reads/pair is how many state reads completed
// meanwhile, so a reader the writers starve reads near 0, and admitted/pair
// the share of admits accepted, which the interleaving moves. The callers are
// goroutines of their own rather than b.RunParallel's, whose count is a
// multiple of GOMAXPROCS. A remove of a string whose last admit was rejected
// is a conflict and counts as the pair's first op all the same.
func BenchmarkServiceContended(b *testing.B) {
	const callers = 4
	svc, admitted := paperService(b)
	if len(admitted) < callers {
		b.Fatalf("the paper ship admitted %d strings, want at least %d", len(admitted), callers)
	}
	stop := make(chan struct{})
	reads := 0
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := svc.State(); err != nil {
				b.Error(err)
				return
			}
			reads++
		}
	}()
	var writers sync.WaitGroup
	var accepted atomic.Int64
	b.ResetTimer()
	for c, k := range admitted[len(admitted)-callers:] {
		pairs := b.N / callers
		if c < b.N%callers {
			pairs++
		}
		writers.Add(1)
		go func(k, pairs int) {
			defer writers.Done()
			for i := 0; i < pairs; i++ {
				var env *ErrorEnvelope
				if _, err := svc.Remove(k); err != nil && !(errors.As(err, &env) && env.Err.Code == CodeConflict) {
					b.Error(err)
					return
				}
				d, err := svc.Admit(k)
				if err != nil {
					b.Error(err)
					return
				}
				if d.Accepted {
					accepted.Add(1)
				}
			}
		}(k, pairs)
	}
	writers.Wait()
	b.StopTimer()
	close(stop)
	reader.Wait()
	b.ReportMetric(float64(reads)/float64(b.N), "reads/pair")
	b.ReportMetric(float64(accepted.Load())/float64(b.N), "admitted/pair")
}

// serve sends one request through h the way cmd/shipbench's handler rung
// does and returns the recorded reply.
func serve(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// removeAdmit is one accepted remove + admit pair of string k over the wire
// types: two request parses, two decisions, two journal records.
func removeAdmit(tb testing.TB, h http.Handler, k int) {
	body := fmt.Sprintf(`{"stringId":%d}`, k)
	for _, path := range []string{"/v1/remove", "/v1/admit"} {
		if rec := serve(h, "POST", path, body); rec.Code != http.StatusOK {
			tb.Fatalf("POST %s %s: status %d: %s", path, body, rec.Code, rec.Body)
		}
	}
}

// BenchmarkHandlerAdmitRemove times an accepted admit + remove pair through
// Handler().ServeHTTP on the paper ship: request parse, locked state op,
// placement and evaluation, journal record, reply encode — everything of an
// op but the socket. The allocation column includes httptest's own.
func BenchmarkHandlerAdmitRemove(b *testing.B) {
	h, k := paperHandler(b)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		removeAdmit(b, h, k)
	}
}

// BenchmarkHTTPLoopback times an accepted remove + admit pair over a real
// socket: paperHandler behind httptest.NewServer, driven by one keep-alive
// client, so a pair pays for the client, two round trips on one loopback TCP
// connection and net/http's server on top of what BenchmarkHandlerAdmitRemove
// times. µs/op is wall time per pair; allocs/op counts both ends, which share
// the process. A CPU profile on one CPU splits a paper op between the
// allocator, net/http's server and client, syscalls and allocation:
//
//	go test -run '^$' -bench HTTPLoopback -benchtime 20000x -cpu 1 -cpuprofile loopback.prof ./internal/service/
//	go tool pprof -top loopback.prof
func BenchmarkHTTPLoopback(b *testing.B) {
	h, k := paperHandler(b)
	srv := httptest.NewServer(h)
	defer srv.Close()
	client := srv.Client()
	body := fmt.Sprintf(`{"stringId":%d}`, k)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, path := range []string{"/v1/remove", "/v1/admit"} {
			resp, err := client.Post(srv.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				b.Fatalf("POST %s %s: status %d, %v", path, body, resp.StatusCode, err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/op")
}

// BenchmarkHandlerState times GET /v1/state on the loaded paper ship and
// reports the reply size. Every read after the first is a digest memo hit.
func BenchmarkHandlerState(b *testing.B) {
	h, _ := paperHandler(b)
	var size int
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		size = readState(b, h)
	}
	b.ReportMetric(float64(size), "body-bytes")
}

// BenchmarkHandlerStateAfterOps times a GET /v1/state after one op: the
// untimed remove + admit before it moves the state, so the digest memo misses
// and the analyzer's line cache re-formats what that pair changed. The read
// cmd/shipbench times follows a round of ops; that is
// BenchmarkHandlerStateAfterRound.
func BenchmarkHandlerStateAfterOps(b *testing.B) {
	h, k := paperHandler(b)
	var size int
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		removeAdmit(b, h, k)
		b.StartTimer()
		size = readState(b, h)
	}
	b.ReportMetric(float64(size), "body-bytes")
}

// BenchmarkHandlerStateAfterRound times the read cmd/shipbench times, one
// after a round of ops (it reads once every 50). The untimed round is fixed:
// it rescales every fifth string of the paper ship by 1.1, or by 1/1.1 on
// odd rounds, which changes about as many rows as a shipbench read finds
// changed (27 of 150 measured). One warm read before the timer fills the
// kept rows. rows_encoded/read is the exact count of rows the timed reads
// re-encoded (service.state.rows_encoded); 150 means the kept rows stopped
// engaging. The timed part is about a tenth of the benchmark's wall time, so
// ns/op carries the spread of the untimed rounds; read-p50-ns is the median
// of the reads, each timed by its own clock, and is the column to compare.
func BenchmarkHandlerStateAfterRound(b *testing.B) {
	h, _ := paperHandler(b)
	n := workload.ScenarioConfig(workload.HighlyLoaded).Strings
	var round [2][]string
	for k := 0; k < n; k += 5 {
		for parity, factor := range []float64{1.1, 1 / 1.1} {
			round[parity] = append(round[parity], fmt.Sprintf(`{"stringId":%d,"factor":%s}`, k, strconv.FormatFloat(factor, 'g', -1, 64)))
		}
	}
	prev := telemetry.Active()
	reg := telemetry.Enable()
	defer telemetry.EnableRegistry(prev)
	rows := reg.Counter("service.state.rows_encoded")
	readState(b, h)
	rows0 := rows.Value()
	reads := make([]time.Duration, 0, b.N)
	var size int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, body := range round[i%2] {
			if rec := serve(h, "POST", "/v1/rescale", body); rec.Code != http.StatusOK && rec.Code != http.StatusUnprocessableEntity {
				b.Fatalf("POST /v1/rescale %s: status %d: %s", body, rec.Code, rec.Body)
			}
		}
		b.StartTimer()
		start := time.Now()
		size = readState(b, h)
		reads = append(reads, time.Since(start))
	}
	b.StopTimer()
	slices.Sort(reads)
	b.ReportMetric(float64(reads[len(reads)/2].Nanoseconds()), "read-p50-ns")
	b.ReportMetric(float64(size), "body-bytes")
	b.ReportMetric(float64(rows.Value()-rows0)/float64(b.N), "rows_encoded/read")
}

// readState is one GET /v1/state through h; it returns the reply's size.
func readState(tb testing.TB, h http.Handler) int {
	rec := serve(h, "GET", "/v1/state", "")
	if rec.Code != http.StatusOK {
		tb.Fatalf("GET /v1/state: status %d", rec.Code)
	}
	return rec.Body.Len()
}

// Command shipd is the long-lived resource-allocation daemon: it owns one
// live allocation over a TSCE system and serves admission control, demand
// rescaling, fault survival, and surge degradation over a versioned HTTP/JSON
// API. Every serving decision runs on the incremental delta analyzer — a full
// two-stage re-analysis never happens on the serve path.
//
// Endpoints (all JSON; see internal/service for the wire contract). Every
// reply is one line of compact JSON with Content-Length set — pipe it through
// `jq .` or `python3 -m json.tool` to read it, `grep -o '"digest":"[^"]*"'`
// to pick a field in a script. The admit, remove and rescale bodies must name
// each field exactly once, exactly as spelt here, with a numeric value;
// anything else, trailing data included, is a 400:
//
//	POST /v1/admit     {"stringId": k}             admit a string
//	POST /v1/remove    {"stringId": k}             remove a string
//	POST /v1/rescale   {"stringId": k, "factor": g} rescale a string's demand
//	POST /v1/faults    {"fail": [...], "repair": [...]} outages and repairs
//	POST /v1/surge     <overload scenario JSON>     run a degradation episode
//	POST /v1/snapshot  {"path": "..."}              write a resumable snapshot (state file + catalog)
//	GET  /v1/state                                  full observable state
//	GET  /v1/metrics                                telemetry + derived ratios
//	GET  /v1/events?since=N                         decision stream (JSONL)
//	GET  /v1/healthz                                liveness (500 = broken journal)
//	GET  /v1/readyz                                 readiness (503 = recovering/draining)
//
// A snapshot is two files: a small state file (allocation as assignments and
// canonical rosters, demand scale per string, outages, seq, digest) and, written
// once per directory, the immutable catalog it pins by sha256
// (catalog-<hash>.json beside it) — copy both. A daemon restarted with
// -restore resumes bit-identically: the catalog must hash to the pinned
// value and the restored state's digest must match the recorded one.
//
// With -journal the daemon write-ahead logs every decided mutation before
// replying; after a crash, restarting with the same -journal recovers the
// acknowledged history bit-identically (snapshot restore + journal replay,
// verified record by record). Journal compaction writes the same small state
// file; the catalog is written beside the journal once, at the first start.
// -in beside a journal with history (or with -restore) does not replace the
// pinned catalog: it is checked against it, and a different system is refused.
// While replay runs, the HTTP surface answers healthz alive and everything
// else 503.
//
// Examples:
//
//	shipd -scenario 3 -seed 7 -addr localhost:8040
//	shipd -in system.json -heuristic MWF -lp-bound
//	shipd -restore shipd-snapshot.json -addr localhost:8040
//	shipd -scenario 3 -journal shipd.wal -fsync batch    # first start and every restart
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/faults"
	"repro/internal/heuristics"
	"repro/internal/journal"
	"repro/internal/model"
	"repro/internal/overload"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() {
	var (
		addr        = flag.String("addr", "localhost:8040", "HTTP listen address")
		scenario    = flag.Int("scenario", 3, "paper scenario to generate: 1 | 2 | 3")
		seed        = flag.Int64("seed", 1, "workload RNG seed")
		strings_    = flag.Int("strings", 0, "override string count (0 = paper value)")
		inFile      = flag.String("in", "", "load the system from a JSON file instead of generating (read strictly: an unknown, repeated or misspelt field and any trailing byte are refused, with the offset)")
		heuristic   = flag.String("heuristic", "", "initial mapping heuristic (MWF | TF | PSG | SeededPSG | ...); empty starts with nothing mapped")
		psgIters    = flag.Int("psg-iters", 1000, "GENITOR iteration budget for the initial heuristic")
		psgTrials   = flag.Int("psg-trials", 2, "GENITOR trials for the initial heuristic")
		workers     = flag.Int("workers", 0, "worker goroutines for the initial search (0 = all cores)")
		faultFile   = flag.String("faults", "", "apply a JSON failure scenario's outages at startup (shared loader with shipsched)")
		surgeFile   = flag.String("surge", "", "run a JSON demand-surge episode at startup (shared loader with shipsched)")
		shedBelow   = flag.Float64("shed-below", 0, "degradation controller: shed while slackness is below this")
		readmitAb   = flag.Float64("readmit-above", 0, "degradation controller: re-admit only above this slackness (0 = default)")
		lpBound     = flag.Bool("lp-bound", false, "maintain the relaxed-LP worth upper bound (warm-started re-solves on rescale)")
		snapPath    = flag.String("snapshot", "shipd-snapshot.json", "default path for POST /v1/snapshot")
		restore     = flag.String("restore", "", "resume from a snapshot file written by POST /v1/snapshot")
		journalPath = flag.String("journal", "", "write-ahead op journal path; recovers automatically when the journal already has history")
		fsync       = flag.String("fsync", "batch", "journal durability policy: always | batch | none")
		compactEv   = flag.Int("compact-every", 0, "fold the journal into its snapshot every N records (0 = default 4096, negative disables)")
	)
	flag.Parse()

	// The daemon always runs instrumented; /v1/metrics serves the registry.
	telemetry.Enable()

	fsyncPolicy, err := journal.ParseFsyncPolicy(*fsync)
	fatal(err)
	cfg := service.Config{
		Overload:     overload.Config{ShedBelow: *shedBelow, ReadmitAbove: *readmitAb},
		LPBound:      *lpBound,
		SnapshotPath: *snapPath,
		Journal:      *journalPath,
		Fsync:        fsyncPolicy,
		CompactEvery: *compactEv,
	}
	// Crash-injection fault point for the crashtest harness: tear the journal
	// after this many appended bytes and kill the process.
	if v := os.Getenv("SHIPD_JOURNAL_CRASH_BYTES"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		fatal(err)
		cfg.JournalCrashAfter = n
	}

	// Serve immediately: a switchable handler answers "recovering" until the
	// service is up, so health checks see the daemon the moment it binds.
	var handler atomic.Value
	handler.Store(service.RecoveringHandler())
	server := &http.Server{
		Addr: *addr,
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handler.Load().(http.Handler).ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: service.ReadHeaderTimeout,
		IdleTimeout:       service.IdleTimeout,
	}
	done := make(chan error, 1)
	go func() { done <- server.ListenAndServe() }()

	// A journal with history (or with its base snapshot already on disk —
	// i.e. a crash before the first header) means this start is a recovery.
	recoverJournal := false
	if *journalPath != "" {
		if info, err := os.Stat(*journalPath); err == nil && info.Size() > 0 {
			recoverJournal = true
		} else if _, err := os.Stat(service.JournalSnapshotPath(*journalPath)); err == nil {
			recoverJournal = true
		}
	}

	// A recovered or restored daemon serves the catalog its snapshot pins; an
	// explicit -in is held against that pin instead of being ignored.
	if *inFile != "" && (recoverJournal || *restore != "") {
		cfg.System, err = model.LoadFile(*inFile)
		fatal(err)
	}

	var svc *service.Service
	switch {
	case recoverJournal && *restore != "":
		fatal(fmt.Errorf("journal %s already has history; -restore would fork it (recover without -restore, or move the journal aside)", *journalPath))
	case recoverJournal:
		var rep *service.RecoveryReport
		svc, rep, err = service.Recover(*journalPath, cfg)
		fatal(err)
		fmt.Printf("shipd: recovered from journal %s: snapshot seq %d (digest %s), %d ops replayed (rejections trusted: %d), %d skipped, state seq %d, digest %s (catalog load %s, replay %s)\n",
			*journalPath, rep.SnapshotSeq, rep.SnapshotDigest, rep.Replayed, rep.Rejected, rep.Skipped, rep.FinalSeq, rep.Digest,
			rep.CatalogLoad.Round(time.Microsecond), rep.Replay.Round(time.Microsecond))
		if rep.Torn {
			fmt.Printf("shipd: journal had a torn tail (%d bytes) from an interrupted append; discarded\n", rep.TornBytes)
		}
	case *restore != "":
		svc, err = service.Restore(*restore, cfg)
		fatal(err)
		fmt.Printf("shipd: restored state from %s\n", *restore)
	default:
		cfg.System, err = workload.LoadSystem(*inFile, *scenario, *seed, *strings_)
		fatal(err)
		cfg.Heuristic = *heuristic
		if *heuristic != "" {
			search := heuristics.DefaultPSGConfig()
			search.MaxIterations = *psgIters
			search.Trials = *psgTrials
			search.Seed = *seed
			search.Workers = *workers
			cfg.Search = search
		}
		svc, err = service.New(cfg)
		fatal(err)
	}
	defer svc.Close()

	if *faultFile != "" {
		sc, err := faults.LoadFile(*faultFile)
		fatal(err)
		st, err := svc.State()
		fatal(err)
		if err := sc.Validate(st.Machines); err != nil {
			fatal(err)
		}
		req := service.FaultsRequest{Fail: faults.SetFromScenario(sc, st.Machines).Resources()}
		d, err := svc.Faults(req)
		fatal(err)
		fmt.Printf("shipd: applied %d startup outages, worth retained %.1f%%\n",
			len(req.Fail), 100*d.WorthRetained)
	}
	if *surgeFile != "" {
		sc, err := overload.LoadFile(*surgeFile)
		fatal(err)
		d, err := svc.Surge(sc)
		fatal(err)
		fmt.Printf("shipd: surge episode %q done, worth retained %.1f%%\n", sc.Name, 100*d.WorthRetained)
	}

	handler.Store(svc.Handler())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	fmt.Printf("shipd: serving on http://%s (schema v%d)\n", *addr, service.SchemaVersion)

	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case s := <-sig:
		// Graceful drain: fail readiness first so balancers stop sending
		// work, then let in-flight requests finish; the deferred Close flushes
		// and closes the journal.
		fmt.Printf("shipd: %v, draining and shutting down\n", s)
		svc.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = server.Shutdown(ctx)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "shipd:", err)
		os.Exit(1)
	}
}

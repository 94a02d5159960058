package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

func tmpJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "test.wal")
}

func appendAll(t *testing.T, path string, opts Options, payloads ...[]byte) {
	t.Helper()
	w, _, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if _, err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf(`{"seq":%d,"op":"admit","stringId":%d}`, i+1, i))
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	path := tmpJournal(t)
	want := payloads(20)
	appendAll(t, path, Options{Fsync: FsyncAlways}, want...)

	scan, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if scan.Torn {
		t.Fatal("clean journal scanned as torn")
	}
	if len(scan.Payloads) != len(want) {
		t.Fatalf("scanned %d records, want %d", len(scan.Payloads), len(want))
	}
	for i := range want {
		if !bytes.Equal(scan.Payloads[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, scan.Payloads[i], want[i])
		}
	}

	// Reopen and keep appending: records accumulate across sessions.
	appendAll(t, path, Options{}, []byte("extra"))
	scan, err = Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Payloads) != len(want)+1 {
		t.Fatalf("after reopen+append: %d records, want %d", len(scan.Payloads), len(want)+1)
	}
}

func TestEmptyAndMissingFiles(t *testing.T) {
	path := tmpJournal(t)
	scan, err := Scan(path)
	if err != nil || len(scan.Payloads) != 0 || scan.Torn {
		t.Fatalf("missing file: %+v, %v", scan, err)
	}
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	scan, err = Scan(path)
	if err != nil || len(scan.Payloads) != 0 || scan.Torn {
		t.Fatalf("empty file: %+v, %v", scan, err)
	}
}

// Every possible truncation point of the final record must scan as a
// recovered torn tail holding exactly the earlier records.
func TestTruncatedFinalRecordRecovers(t *testing.T) {
	path := tmpJournal(t)
	appendAll(t, path, Options{}, payloads(5)...)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	lastStart := scan.ValidBytes
	for i := 4; i >= 0; i-- {
		// Find where record i starts by re-framing the earlier payloads.
		lastStart -= int64(headerSize + len(scan.Payloads[i]))
	}
	if lastStart != 0 {
		t.Fatalf("frame accounting off: lastStart = %d", lastStart)
	}
	start4 := scan.ValidBytes - int64(headerSize+len(scan.Payloads[4]))
	for cut := start4 + 1; cut < int64(len(full)); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Scan(path)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if !got.Torn {
			t.Fatalf("cut at %d not reported torn", cut)
		}
		if len(got.Payloads) != 4 {
			t.Fatalf("cut at %d: %d records, want 4", cut, len(got.Payloads))
		}
		if got.ValidBytes != start4 {
			t.Fatalf("cut at %d: valid bytes %d, want %d", cut, got.ValidBytes, start4)
		}
	}
}

// A CRC-flipped record with valid data after it is typed corruption, not a
// recoverable tail.
func TestCorruptMiddleRecordIsTypedError(t *testing.T) {
	path := tmpJournal(t)
	appendAll(t, path, Options{}, payloads(5)...)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Record 0 starts at 0; flip a payload byte inside it.
	data[headerSize+2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Scan(path)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("error = %v, want *CorruptError", err)
	}
	if ce.Index != 0 || ce.Offset != 0 {
		t.Fatalf("CorruptError = %+v, want index 0 at offset 0", ce)
	}
	// Open must refuse too: it cannot silently drop acknowledged records.
	if _, _, err := Open(path, Options{}); !errors.As(err, &ce) {
		t.Fatalf("Open error = %v, want *CorruptError", err)
	}
}

// A CRC failure on the final complete frame is torn-append debris, discarded.
func TestCorruptFinalRecordDiscardsAsTorn(t *testing.T) {
	path := tmpJournal(t)
	appendAll(t, path, Options{}, payloads(3)...)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	scan, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if !scan.Torn || len(scan.Payloads) != 2 {
		t.Fatalf("scan = %+v, want torn with 2 records", scan)
	}
}

// Garbage in the length field (e.g. an implausibly large frame) truncates as
// a torn tail rather than wedging the scan.
func TestImplausibleLengthIsTorn(t *testing.T) {
	path := tmpJournal(t)
	appendAll(t, path, Options{}, payloads(2)...)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// 0xffffffff length "header" followed by junk.
	if _, err := f.Write([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	scan, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if !scan.Torn || len(scan.Payloads) != 2 {
		t.Fatalf("scan = %+v, want torn with 2 records", scan)
	}
}

// Open truncates a torn tail so the next append starts on a clean boundary.
func TestOpenTruncatesTornTail(t *testing.T) {
	path := tmpJournal(t)
	appendAll(t, path, Options{}, payloads(3)...)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0}); err != nil { // partial header
		t.Fatal(err)
	}
	f.Close()

	w, scan, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !scan.Torn || scan.TornBytes != 3 || len(scan.Payloads) != 3 {
		t.Fatalf("scan = %+v, want 3 records with 3 torn bytes", scan)
	}
	if _, err := w.Append([]byte("after-tear")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Torn || len(got.Payloads) != 4 {
		t.Fatalf("rescan = %+v, want 4 clean records", got)
	}
	if string(got.Payloads[3]) != "after-tear" {
		t.Fatalf("appended record = %q", got.Payloads[3])
	}
}

func TestResetCompaction(t *testing.T) {
	path := tmpJournal(t)
	w, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, p := range payloads(10) {
		if _, err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if w.Size() != 0 {
		t.Fatalf("size after reset = %d", w.Size())
	}
	if _, err := w.Append([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	scan, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Payloads) != 1 || string(scan.Payloads[0]) != "fresh" {
		t.Fatalf("post-reset scan = %+v", scan)
	}
}

// The injectable fault point: an append crossing CrashAfter writes only a
// torn prefix and fires CrashFn; a reopened journal holds exactly the
// records whose appends completed.
func TestCrashFaultPointTearsAppend(t *testing.T) {
	path := tmpJournal(t)
	fired := false
	w, _, err := Open(path, Options{
		Fsync:      FsyncNone,
		CrashAfter: 100,
		CrashFn:    func() { fired = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	var completed int
	for i := 0; ; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf(`{"op":"test","i":%d,"pad":"xxxxxxxxxx"}`, i))); err != nil {
			if !errors.Is(err, ErrCrashInjected) {
				t.Fatalf("append %d: %v", i, err)
			}
			break
		}
		completed++
	}
	if !fired {
		t.Fatal("CrashFn did not fire")
	}
	w.f.Close() // simulate process death: no Close() bookkeeping

	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != 100 {
		t.Fatalf("torn file size = %d, want exactly CrashAfter = 100", info.Size())
	}
	w2, scan, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if !scan.Torn {
		t.Fatal("torn prefix not detected")
	}
	if len(scan.Payloads) != completed {
		t.Fatalf("recovered %d records, want %d completed appends", len(scan.Payloads), completed)
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, s := range []string{"always", "batch", "none"} {
		if p, err := ParseFsyncPolicy(s); err != nil || string(p) != s {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v", s, p, err)
		}
	}
	if p, err := ParseFsyncPolicy(""); err != nil || p != FsyncBatch {
		t.Errorf("empty policy = %v, %v, want batch default", p, err)
	}
	if _, err := ParseFsyncPolicy("everysooften"); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestAppendRejectsBadPayloads(t *testing.T) {
	w, _, err := Open(tmpJournal(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Append(nil); err == nil {
		t.Error("empty payload accepted")
	}
}

func TestBatchPolicyGroupCommits(t *testing.T) {
	// batchEvery+2 appends fire exactly one group-commit window; once its
	// sync has landed, Close adds exactly one more, the final inline sync.
	var syncs atomic.Int64
	synced := make(chan struct{}, 2) // the window's sync and Close's
	w, _, err := Open(tmpJournal(t), Options{
		Fsync: FsyncBatch,
		OnFsync: func() {
			syncs.Add(1)
			synced <- struct{}{}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads(batchEvery + 2) {
		if _, err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-synced:
	case <-time.After(5 * time.Second):
		t.Fatal("no group commit after a full batch window")
	}
	if got := syncs.Load(); got != 1 {
		t.Fatalf("group commits after %d batched appends = %d, want 1", batchEvery+2, got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := syncs.Load(); got != 2 { // close flushes the remainder inline
		t.Fatalf("syncs after close = %d, want 2", got)
	}
}

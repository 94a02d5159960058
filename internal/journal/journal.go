// Package journal is a length-prefixed, CRC32C-framed write-ahead log. The
// shipd service appends one record per accepted mutation before replying, so
// a daemon killed at any instant — including mid-append — recovers every
// acknowledged operation by restoring its newest snapshot and replaying the
// journal tail (see internal/service's Recover).
//
// # Framing
//
// Each record is framed as
//
//	[4-byte little-endian payload length][4-byte CRC32C of payload][payload]
//
// with the CRC computed over the payload bytes using the Castagnoli
// polynomial. Payloads are opaque to this package; the service layer stores
// versioned JSON op records in them.
//
// # Torn tails vs. corruption
//
// An append is a single contiguous write, so a crash mid-append leaves a
// valid record prefix followed by a partial frame. Scan distinguishes the two
// failure classes by position:
//
//   - a frame that is incomplete at end of file, carries an implausible
//     length, or fails its CRC as the final frame is a torn tail: it is the
//     debris of an interrupted append, is discarded cleanly, and Scan
//     reports the discarded byte count;
//   - a frame that fails its CRC with further bytes after it cannot have
//     been produced by a torn append (nothing is written after a failed
//     write), so it is real corruption and Scan returns a *CorruptError.
//
// A corrupted length field mid-log is indistinguishable from a torn tail at
// this layer and truncates replay there; the service layer's per-record
// running check and sequence-continuity verification bound the damage and
// recovery loudly reports every discarded byte.
//
// # Fsync policy
//
// FsyncAlways syncs inline after every append: an acknowledged operation
// survives kernel crashes and power loss. FsyncBatch group-commits: every
// batchEvery appends it signals a background goroutine that folds all writes
// completed so far into one fsync (plus a final inline sync on Close), so the
// append path never blocks on the disk. Acknowledged operations always
// survive process death under every policy — completed write(2)s live in the
// page cache regardless of fsync — and under FsyncBatch up to one sync window
// of them may be lost to a whole-machine failure. FsyncNone never syncs and
// still survives process kills. The crash-injection harness
// (journal/crashtest) exercises all three under kill -9.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// headerSize is the per-record frame header: 4 bytes length, 4 bytes CRC32C.
const headerSize = 8

// MaxRecordBytes bounds a single record payload. Op records are small JSON
// documents; anything larger than this is treated as frame garbage.
const MaxRecordBytes = 8 << 20

// batchEvery is the append count between group commits under FsyncBatch.
// Completed appends survive process crashes regardless — the window only
// bounds what a whole-machine failure can take.
const batchEvery = 128

// crcTable is the Castagnoli table (CRC32C), the polynomial with hardware
// support on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// FsyncPolicy selects when appends are flushed to stable storage.
type FsyncPolicy string

const (
	// FsyncAlways syncs after every append (durable against power loss).
	FsyncAlways FsyncPolicy = "always"
	// FsyncBatch group-commits: a background goroutine syncs roughly every
	// batchEvery appends, and Close performs a final inline sync.
	FsyncBatch FsyncPolicy = "batch"
	// FsyncNone never syncs; the OS writes back on its own schedule.
	FsyncNone FsyncPolicy = "none"
)

// ParseFsyncPolicy validates a policy name from a flag or config file.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case FsyncAlways, FsyncBatch, FsyncNone:
		return FsyncPolicy(s), nil
	case "":
		return FsyncBatch, nil
	}
	return "", fmt.Errorf("journal: fsync policy %q, want %q, %q, or %q",
		s, FsyncAlways, FsyncBatch, FsyncNone)
}

// Options configures a Writer.
type Options struct {
	// Fsync is the sync policy (default FsyncBatch).
	Fsync FsyncPolicy
	// OnFsync, when set, is called after every file sync (telemetry hook).
	OnFsync func()

	// CrashAfter is a crash-injection fault point for torn-write testing:
	// when positive, the append that would push the file past CrashAfter
	// bytes writes only the prefix up to the limit, syncs it so the torn
	// frame is observable, and then invokes CrashFn. It must never be set in
	// production.
	CrashAfter int64
	// CrashFn is what the fault point invokes (default os.Exit(86), so a
	// subprocess dies exactly as kill -9 mid-append would leave it). A
	// CrashFn that returns makes Append return ErrCrashInjected, for
	// in-process tests.
	CrashFn func()
}

// CrashExitCode is the exit status of the default CrashAfter fault point.
const CrashExitCode = 86

// ErrCrashInjected is returned by Append when the CrashAfter fault point
// fired with a CrashFn that returned.
var ErrCrashInjected = errors.New("journal: crash fault point fired mid-append")

func (o Options) withDefaults() Options {
	if o.Fsync == "" {
		o.Fsync = FsyncBatch
	}
	if o.CrashAfter > 0 && o.CrashFn == nil {
		o.CrashFn = func() { os.Exit(CrashExitCode) }
	}
	return o
}

// Validate rejects unusable options.
func (o Options) Validate() error {
	if _, err := ParseFsyncPolicy(string(o.Fsync)); err != nil {
		return err
	}
	return nil
}

// CorruptError reports a record that failed its CRC (or was structurally
// invalid) with further records after it — mid-log corruption that a torn
// append cannot produce. Recovery treats it as a hard error: the journal is
// evidence of every acknowledged operation, and silently skipping a record
// would replay a diverged state.
type CorruptError struct {
	Path   string // journal file
	Offset int64  // byte offset of the corrupt frame
	Index  int    // record index of the corrupt frame
	Reason string // what failed (crc mismatch, bad length, ...)
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("journal: %s: corrupt record %d at byte %d (%s) with valid data after it",
		e.Path, e.Index, e.Offset, e.Reason)
}

// ScanResult is the outcome of reading a journal file.
type ScanResult struct {
	// Payloads are the valid record payloads in append order.
	Payloads [][]byte
	// ValidBytes is the file offset after the last valid record; a torn
	// tail, if any, starts there.
	ValidBytes int64
	// Torn reports whether a torn tail was discarded; TornBytes is its size.
	Torn      bool
	TornBytes int64
}

// Scan reads every valid record of the journal at path. A missing file scans
// as empty. A torn tail is reported, not an error; mid-log corruption is a
// *CorruptError.
func Scan(path string) (*ScanResult, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return &ScanResult{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: read %s: %w", path, err)
	}
	res := &ScanResult{}
	size := int64(len(data))
	off := int64(0)
	for off < size {
		torn := func() (*ScanResult, error) {
			res.Torn = true
			res.TornBytes = size - off
			res.ValidBytes = off
			return res, nil
		}
		if size-off < headerSize {
			return torn() // partial header
		}
		n := int64(binary.LittleEndian.Uint32(data[off:]))
		want := binary.LittleEndian.Uint32(data[off+4:])
		if n > MaxRecordBytes {
			return torn() // implausible length: frame garbage
		}
		end := off + headerSize + n
		if end > size {
			return torn() // incomplete frame
		}
		payload := data[off+headerSize : end]
		if got := crc32.Checksum(payload, crcTable); got != want {
			if end == size {
				return torn() // final frame: debris of a torn append
			}
			return nil, &CorruptError{
				Path:   path,
				Offset: off,
				Index:  len(res.Payloads),
				Reason: fmt.Sprintf("crc %08x, want %08x", got, want),
			}
		}
		res.Payloads = append(res.Payloads, append([]byte(nil), payload...))
		off = end
	}
	res.ValidBytes = off
	return res, nil
}

// Writer appends CRC-framed records to a journal file. It is not safe for
// concurrent use; the service's single-writer loop is its intended caller.
// Under FsyncBatch a background group-commit goroutine performs the periodic
// syncs so the append path never blocks on the disk; only the file handle is
// shared with it (os.File is internally locked), every other field stays
// owned by the appending goroutine.
type Writer struct {
	f       *os.File
	path    string
	opts    Options
	size    int64
	pending int
	closed  bool
	frame   []byte // the record being appended; reused, the appender's alone

	syncReq  chan struct{} // batch policy: signals the group-commit goroutine
	syncDone chan struct{} // closed when the group-commit goroutine exits
	syncMu   sync.Mutex
	syncErr  error // sticky background sync failure, surfaced on next Append
}

// Open scans the journal at path (creating it if absent), truncates any torn
// tail so new appends start at a clean frame boundary, and returns a Writer
// positioned at the end together with the scan result. Mid-log corruption
// fails with *CorruptError — an automatically rewritten journal would hide
// evidence of acknowledged operations.
func Open(path string, opts Options) (*Writer, *ScanResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	opts = opts.withDefaults()
	scan, err := Scan(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	if scan.Torn {
		if err := f.Truncate(scan.ValidBytes); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: truncate torn tail of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(scan.ValidBytes, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: seek %s: %w", path, err)
	}
	w := &Writer{f: f, path: path, opts: opts, size: scan.ValidBytes}
	if opts.Fsync == FsyncBatch {
		w.syncReq = make(chan struct{}, 1)
		w.syncDone = make(chan struct{})
		go w.groupCommit()
	}
	return w, scan, nil
}

// groupCommit is the FsyncBatch background loop: each signal coalesces all
// writes completed so far into one fsync, off the append path.
func (w *Writer) groupCommit() {
	defer close(w.syncDone)
	for range w.syncReq {
		if err := w.fsync(); err != nil {
			w.syncMu.Lock()
			if w.syncErr == nil {
				w.syncErr = err
			}
			w.syncMu.Unlock()
			return
		}
	}
}

// backgroundErr returns the sticky group-commit failure, if any.
func (w *Writer) backgroundErr() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	return w.syncErr
}

// Path returns the journal file path.
func (w *Writer) Path() string { return w.path }

// Size returns the current journal size in bytes.
func (w *Writer) Size() int64 { return w.size }

// appendFrame appends header+payload to dst, so the append is a single write.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...)
}

// Append writes one record and applies the fsync policy. The returned size
// is the journal size after the append. The payload is copied into the
// writer's frame buffer before anything is written, so the caller may reuse
// it as soon as Append returns.
func (w *Writer) Append(payload []byte) (int64, error) {
	if w.closed {
		return w.size, errors.New("journal: append to closed writer")
	}
	if err := w.backgroundErr(); err != nil {
		return w.size, err
	}
	if len(payload) == 0 || len(payload) > MaxRecordBytes {
		return w.size, fmt.Errorf("journal: payload size %d, want 1..%d", len(payload), MaxRecordBytes)
	}
	w.frame = appendFrame(w.frame[:0], payload)
	buf := w.frame
	if w.opts.CrashAfter > 0 && w.size+int64(len(buf)) > w.opts.CrashAfter {
		// Fault point: emit only the bytes up to the limit — a torn frame —
		// make them observable, and crash.
		keep := w.opts.CrashAfter - w.size
		if keep < 0 {
			keep = 0
		}
		if keep > 0 {
			_, _ = w.f.Write(buf[:keep])
		}
		_ = w.f.Sync()
		w.opts.CrashFn()
		w.size += keep
		return w.size, ErrCrashInjected
	}
	n, err := w.f.Write(buf)
	w.size += int64(n)
	if err != nil {
		return w.size, fmt.Errorf("journal: append to %s: %w", w.path, err)
	}
	switch w.opts.Fsync {
	case FsyncAlways:
		if err := w.sync(); err != nil {
			return w.size, err
		}
	case FsyncBatch:
		w.pending++
		if w.pending >= batchEvery {
			w.pending = 0
			select {
			case w.syncReq <- struct{}{}:
			default: // a group commit is already queued; it covers these writes
			}
		}
	}
	return w.size, nil
}

// sync is the inline flush: everything written so far reaches stable storage
// before it returns.
func (w *Writer) sync() error {
	w.pending = 0
	return w.fsync()
}

// fsync flushes the file; shared by the inline path and the group-commit
// goroutine (os.File serializes the underlying calls).
func (w *Writer) fsync() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync %s: %w", w.path, err)
	}
	if w.opts.OnFsync != nil {
		w.opts.OnFsync()
	}
	return nil
}

// Sync forces pending appends to stable storage regardless of policy.
func (w *Writer) Sync() error {
	if w.closed {
		return nil
	}
	return w.sync()
}

// Reset truncates the journal to empty — the compaction step after a
// snapshot of the full state has been durably written elsewhere. The
// truncation is synced so a crash immediately after compaction cannot
// resurrect pre-snapshot records.
func (w *Writer) Reset() error {
	if w.closed {
		return errors.New("journal: reset of closed writer")
	}
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("journal: reset %s: %w", w.path, err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("journal: reset seek %s: %w", w.path, err)
	}
	w.size = 0
	return w.sync()
}

// Close stops the group-commit goroutine (if any), syncs pending appends, and
// closes the file. Safe to call twice.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.syncReq != nil {
		close(w.syncReq)
		<-w.syncDone
	}
	err := w.sync()
	if err == nil {
		err = w.backgroundErr()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

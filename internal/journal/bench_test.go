package journal

import (
	"fmt"
	"path/filepath"
	"testing"
)

// BenchmarkJournalAppend measures the raw append cost of a ~200-byte op
// record under each fsync policy (numbers in DESIGN.md §14): `always`
// pays a full fsync per record, `batch` amortizes one fsync over batchEvery
// appends, `none` is the bare write(2). The service-level cost rides on top
// of BenchmarkServiceAdmit (see internal/service/bench_test.go).
func BenchmarkJournalAppend(b *testing.B) {
	payload := []byte(fmt.Sprintf(
		`{"v":1,"seq":123456,"op":"admit","payload":{"stringId":42},"accepted":true,"rngCalls":0,"check":"%032x"}`, 0))
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncBatch, FsyncNone} {
		b.Run(string(policy), func(b *testing.B) {
			w, _, err := Open(filepath.Join(b.TempDir(), "bench.wal"), Options{Fsync: policy})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.SetBytes(int64(len(payload) + headerSize))
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if _, err := w.Append(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

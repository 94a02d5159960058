package jsonscan_test

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"repro/internal/jsonscan"
	"repro/internal/workload"
)

// BenchmarkNumber reads every float token of the benchmark's fleet file
// (FleetConfig(128,2), as -save writes it) through Number. fallbacks/op is an
// exact count of the tokens the fast path handed to strconv, 0 for every
// token the writers print today; a jump means it stopped engaging.
func BenchmarkNumber(b *testing.B) {
	var doc bytes.Buffer
	if err := workload.MustGenerate(workload.FleetConfig(128, 2), 1).WriteJSON(&doc); err != nil {
		b.Fatal(err)
	}
	dec := json.NewDecoder(&doc)
	dec.UseNumber()
	var toks [][]byte
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		} else if err != nil {
			b.Fatal(err)
		}
		if n, ok := tok.(json.Number); ok && strings.ContainsAny(string(n), ".eE") {
			toks = append(toks, []byte(n))
		}
	}
	fallbacks := 0
	for _, tok := range toks {
		if _, ok := jsonscan.FastFloat(tok); !ok {
			fallbacks++
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, tok := range toks {
			c := jsonscan.Cursor{B: tok}
			var f float64
			if err := c.Number(&f); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(toks)), "ns/token")
	b.ReportMetric(float64(fallbacks), "fallbacks/op")
	b.ReportMetric(float64(len(toks)), "tokens/op")
}

package wal

// Host micro-benchmark of the journal's encode path: one flush epoch's
// record batch, the bytes every journaled flush appends.
//
//	go test -run XXX -bench EncodeEpochRecords -benchmem ./internal/wal/

import (
	"testing"

	"github.com/tcio/tcio/internal/extent"
)

// BenchmarkEncodeEpochRecords encodes one epoch of 64 runs of 1 KiB — a
// rank's share of a journaled flush with segment-sized dirty runs spread
// over its window.
func BenchmarkEncodeEpochRecords(b *testing.B) {
	runs := make([]Run, 64)
	for i := range runs {
		data := make([]byte, 1<<10)
		for j := range data {
			data[j] = byte(i + j)
		}
		runs[i] = Run{Extent: extent.Extent{Off: int64(i) << 12, Len: int64(len(data))}, Data: data}
	}
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeEpochRecords(3, int64(i), runs)
	}
}

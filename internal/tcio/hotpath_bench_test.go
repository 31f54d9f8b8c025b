package tcio

// Host micro-benchmarks of TCIO's per-call path (size-swept per SNIPPETS.md
// Snippet 2), on Program 3's pattern: every rank writes, then reads, its
// 4-byte and 8-byte elements one call each, interleaved round-robin with
// every other rank. ns/op and allocs/op are per POSIX-like call, amortized
// over the world's set-up, flushes, fetches, and Close. The sweep is the
// segment size: a larger segment gathers more ranks' runs before it fills,
// so it lengthens the level-2 dirty-run lists every shipment merges into.

import (
	"fmt"
	"testing"

	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/pfs"
)

const benchProcs = 16

// benchWidths are Program 3's element sizes (MPI_INT, MPI_DOUBLE).
var benchWidths = []int64{4, 8}

var benchSegs = []int64{1 << 10, 1 << 13, 1 << 16}

// benchCfg sizes the level-2 buffers to hold elems elements per rank.
func benchCfg(seg int64, elems int) Config {
	file := int64(benchProcs*elems) * 12
	return Config{SegmentSize: seg, NumSegments: int(file/(benchProcs*seg)) + 1}
}

// benchElems spreads b.N calls over the ranks, two calls per element.
func benchElems(b *testing.B) int { return max(b.N/(2*benchProcs), 1) }

// benchAccess calls op once per element of this rank at its interleaved
// file offset.
func benchAccess(c *mpi.Comm, elems int, op func(off int64, p []byte) error) error {
	buf := make([]byte, 8)
	for i := 0; i < elems; i++ {
		pos := int64(c.Rank()+i*c.Size()) * 12
		for _, w := range benchWidths {
			if err := op(pos, buf[:w]); err != nil {
				return err
			}
			pos += w
		}
	}
	return nil
}

// benchPhase runs one collective open/access/close over fs.
func benchPhase(fs *pfs.FileSystem, mode Mode, cfg Config, elems int) error {
	_, err := mpi.Run(mpi.Config{Procs: benchProcs, FS: fs}, func(c *mpi.Comm) error {
		f, err := Open(c, "bench.dat", mode, cfg)
		if err != nil {
			return err
		}
		op := f.WriteAt
		if mode == ReadMode {
			op = f.ReadAt
		}
		if err := benchAccess(c, elems, op); err != nil {
			return err
		}
		return f.Close()
	})
	return err
}

func BenchmarkWriteAtInterleaved(b *testing.B) {
	for _, seg := range benchSegs {
		b.Run(fmt.Sprintf("seg=%d", seg), func(b *testing.B) {
			elems := benchElems(b)
			b.ReportAllocs()
			if err := benchPhase(pfs.New(pfs.DefaultConfig()), WriteMode, benchCfg(seg, elems), elems); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkReadAtFetch times the read phase only: lazy ReadAt calls plus
// the implicit and final fetches that move their bytes.
func BenchmarkReadAtFetch(b *testing.B) {
	for _, seg := range benchSegs {
		b.Run(fmt.Sprintf("seg=%d", seg), func(b *testing.B) {
			elems := benchElems(b)
			cfg := benchCfg(seg, elems)
			fs := pfs.New(pfs.DefaultConfig())
			if err := benchPhase(fs, WriteMode, cfg, elems); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := benchPhase(fs, ReadMode, cfg, elems); err != nil {
				b.Fatal(err)
			}
		})
	}
}

package delegate

import (
	"fmt"
	"testing"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/pfs"
	"github.com/tcio/tcio/internal/tcio"
)

// benchTier runs body on a 2-rank world (one client, one server) under
// cfg's tier and reports its allocations — the B/op meter for the server staging paths
// the size-classed pools exist to flatten.
func benchTier(b *testing.B, cfg Config, body func(tr *Tier) error) {
	b.Helper()
	b.ReportAllocs()
	m := cluster.Lonestar()
	m.CoresPerNode = 2
	cfg.ServerRanks = 1
	_, err := mpi.Run(mpi.Config{Procs: 2, Machine: m, FS: pfs.New(pfs.DefaultConfig())}, func(c *mpi.Comm) error {
		return Run(c, cfg, body)
	})
	if err != nil {
		b.Fatal(err)
	}
}

// benchCfg is the staging benchmarks' tier: 4 KiB domain blocks and
// cacheBlks of server cache.
func benchCfg(cacheBlks int) Config {
	return Config{
		DomainSize: 4096, ServerCacheBlocks: cacheBlks,
		TCIO: tcio.Config{SegmentSize: 64, NumSegments: 8},
	}
}

// BenchmarkDelegateReadStaging measures per-read allocations on the
// server's uncached per-request path: the reply staging buffer comes from
// the mpi pool, so steady state should allocate nothing per iteration
// beyond the protocol envelopes.
func BenchmarkDelegateReadStaging(b *testing.B) {
	benchTier(b, benchCfg(0), func(tr *Tier) error {
		f, err := tr.Open("bench", tcio.ReadMode)
		if err != nil {
			return err
		}
		dst := make([]byte, 4096)
		for i := 0; i < b.N; i++ {
			// Cycle a few blocks; unwritten offsets zero-fill, which is all
			// the staging path needs to exercise its buffers.
			if err := f.ReadAt(int64(i%4)*4096, dst); err != nil {
				return err
			}
		}
		return f.Close()
	})
}

// BenchmarkDelegateCachedReadStaging is the hot-cache variant: after the
// first four fills every read serves zero-copy from a live cache entry.
func BenchmarkDelegateCachedReadStaging(b *testing.B) {
	benchTier(b, benchCfg(4), func(tr *Tier) error {
		f, err := tr.Open("bench", tcio.ReadMode)
		if err != nil {
			return err
		}
		dst := make([]byte, 4096)
		for i := 0; i < b.N; i++ {
			if err := f.ReadAt(int64(i%4)*4096, dst); err != nil {
				return err
			}
		}
		return f.Close()
	})
}

// BenchmarkDelegateEpochStaging measures per-epoch allocations of the
// flush path: closeEpoch's per-block staging buffers are pooled, so the
// write→flush cycle should not grow with the block size.
func BenchmarkDelegateEpochStaging(b *testing.B) {
	benchTier(b, benchCfg(0), func(tr *Tier) error {
		f, err := tr.Open("bench", tcio.WriteMode)
		if err != nil {
			return err
		}
		buf := make([]byte, 4096)
		for i := 0; i < b.N; i++ {
			if err := f.WriteAt(int64(i%4)*4096, buf); err != nil {
				return err
			}
			if err := f.Flush(); err != nil {
				return err
			}
		}
		return f.Close()
	})
}

// BenchmarkDelegateCollectiveRead runs one collective read epoch per op
// that delivers size bytes in 1 KiB pieces, served from a warm server
// cache of 16 KiB domain blocks: the reply gathers size/1 KiB runs from
// the cached blocks and the client scatters it into the pieces' buffers.
func BenchmarkDelegateCollectiveRead(b *testing.B) {
	const piece = 1 << 10
	for _, size := range []int{4 << 10, 64 << 10, 512 << 10} {
		b.Run(fmt.Sprintf("epoch=%dKiB", size>>10), func(b *testing.B) {
			b.SetBytes(int64(size))
			cfg := Config{
				DomainSize: 16 << 10, ServerCacheBlocks: max(size/(16<<10), 1),
				TCIO: tcio.Config{SegmentSize: 64, NumSegments: 8, CollectiveRead: true},
			}
			benchTier(b, cfg, func(tr *Tier) error {
				f, err := tr.Open("bench", tcio.ReadMode)
				if err != nil {
					return err
				}
				buf := make([]byte, size)
				// The first epoch fills the cache; the rest hit it.
				for i := 0; i <= b.N; i++ {
					if i == 1 {
						b.ResetTimer()
					}
					for off := 0; off < size; off += piece {
						if err := f.ReadAt(int64(off), buf[off:off+piece]); err != nil {
							return err
						}
					}
					if err := f.Fetch(); err != nil {
						return err
					}
				}
				return f.Close()
			})
		})
	}
}

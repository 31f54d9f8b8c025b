package delegate

import (
	"runtime"
	"testing"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/pfs"
	"github.com/tcio/tcio/internal/tcio"
)

// TestCollectiveReadEpochAllocs pins the host cost of a steady-state
// collective read epoch: replies gather from the server's block buffers,
// scatter straight into the readers' buffers, and their wire buffers
// return to the pool, so an epoch allocates a small fraction of the bytes
// it delivers. (Packing each reply and dropping its wire buffer cost more
// than twice the delivered bytes.)
func TestCollectiveReadEpochAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const (
		clients = 2
		domain  = 16 << 10
		blocks  = 8
		piece   = 1 << 10
		warm    = 4
		epochs  = 32
	)
	m := cluster.Lonestar()
	m.CoresPerNode = 4
	cfg := Config{
		ServerRanks: 2, DomainSize: domain, ServerCacheBlocks: blocks,
		TCIO: tcio.Config{SegmentSize: 64, NumSegments: 8, CollectiveRead: true},
	}
	var allocated uint64
	_, err := mpi.Run(mpi.Config{Procs: clients + 2, Machine: m, FS: pfs.New(pfs.DefaultConfig())}, func(c *mpi.Comm) error {
		return Run(c, cfg, func(tr *Tier) error {
			f, err := tr.Open("allocs", tcio.ReadMode)
			if err != nil {
				return err
			}
			buf := make([]byte, domain*blocks)
			var ms runtime.MemStats
			// Epochs are lockstep across clients (a server answers none
			// until all have sent their intents), so client 0's counter
			// brackets everyone's measured epochs to within one.
			for e := 0; e < warm+epochs; e++ {
				if e == warm && tr.ClientIndex() == 0 {
					runtime.ReadMemStats(&ms)
					allocated = ms.TotalAlloc
				}
				for off := 0; off < len(buf); off += piece {
					if err := f.ReadAt(int64(off), buf[off:off+piece]); err != nil {
						return err
					}
				}
				if err := f.Fetch(); err != nil {
					return err
				}
			}
			if tr.ClientIndex() == 0 {
				runtime.ReadMemStats(&ms)
				allocated = ms.TotalAlloc - allocated
			}
			return f.Close()
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	delivered := uint64(epochs * clients * domain * blocks)
	t.Logf("%d epochs allocated %d B for %d B delivered", epochs, allocated, delivered)
	if allocated*4 >= delivered {
		t.Fatalf("%d epochs allocated %d B for %d B delivered, want under a quarter", epochs, allocated, delivered)
	}
}

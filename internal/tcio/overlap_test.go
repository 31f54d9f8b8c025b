package tcio

// Tests for the overlap pipeline: write-behind correctness and accounting,
// l2meta under concurrent access, epoch LRU eviction, and the prefetch
// cache's refusal to evict dirty segments.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/simtime"
)

func TestOverlapConfigValidation(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		bad := []Config{
			{SegmentSize: 64, NumSegments: 4, WriteBehindThreshold: -0.1},
			{SegmentSize: 64, NumSegments: 4, WriteBehindThreshold: 1.5},
			{SegmentSize: 64, NumSegments: 4, WriteBehindQueue: -2},
			{SegmentSize: 64, NumSegments: 4, PrefetchSegments: -1},
			{SegmentSize: 64, NumSegments: 4, PrefetchSegments: 2, MaxCachedSegments: -1},
		}
		for i, cfg := range bad {
			if _, err := Open(c, fmt.Sprintf("obad%d", i), WriteMode, cfg); err == nil {
				return fmt.Errorf("config %d accepted: %+v", i, cfg)
			}
		}
		return nil
	})
}

// TestWriteBehindBytesIdentical writes the same interleaved data twice —
// synchronously and with the eager write-behind armed — and requires
// byte-identical files and an identical file system write request count.
func TestWriteBehindBytesIdentical(t *testing.T) {
	const procs = 4
	write := func(c *mpi.Comm, name string, threshold float64) (Stats, error) {
		cfg := smallCfg()
		cfg.WriteBehindThreshold = threshold
		f, err := Open(c, name, WriteMode, cfg)
		if err != nil {
			return Stats{}, err
		}
		for i := 0; i < 64; i++ {
			off := int64(i)*16*procs + int64(c.Rank())*16
			var block [16]byte
			for b := range block {
				block[b] = byte(c.Rank()*31 + i + b)
			}
			if err := f.WriteAt(off, block[:]); err != nil {
				return Stats{}, err
			}
		}
		if err := f.Close(); err != nil {
			return Stats{}, err
		}
		return f.Stats(), nil
	}
	run(t, procs, func(c *mpi.Comm) error {
		sync0, err := write(c, "wb-sync", 0)
		if err != nil {
			return err
		}
		eager, err := write(c, "wb-eager", 1)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			a := c.FS().Open("wb-sync").Snapshot()
			b := c.FS().Open("wb-eager").Snapshot()
			if !bytes.Equal(a, b) {
				return fmt.Errorf("write-behind changed file bytes (%d vs %d)", len(a), len(b))
			}
		}
		if sync0.EagerDrains != 0 {
			return fmt.Errorf("threshold 0 ran %d eager drains", sync0.EagerDrains)
		}
		// Accounting must balance: every file system write request is
		// either an eager batch's or the final residue's. (EagerDrains
		// counts batches, not requests — at threshold 1 a covered segment
		// coalesces to one request per batch, so both identities hold here.)
		if eager.EagerWrites+eager.FlushResidue != eager.FSWrites {
			return fmt.Errorf("eager writes %d + residue %d != fs writes %d",
				eager.EagerWrites, eager.FlushResidue, eager.FSWrites)
		}
		if eager.EagerWrites != eager.EagerDrains {
			return fmt.Errorf("threshold 1: eager writes %d != eager drains %d (covered segments must coalesce)",
				eager.EagerWrites, eager.EagerDrains)
		}
		return nil
	})
}

// TestWriteBehindGappedAccounting drives a fractional threshold where each
// eager batch holds two runs separated by a gap, so one EagerDrain issues
// two file system requests: the per-request EagerWrites counter — not the
// batch count — is what balances against FSWrites.
func TestWriteBehindGappedAccounting(t *testing.T) {
	const procs = 4
	write := func(c *mpi.Comm, name string, threshold float64) (Stats, error) {
		cfg := smallCfg() // 64-byte segments: threshold 0.5 needs 32 bytes
		cfg.WriteBehindThreshold = threshold
		f, err := Open(c, name, WriteMode, cfg)
		if err != nil {
			return Stats{}, err
		}
		// Ranks 0 and 2 cover half of every segment with a gap between
		// their runs: bytes [0,16) and [32,48).
		if c.Rank()%2 == 0 {
			for seg := int64(0); seg < 64; seg++ {
				var block [16]byte
				for b := range block {
					block[b] = byte(int64(c.Rank())*31 + seg + int64(b))
				}
				if err := f.WriteAt(seg*64+int64(c.Rank())*16, block[:]); err != nil {
					return Stats{}, err
				}
			}
		}
		if err := f.Flush(); err != nil {
			return Stats{}, err
		}
		// Every rank then ships one byte into its own segment 60+r (into
		// the [48,64) gap), so each rank's write-behind scan provably runs
		// after all the gapped runs above are recorded: every half-covered
		// segment eager-drains.
		if err := f.WriteAt((60+int64(c.Rank()))*64+48, []byte{7}); err != nil {
			return Stats{}, err
		}
		if err := f.Close(); err != nil {
			return Stats{}, err
		}
		return f.Stats(), nil
	}
	run(t, procs, func(c *mpi.Comm) error {
		if _, err := write(c, "wbg-sync", 0); err != nil {
			return err
		}
		eager, err := write(c, "wbg-eager", 0.5)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			a := c.FS().Open("wbg-sync").Snapshot()
			b := c.FS().Open("wbg-eager").Snapshot()
			if !bytes.Equal(a, b) {
				return fmt.Errorf("gapped write-behind changed file bytes (%d vs %d)", len(a), len(b))
			}
		}
		// Each rank owns 16 segments, every one half-covered by two gapped
		// runs: 16 eager batches of 2 requests each. The books must balance
		// on requests; the batch count deliberately does not.
		if eager.EagerDrains != 16 || eager.EagerWrites != 32 {
			return fmt.Errorf("eager drains %d (want 16), eager writes %d (want 32)",
				eager.EagerDrains, eager.EagerWrites)
		}
		if eager.EagerWrites+eager.FlushResidue != eager.FSWrites {
			return fmt.Errorf("eager writes %d + residue %d != fs writes %d",
				eager.EagerWrites, eager.FlushResidue, eager.FSWrites)
		}
		return nil
	})
}

// TestWriteBehindRewriteRace is the -race regression for rewrite traffic
// racing the eager drain: with a low threshold every shipped run can drain
// immediately, while a second pass of writes keeps physically copying into
// the same window regions the drains are snapshotting. Last bytes must win.
func TestWriteBehindRewriteRace(t *testing.T) {
	const procs = 4
	run(t, procs, func(c *mpi.Comm) error {
		cfg := smallCfg()
		cfg.WriteBehindThreshold = 0.25 // each 16-byte run triggers a drain
		f, err := Open(c, "wb-rewrite", WriteMode, cfg)
		if err != nil {
			return err
		}
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < 64; i++ {
				off := int64(i)*16*procs + int64(c.Rank())*16
				var block [16]byte
				for b := range block {
					block[b] = byte(pass*101 + c.Rank()*31 + i + b)
				}
				if err := f.WriteAt(off, block[:]); err != nil {
					return err
				}
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			got := c.FS().Open("wb-rewrite").Snapshot()
			for i := 0; i < 64; i++ {
				for r := 0; r < procs; r++ {
					off := int64(i)*16*procs + int64(r)*16
					for b := 0; b < 16; b++ {
						want := byte(101 + r*31 + i + b) // pass-2 values
						if got[off+int64(b)] != want {
							return fmt.Errorf("byte %d: got %d, want %d (rewrite lost)",
								off+int64(b), got[off+int64(b)], want)
						}
					}
				}
			}
		}
		return nil
	})
}

// TestL2MetaConcurrent hammers one l2meta from many goroutines — the shared
// state the write-behind scan reads while remote ships record runs. Run
// under -race this is the regression test for the pending/dirty bookkeeping.
func TestL2MetaConcurrent(t *testing.T) {
	m := newL2Meta(false)
	const (
		workers  = 8
		segs     = 16
		segSize  = 64
		perChunk = segSize / workers
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := int64(0); s < segs; s++ {
				m.addDirty(s, []extent.Extent{{Off: int64(w * perChunk), Len: perChunk}}, simtime.Time(w+1))
				_ = m.dirtySnapshot(s)
				_ = m.isDirty(s)
				_ = m.hasDirty(s)
				if runs, at := m.takeCovered(s, segSize); len(runs) != 0 {
					// Full coverage observed: put the runs back the way a
					// drain error path would not — re-add so others see them.
					m.addDirty(s, runs, at)
				}
				m.setPopulated(s)
				_ = m.isPopulated(s)
			}
		}(w)
	}
	wg.Wait()
	for s := int64(0); s < segs; s++ {
		if got := extent.Total(m.dirtySnapshot(s)); got != segSize {
			t.Fatalf("segment %d: dirty total %d, want %d", s, got, segSize)
		}
		if !m.isPopulated(s) {
			t.Fatalf("segment %d lost populated flag", s)
		}
	}
}

// TestEpochEvictionLRU checks that reusing an open epoch protects it from
// eviction: with PipelineDepth 2 and the ship pattern A B A C, the cold
// epoch B is evicted, not the recently reused A.
func TestEpochEvictionLRU(t *testing.T) {
	const procs = 4
	run(t, procs, func(c *mpi.Comm) error {
		cfg := Config{SegmentSize: 16, NumSegments: 16, PipelineDepth: 2}
		f, err := Open(c, "lru", WriteMode, cfg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			// Segment s is owned by rank s%procs. Each write realigns the
			// level-1 buffer and ships the PREVIOUS segment, so the ship
			// sequence of owners is 1 (A), 2 (B), 1 (A, reused), 3 (C):
			// shipping to C with depth 2 must evict the cold B, not the
			// recently reused A.
			for _, seg := range []int64{1, 2, 17, 3, 5} {
				if err := f.WriteAt(seg*16, []byte{9}); err != nil {
					return err
				}
			}
			if len(f.openOwners) != 2 || f.openOwners[0] != 1 || f.openOwners[1] != 3 {
				return fmt.Errorf("open epochs %v, want [1 3] (LRU kept the reused epoch)", f.openOwners)
			}
			if f.stats.EpochEvictions != 1 {
				return fmt.Errorf("EpochEvictions = %d, want 1", f.stats.EpochEvictions)
			}
		}
		return f.Close()
	})
}

// TestPrefetchEvictRefusesDirty drives the cache bookkeeping directly: an
// entry whose segment still has undrained runs must survive eviction, and
// when every entry is dirty the incoming entry is dropped instead.
func TestPrefetchEvictRefusesDirty(t *testing.T) {
	f := &File{session: session{
		cfg:        Config{MaxCachedSegments: 2},
		meta:       newL2Meta(false),
		prefetched: make(map[int64]*prefetchEntry),
	}}
	f.meta.addDirty(1, []extent.Extent{{Off: 0, Len: 4}}, 0)
	f.insertPrefetched(1, &prefetchEntry{data: []byte{1}})
	f.insertPrefetched(2, &prefetchEntry{data: []byte{2}})
	// Cache full (cap 2): inserting 3 must evict the clean LRU entry 2,
	// not the dirty entry 1 — and the evicted entry's read was wasted.
	f.insertPrefetched(3, &prefetchEntry{data: []byte{3}})
	if _, ok := f.prefetched[1]; !ok {
		t.Fatal("dirty segment 1 was evicted")
	}
	if _, ok := f.prefetched[2]; ok {
		t.Fatal("clean segment 2 survived eviction")
	}
	if _, ok := f.prefetched[3]; !ok {
		t.Fatal("segment 3 was not cached")
	}
	if f.stats.PrefetchWasted != 1 {
		t.Fatalf("PrefetchWasted = %d after evicting unused entry, want 1", f.stats.PrefetchWasted)
	}
	// Make 3 dirty too: now every entry is dirty, so 4 must be dropped —
	// another wasted read.
	f.meta.addDirty(3, []extent.Extent{{Off: 0, Len: 4}}, 0)
	f.insertPrefetched(4, &prefetchEntry{data: []byte{4}})
	if _, ok := f.prefetched[4]; ok {
		t.Fatal("segment 4 cached despite a fully dirty cache")
	}
	if len(f.prefetchLRU) != 2 {
		t.Fatalf("LRU length %d, want 2", len(f.prefetchLRU))
	}
	if f.stats.PrefetchWasted != 2 {
		t.Fatalf("PrefetchWasted = %d after dropping entry, want 2", f.stats.PrefetchWasted)
	}
	// Draining segment 1 (takePending) makes it evictable again.
	f.meta.takePending(1)
	f.insertPrefetched(5, &prefetchEntry{data: []byte{5}})
	if _, ok := f.prefetched[1]; ok {
		t.Fatal("drained segment 1 still cached after eviction pass")
	}
	if _, ok := f.prefetched[5]; !ok {
		t.Fatal("segment 5 was not cached after eviction freed a slot")
	}
}

// TestPrefetchCacheClamp: a cache cap below the lookahead would evict the
// very segments the lookahead just staged (every prefetch a guaranteed
// duplicate read), so Open raises it to PrefetchSegments.
func TestPrefetchCacheClamp(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		cfg := Config{SegmentSize: 64, NumSegments: 4, PrefetchSegments: 4, MaxCachedSegments: 2}
		f, err := Open(c, "pf-clamp", WriteMode, cfg)
		if err != nil {
			return err
		}
		defer f.Close()
		if f.cfg.MaxCachedSegments != 4 {
			return fmt.Errorf("MaxCachedSegments = %d, want clamped to 4", f.cfg.MaxCachedSegments)
		}
		return nil
	})
}

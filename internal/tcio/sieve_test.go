package tcio

// Tests for the noncontiguous read engine: the sieved demand-populate
// path, the partial-population bookkeeping, the prefetch/sieve dedupe, the
// two-phase collective read, and the degenerate-config pin that keeps the
// knobs-off path bit-identical to the pre-sieve library.

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/faults"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/trace"
)

// seedReadFile writes a deterministic pattern so read sessions have bytes
// to fetch; every rank must call it (it ends on a barrier).
func seedReadFile(c *mpi.Comm, name string, size int) error {
	if c.Rank() == 0 {
		content := make([]byte, size)
		for i := range content {
			content[i] = byte(i*7 + i>>8)
		}
		if _, err := c.FS().Open(name).WriteAt(0, 0, content, 0); err != nil {
			return err
		}
	}
	return c.Barrier()
}

func wantReadByte(i int64) byte { return byte(i*7 + i>>8) }

func TestSieveConfigValidation(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		if _, err := Open(c, "sv-bad", ReadMode, Config{SegmentSize: 64, NumSegments: 4, SieveBuffer: -1}); err == nil {
			return fmt.Errorf("negative SieveBuffer accepted")
		}
		return nil
	})
}

// TestL2MetaPopRuns drives the partial-population bookkeeping directly:
// missing runs shrink as popRuns accumulate, dirty runs count as present,
// and full coverage promotes the segment to populated.
func TestL2MetaPopRuns(t *testing.T) {
	m := newL2Meta(false)
	const segSize = 64
	need := []extent.Extent{{Off: 0, Len: 32}, {Off: 48, Len: 16}}
	if got := m.missingRuns(5, need); extent.Total(got) != 48 {
		t.Fatalf("fresh segment: missing %v", got)
	}
	m.addDirty(5, []extent.Extent{{Off: 8, Len: 8}}, 0)
	if got := m.missingRuns(5, need); extent.Total(got) != 40 {
		t.Fatalf("dirty run not excluded: missing %v", got)
	}
	m.addPopRuns(5, []extent.Extent{{Off: 0, Len: 32}}, segSize)
	if m.isPopulated(5) {
		t.Fatal("partial runs promoted too early")
	}
	if got := m.missingRuns(5, need); extent.Total(got) != 16 {
		t.Fatalf("after partial population: missing %v", got)
	}
	m.addPopRuns(5, []extent.Extent{{Off: 32, Len: 32}}, segSize)
	if !m.isPopulated(5) {
		t.Fatal("full coverage did not promote to populated")
	}
	if pr := m.shards[5].segs[5].popRuns; len(pr) != 0 {
		t.Fatalf("promotion left popRuns %v", pr)
	}
	if got := m.missingRuns(5, need); got != nil {
		t.Fatalf("populated segment: missing %v", got)
	}
}

// TestSievedFetchBytesAndCounters: a hole-y read pattern through the sieve
// delivers the same bytes the file holds, issues covering reads instead of
// whole-segment populations, and accounts the hole traffic as waste.
func TestSievedFetchBytesAndCounters(t *testing.T) {
	const procs = 4
	run(t, procs, func(c *mpi.Comm) error {
		if err := seedReadFile(c, "sv-holes", 4096); err != nil {
			return err
		}
		cfg := smallCfg()
		cfg.DemandPopulate = true
		cfg.SieveBuffer = 64
		f, err := Open(c, "sv-holes", ReadMode, cfg)
		if err != nil {
			return err
		}
		// Rank r reads 8-byte runs every 16 bytes of its own 1024-byte
		// region: 50% holes, runs joinable under the 64-byte budget.
		base := int64(c.Rank()) * 1024
		var dsts [][]byte
		for off := base; off < base+1024; off += 16 {
			dst := make([]byte, 8)
			if err := f.ReadAt(off, dst); err != nil {
				return err
			}
			dsts = append(dsts, dst)
		}
		if err := f.Fetch(); err != nil {
			return err
		}
		for i, dst := range dsts {
			off := base + int64(i)*16
			for b := range dst {
				if dst[b] != wantReadByte(off+int64(b)) {
					return fmt.Errorf("rank %d byte %d: got %d want %d",
						c.Rank(), off+int64(b), dst[b], wantReadByte(off+int64(b)))
				}
			}
		}
		st := f.Stats()
		if st.Populations != 0 {
			return fmt.Errorf("sieved path ran %d whole-segment populations", st.Populations)
		}
		if st.SieveReads == 0 {
			return fmt.Errorf("no sieve covers issued")
		}
		// 16 segments of 4 runs each; the 64-byte budget joins each
		// segment's runs into one cover of 56 bytes delivering 32.
		if st.SieveReads != 16 || st.SieveWasteBytes != 16*24 {
			return fmt.Errorf("SieveReads=%d SieveWasteBytes=%d, want 16 and %d",
				st.SieveReads, st.SieveWasteBytes, 16*24)
		}
		return f.Close()
	})
}

// TestSieveListIOBudgetTooSmall: a budget below the smallest joinable pair
// degenerates to list I/O — one read per needed run, zero waste.
func TestSieveListIOBudgetTooSmall(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		if err := seedReadFile(c, "sv-list", 1024); err != nil {
			return err
		}
		cfg := smallCfg()
		cfg.DemandPopulate = true
		cfg.SieveBuffer = 1
		f, err := Open(c, "sv-list", ReadMode, cfg)
		if err != nil {
			return err
		}
		for off := int64(0); off < 256; off += 32 {
			if err := f.ReadAt(off, make([]byte, 8)); err != nil {
				return err
			}
		}
		if err := f.Fetch(); err != nil {
			return err
		}
		st := f.Stats()
		if st.SieveReads != 8 || st.SieveWasteBytes != 0 {
			return fmt.Errorf("SieveReads=%d SieveWasteBytes=%d, want 8 and 0",
				st.SieveReads, st.SieveWasteBytes)
		}
		return f.Close()
	})
}

// TestSieveDirtyOverlapNotStale is the stale-bytes pin: sieving through a
// segment that holds unflushed (dirty) window data must serve the window's
// fresh bytes, not re-read the file over them.
func TestSieveDirtyOverlapNotStale(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		if err := seedReadFile(c, "sv-dirty", 256); err != nil {
			return err
		}
		cfg := smallCfg()
		cfg.DemandPopulate = true
		cfg.SieveBuffer = 64
		f, err := Open(c, "sv-dirty", ReadMode, cfg)
		if err != nil {
			return err
		}
		// Plant fresh bytes in the window over [16,32) of segment 0 — newer
		// than the file, as a writer's shipped-but-undrained runs would be.
		fresh := bytes.Repeat([]byte{0xAA}, 16)
		if err := f.win.Lock(0, true); err != nil {
			return err
		}
		if err := f.win.PutSegments(0, []extent.Extent{{Off: 16, Len: 16}}, fresh); err != nil {
			return err
		}
		if err := f.win.Unlock(0); err != nil {
			return err
		}
		f.meta.addDirty(0, []extent.Extent{{Off: 16, Len: 16}}, 0)

		dst := make([]byte, 64)
		if err := f.ReadAt(0, dst); err != nil {
			return err
		}
		if err := f.Fetch(); err != nil {
			return err
		}
		for i := 0; i < 64; i++ {
			want := wantReadByte(int64(i))
			if i >= 16 && i < 32 {
				want = 0xAA
			}
			if dst[i] != want {
				return fmt.Errorf("byte %d: got %d want %d (stale file bytes over dirty window data)",
					i, dst[i], want)
			}
		}
		return f.Close()
	})
}

// TestPrefetchSieveDedupe is the double-charge regression: when prefetch
// stages a whole segment and the sieve would stage runs of the same
// segment, the staged prefetch wins — one file system read per segment,
// every prefetch consumed, nothing counted wasted.
func TestPrefetchSieveDedupe(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		if err := seedReadFile(c, "sv-pf", 1024); err != nil {
			return err
		}
		cfg := smallCfg()
		cfg.DemandPopulate = true
		cfg.SieveBuffer = 64
		cfg.PrefetchSegments = 4
		f, err := Open(c, "sv-pf", ReadMode, cfg)
		if err != nil {
			return err
		}
		// Forward-consecutive segments 0..7, hole-y runs in each, one batch.
		for off := int64(0); off < 512; off += 16 {
			if err := f.ReadAt(off, make([]byte, 8)); err != nil {
				return err
			}
		}
		if err := f.Fetch(); err != nil {
			return err
		}
		st := f.Stats()
		if st.PrefetchIssued == 0 {
			return fmt.Errorf("lookahead never ran")
		}
		if st.PrefetchHits != st.PrefetchIssued {
			return fmt.Errorf("prefetch hits %d != issued %d", st.PrefetchHits, st.PrefetchIssued)
		}
		if st.PrefetchWasted != 0 {
			return fmt.Errorf("PrefetchWasted = %d: a staged segment was re-read", st.PrefetchWasted)
		}
		// Only segments the cache missed go through the sieve: segment 0
		// (before any lookahead) and any past the lookahead horizon.
		if st.SieveReads+st.PrefetchIssued < 8 || st.SieveReads >= 8 {
			return fmt.Errorf("SieveReads=%d PrefetchIssued=%d: sieve/prefetch split off", st.SieveReads, st.PrefetchIssued)
		}
		return f.Close()
	})
}

// TestCollectiveReadMatchesIndependent: the same interleaved read workload
// under CollectiveRead delivers byte-identical destination buffers, counts
// one intent exchange per collective Fetch (plus Close's), and stages each
// segment on its owner.
func TestCollectiveReadMatchesIndependent(t *testing.T) {
	const procs = 4
	type result struct {
		sum   []byte
		stats Stats
	}
	readAll := func(name string, collective bool, sieve int64) ([procs]result, error) {
		var out [procs]result
		_, err := mpi.Run(mpi.Config{Procs: procs, Machine: cluster.Lonestar()}, func(c *mpi.Comm) error {
			if err := seedReadFile(c, name, 2048); err != nil {
				return err
			}
			cfg := smallCfg()
			cfg.DemandPopulate = true
			cfg.CollectiveRead = collective
			cfg.SieveBuffer = sieve
			f, err := Open(c, name, ReadMode, cfg)
			if err != nil {
				return err
			}
			var got []byte
			// Interleaved: 32-byte block b belongs to rank b%procs; two
			// rounds with a phase shift, every rank fetching each round.
			for round := 0; round < 2; round++ {
				var dsts [][]byte
				for b := int64(0); b < 64; b++ {
					if int(b)%procs != (c.Rank()+round)%procs {
						continue
					}
					dst := make([]byte, 32)
					if err := f.ReadAt(b*32, dst); err != nil {
						return err
					}
					dsts = append(dsts, dst)
				}
				if err := f.Fetch(); err != nil {
					return err
				}
				for _, d := range dsts {
					got = append(got, d...)
				}
			}
			if err := f.Close(); err != nil {
				return err
			}
			out[c.Rank()] = result{sum: got, stats: f.Stats()}
			return nil
		})
		return out, err
	}

	indep, err := readAll("cr-indep", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, sieve := range []int64{0, 64} {
		coll, err := readAll(fmt.Sprintf("cr-coll%d", sieve), true, sieve)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < procs; r++ {
			if !bytes.Equal(indep[r].sum, coll[r].sum) {
				t.Fatalf("sieve=%d rank %d: collective read bytes differ", sieve, r)
			}
			if got := coll[r].stats.TwoPhaseExchanges; got != 3 {
				t.Fatalf("sieve=%d rank %d: TwoPhaseExchanges = %d, want 3 (2 fetches + close)", sieve, r, got)
			}
			if indep[r].stats.TwoPhaseExchanges != 0 {
				t.Fatalf("rank %d: independent path counted exchanges", r)
			}
		}
	}
}

// TestSieveDegenerateBitIdentical is the acceptance pin: with SieveBuffer=0
// and CollectiveRead=false the demand-populate path is the pre-engine
// library — whole-segment populations only, no sieve covers, no exchanges,
// no KindSieve events — and two chaos runs with one seed see identical
// fault absorption.
func TestSieveDegenerateBitIdentical(t *testing.T) {
	const procs = 4
	type rk struct{ st Stats }
	readRun := func(name string) ([procs]rk, *trace.Recorder, error) {
		var out [procs]rk
		rec := trace.New(1 << 16)
		inj := faults.New(23)
		inj.Set(faults.SiteOSTRead, faults.Rule{Prob: 0.05})
		_, err := mpi.Run(mpi.Config{Procs: procs, Machine: cluster.Lonestar(), Faults: inj}, func(c *mpi.Comm) error {
			if err := seedReadFile(c, name, 4096); err != nil {
				return err
			}
			cfg := smallCfg()
			cfg.DemandPopulate = true // knobs off: SieveBuffer=0, CollectiveRead=false
			cfg.Trace = rec
			f, err := Open(c, name, ReadMode, cfg)
			if err != nil {
				return err
			}
			base := int64(c.Rank()) * 1024
			for off := base; off < base+1024; off += 32 {
				if err := f.ReadAt(off, make([]byte, 16)); err != nil {
					return err
				}
			}
			if err := f.Fetch(); err != nil {
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			out[c.Rank()] = rk{st: f.Stats()}
			return nil
		})
		return out, rec, err
	}
	a, recA, err := readRun("sv-degen-a")
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := readRun("sv-degen-b")
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < procs; r++ {
		st := a[r].st
		if st.SieveReads != 0 || st.SieveWasteBytes != 0 || st.TwoPhaseExchanges != 0 {
			t.Fatalf("rank %d: engine counters armed while off: %+v", r, st)
		}
		// Each rank demands its own 16 disjoint segments: exactly 16
		// whole-segment populations, like the pre-engine path.
		if st.Populations != 16 {
			t.Fatalf("rank %d: %d populations, want 16", r, st.Populations)
		}
		if a[r].st != b[r].st {
			t.Fatalf("rank %d: same-seed chaos runs diverge:\n%+v\n%+v", r, a[r].st, b[r].st)
		}
	}
	for _, ev := range recA.Events() {
		if ev.Kind == trace.KindSieve {
			t.Fatalf("KindSieve event emitted with the sieve off: %+v", ev)
		}
	}
}

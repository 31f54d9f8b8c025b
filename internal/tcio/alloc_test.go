package tcio

// Per-call host cost regression tests: with tracing off, the steady-state
// POSIX-like calls allocate nothing — no detail strings are formatted and
// the level-1 block list and read queue reuse their storage. With a trace
// sink set, the recorded event details keep their exact format. Handles
// that never stage writes are charged their level-1 segment but hold no
// host bytes for it, and ranks whose segments nobody touches are charged
// their window but hold no host bytes for that either.

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/trace"
)

// allocPieces is how many pieces a warm-up cycle stages, so the measured
// calls that follow stay within the storage it grew.
const allocPieces = 64

func TestWriteAtSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	cfg := Config{SegmentSize: 4 * allocPieces, NumSegments: 4}
	run(t, 1, func(c *mpi.Comm) error {
		f, err := Open(c, "allocw", WriteMode, cfg)
		if err != nil {
			return err
		}
		piece := []byte{1, 2, 3, 4}
		// Warm-up: fill segment 0, then move to segment 1 — the realignment
		// flushes segment 0 and leaves the level-1 block list empty with its
		// capacity intact.
		for k := int64(0); k <= allocPieces; k++ {
			if err := f.WriteAt(4*k, piece); err != nil {
				return err
			}
		}
		off := cfg.SegmentSize + 4
		allocs := testing.AllocsPerRun(allocPieces-2, func() {
			if err := f.WriteAt(off, piece); err != nil {
				t.Error(err)
			}
			off += 4
		})
		if allocs != 0 {
			t.Errorf("WriteAt inside the level-1 segment: %v allocs per call, want 0", allocs)
		}
		return f.Close()
	})
}

func TestReadAtQueueAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	cfg := Config{SegmentSize: 4 * allocPieces, NumSegments: 4, DemandPopulate: true}
	run(t, 1, func(c *mpi.Comm) error {
		f, err := Open(c, "allocr", ReadMode, cfg)
		if err != nil {
			return err
		}
		dst := make([]byte, 4*allocPieces)
		// Warm-up: queue a full segment of reads and fetch them, which grows
		// the read queue and the fetch scratch, then resets the queue.
		for k := int64(0); k < allocPieces; k++ {
			if err := f.ReadAt(4*k, dst[4*k:4*k+4]); err != nil {
				return err
			}
		}
		if err := f.Fetch(); err != nil {
			return err
		}
		k := int64(0)
		allocs := testing.AllocsPerRun(allocPieces-1, func() {
			if err := f.ReadAt(4*k, dst[4*k:4*k+4]); err != nil {
				t.Error(err)
			}
			k++
		})
		if allocs != 0 {
			t.Errorf("ReadAt queueing without a fetch: %v allocs per call, want 0", allocs)
		}
		return f.Close()
	})
}

// TestTraceDetailsUnchanged pins the detail strings of the per-call and
// per-shipment events: formatting moved behind the tracing check, not away.
func TestTraceDetailsUnchanged(t *testing.T) {
	const procs, piece = 2, 4
	rec := trace.New(0)
	cfg := Config{SegmentSize: 16, NumSegments: 2, Trace: rec}
	// Rank r writes (then reads) 4-byte pieces at r*4 + 8k: two
	// non-adjacent runs in each of the four 16-byte segments.
	offs := func(r int) []int64 {
		var out []int64
		for k := int64(0); k < 8; k++ {
			out = append(out, int64(r)*piece+8*k)
		}
		return out
	}
	run(t, procs, func(c *mpi.Comm) error {
		w, err := Open(c, "details", WriteMode, cfg)
		if err != nil {
			return err
		}
		for _, off := range offs(c.Rank()) {
			if err := w.WriteAt(off, []byte{1, 2, 3, 4}); err != nil {
				return err
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
		r, err := Open(c, "details", ReadMode, cfg)
		if err != nil {
			return err
		}
		for _, off := range offs(c.Rank()) {
			if err := r.ReadAt(off, make([]byte, piece)); err != nil {
				return err
			}
		}
		if err := r.Fetch(); err != nil {
			return err
		}
		return r.Close()
	})
	for rank := 0; rank < procs; rank++ {
		want := map[trace.Kind][]string{trace.KindFetch: {"segments=4"}}
		for _, off := range offs(rank) {
			want[trace.KindWrite] = append(want[trace.KindWrite], fmt.Sprintf("off=%d", off))
			want[trace.KindRead] = append(want[trace.KindRead], fmt.Sprintf("off=%d", off))
		}
		for seg := 0; seg < 4; seg++ {
			want[trace.KindFlush] = append(want[trace.KindFlush],
				fmt.Sprintf("seg=%d owner=%d runs=2", seg, seg%procs))
		}
		got := map[trace.Kind][]string{}
		for _, ev := range rec.Events() {
			if _, ok := want[ev.Kind]; ok && ev.Rank == rank {
				got[ev.Kind] = append(got[ev.Kind], ev.Detail)
			}
		}
		for kind, details := range want {
			if fmt.Sprint(got[kind]) != fmt.Sprint(details) {
				t.Errorf("rank %d %s details = %q, want %q", rank, kind, got[kind], details)
			}
		}
	}
}

// level1PeakMemory is the simulated per-rank peak of level1Program, pinned
// from the build in which every handle allocated its level-1 buffer: the
// charge is the same whether or not host bytes back it.
const level1PeakMemory = 5 * 64 << 10

// level1Program opens one handle in mode on two ranks with ByteScale 1 KiB
// per byte — a 4-segment window plus one level-1 segment of 64 bytes, so
// 5*64 KiB simulated per rank — and reports whether the handle holds
// level-1 host bytes.
func level1Program(t *testing.T, mode Mode, cfg Config) (mpi.Report, bool) {
	t.Helper()
	m := cluster.Lonestar()
	m.ByteScale = 1 << 10
	var held atomic.Bool
	rep, err := mpi.Run(mpi.Config{Procs: 2, Machine: m, EnforceMemory: true}, func(c *mpi.Comm) error {
		f, err := Open(c, "l1mem", mode, cfg)
		if err != nil {
			return err
		}
		if f.l1Buf != nil {
			held.Store(true)
		}
		if err := f.Close(); err != nil {
			return err
		}
		if used := c.MemUsed(); used != 0 {
			return fmt.Errorf("rank %d: %d simulated bytes still charged after Close", c.Rank(), used)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep, held.Load()
}

func TestLevel1ChargedWhereHostBytesAreNot(t *testing.T) {
	cfg := Config{SegmentSize: 64, NumSegments: 4}
	ablation := cfg
	ablation.DisableLevel1 = true
	for _, tc := range []struct {
		name string
		mode Mode
		cfg  Config
		held bool
	}{
		{"read", ReadMode, cfg, false},
		{"write", WriteMode, cfg, true},
		{"write/DisableLevel1", WriteMode, ablation, false},
	} {
		rep, held := level1Program(t, tc.mode, tc.cfg)
		if rep.PeakMemory != level1PeakMemory {
			t.Errorf("%s: PeakMemory = %d, want %d", tc.name, rep.PeakMemory, level1PeakMemory)
		}
		if held != tc.held {
			t.Errorf("%s: level-1 host buffer held = %v, want %v", tc.name, held, tc.held)
		}
	}
}

// eofPeakMemory is the simulated per-rank peak of eofWindowProgram,
// pinned from the build that allocated every window's host bytes at Open:
// four 64-byte segments of window plus one of level 1, at 1 KiB per byte.
const eofPeakMemory = 5 * 64 << 10

func eofData(n int64) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*5 + 1)
	}
	return b
}

// eofWindowProgram writes the file's first two segments from rank 0 on
// four ranks, then reads them back on every rank, and reports per phase
// and rank whether the rank's window held host bytes before Close. Ranks
// 2 and 3 own only segments past EOF.
func eofWindowProgram(t *testing.T, readCfg Config) (mpi.Report, [2][4]bool) {
	t.Helper()
	m := cluster.Lonestar()
	m.ByteScale = 1 << 10
	cfg := Config{SegmentSize: 64, NumSegments: 4}
	readCfg.SegmentSize, readCfg.NumSegments = cfg.SegmentSize, cfg.NumSegments
	var backed [2][4]bool
	rep, err := mpi.Run(mpi.Config{Procs: 4, Machine: m, EnforceMemory: true}, func(c *mpi.Comm) error {
		f, err := Open(c, "eofwin", WriteMode, cfg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := f.WriteAt(0, eofData(2*cfg.SegmentSize)); err != nil {
				return err
			}
		}
		if err := f.Flush(); err != nil {
			return err
		}
		backed[0][c.Rank()] = f.win.Backed(c.Rank())
		if err := f.Close(); err != nil {
			return err
		}
		if f, err = Open(c, "eofwin", ReadMode, readCfg); err != nil {
			return err
		}
		buf := make([]byte, 2*cfg.SegmentSize)
		if err := f.ReadAt(0, buf); err != nil {
			return err
		}
		if err := f.Fetch(); err != nil {
			return err
		}
		if !bytes.Equal(buf, eofData(2*cfg.SegmentSize)) {
			return fmt.Errorf("rank %d read back %v", c.Rank(), buf)
		}
		backed[1][c.Rank()] = f.win.Backed(c.Rank())
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep, backed
}

// TestWindowChargedWhereHostBytesAreNot: every rank is charged its whole
// window at Open, but only the ranks owning segments inside the file —
// written, populated or preloaded — hold host bytes for it.
func TestWindowChargedWhereHostBytesAreNot(t *testing.T) {
	want := [2][4]bool{{true, true, false, false}, {true, true, false, false}}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"preload", Config{}},
		{"demand", Config{DemandPopulate: true}},
	} {
		rep, backed := eofWindowProgram(t, tc.cfg)
		if rep.PeakMemory != eofPeakMemory {
			t.Errorf("%s: PeakMemory = %d, want %d", tc.name, rep.PeakMemory, eofPeakMemory)
		}
		if backed != want {
			t.Errorf("%s: window backed [write, read][rank] = %v, want %v", tc.name, backed, want)
		}
	}
}

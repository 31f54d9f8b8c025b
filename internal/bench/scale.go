package bench

// The wall-clock scale harness: where every other sweep in this package
// measures *virtual* time (what the simulated machine would take), this one
// measures what the *host* takes to simulate it — the N-clients regime of
// "Design and Evaluation of a Collective IO Model for Loosely Coupled
// Petascale Programming" (PAPERS.md) mapped onto thousands of rank
// goroutines. It drives a fixed strided-write+read program at N ranks for
// each GOMAXPROCS setting and reports wall-clock, ns/op, and B/op next to
// the seed-deterministic virtual-time columns, so CI can diff the
// deterministic columns while the timing columns document host scalability.
//
// The program is deliberately hot-path-heavy: every piece crosses the
// level-1/level-2 ship (window locks + l2meta), every phase boundary is a
// collective (timeBarrier), ring exchanges cross the mailbox (exact and
// AnySource), and a trace recorder rides along so its append path is on the
// clock too.

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/stats"
	"github.com/tcio/tcio/internal/tcio"
	"github.com/tcio/tcio/internal/trace"
)

// ScaleOptions configures the wall-clock scale sweep.
type ScaleOptions struct {
	// Procs lists the simulated rank counts to drive.
	Procs []int
	// GoMaxProcs lists the runtime.GOMAXPROCS settings to sweep.
	GoMaxProcs []int
	// PiecesPerRank is the number of strided pieces each rank writes (and
	// the granularity it reads back in).
	PiecesPerRank int
	// PieceBytes is the real size of one piece.
	PieceBytes int64
	// Verify cross-checks every read-back byte against the generator.
	Verify bool
	// Profiles captures mutex/block profile top entries per point (host
	// timing facts; excluded from deterministic comparisons).
	Profiles bool
	// Progress receives one line per completed point.
	Progress func(string) `json:"-"`
}

// DefaultScale sweeps N in {64, 256, 1024, 4096} at GOMAXPROCS in
// {1, 2, 4, 8} — the acceptance grid of the host-scalability work. The
// piece geometry fills exactly one level-2 segment per rank: a rank's
// drain (and preload) is then a single file-system request departing at
// the common post-barrier instant, so the shared OST queue sees symmetric
// customers and its makespan is host-order-independent. Two or more
// segments per rank would chain the second request off the first's
// queue-position-dependent completion and wobble the virtual time.
func DefaultScale() ScaleOptions {
	return ScaleOptions{
		Procs:         []int{64, 256, 1024, 4096},
		GoMaxProcs:    []int{1, 2, 4, 8},
		PiecesPerRank: 32,
		PieceBytes:    scaleSegSize / 32,
		Verify:        true,
		Profiles:      true,
	}
}

// ScalePoint is one (procs, GOMAXPROCS) cell. Wall-clock, per-op, and
// profile fields are host-timing facts and vary run to run; the virtual
// time, request counts, and trace length are seed-deterministic.
type ScalePoint struct {
	Procs      int
	GoMaxProcs int

	// Host timing (nondeterministic).
	WallNs      int64
	NsPerOp     int64
	BytesPerOp  int64
	AllocsPerOp int64
	MutexTop    []string
	BlockTop    []string

	// Deterministic (diffed by the CI scale-smoke job).
	VirtualNs   int64
	FSWrites    int64
	FSReads     int64
	TraceEvents int64
	Result      string
}

// scaleByte is the ground truth for piece i, byte b of rank r.
func scaleByte(r int, i int, b int64) byte {
	return byte(r*131 + i*29 + int(b)*11 + 7)
}

// scaleOff is the file offset of piece i of rank r: rank r writes the
// segments owned by rank (r+1) mod P, block-cyclically (block = one
// segment, stride = P segments), filling each block with consecutive
// pieces. Every level-1 ship is then a genuine cross-rank one-sided put,
// but each owner's window lock has exactly one customer — the discipline
// that keeps virtual time deterministic under host concurrency (see
// DESIGN.md: shared-resource customers must stay symmetric between
// barriers).
func scaleOff(r, i, p int, pieceBytes int64) int64 {
	perSeg := int(scaleSegSize / pieceBytes)
	block := i / perSeg
	piece := i % perSeg
	seg := int64((r+1)%p) + int64(block)*int64(p)
	return seg*scaleSegSize + int64(piece)*pieceBytes
}

// scaleWant inverts scaleOff: the expected byte at file offset fo.
func scaleWant(fo int64, p int, pieceBytes int64) byte {
	perSeg := int(scaleSegSize / pieceBytes)
	seg := fo / scaleSegSize
	owner := int(seg % int64(p))
	r := (owner - 1 + p) % p
	i := int(seg/int64(p))*perSeg + int(fo%scaleSegSize)/int(pieceBytes)
	return scaleByte(r, i, fo%pieceBytes)
}

// scalePhases is the number of barrier-separated phases of the write loop.
const scalePhases = 4

// scaleSegSize is the level-2 segment size of the scale program: small, so
// thousands of ranks fit real memory while every piece still crosses the
// ship path.
const scaleSegSize = 8192

// runScalePoint executes the strided write + contiguous read program once
// at the given rank count and returns the deterministic columns.
func runScalePoint(opts ScaleOptions, procs int) (ScalePoint, error) {
	pt := ScalePoint{Procs: procs}
	env, err := NewEnv(256)
	if err != nil {
		return pt, err
	}
	fileBytes := opts.PieceBytes * int64(opts.PiecesPerRank) * int64(procs)
	numSeg := int((fileBytes + int64(procs)*scaleSegSize - 1) / (int64(procs) * scaleSegSize))
	rec := trace.New(0)
	tc := tcio.Config{
		SegmentSize:  scaleSegSize,
		NumSegments:  numSeg,
		DrainWorkers: 2,
		Trace:        rec,
	}
	const name = "scale"
	run := func(fn func(*mpi.Comm) error) (mpi.Report, error) {
		return mpi.Run(env.world(procs, false), fn)
	}

	// Write phase: each rank writes its strided pieces, with a collective
	// barrier between phases and one ring exchange per phase boundary (the
	// first exact-source, later ones AnySource — both mailbox paths stay
	// hot).
	wrep, err := run(func(c *mpi.Comm) error {
		h, err := tcio.Open(c, name, tcio.WriteMode, tc)
		if err != nil {
			return err
		}
		p := c.Size()
		buf := make([]byte, opts.PieceBytes)
		phase := opts.PiecesPerRank / scalePhases
		if phase < 1 {
			phase = 1
		}
		for i := 0; i < opts.PiecesPerRank; i++ {
			if i > 0 && i%phase == 0 {
				// Ring first, barrier second: the receive arrivals are
				// host-order-assigned within a deterministic multiset, and
				// the barrier's max collapses them before any rank touches a
				// shared NIC port again.
				if err := scaleRing(c, i/phase); err != nil {
					return err
				}
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			off := scaleOff(c.Rank(), i, p, opts.PieceBytes)
			for b := range buf {
				buf[b] = scaleByte(c.Rank(), i, int64(b))
			}
			if err := h.WriteAt(off, buf); err != nil {
				return err
			}
		}
		return h.Close()
	})
	if err != nil {
		pt.Result = failReason(err)
		return pt, nil
	}

	// Read phase: each rank scans its contiguous 1/P of the file back.
	// Reads are lazy — destinations are recorded piece by piece and the
	// bytes land on Fetch — so each piece targets its own slice of one
	// chunk-sized buffer and verification runs after the fetch.
	rrep, err := run(func(c *mpi.Comm) error {
		h, err := tcio.Open(c, name, tcio.ReadMode, tc)
		if err != nil {
			return err
		}
		// Open's preload leaves each rank at a host-order-assigned point of
		// the FS completion multiset; synchronize before the fetch traffic
		// shares NIC ports so the gets depart symmetrically.
		if err := c.Barrier(); err != nil {
			return err
		}
		chunk := fileBytes / int64(c.Size())
		base := int64(c.Rank()) * chunk
		buf := make([]byte, chunk)
		for off := int64(0); off < chunk; off += opts.PieceBytes {
			if err := h.ReadAt(base+off, buf[off:off+opts.PieceBytes]); err != nil {
				return err
			}
		}
		if err := h.Fetch(); err != nil {
			return err
		}
		if opts.Verify {
			for b, got := range buf {
				fo := base + int64(b)
				if want := scaleWant(fo, c.Size(), opts.PieceBytes); got != want {
					return fmt.Errorf("rank %d offset %d: got %#x want %#x",
						c.Rank(), fo, got, want)
				}
			}
		}
		return h.Close()
	})
	if err != nil {
		pt.Result = failReason(err)
		return pt, nil
	}

	pt.VirtualNs = int64(wrep.MaxTime) + int64(rrep.MaxTime)
	// FS stats accumulate across both worlds of the point; the read phase's
	// report carries the final totals.
	pt.FSWrites = rrep.FS.Writes
	pt.FSReads = rrep.FS.Reads
	pt.TraceEvents = int64(rec.Len())
	pt.Result = "ok"
	return pt, nil
}

// scaleRing is the per-phase mailbox workout: the first round receives
// with an exact source, later rounds with AnySource (exactly one sender
// targets each rank per round, so the wildcard match is deterministic).
func scaleRing(c *mpi.Comm, round int) error {
	p := c.Size()
	if p < 2 {
		return nil
	}
	payload := []byte{byte(c.Rank()), byte(round)}
	if err := c.Send((c.Rank()+1)%p, round, payload); err != nil {
		return err
	}
	src := (c.Rank() - 1 + p) % p
	if round > 1 {
		src = mpi.AnySource
	}
	data, err := c.Recv(src, round)
	if err != nil {
		return err
	}
	c.Recycle(data)
	return nil
}

// Scale runs the full sweep and tabulates it. Points run sequentially;
// GOMAXPROCS is restored afterwards.
func Scale(opts ScaleOptions) (stats.Table, []ScalePoint, error) {
	if len(opts.Procs) == 0 {
		opts.Procs = DefaultScale().Procs
	}
	if len(opts.GoMaxProcs) == 0 {
		opts.GoMaxProcs = DefaultScale().GoMaxProcs
	}
	if opts.PiecesPerRank == 0 {
		opts.PiecesPerRank = DefaultScale().PiecesPerRank
	}
	if opts.PieceBytes == 0 {
		opts.PieceBytes = DefaultScale().PieceBytes
	}
	// Exactly one segment per rank: fewer pieces would leave holes inside
	// the contiguous region the read phase verifies; more would split a
	// rank's drain into serially chained file-system requests whose
	// later departures depend on host-order queue positions, breaking the
	// determinism of the virtual-time columns (see DefaultScale).
	if perSeg := int(scaleSegSize / opts.PieceBytes); opts.PiecesPerRank != perSeg {
		opts.PiecesPerRank = perSeg
	}
	t := stats.Table{
		Title: fmt.Sprintf("Host scale: strided write+read, %d pieces x %d B per rank (wall-clock columns are host facts; virtual/count columns are deterministic)",
			opts.PiecesPerRank, opts.PieceBytes),
		Headers: []string{"procs", "gomaxprocs", "wall", "ns/op", "B/op", "allocs/op",
			"virtual-time", "fs-writes", "fs-reads", "trace-events", "mutex-top", "block-top", "result"},
		Host:   []string{"wall", "ns/op", "B/op", "allocs/op", "mutex-top", "block-top"},
		Params: opts,
	}
	var points []ScalePoint
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var prof *profileDelta
	if opts.Profiles {
		prof = newProfileDelta()
		defer prof.stop()
	}

	for _, procs := range opts.Procs {
		for _, g := range opts.GoMaxProcs {
			runtime.GOMAXPROCS(g)
			if prof != nil {
				prof.mark()
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			start := time.Now()
			pt, err := runScalePoint(opts, procs)
			wall := time.Since(start)
			runtime.ReadMemStats(&after)
			if err != nil {
				return t, points, err
			}
			pt.GoMaxProcs = g
			pt.WallNs = wall.Nanoseconds()
			ops := int64(procs) * int64(opts.PiecesPerRank) * 2 // write + read pieces
			pt.NsPerOp = pt.WallNs / ops
			pt.BytesPerOp = int64(after.TotalAlloc-before.TotalAlloc) / ops
			pt.AllocsPerOp = int64(after.Mallocs-before.Mallocs) / ops
			if prof != nil {
				pt.MutexTop, pt.BlockTop = prof.top(3)
			}
			points = append(points, pt)
			t.AddRow(pt.Procs, pt.GoMaxProcs, wall, pt.NsPerOp, pt.BytesPerOp, pt.AllocsPerOp, pt.VirtualNs,
				pt.FSWrites, pt.FSReads, pt.TraceEvents, strings.Join(pt.MutexTop, "; "),
				strings.Join(pt.BlockTop, "; "), pt.Result)
			progressf(opts.Progress, "scale procs=%d gomaxprocs=%d: wall=%v ns/op=%d (%s)",
				pt.Procs, g, wall.Round(time.Millisecond), pt.NsPerOp, pt.Result)
		}
	}
	return t, points, nil
}

// profileDelta captures per-point mutex/block contention: profiles
// accumulate process-wide, so each point subtracts the cycles already
// attributed at its start.
type profileDelta struct {
	prevMutex map[string]int64
	prevBlock map[string]int64
	curMutex  map[string]int64
	curBlock  map[string]int64
}

func newProfileDelta() *profileDelta {
	runtime.SetMutexProfileFraction(1)
	runtime.SetBlockProfileRate(10_000) // one sample per 10µs blocked
	return &profileDelta{}
}

func (p *profileDelta) stop() {
	runtime.SetMutexProfileFraction(0)
	runtime.SetBlockProfileRate(0)
}

// mark snapshots the cumulative profiles at a point's start.
func (p *profileDelta) mark() {
	p.prevMutex = collectProfile(runtime.MutexProfile)
	p.prevBlock = collectProfile(runtime.BlockProfile)
}

// top returns the n hottest sites of each profile since the last mark.
func (p *profileDelta) top(n int) (mutexTop, blockTop []string) {
	p.curMutex = collectProfile(runtime.MutexProfile)
	p.curBlock = collectProfile(runtime.BlockProfile)
	return topSites(p.curMutex, p.prevMutex, n), topSites(p.curBlock, p.prevBlock, n)
}

// collectProfile aggregates a runtime profile's cycles by contention site.
func collectProfile(get func([]runtime.BlockProfileRecord) (int, bool)) map[string]int64 {
	records := make([]runtime.BlockProfileRecord, 64)
	for {
		n, ok := get(records)
		if ok {
			records = records[:n]
			break
		}
		records = make([]runtime.BlockProfileRecord, len(records)*2)
	}
	out := make(map[string]int64)
	for _, r := range records {
		out[siteOf(r.Stack())] += r.Cycles
	}
	return out
}

// siteOf names a contention record by its first frame outside the runtime
// and sync packages — the project function that held or waited on the lock.
func siteOf(stk []uintptr) string {
	frames := runtime.CallersFrames(stk)
	fallback := ""
	for {
		f, more := frames.Next()
		if f.Function == "" {
			break
		}
		if fallback == "" {
			fallback = f.Function
		}
		if !strings.HasPrefix(f.Function, "runtime.") && !strings.HasPrefix(f.Function, "sync.") {
			return f.Function
		}
		if !more {
			break
		}
	}
	if fallback == "" {
		return "unknown"
	}
	return fallback
}

// topSites returns the n sites with the largest cycle delta, formatted as
// "site cycles".
func topSites(cur, prev map[string]int64, n int) []string {
	type kv struct {
		site   string
		cycles int64
	}
	var all []kv
	for site, c := range cur {
		if d := c - prev[site]; d > 0 {
			all = append(all, kv{site, d})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].cycles != all[j].cycles {
			return all[i].cycles > all[j].cycles
		}
		return all[i].site < all[j].site
	})
	if len(all) > n {
		all = all[:n]
	}
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = fmt.Sprintf("%s %d", e.site, e.cycles)
	}
	return out
}

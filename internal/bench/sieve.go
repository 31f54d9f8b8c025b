package bench

// This file implements the noncontiguous-read sweep: hole-y read workloads
// run through the data-sieving read engine (tcio.Config.SieveBuffer) and the
// two-phase collective read (tcio.Config.CollectiveRead) while the sieve
// budget, the hole density, and the interleave granule vary.
//
// Two workloads bracket the engine's trade-offs:
//
//   - "holes": every rank reads granule-sized runs from its own contiguous,
//     segment-aligned quarter of the file, skipping a density-controlled
//     subset of granules. Each level-2 segment is demanded by exactly one
//     rank, so per-segment populate work — and every fault roll it keys —
//     is a pure function of the pattern. The sweep pits per-run list I/O
//     (SieveBuffer=1) against covering sieve reads at growing budgets: the
//     covering read saves (runs-1) request setups per segment and pays for
//     the holes it drags in, so sieving wins while hole bytes stay cheaper
//     than the saved setups.
//
//   - "interleave": granule g deals every block of the file to rank
//     (block mod P), so all ranks demand every segment. Independently, each
//     rank sieves only its own runs — up to P partial populates per segment
//     under the owner's lock. The two-phase collective read instead merges
//     all ranks' intents in one allgather; each owner then populates its
//     segments' union in one pass. The finer the granule, the more
//     redundant per-rank covering reads the exchange replaces.
//
// Bytes are verified against the generator at every setting; neither
// sieving nor the collective exchange may change a single byte read.

import (
	"fmt"
	"sync"

	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/stats"
	"github.com/tcio/tcio/internal/tcio"
)

// SieveOptions configures the noncontiguous-read sweep.
type SieveOptions struct {
	// Procs is the process count of each run.
	Procs int
	// SegSize is the real level-2 segment size in bytes.
	SegSize int64
	// SegsPerRank is the number of level-2 segments per process; the file
	// is exactly Procs x SegsPerRank segments.
	SegsPerRank int
	// HoleGranule is the real block size of the holes workload.
	HoleGranule int64
	// Densities lists hole percentages for the holes workload.
	Densities []int
	// Budgets lists the real SieveBuffer settings swept by the holes
	// workload (0 = whole-segment populate, 1 = per-run list I/O).
	Budgets []int64
	// Granules lists the real interleave block sizes for the collective
	// comparison.
	Granules []int64
	// Scale is the environment byte scale (simulated bytes per real byte).
	Scale int64
	// Verify makes every rank check each byte it read against the
	// generator.
	Verify bool
	// Progress receives one line per completed run.
	Progress func(string) `json:"-"`
}

// DefaultSieve sweeps hole densities 25/50/75% against four sieve budgets
// and interleave granules of 4/16/64 KiB (simulated) against the two-phase
// collective read, over 8 processes and 256 KiB (simulated) segments.
func DefaultSieve() SieveOptions {
	return SieveOptions{
		Procs:       8,
		SegSize:     16 << 10,
		SegsPerRank: 4,
		HoleGranule: 256,
		Densities:   []int{25, 50, 75},
		Budgets:     []int64{0, 1, 4 << 10, 16 << 10},
		Granules:    []int64{256, 1 << 10, 4 << 10},
		Scale:       16,
		Verify:      true,
	}
}

// SievePoint is one setting's result. Sizes are simulated bytes.
type SievePoint struct {
	Workload      string // "holes" or "interleave"
	HolePct       int
	Granule       int64
	SieveBuffer   int64
	Collective    bool
	VirtualTimeNs int64
	MBs           float64
	FSReads       int64
	SieveReads    int64
	SieveWaste    int64
	Exchanges     int64
	Populations   int64
	Result        string
}

// sieveByte is the workload's deterministic content generator.
func sieveByte(off int64) byte {
	x := uint64(off)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	x ^= x >> 31
	return byte(x * 0x9E3779B97F4A7C15 >> 56)
}

// sieveHole decides, as a pure function of the block index and the density,
// whether the holes workload skips a granule.
func sieveHole(block int64, pct int) bool {
	x := uint64(block+1) * 0xD1342543DE82EF95
	x ^= x >> 32
	x *= 0x2545F4914F6CDD1D
	return int(x>>33%100) < pct
}

// sieveRun is one contiguous read of the workload's access pattern.
type sieveRun struct{ off, n int64 }

// holeRuns builds one rank's coalesced runs for the holes workload: granule
// blocks of the rank's contiguous quarter, minus the density-selected holes.
func holeRuns(opts SieveOptions, rank, pct int) []sieveRun {
	perRank := opts.SegSize * int64(opts.SegsPerRank)
	lo, hi := int64(rank)*perRank, int64(rank+1)*perRank
	var runs []sieveRun
	for off := lo; off < hi; off += opts.HoleGranule {
		if sieveHole(off/opts.HoleGranule, pct) {
			continue
		}
		if n := len(runs); n > 0 && runs[n-1].off+runs[n-1].n == off {
			runs[n-1].n += opts.HoleGranule
			continue
		}
		runs = append(runs, sieveRun{off, opts.HoleGranule})
	}
	return runs
}

// interleaveRuns builds one rank's runs for the interleave workload: every
// granule block dealt round-robin to the rank.
func interleaveRuns(opts SieveOptions, rank int, granule int64) []sieveRun {
	fileBytes := opts.SegSize * int64(opts.SegsPerRank) * int64(opts.Procs)
	var runs []sieveRun
	for off := int64(rank) * granule; off < fileBytes; off += granule * int64(opts.Procs) {
		runs = append(runs, sieveRun{off, granule})
	}
	return runs
}

// sieveSeed writes the ground-truth file image through the library once per
// environment: rank r writes its contiguous quarter in segment-size pieces.
func sieveSeed(opts SieveOptions, env *Env, name string) error {
	cfg := tcio.Config{SegmentSize: opts.SegSize, NumSegments: opts.SegsPerRank}
	_, err := mpi.Run(env.world(opts.Procs, false), func(c *mpi.Comm) error {
		handle, err := tcio.Open(c, name, tcio.WriteMode, cfg)
		if err != nil {
			return err
		}
		perRank := opts.SegSize * int64(opts.SegsPerRank)
		base := int64(c.Rank()) * perRank
		buf := make([]byte, opts.SegSize)
		for off := int64(0); off < perRank; off += opts.SegSize {
			for i := range buf {
				buf[i] = sieveByte(base + off + int64(i))
			}
			if err := handle.WriteAt(base+off, buf); err != nil {
				return err
			}
		}
		return handle.Close()
	})
	return err
}

// sieveRead runs one read setting against the seeded file: every rank
// issues its runs lazily, fetches once (a collective call when the
// two-phase exchange is on), closes, and verifies the bytes it read.
func sieveRead(opts SieveOptions, env *Env, name string, runsFor func(rank int) []sieveRun,
	budget int64, collective bool) (PhaseResult, tcio.Stats) {
	env.FS.Reset()
	var readBytes int64
	for r := 0; r < opts.Procs; r++ {
		for _, run := range runsFor(r) {
			readBytes += run.n
		}
	}
	pr := PhaseResult{Method: MethodTCIO, Procs: opts.Procs, SimBytes: readBytes * opts.Scale}
	cfg := tcio.Config{
		SegmentSize:    opts.SegSize,
		NumSegments:    opts.SegsPerRank,
		DemandPopulate: true,
		SieveBuffer:    budget,
		CollectiveRead: collective,
	}
	var mu sync.Mutex
	var agg tcio.Stats
	pr.record(mpi.Run(env.world(opts.Procs, false), func(c *mpi.Comm) error {
		handle, err := tcio.Open(c, name, tcio.ReadMode, cfg)
		if err != nil {
			return err
		}
		runs := runsFor(c.Rank())
		var total int64
		for _, run := range runs {
			total += run.n
		}
		buf := make([]byte, total)
		at := int64(0)
		for _, run := range runs {
			if err := handle.ReadAt(run.off, buf[at:at+run.n]); err != nil {
				return err
			}
			at += run.n
		}
		if err := handle.Fetch(); err != nil {
			return err
		}
		if err := handle.Close(); err != nil {
			return err
		}
		st := handle.Stats()
		mu.Lock()
		agg.SieveReads += st.SieveReads
		agg.SieveWasteBytes += st.SieveWasteBytes
		agg.TwoPhaseExchanges += st.TwoPhaseExchanges
		agg.Populations += st.Populations
		agg.Retries += st.Retries
		mu.Unlock()
		if opts.Verify {
			at = 0
			for _, run := range runs {
				for i := int64(0); i < run.n; i++ {
					if got, want := buf[at+i], sieveByte(run.off+i); got != want {
						return fmt.Errorf("rank %d offset %d: got %#x want %#x",
							c.Rank(), run.off+i, got, want)
					}
				}
				at += run.n
			}
		}
		return nil
	}))
	return pr, agg
}

// validateSieve checks the sweep's alignment preconditions.
func validateSieve(opts SieveOptions) error {
	if opts.Procs < 1 || opts.SegsPerRank < 1 {
		return fmt.Errorf("bench: %d procs, %d segments per rank", opts.Procs, opts.SegsPerRank)
	}
	if opts.HoleGranule < 1 || opts.SegSize%opts.HoleGranule != 0 {
		return fmt.Errorf("bench: segment size %d not a multiple of hole granule %d",
			opts.SegSize, opts.HoleGranule)
	}
	fileBytes := opts.SegSize * int64(opts.SegsPerRank) * int64(opts.Procs)
	for _, g := range opts.Granules {
		if g < 1 || fileBytes%g != 0 {
			return fmt.Errorf("bench: file size %d not a multiple of granule %d", fileBytes, g)
		}
	}
	for _, b := range opts.Budgets {
		if b < 0 {
			return fmt.Errorf("bench: sieve budget %d", b)
		}
	}
	return nil
}

// sieveBudgetLabel renders a budget for the table: simulated bytes, with
// the two degenerate settings named.
func sieveBudgetLabel(opts SieveOptions, budget int64) string {
	switch budget {
	case 0:
		return "off(segment)"
	case 1:
		return "1(list-I/O)"
	}
	return fmt.Sprintf("%d", budget*opts.Scale)
}

// Sieve runs the full sweep: the holes workload over every (density,
// budget) cell, then the interleave workload over every granule with the
// two-phase collective read off and on. It returns the two tables and
// every cell's point.
func Sieve(opts SieveOptions) ([]stats.Table, []SievePoint, error) {
	if err := validateSieve(opts); err != nil {
		return nil, nil, err
	}
	var points []SievePoint
	// measure seeds a fresh environment, runs one read setting and records
	// its point.
	measure := func(p SievePoint, runsFor func(rank int) []sieveRun, budget int64) (SievePoint, error) {
		env, err := NewEnv(opts.Scale)
		if err == nil {
			err = sieveSeed(opts, env, "sieve.dat")
		}
		if err != nil {
			return p, err
		}
		pr, st := sieveRead(opts, env, "sieve.dat", runsFor, budget, p.Collective)
		p.SieveBuffer, p.VirtualTimeNs, p.MBs = budget*opts.Scale, int64(pr.Time), pr.MBs
		p.FSReads, p.SieveReads, p.SieveWaste = pr.FS.Reads, st.SieveReads, st.SieveWasteBytes*opts.Scale
		p.Exchanges, p.Populations, p.Result = st.TwoPhaseExchanges, st.Populations, pr.Result()
		points = append(points, p)
		return p, nil
	}
	holes := stats.Table{
		Title: fmt.Sprintf("Data sieving: hole-y reads, %d processes, %d B simulated segments",
			opts.Procs, opts.SegSize*opts.Scale),
		Headers: []string{"holes%", "sieve-buf", "time", "MB/s", "fs-reads",
			"sieve-reads", "waste-bytes", "populations", "exchanges", "result"},
		Host:   []string{"time", "MB/s"},
		Params: opts,
	}
	for _, pct := range opts.Densities {
		runsFor := func(rank int) []sieveRun { return holeRuns(opts, rank, pct) }
		for _, budget := range opts.Budgets {
			p, err := measure(SievePoint{Workload: "holes", HolePct: pct}, runsFor, budget)
			if err != nil {
				return nil, nil, err
			}
			label := sieveBudgetLabel(opts, budget)
			holes.AddRow(pct, label, simtime.Duration(p.VirtualTimeNs), stats.FmtMBs(p.MBs), p.FSReads,
				p.SieveReads, p.SieveWaste, p.Populations, p.Exchanges, p.Result)
			progressf(opts.Progress, "sieve holes=%d%% buf=%s: %v fs-reads=%d (%s)",
				pct, label, simtime.Duration(p.VirtualTimeNs), p.FSReads, p.Result)
		}
	}
	// Which rank populates which part of a shared segment is a scheduling
	// fact in the independent interleave, so its read counters are too.
	inter := stats.Table{
		Title: fmt.Sprintf("Two-phase collective read: granule-interleaved reads, %d processes",
			opts.Procs),
		Headers: []string{"granule", "mode", "time", "MB/s", "fs-reads",
			"sieve-reads", "waste-bytes", "exchanges", "populations", "result"},
		Host:   []string{"time", "MB/s", "fs-reads", "sieve-reads", "waste-bytes", "populations"},
		Params: opts,
	}
	for _, granule := range opts.Granules {
		runsFor := func(rank int) []sieveRun { return interleaveRuns(opts, rank, granule) }
		for _, collective := range []bool{false, true} {
			p, err := measure(SievePoint{Workload: "interleave", Granule: granule * opts.Scale,
				Collective: collective}, runsFor, opts.SegSize)
			if err != nil {
				return nil, nil, err
			}
			mode := "independent"
			if collective {
				mode = "collective"
			}
			inter.AddRow(p.Granule, mode, simtime.Duration(p.VirtualTimeNs), stats.FmtMBs(p.MBs), p.FSReads,
				p.SieveReads, p.SieveWaste, p.Exchanges, p.Populations, p.Result)
			progressf(opts.Progress, "sieve interleave granule=%d %s: %v fs-reads=%d (%s)",
				p.Granule, mode, simtime.Duration(p.VirtualTimeNs), p.FSReads, p.Result)
		}
	}
	return []stats.Table{holes, inter}, points, nil
}

// SieveChaos runs a reduced sweep under deterministic fault injection and
// tabulates only seed-deterministic counts, so two runs with the same seed
// emit byte-identical tables — the CI reproducibility check for the sieved
// read path. The settings are chosen so every FS read is a pure function of
// the pattern: in the holes workload each segment is demanded by exactly
// one rank, and the collective interleave's owners populate their segments'
// merged intents. (The independent interleave is deliberately absent — which
// rank populates which part of a shared segment is scheduling-dependent.)
func SieveChaos(opts SieveOptions, seed int64) (stats.Table, error) {
	if err := validateSieve(opts); err != nil {
		return stats.Table{}, err
	}
	t := newChaosTable("sieve", fmt.Sprintf("Noncontiguous-read chaos: %d processes, seed %d (counts are seed-deterministic)",
		opts.Procs, seed), seed, opts.Progress, opts, []string{"workload", "setting", "sieve-buf"},
		[]string{"retries", "fs-reads", "sieve-reads", "waste-bytes", "exchanges"})
	holes := func(rank int) []sieveRun { return holeRuns(opts, rank, 50) }
	granule := opts.Granules[0]
	cells := []struct {
		workload, setting string
		budget            int64
		collective        bool
		runsFor           func(rank int) []sieveRun
	}{
		{"holes", "50%", 1, false, holes},
		{"holes", "50%", opts.SegSize, false, holes},
		{"interleave", fmt.Sprintf("%dB", granule*opts.Scale), opts.SegSize, true,
			func(rank int) []sieveRun { return interleaveRuns(opts, rank, granule) }},
	}
	for _, c := range cells {
		key := []any{c.workload, c.setting, sieveBudgetLabel(opts, c.budget)}
		err := t.cell(opts.Scale, 0, key, func(env *Env) (int64, []any, string, error) {
			if err := sieveSeed(opts, env, "sieve.dat"); err != nil {
				return 0, nil, "", err
			}
			pr, st := sieveRead(opts, env, "sieve.dat", c.runsFor, c.budget, c.collective)
			return env.Faults.TotalInjected(), []any{st.Retries, pr.FS.Reads, st.SieveReads,
				st.SieveWasteBytes * opts.Scale, st.TwoPhaseExchanges}, pr.Result(), nil
		})
		if err != nil {
			return t.Table, err
		}
	}
	return t.Table, nil
}

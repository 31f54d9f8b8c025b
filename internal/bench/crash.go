package bench

// The crash/out-of-core sweep (-crash): two experiments over the journaled
// level-2 tier, both fully seed-deterministic so CI can diff two runs.
//
// The out-of-core experiment runs a strided write workload on a machine
// whose enforced per-node memory cannot hold the level-2 windows: the
// unbudgeted configuration must die with the typed out-of-memory error,
// while every budgeted configuration completes byte-exactly by spilling
// journaled segments and re-faulting them at drain time — the workload OCIO
// (which must buffer entire windows) cannot run at this memory point.
//
// The crash experiment runs the same workload cleanly under a pfs operation
// log, then replays the log at several seed-drawn virtual kill instants,
// runs tcio.Recover over each reconstructed disk, and verifies the result
// against the committed-prefix expectation (a byte appears iff its owner's
// journal committed the byte's flush epoch by the kill instant, or the
// owner's journal was already durably truncated).

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/pfs"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/stats"
	"github.com/tcio/tcio/internal/tcio"
	"github.com/tcio/tcio/internal/wal"
)

// CrashOptions configures the crash/out-of-core sweep.
type CrashOptions struct {
	// Seed drives the kill-instant draws.
	Seed int64
	// Procs is the rank count of every run.
	Procs int
	// Kills is the number of crash instants replayed per configuration.
	Kills int
	// SegmentSize and NumSegments shape the level-2 windows.
	SegmentSize int64
	NumSegments int
	// Blocks is the number of 16-byte blocks each rank writes, round-robin
	// interleaved across ranks; Rounds splits them into flush epochs.
	Blocks int
	Rounds int
	// Budgets lists the resident-segment budgets to sweep. 0 means
	// unbudgeted: expected to OOM in the out-of-core experiment, and run
	// journal-only (no spill) in the crash experiment.
	Budgets []int64
	// MemPerNode and CoresPerNode define the constrained machine of the
	// out-of-core experiment.
	MemPerNode   int64
	CoresPerNode int
	// Verify makes every completing run check its bytes.
	Verify bool
	// Progress receives one line per completed configuration.
	Progress func(string) `json:"-"`
}

// DefaultCrash returns the sweep reported in EXPERIMENTS.md: 8 ranks two to
// a node, 16 KiB of level-2 window per rank against 32 KiB nodes, budgets
// of 0 / 2 / 8 segments, six kills per configuration.
func DefaultCrash() CrashOptions {
	return CrashOptions{
		Seed:         1,
		Procs:        8,
		Kills:        6,
		SegmentSize:  256,
		NumSegments:  64,
		Blocks:       192,
		Rounds:       4,
		Budgets:      []int64{0, 2, 8},
		MemPerNode:   32 << 10,
		CoresPerNode: 2,
		Verify:       true,
	}
}

// CrashRow is one configuration's outcome.
type CrashRow struct {
	Experiment   string // "out-of-core" or "crash"
	BudgetSegs   int64
	Result       string
	PeakMemory   int64
	Spills       int64
	CleanDrops   int64
	RefaultBytes int64
	JournalBytes int64
	Epochs       int64
	Commits      int64
	Kills        int
	KillsOK      int
}

// addStats sums the ranks' spill and journal counters into the row.
func (row *CrashRow) addStats(sts []tcio.Stats) {
	for _, s := range sts {
		row.Spills += s.SpillSegments
		row.CleanDrops += s.CleanDrops
		row.RefaultBytes += s.SpillRefaultBytes
		row.JournalBytes += s.JournalBytes
		row.Epochs += s.JournalEpochs
		row.Commits += s.JournalCommits
	}
}

const crashFile = "crash.dat"

// crashByte is the deterministic payload generator of the sweep's workload.
func crashByte(rank, block, j int) byte { return byte(rank*31 + block*7 + j + 5) }

// crashImage is the complete file image the workload produces.
func crashImage(procs, blocks int) []byte {
	out := make([]byte, procs*blocks*16)
	for r := 0; r < procs; r++ {
		for i := 0; i < blocks; i++ {
			base := (i*procs + r) * 16
			for j := 0; j < 16; j++ {
				out[base+j] = crashByte(r, i, j)
			}
		}
	}
	return out
}

// crashWorkload writes each rank's blocks round-robin interleaved, flushing
// between the workload's rounds (the final round's runs journal at Close).
func crashWorkload(c *mpi.Comm, f *tcio.File, blocks, rounds int) error {
	per := (blocks + rounds - 1) / rounds
	for i := 0; i < blocks; i++ {
		pos := int64((i*c.Size() + c.Rank()) * 16)
		var buf [16]byte
		for j := range buf {
			buf[j] = crashByte(c.Rank(), i, j)
		}
		if err := f.WriteAt(pos, buf[:]); err != nil {
			return err
		}
		if (i+1)%per == 0 && i+1 < blocks {
			if err := f.Flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Crash runs the sweep and tabulates both experiments. Every reported
// quantity is a pure function of the options (virtual-time kill draws
// included), so two sweeps with the same options emit identical tables.
func Crash(opts CrashOptions) (stats.Table, []CrashRow, error) {
	if opts.Kills < 1 {
		opts.Kills = 1
	}
	t := stats.Table{
		Title: fmt.Sprintf("Crash/out-of-core sweep: %d ranks, %d kills, seed %d (all columns seed-deterministic)",
			opts.Procs, opts.Kills, opts.Seed),
		Headers: []string{"experiment", "budget-segs", "result", "peak-mem",
			"spills", "clean-drops", "refault-B", "journal-B", "epochs", "commits", "kills", "kills-ok"},
		Params: opts,
	}
	var rows []CrashRow
	add := func(row CrashRow) {
		rows = append(rows, row)
		t.AddRow(row.Experiment, row.BudgetSegs, row.Result, row.PeakMemory, row.Spills, row.CleanDrops,
			row.RefaultBytes, row.JournalBytes, row.Epochs, row.Commits, row.Kills, row.KillsOK)
		progressf(opts.Progress, "crash %s budget=%d: %s", row.Experiment, row.BudgetSegs, row.Result)
	}
	for _, budget := range opts.Budgets {
		add(crashOOMPoint(opts, budget))
	}
	for _, budget := range opts.Budgets {
		add(crashKillPoint(opts, budget))
	}
	return t, rows, nil
}

// crashOOMPoint runs one out-of-core configuration on the constrained
// machine with memory enforcement armed.
func crashOOMPoint(opts CrashOptions, budgetSegs int64) CrashRow {
	row := CrashRow{Experiment: "out-of-core", BudgetSegs: budgetSegs}
	m := cluster.Lonestar()
	m.CoresPerNode = opts.CoresPerNode
	m.MemPerNode = opts.MemPerNode
	fs := pfs.New(pfs.DefaultConfig())
	cfg := tcio.Config{SegmentSize: opts.SegmentSize, NumSegments: opts.NumSegments}
	if budgetSegs > 0 {
		cfg.SegmentMemoryBudget = budgetSegs * opts.SegmentSize
	}
	sts := make([]tcio.Stats, opts.Procs)
	mrep, err := mpi.Run(mpi.Config{Procs: opts.Procs, Machine: m, FS: fs, EnforceMemory: true},
		func(c *mpi.Comm) error {
			f, err := tcio.Open(c, crashFile, tcio.WriteMode, cfg)
			if err != nil {
				return err
			}
			if err := crashWorkload(c, f, opts.Blocks, opts.Rounds); err != nil {
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			sts[c.Rank()] = f.Stats()
			return nil
		})
	row.PeakMemory = mrep.PeakMemory
	row.addStats(sts)
	switch {
	case budgetSegs == 0 && errors.Is(err, cluster.ErrOutOfMemory):
		row.Result = "OOM (windows exceed node memory)"
	case budgetSegs == 0:
		row.Result = fmt.Sprintf("UNEXPECTED: wanted OOM, got %v", err)
	case err != nil:
		row.Result = fmt.Sprintf("FAILED: %v", err)
	case opts.Verify && !bytes.Equal(fs.Open(crashFile).Snapshot(), crashImage(opts.Procs, opts.Blocks)):
		row.Result = "CORRUPT: image diverged"
	default:
		row.Result = "ok"
	}
	return row
}

// crashKillPoint runs one crash configuration: a clean logged run, then
// Kills replay-recover-verify cycles.
func crashKillPoint(opts CrashOptions, budgetSegs int64) CrashRow {
	row := CrashRow{Experiment: "crash", BudgetSegs: budgetSegs, Kills: opts.Kills}
	fs := pfs.New(pfs.DefaultConfig())
	log := &pfs.Oplog{}
	fs.SetOplog(log)
	cfg := tcio.Config{
		SegmentSize: opts.SegmentSize, NumSegments: opts.NumSegments, Journal: true,
	}
	if budgetSegs > 0 {
		cfg.SegmentMemoryBudget = budgetSegs * opts.SegmentSize
	}
	sts := make([]tcio.Stats, opts.Procs)
	mrep, err := mpi.Run(mpi.Config{Procs: opts.Procs, FS: fs}, func(c *mpi.Comm) error {
		f, err := tcio.Open(c, crashFile, tcio.WriteMode, cfg)
		if err != nil {
			return err
		}
		if err := crashWorkload(c, f, opts.Blocks, opts.Rounds); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		sts[c.Rank()] = f.Stats()
		return nil
	})
	if err != nil {
		row.Result = fmt.Sprintf("FAILED: %v", err)
		return row
	}
	row.addStats(sts)

	rng := rand.New(rand.NewSource(opts.Seed*1664525 + 1013904223 + budgetSegs))
	m := int64(mrep.MaxTime)
	lo := 3 * m / 10
	span := m - lo + m/20 + 1
	for k := 0; k < opts.Kills; k++ {
		at := simtime.Time(lo + rng.Int63n(span))
		if err := crashVerifyKill(opts, cfg, log, at); err != nil {
			row.Result = fmt.Sprintf("KILL at %v: %v", at, err)
			return row
		}
		row.KillsOK++
	}
	row.Result = "ok"
	return row
}

// crashVerifyKill reconstructs the crash at one instant, recovers, and
// checks the committed-prefix expectation.
func crashVerifyKill(opts CrashOptions, cfg tcio.Config, log *pfs.Oplog, at simtime.Time) error {
	crashed := pfs.New(pfs.DefaultConfig())
	log.ReplayAt(crashed, at)

	// Committed epochs per rank from the crashed journals; a durable
	// truncate means the rank fully drained before the kill.
	committed := make([]map[int64]bool, opts.Procs)
	for rank := 0; rank < opts.Procs; rank++ {
		committed[rank] = make(map[int64]bool)
		wn := tcio.WALFileName(crashFile, rank)
		if !crashed.Exists(wn) {
			continue
		}
		epochs, err := wal.Decode(crashed.Open(wn).Snapshot())
		if err != nil {
			return fmt.Errorf("rank %d journal: %w", rank, err)
		}
		for _, ep := range epochs {
			committed[rank][ep.Seq] = true
		}
	}
	for _, r := range log.Records() {
		if r.Kind != pfs.OpTruncate || r.End > at {
			continue
		}
		for rank := 0; rank < opts.Procs; rank++ {
			if r.Name == tcio.WALFileName(crashFile, rank) {
				for seq := int64(1); seq <= int64(opts.Rounds); seq++ {
					committed[rank][seq] = true
				}
			}
		}
	}

	if _, err := tcio.Recover(crashed, crashFile, cfg); err != nil {
		return fmt.Errorf("recover: %w", err)
	}

	per := (opts.Blocks + opts.Rounds - 1) / opts.Rounds
	expected := make([]byte, opts.Procs*opts.Blocks*16)
	for r := 0; r < opts.Procs; r++ {
		for i := 0; i < opts.Blocks; i++ {
			seq := int64(i/per) + 1
			for j := 0; j < 16; j++ {
				b := int64((i*opts.Procs+r)*16 + j)
				owner := int((b / opts.SegmentSize) % int64(opts.Procs))
				if committed[owner][seq] {
					expected[b] = crashByte(r, i, j)
				}
			}
		}
	}
	got := crashed.Open(crashFile).Snapshot()
	n := int64(len(expected))
	if int64(len(got)) > n {
		n = int64(len(got))
	}
	for i := int64(0); i < n; i++ {
		var g, w byte
		if i < int64(len(got)) {
			g = got[i]
		}
		if i < int64(len(expected)) {
			w = expected[i]
		}
		if g != w {
			return fmt.Errorf("recovered byte %d = %#x, committed-prefix model %#x", i, g, w)
		}
	}
	return nil
}

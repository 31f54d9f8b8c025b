package bench

// This file implements the overlap sweep: the TCIO workload run on a
// multi-OST stripe while the write-behind and read-prefetch pipelines vary.
// The write side is the paper's interleaved workload with
// tcio.Config.WriteBehindThreshold swept against the synchronous baseline;
// the read side is a contiguous-partition sequential read (each rank scans
// its own 1/P of the file, so every segment is demand-populated by exactly
// one, deterministic, rank) with Config.PrefetchSegments swept. Byte
// contents are cross-checked against the workload's ground truth at every
// setting; only the virtual timing is allowed to change.

import (
	"bytes"
	"fmt"
	"sync"

	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/stats"
	"github.com/tcio/tcio/internal/tcio"
)

// OverlapOptions configures the overlap sweep.
type OverlapOptions struct {
	// Procs is the process count of each run.
	Procs int
	// StripeCount is the file's stripe width in OSTs (like
	// DrainSweepOptions, pick one coprime to Procs).
	StripeCount int
	// Workers is TCIO's per-OST drain fan-out for every run.
	Workers int
	// Thresholds lists the WriteBehindThreshold settings to sweep
	// (0 = synchronous baseline).
	Thresholds []float64
	// Prefetch lists the PrefetchSegments settings to sweep (0 = off).
	Prefetch []int
	// LenSim and LenReal size the workload like SweepOptions.
	LenSim  int
	LenReal int
	// Verify cross-checks file bytes (writes) and read-back bytes (reads)
	// against the workload's generator.
	Verify bool
	// Progress receives one line per completed run.
	Progress func(string) `json:"-"`
}

// DefaultOverlap sweeps write-behind thresholds 0/0.5/1 and prefetch
// windows 0/2/8 over a 7-way striped file with 16 processes and a 4-lane
// drain fan-out.
func DefaultOverlap() OverlapOptions {
	return OverlapOptions{
		Procs:       16,
		StripeCount: 7,
		Workers:     4,
		Thresholds:  []float64{0, 0.5, 1},
		Prefetch:    []int{0, 2, 8},
		LenSim:      4 << 20,
		LenReal:     4 << 10,
		Verify:      true,
	}
}

// OverlapWritePoint is one write-behind setting's result.
type OverlapWritePoint struct {
	Threshold      float64
	VirtualTimeNs  int64
	MBs            float64
	EagerDrains    int64
	EagerWrites    int64
	FlushResidue   int64
	OverlapSavedNs int64
	FSWrites       int64
	Retries        int64
	Result         string
}

// OverlapReadPoint is one prefetch setting's result.
type OverlapReadPoint struct {
	Prefetch      int
	VirtualTimeNs int64
	MBs           float64
	Populations   int64
	PrefetchHits  int64
	FSReads       int64
	Retries       int64
	Result        string
}

// overlapPhases is the number of barrier-separated phases of the write
// workload's timestep loop.
const overlapPhases = 8

// overlapCfg is the sweep's fixed workload shape.
func overlapCfg(opts OverlapOptions, name string) SyntheticConfig {
	return SyntheticConfig{
		Method:       MethodTCIO,
		Procs:        opts.Procs,
		TypeArray:    []datatype.Type{datatype.Int, datatype.Double},
		LenArray:     opts.LenReal,
		SizeAccess:   1,
		FileName:     name,
		DrainWorkers: opts.Workers,
	}
}

// fileByte computes the expected byte at a file offset straight from the
// workload definition — the ground truth the sequential readers verify
// against (block k*P+p belongs to process p's k-th iteration).
func fileByte(cfg SyntheticConfig, off int64) byte {
	blockSize := cfg.blockSize()
	block := off / blockSize
	p := int(block % int64(cfg.Procs))
	iter := int(block / int64(cfg.Procs))
	rem := off % blockSize
	for j, typ := range cfg.TypeArray {
		width := typ.Size()
		span := width * int64(cfg.SizeAccess)
		if rem < span {
			e := iter*cfg.SizeAccess + int(rem/width)
			return element(p, j, e, int(rem%width))
		}
		rem -= span
	}
	panic("bench: offset outside block") // unreachable: rem < blockSize
}

// expectedImage renders the whole expected file image from fileByte.
func expectedImage(cfg SyntheticConfig) []byte {
	img := make([]byte, cfg.FileBytes())
	for off := range img {
		img[off] = fileByte(cfg, int64(off))
	}
	return img
}

// overlapStats aggregates tcio's per-rank counters over a run: counts sum,
// the overlap saving is the maximum over ranks (comparable to the
// makespan, which is also a maximum).
type overlapStats struct {
	mu  sync.Mutex
	sum tcio.Stats
}

func (a *overlapStats) add(st tcio.Stats) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sum.EagerDrains += st.EagerDrains
	a.sum.EagerWrites += st.EagerWrites
	a.sum.FlushResidue += st.FlushResidue
	a.sum.Populations += st.Populations
	a.sum.PrefetchIssued += st.PrefetchIssued
	a.sum.PrefetchHits += st.PrefetchHits
	a.sum.PrefetchWasted += st.PrefetchWasted
	a.sum.EpochEvictions += st.EpochEvictions
	a.sum.Retries += st.Retries
	a.sum.FSWrites += st.FSWrites
	if st.OverlapSaved > a.sum.OverlapSaved {
		a.sum.OverlapSaved = st.OverlapSaved
	}
}

// overlapWrite runs the interleaved write workload at one write-behind
// threshold and cross-checks the file image against the ground truth.
func overlapWrite(env *Env, opts OverlapOptions, cfg SyntheticConfig, threshold float64) (PhaseResult, tcio.Stats) {
	env.FS.Reset()
	pr := PhaseResult{Method: MethodTCIO, Procs: cfg.Procs, SimBytes: cfg.FileBytes() * env.Scale}
	var agg overlapStats
	ok := pr.record(mpi.Run(env.world(cfg.Procs, true), func(c *mpi.Comm) error {
		arrays := make([][]byte, len(cfg.TypeArray))
		for j := range arrays {
			a, err := makeArray(c, cfg, j)
			if err != nil {
				return err
			}
			arrays[j] = a
		}
		defer func() {
			for _, a := range arrays {
				c.Free(a)
			}
		}()
		tc := tcioConfigFor(c, cfg)
		tc.WriteBehindThreshold = threshold
		handle, err := tcio.Open(c, cfg.FileName, tcio.WriteMode, tc)
		if err != nil {
			return err
		}
		// Timestep loop: the interleaved write pattern of Program 3, split
		// into phases separated by barriers, like a computational code
		// writing results as it goes. The synchronization points are where
		// write-behind earns its keep — segments finished in earlier phases
		// drain in the background while later phases still compute.
		blockSize := cfg.blockSize()
		phase := cfg.iters() / overlapPhases
		if phase < 1 {
			phase = 1
		}
		for i := 0; i < cfg.iters(); i++ {
			if i > 0 && i%phase == 0 {
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			pos := int64(c.Rank())*blockSize + int64(i)*blockSize*int64(c.Size())
			for j := range arrays {
				width := int(cfg.TypeArray[j].Size())
				lo := i * cfg.SizeAccess * width
				hi := lo + cfg.SizeAccess*width
				if err := handle.WriteAt(pos, arrays[j][lo:hi]); err != nil {
					return err
				}
				pos += int64(cfg.SizeAccess * width)
			}
		}
		cerr := handle.Close()
		agg.add(handle.Stats())
		return cerr
	}))
	if ok && opts.Verify {
		want := expectedImage(cfg)
		got := env.FS.Open(cfg.FileName).Snapshot()
		if int64(len(got)) < int64(len(want)) || !bytes.Equal(got[:len(want)], want) {
			pr.Failed = true
			pr.FailReason = "ground-truth mismatch"
		}
	}
	return pr, agg.sum
}

// overlapRead runs the contiguous-partition sequential read at one
// prefetch setting against the already-written file.
func overlapRead(env *Env, opts OverlapOptions, cfg SyntheticConfig, prefetch int) (PhaseResult, tcio.Stats) {
	env.FS.Reset()
	pr := PhaseResult{Method: MethodTCIO, Procs: cfg.Procs, SimBytes: cfg.FileBytes() * env.Scale}
	var agg overlapStats
	pr.record(mpi.Run(env.world(cfg.Procs, true), func(c *mpi.Comm) error {
		tc := tcioConfigFor(c, cfg)
		tc.DemandPopulate = true
		tc.PrefetchSegments = prefetch
		handle, err := tcio.Open(c, cfg.FileName, tcio.ReadMode, tc)
		if err != nil {
			return err
		}
		chunk := cfg.FileBytes() / int64(c.Size())
		base := int64(c.Rank()) * chunk
		buf, err := c.Malloc(chunk)
		if err != nil {
			return err
		}
		defer c.Free(buf)
		piece := cfg.blockSize()
		for off := int64(0); off < chunk; off += piece {
			n := piece
			if off+n > chunk {
				n = chunk - off
			}
			if err := handle.ReadAt(base+off, buf[off:off+n]); err != nil {
				return err
			}
		}
		if err := handle.Close(); err != nil {
			return err
		}
		agg.add(handle.Stats())
		if opts.Verify {
			for off := int64(0); off < chunk; off++ {
				if got, want := buf[off], fileByte(cfg, base+off); got != want {
					return fmt.Errorf("rank %d offset %d: got %#x want %#x",
						c.Rank(), base+off, got, want)
				}
			}
		}
		return nil
	}))
	return pr, agg.sum
}

// Overlap runs the full sweep and tabulates both sides. The write table
// compares write-behind thresholds against the synchronous baseline; the
// read table compares prefetch windows against pure demand population.
func Overlap(opts OverlapOptions) ([]stats.Table, []OverlapWritePoint, []OverlapReadPoint, error) {
	if len(opts.Thresholds) == 0 {
		opts.Thresholds = DefaultOverlap().Thresholds
	}
	if len(opts.Prefetch) == 0 {
		opts.Prefetch = DefaultOverlap().Prefetch
	}
	scale := int64(opts.LenSim / opts.LenReal)
	wt := stats.Table{
		Title: fmt.Sprintf("Overlap: eager write-behind, %d processes, stripe over %d OSTs, %d drain workers",
			opts.Procs, opts.StripeCount, opts.Workers),
		Headers: []string{"wb-threshold", "write-time", "write-MB/s", "eager-drains",
			"eager-writes", "residue-reqs", "overlap-saved", "fs-writes", "fs-retries", "result"},
		Host: []string{"write-time", "write-MB/s", "eager-drains", "eager-writes",
			"residue-reqs", "overlap-saved", "fs-writes"},
		Params: opts,
	}
	rt := stats.Table{
		Title: fmt.Sprintf("Overlap: sequential read prefetch, %d processes, stripe over %d OSTs, %d drain workers",
			opts.Procs, opts.StripeCount, opts.Workers),
		Headers: []string{"prefetch-segs", "read-time", "read-MB/s", "populations",
			"prefetch-hits", "fs-reads", "fs-retries", "result"},
		Host:   []string{"read-time", "read-MB/s"},
		Params: opts,
	}
	var writes []OverlapWritePoint
	for _, th := range opts.Thresholds {
		env, err := newEnv(scale, opts.StripeCount, nil)
		if err != nil {
			return nil, nil, nil, err
		}
		pr, st := overlapWrite(env, opts, overlapCfg(opts, fmt.Sprintf("overlap-wb-%d", int(th*100))), th)
		p := OverlapWritePoint{Threshold: th, VirtualTimeNs: int64(pr.Time), MBs: pr.MBs,
			EagerDrains: st.EagerDrains, EagerWrites: st.EagerWrites, FlushResidue: st.FlushResidue,
			OverlapSavedNs: int64(st.OverlapSaved), FSWrites: pr.FS.Writes, Retries: pr.FS.Retries,
			Result: pr.Result()}
		writes = append(writes, p)
		wt.AddRow(fmt.Sprintf("%.2f", th), pr.Time, stats.FmtMBs(pr.MBs), p.EagerDrains, p.EagerWrites,
			p.FlushResidue, st.OverlapSaved, p.FSWrites, p.Retries, p.Result)
		progressf(opts.Progress, "overlap write threshold=%.2f: %v eager=%d residue=%d (%s)",
			th, pr.Time, st.EagerDrains, st.FlushResidue, p.Result)
	}

	// One file for the read side, written with the synchronous baseline.
	env, err := newEnv(scale, opts.StripeCount, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := overlapCfg(opts, "overlap-read")
	if pr, _ := overlapWrite(env, opts, cfg, 0); pr.Failed {
		return nil, nil, nil, fmt.Errorf("bench: overlap read-side write failed: %s", pr.FailReason)
	}
	var reads []OverlapReadPoint
	for _, pf := range opts.Prefetch {
		pr, st := overlapRead(env, opts, cfg, pf)
		p := OverlapReadPoint{Prefetch: pf, VirtualTimeNs: int64(pr.Time), MBs: pr.MBs,
			Populations: st.Populations, PrefetchHits: st.PrefetchHits, FSReads: pr.FS.Reads,
			Retries: pr.FS.Retries, Result: pr.Result()}
		reads = append(reads, p)
		rt.AddRow(pf, pr.Time, stats.FmtMBs(pr.MBs), p.Populations, p.PrefetchHits, p.FSReads, p.Retries, p.Result)
		progressf(opts.Progress, "overlap read prefetch=%d: %v hits=%d (%s)", pf, pr.Time, st.PrefetchHits, p.Result)
	}
	return []stats.Table{wt, rt}, writes, reads, nil
}

// OverlapChaos runs the overlap settings under deterministic fault
// injection and tabulates only seed-deterministic counts, so two runs with
// the same seed emit byte-identical tables — the CI reproducibility check.
// Virtual times, eager-drain tallies, and overlap savings are deliberately
// absent: they depend on scheduler interleaving; the request stream's
// identity (and hence every count below) does not. The write side pins
// thresholds 0 and 1 — the two settings whose file system request identity
// is provably bit-identical.
func OverlapChaos(opts OverlapOptions, seed int64) (stats.Table, error) {
	t := newChaosTable("overlap", fmt.Sprintf("Overlap chaos: %d processes, seed %d (counts are seed-deterministic)",
		opts.Procs, seed), seed, opts.Progress, opts, []string{"phase", "setting"},
		[]string{"fs-retries", "fs-writes", "fs-reads", "populations", "prefetch-hits", "alloc-retries"})
	scale := int64(opts.LenSim / opts.LenReal)
	counters := func(pr PhaseResult, st tcio.Stats) []any {
		return []any{pr.FS.Retries, pr.FS.Writes, pr.FS.Reads, st.Populations, st.PrefetchHits, pr.AllocRetries}
	}
	for _, th := range []float64{0, 1} {
		err := t.cell(scale, opts.StripeCount, []any{"write", fmt.Sprintf("wb-threshold=%.0f", th)},
			func(env *Env) (int64, []any, string, error) {
				cfg := overlapCfg(opts, fmt.Sprintf("overlap-chaos-wb-%d", int(th)))
				pr, st := overlapWrite(env, opts, cfg, th)
				return env.Faults.TotalInjected(), counters(pr, st), pr.Result(), nil
			})
		if err != nil {
			return t.Table, err
		}
	}
	for _, pf := range []int{0, 8} {
		err := t.cell(scale, opts.StripeCount, []any{"read", fmt.Sprintf("prefetch=%d", pf)},
			func(env *Env) (int64, []any, string, error) {
				cfg := overlapCfg(opts, fmt.Sprintf("overlap-chaos-pf-%d", pf))
				if pr, _ := overlapWrite(env, opts, cfg, 0); pr.Failed {
					return 0, nil, "", fmt.Errorf("bench: overlap chaos read-side write failed: %s", pr.FailReason)
				}
				before := env.Faults.TotalInjected()
				pr, st := overlapRead(env, opts, cfg, pf)
				return env.Faults.TotalInjected() - before, counters(pr, st), pr.Result(), nil
			})
		if err != nil {
			return t.Table, err
		}
	}
	return t.Table, nil
}

package bench

// This file implements the drain-parallelism sweep: the TCIO workload run
// on a multi-OST file while Config.DrainWorkers varies. The paper's
// environment stripes each file over one OST (Table II), which serializes
// the drain no matter how it is issued; with a wider stripe the per-OST
// worker fan-out of the storage layer overlaps a rank's drain and preload
// requests across object servers, and this sweep measures the effect.

import (
	"fmt"

	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/stats"
)

// DrainSweepOptions configures the drain-parallelism sweep.
type DrainSweepOptions struct {
	// Procs is the process count of each run.
	Procs int
	// Workers lists the DrainWorkers settings to sweep.
	Workers []int
	// StripeCount is the file's stripe width in OSTs (the knob that gives
	// the fan-out independent targets; 1 reproduces the paper's layout).
	// Pick a width that does not divide Procs: segments are dealt
	// round-robin over ranks with the segment size equal to the stripe
	// size, so when Procs is a multiple of StripeCount every segment of a
	// rank lands on one OST and the fan-out has nothing to overlap.
	StripeCount int
	// LenSim and LenReal size the workload like SweepOptions.
	LenSim  int
	LenReal int
	// Verify makes readers check every byte against the generator.
	Verify bool
	// Progress receives one line per completed run.
	Progress func(string) `json:"-"`
}

// DefaultDrainSweep sweeps 1/2/4/8 workers over a 7-way striped file with
// 16 processes (16 and 7 are coprime, so each rank's segments cycle
// through all seven OSTs).
func DefaultDrainSweep() DrainSweepOptions {
	return DrainSweepOptions{
		Procs:       16,
		Workers:     []int{1, 2, 4, 8},
		StripeCount: 7,
		LenSim:      4 << 20,
		LenReal:     4 << 10,
		Verify:      true,
	}
}

// DrainSweep runs the TCIO write+read workload at each worker count and
// tabulates the phase times. Byte contents are identical at every setting
// (Verify pins this); only the virtual timing changes.
func DrainSweep(opts DrainSweepOptions) (stats.Table, error) {
	if len(opts.Workers) == 0 {
		opts.Workers = DefaultDrainSweep().Workers
	}
	if opts.StripeCount < 1 {
		opts.StripeCount = 1
	}
	t := stats.Table{
		Title: fmt.Sprintf("Drain parallelism: %d processes, stripe over %d OSTs (TCIO)",
			opts.Procs, opts.StripeCount),
		Headers: []string{"drain-workers", "write-time", "write-MB/s", "read-time",
			"read-MB/s", "fs-writes", "result"},
		Host:   []string{"write-time", "write-MB/s", "read-time", "read-MB/s"},
		Params: opts,
	}
	for _, workers := range opts.Workers {
		env, err := newEnv(int64(opts.LenSim/opts.LenReal), opts.StripeCount, nil)
		if err != nil {
			return t, err
		}
		cfg := SyntheticConfig{
			Method:       MethodTCIO,
			Procs:        opts.Procs,
			TypeArray:    []datatype.Type{datatype.Int, datatype.Double},
			LenArray:     opts.LenReal,
			SizeAccess:   1,
			Verify:       opts.Verify,
			FileName:     fmt.Sprintf("drainsweep-%d", workers),
			DrainWorkers: workers,
		}
		res, err := RunSynthetic(env, cfg)
		if err != nil {
			return t, err
		}
		result := res.Write.Result()
		if !res.Write.Failed {
			result = res.Read.Result()
		}
		t.AddRow(workers, res.Write.Time, stats.FmtMBs(res.Write.MBs), res.Read.Time,
			stats.FmtMBs(res.Read.MBs), res.Write.FS.Writes, result)
		progressf(opts.Progress, "drainsweep workers=%d: write %v read %v (%s)",
			workers, res.Write.Time, res.Read.Time, result)
	}
	return t, nil
}

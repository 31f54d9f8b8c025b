package bench

// This file implements the node-aggregation sweep: a granule-interleaved
// write workload in which every level-2 segment is written by exactly the
// ranks of one node, run with and without tcio.Config.NodeAggregation while
// the node width (CoresPerNode) and the segment size vary. The workload is
// built so the arithmetic is exact: with granule g = segSize/cores and the
// writer of byte b being rank (b/g) mod P, the cores co-located ranks of one
// node write each segment, so aggregation must replace their cores separate
// inter-node puts with one combined put — an inter-node message reduction of
// exactly (cores-1)/cores. Bytes are verified against the generator at every
// setting; aggregation may only change the message stream, never the file.

import (
	"bytes"
	"fmt"
	"sync"

	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/stats"
	"github.com/tcio/tcio/internal/tcio"
)

// NodeAggOptions configures the node-aggregation sweep.
type NodeAggOptions struct {
	// Procs is the process count of each run. It must be a multiple of
	// every entry of Cores so node blocks tile the rank space exactly.
	Procs int
	// Cores lists the CoresPerNode settings to sweep (1 = every rank on
	// its own node, the degenerate case aggregation must not change).
	Cores []int
	// SegSizes lists the real segment sizes to sweep; each must be a
	// multiple of every Cores entry.
	SegSizes []int64
	// SegsPerRank is the number of level-2 segments per process.
	SegsPerRank int
	// Scale is the environment byte scale (simulated bytes per real byte).
	Scale int64
	// Verify cross-checks the final file bytes against the generator.
	Verify bool
	// Progress receives one line per completed run.
	Progress func(string) `json:"-"`
}

// DefaultNodeAgg sweeps node widths 1/2/4/8 and two segment sizes over 16
// processes. The simulated segments (16 KiB and 64 KiB) sit in the
// message-overhead-dominated regime where collapsing per-rank puts pays:
// one merged put saves (cores-1) x (setup + latency) per segment against an
// intra-node staging cost of segSize/MemBandwidth, and the former dominates
// below roughly (cores-1) x 50 KiB.
func DefaultNodeAgg() NodeAggOptions {
	return NodeAggOptions{
		Procs:       16,
		Cores:       []int{1, 2, 4, 8},
		SegSizes:    []int64{1 << 10, 4 << 10},
		SegsPerRank: 6,
		Scale:       16,
		Verify:      true,
	}
}

// nodeAggByte is the workload's deterministic content generator.
func nodeAggByte(off int64) byte {
	x := uint64(off)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	x ^= x >> 29
	return byte(x * 0xBF58476D1CE4E5B9 >> 56)
}

// nodeAggWrite runs the granule-interleaved write at one setting in the
// given environment. Rank r writes every granule k with k mod P == r, so
// segment s (granules s*cores .. s*cores+cores-1) is written by the full
// node block (s mod (P/cores)) — the aligned pattern aggregation collapses
// exactly.
func nodeAggWrite(opts NodeAggOptions, env *Env, cores int, segSize int64, aggOn bool) (PhaseResult, tcio.Stats) {
	fileBytes := segSize * int64(opts.SegsPerRank) * int64(opts.Procs)
	granule := segSize / int64(cores)
	pr := PhaseResult{Method: MethodTCIO, Procs: opts.Procs, SimBytes: fileBytes * opts.Scale}
	env.Machine.CoresPerNode = cores
	cfg := tcio.Config{
		SegmentSize:     segSize,
		NumSegments:     opts.SegsPerRank,
		NodeAggregation: aggOn,
	}
	var mu sync.Mutex
	var agg tcio.Stats
	ok := pr.record(mpi.Run(env.world(opts.Procs, false), func(c *mpi.Comm) error {
		handle, err := tcio.Open(c, "nodeagg.dat", tcio.WriteMode, cfg)
		if err != nil {
			return err
		}
		buf := make([]byte, granule)
		for k := int64(c.Rank()); k*granule < fileBytes; k += int64(c.Size()) {
			off := k * granule
			for i := range buf {
				buf[i] = nodeAggByte(off + int64(i))
			}
			if err := handle.WriteAt(off, buf); err != nil {
				return err
			}
		}
		cerr := handle.Close()
		st := handle.Stats()
		mu.Lock()
		agg.NodeCombines += st.NodeCombines
		agg.InterNodePutsSaved += st.InterNodePutsSaved
		agg.Retries += st.Retries
		agg.FSWrites += st.FSWrites
		mu.Unlock()
		return cerr
	}))
	if ok && opts.Verify {
		got := env.FS.Open("nodeagg.dat").Snapshot()
		want := make([]byte, fileBytes)
		for off := range want {
			want[off] = nodeAggByte(int64(off))
		}
		if int64(len(got)) < fileBytes || !bytes.Equal(got[:fileBytes], want) {
			pr.Failed = true
			pr.FailReason = "ground-truth mismatch"
		}
	}
	return pr, agg
}

// validateNodeAgg checks the sweep's tiling preconditions.
func validateNodeAgg(opts NodeAggOptions) error {
	for _, cores := range opts.Cores {
		if cores < 1 || opts.Procs%cores != 0 {
			return fmt.Errorf("bench: %d procs not a multiple of %d cores/node", opts.Procs, cores)
		}
		for _, segSize := range opts.SegSizes {
			if segSize%int64(cores) != 0 {
				return fmt.Errorf("bench: segment size %d not a multiple of %d cores/node", segSize, cores)
			}
		}
	}
	if opts.SegsPerRank < 1 {
		return fmt.Errorf("bench: %d segments per rank", opts.SegsPerRank)
	}
	return nil
}

// NodeAgg runs the full sweep: every (cores, segment size) cell with
// aggregation off and on, tabulating inter-node message counts and the
// end-to-end virtual time side by side.
func NodeAgg(opts NodeAggOptions) (stats.Table, error) {
	if err := validateNodeAgg(opts); err != nil {
		return stats.Table{}, err
	}
	t := stats.Table{
		Title: fmt.Sprintf("Node aggregation: granule-interleaved write, %d processes, %d segments/rank",
			opts.Procs, opts.SegsPerRank),
		Headers: []string{"cores/node", "seg-size", "nodeagg", "time", "MB/s",
			"inter-node-msgs", "local-msgs", "combines", "puts-saved", "fs-writes", "result"},
		Host:   []string{"time", "MB/s"},
		Params: opts,
	}
	for _, cores := range opts.Cores {
		for _, segSize := range opts.SegSizes {
			for _, aggOn := range []bool{false, true} {
				env, err := NewEnv(opts.Scale)
				if err != nil {
					return t, err
				}
				pr, st := nodeAggWrite(opts, env, cores, segSize, aggOn)
				inter := pr.Net.Messages - pr.Net.LocalMessages
				t.AddRow(cores, segSize*opts.Scale, aggOn, pr.Time, stats.FmtMBs(pr.MBs), inter,
					pr.Net.LocalMessages, st.NodeCombines, st.InterNodePutsSaved, pr.FS.Writes, pr.Result())
				progressf(opts.Progress, "nodeagg cores=%d seg=%d agg=%v: %v inter-node=%d (%s)",
					cores, segSize*opts.Scale, aggOn, pr.Time, inter, pr.Result())
			}
		}
	}
	return t, nil
}

// NodeAggChaos runs a reduced sweep under deterministic fault injection and
// tabulates only seed-deterministic counts, so two runs with the same seed
// emit byte-identical tables — the CI reproducibility check for the
// aggregated put path. Virtual times are deliberately absent (they depend on
// scheduler interleaving); the message stream's identity, the combine
// bookkeeping, and every fault roll do not: deposits never roll, and a
// leader's combined puts roll SiteWinPut keyed by its own deterministic
// shipment order.
func NodeAggChaos(opts NodeAggOptions, seed int64) (stats.Table, error) {
	if err := validateNodeAgg(opts); err != nil {
		return stats.Table{}, err
	}
	t := newChaosTable("nodeagg", fmt.Sprintf("Node aggregation chaos: %d processes, seed %d (counts are seed-deterministic)",
		opts.Procs, seed), seed, opts.Progress, opts, []string{"cores/node", "nodeagg"},
		[]string{"retries", "fs-writes", "msgs", "local-msgs", "combines", "puts-saved"})
	for _, cores := range []int{1, opts.Cores[len(opts.Cores)-1]} {
		for _, aggOn := range []bool{false, true} {
			err := t.cell(opts.Scale, 0, []any{cores, aggOn}, func(env *Env) (int64, []any, string, error) {
				pr, st := nodeAggWrite(opts, env, cores, opts.SegSizes[0], aggOn)
				return env.Faults.TotalInjected(), []any{st.Retries, pr.FS.Writes, pr.Net.Messages,
					pr.Net.LocalMessages, st.NodeCombines, st.InterNodePutsSaved}, pr.Result(), nil
			})
			if err != nil {
				return t.Table, err
			}
		}
	}
	return t.Table, nil
}

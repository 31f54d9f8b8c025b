package bench

// This file implements the I/O delegation sweep: a strided small-write
// workload run through internal/delegate while the server count, the
// number of concurrently open files, and the request size vary.
//
// The workload deals request-size blocks of each file round-robin to the
// client ranks, so every client's stream is maximally strided — the
// pattern the delegation tier exists for. Each cell runs the same
// application work (same clients, same bytes) and only moves where the
// aggregation happens:
//
//   - servers = 0 is the pass-through baseline: the tier dissolves and
//     every rank writes through tcio directly, so the file system sees
//     tcio's per-owner segment drains.
//
//   - servers > 0 withdraws that many extra ranks as dedicated I/O
//     servers. Clients ship domain-sized pieces over the request
//     protocol; each server stages them and drains one coalesced batch
//     per flush epoch. The staged/runs columns are the aggregation
//     factor: thousands of staged client writes reaching the file system
//     as a handful of long extent runs.
//
// Bytes are verified on read-back through the same tier configuration at
// every setting; delegation may not change a single byte.

import (
	"fmt"
	"sync"

	"github.com/tcio/tcio/internal/delegate"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/stats"
	"github.com/tcio/tcio/internal/tcio"
)

// DelegateOptions configures the delegation sweep.
type DelegateOptions struct {
	// Clients is the application rank count of every cell; delegated
	// cells run Clients+servers ranks total.
	Clients int
	// SegSize is the real tcio segment size in bytes.
	SegSize int64
	// SegsPerClient is the per-client segment count; each file is exactly
	// Clients x SegsPerClient segments.
	SegsPerClient int
	// Servers lists the server-rank counts swept (0 = pass-through).
	Servers []int
	// Files lists the concurrently-open file counts swept.
	Files []int
	// ReqSizes lists the real client request sizes swept.
	ReqSizes []int64
	// QueueDepth is the per-(client, server) admission window (0 = 8).
	QueueDepth int
	// Scale is the environment byte scale (simulated bytes per real byte).
	Scale int64
	// Verify reads every file back through the same tier configuration
	// and checks each byte against the generator.
	Verify bool
	// Progress receives one line per completed cell.
	Progress func(string) `json:"-"`
}

// DefaultDelegate sweeps 0/1/2 servers against 1 and 2 open files and
// 256 B / 2 KiB (real) requests, over 8 client ranks and 16 KiB (real)
// segments.
func DefaultDelegate() DelegateOptions {
	return DelegateOptions{
		Clients:       8,
		SegSize:       16 << 10,
		SegsPerClient: 4,
		Servers:       []int{0, 1, 2},
		Files:         []int{1, 2},
		ReqSizes:      []int64{256, 2 << 10},
		QueueDepth:    8,
		Scale:         16,
		Verify:        true,
	}
}

// DelegatePoint is one cell's result. Sizes are simulated bytes.
type DelegatePoint struct {
	Servers       int
	Files         int
	ReqSize       int64
	Procs         int
	VirtualTimeNs int64
	MBs           float64
	WriteReqs     int64
	CreditStalls  int64
	Staged        int64
	BatchedRuns   int64
	FSWrites      int64
	Result        string
}

// delegateByte is the workload's deterministic content generator; the
// file index is mixed in so cross-file bleed cannot verify.
func delegateByte(fi int, off int64) byte {
	x := uint64(off)*0x9E3779B97F4A7C15 + uint64(fi+1)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	return byte(x * 0xD1342543DE82EF95 >> 56)
}

// delegateFileBytes is the per-file size: every client owns its share of
// every segment, dealt in request-size blocks.
func delegateFileBytes(opts DelegateOptions) int64 {
	return opts.SegSize * int64(opts.SegsPerClient) * int64(opts.Clients)
}

func delegateFileName(fi int) string { return fmt.Sprintf("delegate-%d.dat", fi) }

// delegateConfig builds the tier configuration for one cell.
func delegateConfig(opts DelegateOptions, servers int) delegate.Config {
	return delegate.Config{
		ServerRanks: servers,
		QueueDepth:  opts.QueueDepth,
		TCIO: tcio.Config{
			SegmentSize:    opts.SegSize,
			NumSegments:    opts.SegsPerClient,
			DemandPopulate: true,
		},
	}
}

// delegateAgg is the cell's aggregated protocol and server counters.
type delegateAgg struct {
	writeReqs    int64 // protocol write requests (pass-through: write calls)
	creditStalls int64
	staged       int64 // server-side; zero in pass-through
	batchedRuns  int64
	retries      int64
}

// delegateWrite runs one cell's write phase: every client writes its
// round-robin blocks of every file, flushes, and closes.
func delegateWrite(opts DelegateOptions, env *Env, servers, files int,
	reqSize int64) (PhaseResult, delegateAgg) {
	env.FS.Reset()
	procs := opts.Clients + servers
	fileBytes := delegateFileBytes(opts)
	pr := PhaseResult{
		Method:   MethodTCIO,
		Procs:    procs,
		SimBytes: fileBytes * int64(files) * opts.Scale,
	}
	var agg delegateAgg
	var mu sync.Mutex
	cfg := delegateConfig(opts, servers)
	col := &delegate.Collector{}
	cfg.Collect = col
	ok := pr.record(mpi.Run(env.world(procs, false), func(c *mpi.Comm) error {
		return delegate.Run(c, cfg, func(tr *delegate.Tier) error {
			handles := make([]*delegate.File, files)
			for fi := range handles {
				f, err := tr.Open(delegateFileName(fi), tcio.WriteMode)
				if err != nil {
					return err
				}
				handles[fi] = f
			}
			buf := make([]byte, reqSize)
			stride := reqSize * int64(opts.Clients)
			for fi, f := range handles {
				for off := int64(tr.ClientIndex()) * reqSize; off < fileBytes; off += stride {
					for i := range buf {
						buf[i] = delegateByte(fi, off+int64(i))
					}
					if err := f.WriteAt(off, buf); err != nil {
						return err
					}
				}
			}
			for _, f := range handles {
				if err := f.Flush(); err != nil {
					return err
				}
			}
			for _, f := range handles {
				if err := f.Close(); err != nil {
					return err
				}
				st := f.Stats()
				mu.Lock()
				if tr.IsDelegated() {
					agg.writeReqs += st.WriteReqs
					agg.creditStalls += st.CreditStalls
				} else {
					// Application calls are the request-count baseline the
					// protocol's domain pieces compare against.
					agg.writeReqs += st.Writes
					agg.retries += f.TCIO().Stats().Retries
				}
				mu.Unlock()
			}
			return nil
		})
	}))
	if !ok {
		return pr, agg
	}
	for _, s := range col.Servers() {
		agg.staged += s.StagedWrites
		agg.batchedRuns += s.BatchedRuns
		agg.retries += s.Retries
	}
	return pr, agg
}

// delegateVerify reads every file back through the same tier
// configuration and checks each byte each client wrote.
func delegateVerify(opts DelegateOptions, env *Env, servers, files int,
	reqSize int64) error {
	env.FS.Reset()
	fileBytes := delegateFileBytes(opts)
	cfg := delegateConfig(opts, servers)
	_, err := mpi.Run(env.world(opts.Clients+servers, false), func(c *mpi.Comm) error {
		return delegate.Run(c, cfg, func(tr *delegate.Tier) error {
			handles := make([]*delegate.File, files)
			for fi := range handles {
				f, err := tr.Open(delegateFileName(fi), tcio.ReadMode)
				if err != nil {
					return err
				}
				handles[fi] = f
			}
			// Issue every read first: pass-through reads are lazy until
			// Fetch, delegation reads fill synchronously either way.
			type block struct {
				fi  int
				off int64
				dst []byte
			}
			var blocks []block
			stride := reqSize * int64(opts.Clients)
			for fi, f := range handles {
				for off := int64(tr.ClientIndex()) * reqSize; off < fileBytes; off += stride {
					dst := make([]byte, reqSize)
					if err := f.ReadAt(off, dst); err != nil {
						return err
					}
					blocks = append(blocks, block{fi, off, dst})
				}
			}
			for _, f := range handles {
				if err := f.Fetch(); err != nil {
					return err
				}
			}
			for _, f := range handles {
				if err := f.Close(); err != nil {
					return err
				}
			}
			for _, b := range blocks {
				for i, got := range b.dst {
					if want := delegateByte(b.fi, b.off+int64(i)); got != want {
						return fmt.Errorf("file %d offset %d: got %#x want %#x",
							b.fi, b.off+int64(i), got, want)
					}
				}
			}
			return nil
		})
	})
	return err
}

// validateDelegate checks the sweep's alignment preconditions.
func validateDelegate(opts DelegateOptions) error {
	if opts.Clients < 1 || opts.SegsPerClient < 1 {
		return fmt.Errorf("bench: %d clients, %d segments per client", opts.Clients, opts.SegsPerClient)
	}
	for _, s := range opts.Servers {
		if s < 0 {
			return fmt.Errorf("bench: %d server ranks", s)
		}
	}
	for _, n := range opts.Files {
		if n < 1 {
			return fmt.Errorf("bench: %d files", n)
		}
	}
	fileBytes := delegateFileBytes(opts)
	for _, r := range opts.ReqSizes {
		if r < 1 || fileBytes%(r*int64(opts.Clients)) != 0 {
			return fmt.Errorf("bench: file size %d not dealt evenly by %d clients x %d B requests",
				fileBytes, opts.Clients, r)
		}
	}
	return nil
}

// delegateResult is a cell's result: the write phase's, or the verifying
// read-back's failure.
func delegateResult(opts DelegateOptions, env *Env, pr PhaseResult, servers, files int, reqSize int64) string {
	if !pr.Failed && opts.Verify {
		if err := delegateVerify(opts, env, servers, files, reqSize); err != nil {
			return fmt.Sprintf("verify: %v", err)
		}
	}
	return pr.Result()
}

// serverCounters renders the staged and runs cells, which pass-through
// cells (no server ranks) do not have.
func serverCounters(servers int, agg delegateAgg) (staged, runs any) {
	if servers == 0 {
		return "-", "-"
	}
	return agg.staged, agg.batchedRuns
}

// Delegate runs the full sweep: every (servers, files, request size)
// cell in a fresh environment, write phase plus verified read-back.
func Delegate(opts DelegateOptions) (stats.Table, []DelegatePoint, error) {
	if err := validateDelegate(opts); err != nil {
		return stats.Table{}, nil, err
	}
	t := stats.Table{
		Title: fmt.Sprintf("I/O delegation: strided writes, %d clients, %d B simulated segments",
			opts.Clients, opts.SegSize*opts.Scale),
		Headers: []string{"servers", "files", "req-size", "time", "MB/s",
			"write-reqs", "staged", "runs", "fs-writes", "stalls", "result"},
		// Whether a credit grant beats the next write is a scheduling fact.
		Host:   []string{"time", "MB/s", "stalls"},
		Params: opts,
	}
	var points []DelegatePoint
	for _, servers := range opts.Servers {
		for _, files := range opts.Files {
			for _, reqSize := range opts.ReqSizes {
				env, err := NewEnv(opts.Scale)
				if err != nil {
					return t, points, err
				}
				pr, agg := delegateWrite(opts, env, servers, files, reqSize)
				result := delegateResult(opts, env, pr, servers, files, reqSize)
				staged, runs := serverCounters(servers, agg)
				t.AddRow(servers, files, reqSize*opts.Scale, pr.Time, stats.FmtMBs(pr.MBs), agg.writeReqs,
					staged, runs, pr.FS.Writes, agg.creditStalls, result)
				points = append(points, DelegatePoint{Servers: servers, Files: files, ReqSize: reqSize * opts.Scale,
					Procs: opts.Clients + servers, VirtualTimeNs: int64(pr.Time), MBs: pr.MBs,
					WriteReqs: agg.writeReqs, CreditStalls: agg.creditStalls, Staged: agg.staged,
					BatchedRuns: agg.batchedRuns, FSWrites: pr.FS.Writes, Result: result})
				progressf(opts.Progress, "delegate srv=%d files=%d req=%d: %v fs-writes=%d (%s)",
					servers, files, reqSize*opts.Scale, pr.Time, pr.FS.Writes, result)
			}
		}
	}
	return t, points, nil
}

// DelegateChaos runs a reduced sweep under deterministic fault injection
// and tabulates only seed-deterministic counts, so two runs with the same
// seed emit byte-identical tables — the CI reproducibility check for the
// delegation path. Request arrival order at a server races, but the
// staged-record set, the sorted epoch drain, and hence every fault roll
// the drain keys are pure functions of the program; credit stalls are
// deliberately absent (whether a grant beats the next write is a
// scheduling fact).
func DelegateChaos(opts DelegateOptions, seed int64) (stats.Table, error) {
	if err := validateDelegate(opts); err != nil {
		return stats.Table{}, err
	}
	t := newChaosTable("delegate", fmt.Sprintf("I/O delegation chaos: %d clients, seed %d (counts are seed-deterministic)",
		opts.Clients, seed), seed, opts.Progress, opts, []string{"servers", "files"},
		[]string{"retries", "write-reqs", "staged", "runs", "fs-writes"})
	reqSize := opts.ReqSizes[0]
	for _, c := range []struct{ servers, files int }{{0, 1}, {1, 1}, {2, 2}} {
		err := t.cell(opts.Scale, 0, []any{c.servers, c.files}, func(env *Env) (int64, []any, string, error) {
			pr, agg := delegateWrite(opts, env, c.servers, c.files, reqSize)
			// Snapshot before the verifying read-back: pass-through clients
			// demand-populate shared segments, so which rank populates what —
			// and hence the read phase's fault rolls — is a scheduling fact.
			// The write path's rolls are operation-keyed.
			injected := env.Faults.TotalInjected()
			staged, runs := serverCounters(c.servers, agg)
			counters := []any{agg.retries, agg.writeReqs, staged, runs, pr.FS.Writes}
			return injected, counters, delegateResult(opts, env, pr, c.servers, c.files, reqSize), nil
		})
		if err != nil {
			return t.Table, err
		}
	}
	return t.Table, nil
}

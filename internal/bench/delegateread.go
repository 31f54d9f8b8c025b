package bench

// This file implements the delegated read sweep: the same strided
// workload as the delegation write sweep, read back through the tier
// while the server hot-block cache, the access pattern, and collective
// reads vary.
//
// Each cell writes the file once and then reads it twice — a cold pass
// and a hot re-read — and reports the two passes' virtual times
// separately. Virtual time is not additive across separate simulations,
// so the per-pass times come from run differencing: three runs per cell
// (write only; write + one pass; write + two passes), each in a fresh
// environment, give cold = T1 - T0 and hot = T2 - T1. The pass
// decomposition:
//
//   - pattern = private: client i reads the pieces it wrote (block-
//     disjoint streams). pattern = shared: every client reads the whole
//     file, the N-to-1 analysis-input pattern where requests overlap
//     completely across ranks.
//
//   - cache = 0 is the disarmed baseline: every read request reaches the
//     file system, and the hot pass repeats the cold pass's requests.
//     cache > 0 arms the server LRU: the cold pass fills whole domain
//     blocks once, the hot pass is served from server memory without a
//     single file system read.
//
//   - collective off ships one protocol request per piece; collective on
//     batches each pass into one read-intent epoch per client, and the
//     server stages the merged union once per domain block — overlapping
//     requests across clients collapse before the file system sees them.
//
// Bytes are verified on the final pass against the write generator.

import (
	"fmt"
	"sync"

	"github.com/tcio/tcio/internal/delegate"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/stats"
	"github.com/tcio/tcio/internal/tcio"
)

// Read-sweep access patterns.
const (
	PatternPrivate = "private"
	PatternShared  = "shared"
)

// DelegateReadOptions configures the delegated read sweep.
type DelegateReadOptions struct {
	// Clients is the application rank count; every cell runs
	// Clients+Servers ranks total.
	Clients int
	// SegSize is the real tcio segment size in bytes; the file-domain
	// block is four segments.
	SegSize int64
	// SegsPerClient is the per-client segment count; the file is exactly
	// Clients x SegsPerClient segments.
	SegsPerClient int
	// Servers is the dedicated server-rank count (at least 1 — the
	// pass-through read path is the sieve sweep's subject, not this one's).
	Servers int
	// CacheBlocks lists the server cache capacities swept (0 = disarmed).
	CacheBlocks []int
	// Patterns lists the access patterns swept (PatternPrivate, PatternShared).
	Patterns []string
	// Collective lists the collective-read settings swept.
	Collective []bool
	// ReadQuantum is the DRR fairness quantum in real bytes (0 = inline
	// arrival order); it may reorder service but never counts, so it is a
	// fixed option rather than an axis.
	ReadQuantum int64
	// ReqSize is the real per-piece request size.
	ReqSize int64
	// Scale is the environment byte scale (simulated bytes per real byte).
	Scale int64
	// Verify checks every byte of the final pass against the generator.
	Verify bool
	// Progress receives one line per completed cell.
	Progress func(string) `json:"-"`
}

// DefaultDelegateRead sweeps disarmed vs armed cache, private vs shared
// patterns, and independent vs collective reads over 8 clients and one
// server, with a DRR quantum armed so the artifact exercises the fair
// scheduler.
func DefaultDelegateRead() DelegateReadOptions {
	return DelegateReadOptions{
		Clients:       8,
		SegSize:       16 << 10,
		SegsPerClient: 4,
		Servers:       1,
		CacheBlocks:   []int{0, 16},
		Patterns:      []string{PatternPrivate, PatternShared},
		Collective:    []bool{false, true},
		ReadQuantum:   4 << 10,
		ReqSize:       2 << 10,
		Scale:         16,
		Verify:        true,
	}
}

// DelegateReadPoint is one cell's result. Sizes are simulated bytes;
// the Ns fields are virtual nanoseconds and, being scheduling-sensitive at
// the margin, host facts of the table.
type DelegateReadPoint struct {
	Pattern     string
	CacheBlocks int
	Collective  bool
	ColdNs      int64
	HotNs       int64
	Speedup     float64
	ReadReqs    int64
	FSReadsCold int64
	FSReadsHot  int64
	CacheHits   int64
	CacheMisses int64
	Result      string
}

func delegateReadFileBytes(opts DelegateReadOptions) int64 {
	return opts.SegSize * int64(opts.SegsPerClient) * int64(opts.Clients)
}

// validateDelegateRead checks the sweep's alignment preconditions.
func validateDelegateRead(opts DelegateReadOptions) error {
	if opts.Clients < 1 || opts.SegsPerClient < 1 {
		return fmt.Errorf("bench: %d clients, %d segments per client", opts.Clients, opts.SegsPerClient)
	}
	if opts.Servers < 1 {
		return fmt.Errorf("bench: read sweep needs a server rank, got %d", opts.Servers)
	}
	for _, c := range opts.CacheBlocks {
		if c < 0 {
			return fmt.Errorf("bench: %d cache blocks", c)
		}
	}
	for _, p := range opts.Patterns {
		if p != PatternPrivate && p != PatternShared {
			return fmt.Errorf("bench: unknown read pattern %q", p)
		}
	}
	fileBytes := delegateReadFileBytes(opts)
	if opts.ReqSize < 1 || fileBytes%(opts.ReqSize*int64(opts.Clients)) != 0 {
		return fmt.Errorf("bench: file size %d not dealt evenly by %d clients x %d B requests",
			fileBytes, opts.Clients, opts.ReqSize)
	}
	return nil
}

// dreadRun is one simulation's outcome: the write phase plus `passes`
// full read passes of the configured pattern.
type dreadRun struct {
	timeNs   int64
	fsReads  int64 // server-side read-path FS requests
	readReqs int64 // client-side protocol read requests
	hits     int64
	misses   int64
	err      error
}

// delegateReadRun executes write + passes read passes in a fresh
// environment and returns the totals.
func delegateReadRun(opts DelegateReadOptions, pattern string, cacheBlks int,
	collective bool, passes int) dreadRun {
	var out dreadRun
	env, err := NewEnv(opts.Scale)
	if err != nil {
		out.err = err
		return out
	}
	fileBytes := delegateReadFileBytes(opts)
	pieces := fileBytes / opts.ReqSize
	cfg := delegate.Config{
		ServerRanks:       opts.Servers,
		ServerCacheBlocks: cacheBlks,
		ReadQuantum:       opts.ReadQuantum,
		TCIO: tcio.Config{
			SegmentSize:    opts.SegSize,
			NumSegments:    opts.SegsPerClient,
			DemandPopulate: true,
			CollectiveRead: collective,
		},
	}
	col := &delegate.Collector{}
	cfg.Collect = col
	var mu sync.Mutex
	rep, err := mpi.Run(env.world(opts.Clients+opts.Servers, false), func(c *mpi.Comm) error {
		return delegate.Run(c, cfg, func(tr *delegate.Tier) error {
			w, err := tr.Open("delegate-read.dat", tcio.WriteMode)
			if err != nil {
				return err
			}
			buf := make([]byte, opts.ReqSize)
			for p := int64(0); p < pieces; p++ {
				if p%int64(opts.Clients) != int64(tr.ClientIndex()) {
					continue
				}
				off := p * opts.ReqSize
				for i := range buf {
					buf[i] = delegateByte(0, off+int64(i))
				}
				if err := w.WriteAt(off, buf); err != nil {
					return err
				}
			}
			if err := w.Flush(); err != nil {
				return err
			}
			if err := w.Close(); err != nil {
				return err
			}
			r, err := tr.Open("delegate-read.dat", tcio.ReadMode)
			if err != nil {
				return err
			}
			for pass := 0; pass < passes; pass++ {
				type piece struct {
					off int64
					dst []byte
				}
				var read []piece
				for p := int64(0); p < pieces; p++ {
					if pattern == PatternPrivate && p%int64(opts.Clients) != int64(tr.ClientIndex()) {
						continue
					}
					pc := piece{off: p * opts.ReqSize, dst: make([]byte, opts.ReqSize)}
					if err := r.ReadAt(pc.off, pc.dst); err != nil {
						return err
					}
					read = append(read, pc)
				}
				// One Fetch per pass: collective cells close one read-intent
				// epoch here; independent cells already read synchronously.
				if err := r.Fetch(); err != nil {
					return err
				}
				if opts.Verify && pass == passes-1 {
					for _, pc := range read {
						for i, got := range pc.dst {
							if want := delegateByte(0, pc.off+int64(i)); got != want {
								return fmt.Errorf("offset %d: got %#x want %#x", pc.off+int64(i), got, want)
							}
						}
					}
				}
			}
			if err := r.Close(); err != nil {
				return err
			}
			st := r.Stats()
			mu.Lock()
			out.readReqs += st.ReadReqs
			mu.Unlock()
			return nil
		})
	})
	if err != nil {
		out.err = err
		return out
	}
	out.timeNs = int64(rep.MaxTime.Sub(0))
	for _, s := range col.Servers() {
		out.fsReads += s.FSReads
		out.hits += s.CacheHits
		out.misses += s.CacheMisses
	}
	return out
}

// DelegateRead runs the full read sweep: every (pattern, cache,
// collective) cell, three runs each for the cold/hot time split.
func DelegateRead(opts DelegateReadOptions) (stats.Table, []DelegateReadPoint, error) {
	if err := validateDelegateRead(opts); err != nil {
		return stats.Table{}, nil, err
	}
	t := stats.Table{
		Title: fmt.Sprintf("Delegated reads: %d clients, %d server(s), %d B simulated requests, DRR quantum %d B",
			opts.Clients, opts.Servers, opts.ReqSize*opts.Scale, opts.ReadQuantum*opts.Scale),
		Headers: []string{"pattern", "cache", "coll", "cold", "hot", "speedup",
			"read-reqs", "fs-cold", "fs-hot", "hits", "misses", "result"},
		Host:   []string{"cold", "hot", "speedup"},
		Params: opts,
	}
	var points []DelegateReadPoint
	for _, pattern := range opts.Patterns {
		for _, cacheBlks := range opts.CacheBlocks {
			for _, collective := range opts.Collective {
				base := delegateReadRun(opts, pattern, cacheBlks, collective, 0)
				cold := delegateReadRun(opts, pattern, cacheBlks, collective, 1)
				hot := delegateReadRun(opts, pattern, cacheBlks, collective, 2)
				pt := DelegateReadPoint{
					Pattern:     pattern,
					CacheBlocks: cacheBlks,
					Collective:  collective,
					Result:      "ok",
				}
				switch {
				case base.err != nil:
					pt.Result = failReason(base.err)
				case cold.err != nil:
					pt.Result = failReason(cold.err)
				case hot.err != nil:
					pt.Result = failReason(hot.err)
				default:
					pt.ColdNs = cold.timeNs - base.timeNs
					pt.HotNs = hot.timeNs - cold.timeNs
					if pt.HotNs > 0 {
						pt.Speedup = float64(pt.ColdNs) / float64(pt.HotNs)
					}
					pt.ReadReqs = hot.readReqs
					pt.FSReadsCold = cold.fsReads
					pt.FSReadsHot = hot.fsReads - cold.fsReads
					pt.CacheHits = hot.hits
					pt.CacheMisses = hot.misses
				}
				coldT, hotT := simtime.Duration(pt.ColdNs), simtime.Duration(pt.HotNs)
				t.AddRow(pt.Pattern, pt.CacheBlocks, pt.Collective, coldT, hotT, fmt.Sprintf("%.1fx", pt.Speedup),
					pt.ReadReqs, pt.FSReadsCold, pt.FSReadsHot, pt.CacheHits, pt.CacheMisses, pt.Result)
				points = append(points, pt)
				progressf(opts.Progress, "delegate-read pat=%s cache=%d coll=%v: cold=%v hot=%v (%.1fx) fs=%d/%d (%s)",
					pattern, cacheBlks, collective, coldT, hotT, pt.Speedup, pt.FSReadsCold, pt.FSReadsHot, pt.Result)
			}
		}
	}
	return t, points, nil
}

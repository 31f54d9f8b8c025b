package mpi

// Host hot-path micro-benchmarks (size-swept per SNIPPETS.md Snippet 2):
// the collective barrier under growing rank counts, mailbox matching
// under growing queue depths, and indexed puts and RPC replies under
// growing run counts.
// These measure *host* wall-clock cost — the virtual-time results are
// pinned elsewhere and must not change.

import (
	"fmt"
	"testing"

	"github.com/tcio/tcio/internal/datatype"
)

// BenchmarkBarrier crosses one collective barrier per op at each rank
// count. Bytes are rank-arrivals, so MB/s reads as arrivals/µs across the
// sweep; allocs/op is the per-collective epoch overhead amortized over all
// ranks.
func BenchmarkBarrier(b *testing.B) {
	for _, procs := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(procs))
			_, err := Run(Config{Procs: procs}, func(c *Comm) error {
				for i := 0; i < b.N; i++ {
					if err := c.Barrier(); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAllreduce is the combining collective at each rank count: every
// rank contributes a value, one rank folds them.
func BenchmarkAllreduce(b *testing.B) {
	for _, procs := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(procs) * 8)
			_, err := Run(Config{Procs: procs}, func(c *Comm) error {
				for i := 0; i < b.N; i++ {
					if _, err := c.AllreduceInt64(OpMax, int64(c.Rank())); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// benchMailbox builds a mailbox preloaded with depth messages spread over
// distinct (src, tag) classes, with the probed class's message deposited
// last — the worst case for a linear scan, the common case for an index.
func benchMailbox(depth int) (*mailbox, int, int) {
	m := newMailbox()
	for i := 0; i < depth-1; i++ {
		m.deposit(envelope{src: i % 64, tag: i})
	}
	src, tag := 63, depth+1 // a class no filler message occupies
	m.deposit(envelope{src: src, tag: tag})
	return m, src, tag
}

// BenchmarkMailboxMatch measures one exact-match take+redeposit per op at
// each queue depth. The taken message is put back so the depth stays
// constant across iterations.
func BenchmarkMailboxMatch(b *testing.B) {
	noAbort := func() error { return nil }
	for _, depth := range []int{1, 16, 256, 4096} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			m, src, tag := benchMailbox(depth)
			b.ReportAllocs()
			b.SetBytes(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := m.take(src, tag, noAbort)
				if err != nil {
					b.Fatal(err)
				}
				m.deposit(e)
			}
		})
	}
}

// BenchmarkMailboxMatchAnySource is the wildcard fallback: an AnySource
// take with an exact tag must still find the globally earliest deposit of
// that tag.
func BenchmarkMailboxMatchAnySource(b *testing.B) {
	noAbort := func() error { return nil }
	for _, depth := range []int{1, 16, 256, 4096} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			m, _, tag := benchMailbox(depth)
			b.ReportAllocs()
			b.SetBytes(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := m.take(AnySource, tag, noAbort)
				if err != nil {
					b.Fatal(err)
				}
				m.deposit(e)
			}
		})
	}
}

// BenchmarkRPCEncode measures one request encode+send per op — the
// delegation tier's client hot path. The receiver drains and recycles, so
// the steady state exercises the staging pools, not the heap.
func BenchmarkRPCEncode(b *testing.B) {
	for _, size := range []int{64, 4096, 65536} {
		b.Run(fmt.Sprintf("payload=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(size))
			payload := make([]byte, size)
			_, err := Run(Config{Procs: 2}, func(c *Comm) error {
				if c.Rank() == 0 {
					req := &RPCRequest{Op: OpWrite, Handle: 1, Off: 4096, Len: int64(size), Data: payload}
					for i := 0; i < b.N; i++ {
						req.Seq = int64(i)
						if err := c.SendRequest(1, 7, req); err != nil {
							return err
						}
					}
					return nil
				}
				for i := 0; i < b.N; i++ {
					req, err := c.RecvRequest(AnySource, 7)
					if err != nil {
						return err
					}
					c.Recycle(req.Data)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkPutSegments issues one indexed put of runs scattered blocks per
// op, the shape of a level-1 flush: each block sits in a segment-sized
// origin buffer at its segment offset, every other 64-byte slot. "packed"
// first copies the blocks into a contiguous payload, as a flush had to
// before PutSegmentsFrom; "gathered" passes each block where it lies.
// Both ranks share a node, so the transfer is a memory copy and the op
// measures the put path itself.
func BenchmarkPutSegments(b *testing.B) {
	const blk = 64
	for _, runs := range []int{1, 16, 256} {
		segs := make([]datatype.Segment, runs)
		for i := range segs {
			segs[i] = datatype.Segment{Off: int64(2 * blk * i), Len: blk}
		}
		origin := make([]byte, 2*blk*runs)
		for _, mode := range []string{"packed", "gathered"} {
			b.Run(fmt.Sprintf("runs=%d/%s", runs, mode), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(blk * runs))
				payload := make([]byte, 0, blk*runs)
				srcs := make([][]byte, 0, runs)
				_, err := Run(Config{Procs: 2}, func(c *Comm) error {
					win, err := c.WinCreate(int64(len(origin)))
					if err != nil || c.Rank() != 0 {
						return err
					}
					if err := win.Lock(1, false); err != nil {
						return err
					}
					for i := 0; i < b.N; i++ {
						if mode == "packed" {
							payload = payload[:0]
							for _, s := range segs {
								payload = append(payload, origin[s.Off:s.Off+s.Len]...)
							}
							_, err = win.PutSegmentsAsync(1, segs, payload)
						} else {
							srcs = srcs[:0]
							for _, s := range segs {
								srcs = append(srcs, origin[s.Off:s.Off+s.Len])
							}
							_, err = win.PutSegmentsFrom(1, segs, srcs)
						}
						if err != nil {
							return err
						}
					}
					return win.Unlock(1)
				})
				if err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// BenchmarkSendReply sends one RPC reply of parts 1 KiB runs per op, the
// shape of a collective read reply: each run sits in its own block-sized
// buffer. "packed" first copies the runs into a contiguous payload, as a
// delegation server had to before SendReplyFrom; "gathered" passes each
// run where it lies. The receiver scatters every reply into its buffer
// and acknowledges it, so the ranks stay in lockstep and every wire
// buffer returns to the pool.
func BenchmarkSendReply(b *testing.B) {
	const run = 1 << 10
	for _, parts := range []int{1, 16, 256} {
		blocks := make([][]byte, parts)
		for i := range blocks {
			blocks[i] = make([]byte, 4*run)
		}
		for _, mode := range []string{"packed", "gathered"} {
			b.Run(fmt.Sprintf("parts=%d/%s", parts, mode), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(run * parts))
				payload := make([]byte, 0, run*parts)
				srcs := make([][]byte, 0, parts)
				dst := make([][]byte, 1)
				dst[0] = make([]byte, run*parts)
				_, err := Run(Config{Procs: 2}, func(c *Comm) error {
					for i := 0; i < b.N; i++ {
						if c.Rank() == 1 {
							if _, err := c.RecvReplyInto(0, 1, dst); err != nil {
								return err
							}
							if err := c.Send(0, 2, nil); err != nil {
								return err
							}
							continue
						}
						rep := RPCReply{OK: true, Seq: int64(i)}
						var err error
						if mode == "packed" {
							payload = payload[:0]
							for _, blk := range blocks {
								payload = append(payload, blk[run:2*run]...)
							}
							rep.Data = payload
							err = c.SendReply(1, 1, &rep)
						} else {
							srcs = srcs[:0]
							for _, blk := range blocks {
								srcs = append(srcs, blk[run:2*run])
							}
							err = c.SendReplyFrom(1, 1, &rep, srcs)
						}
						if err != nil {
							return err
						}
						if _, err := c.Recv(1, 2); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

package mpi

import (
	"math/bits"
	"sync"
)

// The runtime stages a private copy of every message payload (eager
// buffering: the sender may reuse its buffer the instant Send returns).
// Those copies are the hottest real-memory allocation in the simulator —
// one per Send/Bcast/Allgather payload — so they are drawn from per-size
// free lists instead of the heap. Pooling is purely a real-memory
// optimization: staging copies were never charged to the simulated-memory
// accountant and plain allocation is not a fault site, so request and
// fault identity are byte-for-byte unchanged (see BenchmarkPingPong*).
//
// Buffers re-enter the pool only through Comm.Recycle (or a receive that
// consumes the payload itself, like RecvReplyInto): the runtime cannot
// know when a receiver is done with a delivered payload, so reclamation is
// the application's opt-in.
//
// Size classes are 2^k + poolSlack bytes rather than bare powers of two.
// Bulk payloads are usually powers of two themselves (a domain block, a
// segment), and every message wraps its payload in a small header — 33 B
// for an RPC request, 16 B for a reply — so bare power-of-two classes
// would land each such message in the next class up, half empty. The
// slack lets a power-of-two payload and any header share their own class.

const (
	// minPoolShift is the smallest pooled size class (2^6 + poolSlack =
	// 128 B); tinier payloads round up to it.
	minPoolShift = 6
	// maxPoolShift is the largest pooled size class (64 MiB + poolSlack);
	// larger payloads fall back to the heap.
	maxPoolShift = 26
	// poolSlack is the per-class headroom above the power of two, sized to
	// cover every message header the runtime stages.
	poolSlack = 64
)

var msgPools [maxPoolShift - minPoolShift + 1]sync.Pool

// getBuf returns a length-n buffer whose capacity is the smallest size
// class 2^k + poolSlack covering n. Callers overwrite all n bytes, so
// recycled contents never leak between messages.
func getBuf(n int) []byte {
	if n <= 0 {
		return nil
	}
	shift := minPoolShift
	if n > 1<<minPoolShift+poolSlack {
		shift = bits.Len(uint(n - poolSlack - 1))
	}
	if shift > maxPoolShift {
		return make([]byte, n)
	}
	if v := msgPools[shift-minPoolShift].Get(); v != nil {
		return (*v.(*[]byte))[:n]
	}
	return make([]byte, n, 1<<shift+poolSlack)
}

// recycleBuf returns a buffer to its size-class pool. Only buffers whose
// capacity is exactly a pool class are accepted — that is every buffer
// getBuf handed out, and excludes arbitrary caller slices.
func recycleBuf(b []byte) {
	p := cap(b) - poolSlack
	if p < 1<<minPoolShift || p > 1<<maxPoolShift || p&(p-1) != 0 {
		return
	}
	b = b[:cap(b)]
	msgPools[bits.TrailingZeros(uint(p))-minPoolShift].Put(&b)
}

// GetBuf hands out a length-n buffer from the runtime's size-classed
// staging pools — the same free lists the message path draws from — for
// callers outside the package that stage transient I/O buffers (the
// delegation tier's read and epoch staging). The contents are stale pool
// bytes; callers must overwrite every byte they expose.
func GetBuf(n int) []byte { return getBuf(n) }

// RecycleBuf returns a GetBuf buffer to its pool. The caller must be the
// buffer's sole remaining owner.
func RecycleBuf(b []byte) { recycleBuf(b) }

// Recycle returns a delivered payload to the runtime's staging-buffer pool.
// The caller must be the payload's sole owner: point-to-point payloads
// (Recv, Request.Wait, Alltoallv) are delivered to exactly one rank and are
// safe to recycle once their bytes are consumed; Bcast and AllgatherBytes
// results are shared by every rank and must never be recycled. Recycling
// does not touch the virtual-time or fault models.
func (c *Comm) Recycle(buf []byte) { recycleBuf(buf) }

package mpi

import (
	"fmt"
	"sync"

	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/mutate"
	"github.com/tcio/tcio/internal/netsim"
	"github.com/tcio/tcio/internal/simtime"
)

// This file implements MPI-2 passive-target one-sided communication:
// windows, MPI_Win_lock / MPI_Win_unlock, MPI_Put / MPI_Get, and the
// indexed-datatype transfers TCIO uses to ship a whole level-1 buffer in a
// single network operation (§IV.A: "We use MPI_Type_indexed to combine
// multiple data blocks as one derived data type instance").
//
// The paper deliberately avoids MPI_Win_fence (a collective that would
// break TCIO's fully independent I/O calls) in favour of the lock-request
// paradigm; this runtime therefore provides per-target shared/exclusive
// window locks as the primary synchronization.

// winLock is one target's window lock. Waiting is abortable so a failed
// rank cannot deadlock the job.
//
// Virtual-time semantics: exclusive epochs serialize against everything;
// shared epochs serialize only against exclusive epochs (readers do not
// chain behind each other). The handoff instant is the end of the holder's
// critical section — the time spent issuing operations — not the wire time
// of its transfers, which the NIC resources account separately; chaining
// wire time here would doubly serialize back-to-back epochs in a way real
// RDMA hardware does not.
type winLock struct {
	mu     sync.Mutex
	cond   *sync.Cond
	excl   bool
	shared int
	// lastExcl / lastShared carry virtual time between epochs: when the
	// most recent exclusive (resp. shared) epoch handed off.
	lastExcl   simtime.Time
	lastShared simtime.Time
}

func newWinLock() *winLock {
	l := &winLock{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

func (l *winLock) acquire(exclusive bool, abortedErr func() error) (simtime.Time, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if err := abortedErr(); err != nil {
			return 0, err
		}
		if exclusive {
			if !l.excl && l.shared == 0 {
				l.excl = true
				return simtime.Max(l.lastExcl, l.lastShared), nil
			}
		} else if !l.excl {
			l.shared++
			return l.lastExcl, nil
		}
		l.cond.Wait()
	}
}

func (l *winLock) release(exclusive bool, at simtime.Time) {
	l.mu.Lock()
	if exclusive {
		l.excl = false
		if at > l.lastExcl {
			l.lastExcl = at
		}
	} else {
		if l.shared > 0 {
			l.shared--
		}
		if at > l.lastShared {
			l.lastShared = at
		}
	}
	l.mu.Unlock()
	l.cond.Broadcast()
}

func (l *winLock) wake() { l.cond.Broadcast() }

// winGlobal is the world-wide state of one window: every rank's exposed
// memory and per-target locks. sizes holds each target's declared window
// size; bufs its host bytes, nil until the target is first touched (a put
// into it, or its owner's Local), so a window nobody writes costs the
// simulator no heap. datamu serializes the backing and the physical
// (real-time) copies into and out of each target's buffer: the
// virtual-time epoch discipline orders transfers logically, but rewrite
// traffic means two goroutines can touch the same bytes at the same
// wall-clock instant.
type winGlobal struct {
	id     int
	sizes  []int64
	bufs   [][]byte
	datamu []sync.Mutex
	locks  []*winLock
}

// backing returns target's host bytes, allocating them zeroed on first
// touch. The caller holds datamu[target].
func (g *winGlobal) backing(target int) []byte {
	if g.bufs[target] == nil || mutate.Enabled(mutate.MPIWindowRebacked) {
		// The mutant re-backs a target that already holds bytes, losing
		// every earlier put and population.
		g.bufs[target] = make([]byte, g.sizes[target])
	}
	return g.bufs[target]
}

// Win is one rank's handle on a window. held maps each locked target to
// its epoch record, stored by value so opening an epoch allocates nothing
// once the map has grown to the rank's working set of targets. srcs is
// PutSegmentsAsync's reused per-block source list.
type Win struct {
	c     *Comm
	g     *winGlobal
	held  map[int]heldLock
	class netsim.Class
	srcs  [][]byte
}

// SetClass overrides the network message class used by this handle's puts
// and gets. The default is OneSided (RDMA); forcing TwoSided charges each
// transfer the send/receive matching costs instead — the ablation isolating
// the paper's claim that one-sided communication is what lets TCIO scale.
func (w *Win) SetClass(class netsim.Class) { w.class = class }

type heldLock struct {
	exclusive  bool
	maxArrival simtime.Time // latest completion among this epoch's puts
}

// perSegmentCPU is the local cost of describing one block in an indexed
// datatype (building the type, driving the scatter/gather engine).
const perSegmentCPU = 60 * simtime.Nanosecond

// WinCreate is collective: every rank exposes size bytes of window memory,
// allocated by the runtime (MPI_Win_allocate), and receives a handle.
// Window memory starts zeroed and is read and written by remote ranks only
// between Lock and Unlock. The runtime backs a target with host bytes on
// first touch; WinCreate charges no simulated memory — the caller charges
// what its program would allocate (Reserve).
func (c *Comm) WinCreate(size int64) (*Win, error) {
	if size < 0 {
		return nil, fmt.Errorf("mpi: WinCreate(%d)", size)
	}
	res, err := c.collect(size, func(vals []interface{}) interface{} {
		g := &winGlobal{
			sizes:  make([]int64, len(vals)),
			bufs:   make([][]byte, len(vals)),
			datamu: make([]sync.Mutex, len(vals)),
			locks:  make([]*winLock, len(vals)),
		}
		for i, raw := range vals {
			g.sizes[i] = raw.(int64)
			g.locks[i] = newWinLock()
		}
		c.w.winMu.Lock()
		g.id = len(c.w.windows)
		c.w.windows = append(c.w.windows, g)
		c.w.winMu.Unlock()
		return g
	}, c.treeCost(16))
	if err != nil {
		return nil, err
	}
	return &Win{c: c, g: res.(*winGlobal), held: make(map[int]heldLock), class: netsim.OneSided}, nil
}

// Size reports the declared length of the window memory exposed by
// target, backed or not.
func (w *Win) Size(target int) int64 { return w.g.sizes[target] }

// Local returns this rank's own exposed window memory, backing it with
// host bytes if nothing has touched it yet. Callers that only might use
// the memory should call it once they know they will.
func (w *Win) Local() []byte {
	mu := &w.g.datamu[w.c.rank]
	mu.Lock()
	defer mu.Unlock()
	return w.g.backing(w.c.rank)
}

// Backed reports whether target's window memory holds host bytes — the
// simulator's heap, not the simulated program's; the charge is the
// caller's either way.
func (w *Win) Backed(target int) bool {
	mu := &w.g.datamu[target]
	mu.Lock()
	defer mu.Unlock()
	return w.g.bufs[target] != nil
}

// SnapshotLocalInto copies len(dst) bytes of this rank's own window memory,
// starting at off, into a caller-owned buffer, serialized against the
// physical copies of concurrent remote puts. Background lanes that read
// window memory outside any access epoch (tcio's eager write-behind) must
// use it instead of slicing Local(): a rewrite put landing mid-read would
// otherwise be a data race. The caller's buffer lets steady-state lanes
// reuse one staging arena instead of allocating per run. An unbacked
// window reads as zeros.
func (w *Win) SnapshotLocalInto(dst []byte, off int64) {
	mu := &w.g.datamu[w.c.rank]
	mu.Lock()
	if buf := w.g.bufs[w.c.rank]; buf != nil {
		copy(dst, buf[off:off+int64(len(dst))])
	} else {
		clear(dst)
	}
	mu.Unlock()
}

// Lock opens an access epoch on target's window (MPI_Win_lock). exclusive
// corresponds to MPI_LOCK_EXCLUSIVE; otherwise MPI_LOCK_SHARED.
func (w *Win) Lock(target int, exclusive bool) error {
	if target < 0 || target >= len(w.g.sizes) {
		return fmt.Errorf("mpi: Win.Lock target %d of %d", target, len(w.g.sizes))
	}
	if _, dup := w.held[target]; dup {
		return fmt.Errorf("mpi: Win.Lock target %d already locked by rank %d", target, w.c.rank)
	}
	prevRelease, err := w.g.locks[target].acquire(exclusive, w.c.abortedErr)
	if err != nil {
		return err
	}
	// The lock request is a small round trip to the target node, and the
	// epoch cannot begin before the previous exclusive holder released.
	w.c.clock().AdvanceTo(prevRelease)
	net := w.c.w.machine.Net
	w.c.clock().Advance(2*net.Latency + net.SetupOneSided)
	w.held[target] = heldLock{exclusive: exclusive}
	return nil
}

// Unlock closes the access epoch on target (MPI_Win_unlock). All of the
// epoch's puts and gets are complete, at both origin and target, when
// Unlock returns; the origin's clock advances accordingly. The lock itself
// hands off at the end of the critical section (operations issued), so
// successors queue behind the epoch's bookkeeping, not its wire time.
func (w *Win) Unlock(target int) error {
	h, ok := w.held[target]
	if !ok {
		return fmt.Errorf("mpi: Win.Unlock target %d not locked by rank %d", target, w.c.rank)
	}
	delete(w.held, target)
	net := w.c.w.machine.Net
	handoff := w.c.clock().Now().Add(net.Latency)
	w.c.clock().AdvanceTo(h.maxArrival)
	w.c.clock().Advance(net.Latency) // unlock notification
	w.g.locks[target].release(h.exclusive, handoff)
	return nil
}

// Held reports whether this rank currently holds a lock on target.
func (w *Win) Held(target int) bool {
	_, ok := w.held[target]
	return ok
}

// epoch errors when the caller skipped Lock on target.
func (w *Win) epoch(target int, op string) error {
	if _, ok := w.held[target]; !ok {
		return fmt.Errorf("mpi: %s to target %d without holding its window lock", op, target)
	}
	return nil
}

// checkSegs validates segs against target's declared window size — every
// block non-negative and inside the window — and returns their byte
// total. Every put and get body checks its segments here, before it
// touches (or backs) the target's memory.
func (w *Win) checkSegs(op string, target int, segs []datatype.Segment) (int64, error) {
	size := w.g.sizes[target]
	var total int64
	for _, s := range segs {
		if s.Off < 0 || s.Len < 0 || s.Off+s.Len > size {
			return 0, fmt.Errorf("mpi: %s segment [%d,%d) outside window of %d bytes", op, s.Off, s.Off+s.Len, size)
		}
		total += s.Len
	}
	return total, nil
}

// noteArrival records a transfer of the open epoch on target, so Unlock
// and FlushLocal wait for the latest one.
func (w *Win) noteArrival(target int, arrival simtime.Time) {
	if h := w.held[target]; arrival > h.maxArrival {
		h.maxArrival = arrival
		w.held[target] = h
	}
}

// Put copies data into target's window at offset off (MPI_Put). The
// operation is complete only after Unlock.
func (w *Win) Put(target int, off int64, data []byte) error {
	return w.PutSegments(target, []datatype.Segment{{Off: off, Len: int64(len(data))}}, data)
}

// PutSegments scatters data into target's window according to segs — the
// runtime equivalent of a single MPI_Put with an MPI_Type_indexed target
// datatype: one network transfer regardless of the number of blocks.
// data holds the blocks' bytes concatenated in segment order.
func (w *Win) PutSegments(target int, segs []datatype.Segment, data []byte) error {
	_, err := w.PutSegmentsAsync(target, segs, data)
	return err
}

// PutHandle is an in-flight request-based put (MPI_Rput): the origin may
// wait for this one transfer's local completion without closing the access
// epoch it was issued in. Unlock still completes every put of the epoch, so
// dropping a handle is always safe. Handles are values, so pipelined
// origins can queue them without a heap allocation per put.
type PutHandle struct {
	c       *Comm
	arrival simtime.Time
}

// Complete waits (in virtual time) for the transfer to retire.
func (h PutHandle) Complete() { h.c.clock().AdvanceTo(h.arrival) }

// Arrival reports when the transfer retires at the target, without
// waiting. Pipelines that record where data will be use it to timestamp
// dependent work — tcio's write-behind stores it with each dirty run so
// the owner never drains bytes before their virtual-time arrival.
func (h PutHandle) Arrival() simtime.Time { return h.arrival }

// PendingArrival reports the latest completion time among the open epoch's
// transfers to target, without waiting — zero when no epoch is open. It is
// the observational counterpart of FlushLocal: background pipelines use it
// to timestamp work that depends on the epoch's data without dragging the
// origin's clock.
func (w *Win) PendingArrival(target int) simtime.Time {
	if h, ok := w.held[target]; ok {
		return h.maxArrival
	}
	return 0
}

// PutSegmentsAsync is PutSegments returning an Rput-style handle, so a
// pipelined origin can bound its outstanding transfers by retiring the
// oldest handle instead of closing whole epochs. data holds the blocks
// packed in segment order; see PutSegmentsFrom for the gathering form.
func (w *Win) PutSegmentsAsync(target int, segs []datatype.Segment, data []byte) (PutHandle, error) {
	var total int64
	for _, s := range segs {
		total += max(s.Len, 0)
	}
	if total != int64(len(data)) {
		return PutHandle{}, fmt.Errorf("mpi: Put %d bytes for segments totalling %d", len(data), total)
	}
	srcs := w.srcs[:0]
	at := int64(0)
	for _, s := range segs {
		n := max(s.Len, 0)
		srcs = append(srcs, data[at:at+n])
		at += n
	}
	h, err := w.PutSegmentsFrom(target, segs, srcs)
	clear(srcs) // hold no reference to the caller's data past the put
	w.srcs = srcs[:0]
	return h, err
}

// PutSegmentsFrom is PutSegmentsAsync gathering each block straight from
// the caller's memory: segment i's bytes come from srcs[i], which must be
// exactly segs[i].Len bytes long — one indexed put whose origin datatype
// describes the data where it lies, so the caller never packs it into a
// contiguous buffer first. It is the mirror of GetSegmentsInto, and its
// charge is PutSegmentsAsync's for the same segments.
func (w *Win) PutSegmentsFrom(target int, segs []datatype.Segment, srcs [][]byte) (PutHandle, error) {
	if err := w.epoch(target, "Put"); err != nil {
		return PutHandle{}, err
	}
	if len(srcs) != len(segs) {
		return PutHandle{}, fmt.Errorf("mpi: Put %d sources for %d segments", len(srcs), len(segs))
	}
	total, err := w.checkSegs("Put", target, segs)
	if err != nil {
		return PutHandle{}, err
	}
	for i, s := range segs {
		if int64(len(srcs[i])) != s.Len {
			return PutHandle{}, fmt.Errorf("mpi: Put segment %d is %d bytes, source %d", i, s.Len, len(srcs[i]))
		}
	}
	mu := &w.g.datamu[target]
	mu.Lock()
	buf := w.g.backing(target)
	for i, s := range segs {
		src := srcs[i]
		if mutate.Enabled(mutate.MPIPutFromSkew) && i > 0 {
			// Deliberate bug: gather each block from the previous run's
			// source.
			src = srcs[i-1]
		}
		copy(buf[s.Off:s.Off+s.Len], src)
	}
	mu.Unlock()
	depart := w.c.clock().Advance(sendOverhead + simtime.Duration(len(segs))*perSegmentCPU)
	arrival := w.c.w.net.Transfer(
		w.c.w.machine.NodeOf(w.c.rank), w.c.w.machine.NodeOf(target),
		w.c.w.machine.Scale(total), depart, w.class)
	w.noteArrival(target, arrival)
	return PutHandle{c: w.c, arrival: arrival}, nil
}

// FlushLocal completes all outstanding operations this rank issued to
// target in the current access epoch, at the origin (MPI_Win_flush_local):
// the caller's clock waits for their transfers without releasing the lock,
// so the epoch can keep pipelining afterwards.
func (w *Win) FlushLocal(target int) error {
	if err := w.epoch(target, "FlushLocal"); err != nil {
		return err
	}
	w.c.clock().AdvanceTo(w.held[target].maxArrival)
	return nil
}

// Get copies n bytes from target's window at offset off (MPI_Get).
func (w *Win) Get(target int, off, n int64) ([]byte, error) {
	return w.GetSegments(target, []datatype.Segment{{Off: off, Len: n}})
}

// GetSegments gathers the given window segments of target into one dense
// buffer — a single MPI_Get with an indexed datatype, one network transfer.
// The caller's clock waits for the transfer (the data is needed on return).
func (w *Win) GetSegments(target int, segs []datatype.Segment) ([]byte, error) {
	h, err := w.GetSegmentsAsync(target, segs)
	if err != nil {
		return nil, err
	}
	return h.Complete(), nil
}

// GetHandle is an in-flight asynchronous get. Its data is guaranteed only
// after Complete or after unlocking the access epoch it was issued in.
type GetHandle struct {
	c       *Comm
	data    []byte
	arrival simtime.Time
}

// Complete waits (in virtual time) for the transfer and returns the data.
func (h *GetHandle) Complete() []byte {
	h.c.clock().AdvanceTo(h.arrival)
	return h.data
}

// GetSegmentsAsync issues a get without waiting for its wire time: the
// origin only pays the issue overhead now, and the epoch's Unlock (or the
// handle's Complete) synchronizes with the transfer. This is how an MPI
// program overlaps many gets within one lock epoch before a single
// MPI_Win_unlock. The blocks land concatenated in one fresh buffer; see
// GetSegmentsInto for the allocation-free form.
func (w *Win) GetSegmentsAsync(target int, segs []datatype.Segment) (*GetHandle, error) {
	var total int64
	for _, s := range segs {
		total += max(s.Len, 0)
	}
	out := make([]byte, total)
	dsts := make([][]byte, len(segs))
	at := int64(0)
	for i, s := range segs {
		n := max(s.Len, 0)
		dsts[i] = out[at : at+n]
		at += n
	}
	arrival, err := w.GetSegmentsInto(target, segs, dsts)
	if err != nil {
		return nil, err
	}
	return &GetHandle{c: w.c, data: out, arrival: arrival}, nil
}

// GetSegmentsInto is GetSegmentsAsync delivering each block straight into
// the caller's buffer for it: segment i is copied into dsts[i], which must
// be exactly segs[i].Len bytes long — one indexed get scattering into the
// readers' own memory, with no intermediate buffer. It returns when the
// transfer retires; the data is guaranteed once the epoch is unlocked (or
// the origin's clock has reached that instant).
func (w *Win) GetSegmentsInto(target int, segs []datatype.Segment, dsts [][]byte) (simtime.Time, error) {
	if err := w.epoch(target, "Get"); err != nil {
		return 0, err
	}
	if len(dsts) != len(segs) {
		return 0, fmt.Errorf("mpi: Get %d destinations for %d segments", len(dsts), len(segs))
	}
	total, err := w.checkSegs("Get", target, segs)
	if err != nil {
		return 0, err
	}
	for i, s := range segs {
		if int64(len(dsts[i])) != s.Len {
			return 0, fmt.Errorf("mpi: Get segment %d is %d bytes, destination %d", i, s.Len, len(dsts[i]))
		}
	}
	mu := &w.g.datamu[target]
	mu.Lock()
	// A get never backs its target: an untouched window reads as zeros.
	buf := w.g.bufs[target]
	for i, s := range segs {
		if buf != nil {
			copy(dsts[i], buf[s.Off:s.Off+s.Len])
		} else {
			clear(dsts[i])
		}
	}
	mu.Unlock()
	depart := w.c.clock().Advance(sendOverhead + simtime.Duration(len(segs))*perSegmentCPU)
	arrival := w.c.w.net.Transfer(
		w.c.w.machine.NodeOf(target), w.c.w.machine.NodeOf(w.c.rank),
		w.c.w.machine.Scale(total), depart, w.class)
	w.noteArrival(target, arrival)
	return arrival, nil
}

// Fence is the collective synchronization alternative (MPI_Win_fence).
// TCIO does not use it — the paper rejects fences because they would force
// collective behaviour on independent I/O calls — but it is provided for
// completeness and for the ablation benchmarks.
func (w *Win) Fence() error {
	return w.c.Barrier()
}

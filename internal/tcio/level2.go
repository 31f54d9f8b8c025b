package tcio

// The level-2 layer (paper §IV.A): segments exposed through an MPI
// one-sided window, addressed by the round-robin mapping of equations
// (1)-(3), and fed by passive-target puts whose epochs pipeline up to
// Config.PipelineDepth.

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/faults"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/mutate"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/trace"
)

// l2Shards is the shard count of the shared segment metadata — a power of
// two so the shard of a segment is a mask, sized to keep collisions rare at
// realistic worker counts without bloating small files.
const l2Shards = 16

// l2meta is the bookkeeping shared by all ranks of one TCIO file: which
// parts of each global segment hold buffered data (dirty, writes), which of
// those runs have not reached the file system yet (pending — the write-
// behind lane consumes them), and which segments have been populated from
// the file system (reads).
//
// Every operation touches exactly one segment, so the segments are sharded
// by index: with thousands of rank goroutines shipping concurrently, a
// single mutex in front of the metadata was a global serialization point.
// Each shard carries its own lock and segment map; segments hash to shards
// by low bits, which spreads the round-robin segment ownership evenly.
// One map entry holds all of a segment's state, so an operation costs one
// lookup under the lock.
type l2meta struct {
	shards [l2Shards]l2shard
	// journal arms the unlogged-run bookkeeping the epoch log consumes;
	// disarmed, the unjournaled write path does zero extra bookkeeping.
	journal bool
}

// l2shard holds the metadata of the segments hashing to one shard.
type l2shard struct {
	mu   sync.Mutex
	segs map[int64]*segMeta // global segment -> its state, created on first write or population
}

// segMeta is one global segment's shared state. Run lists are segment-
// relative and coalesced.
type segMeta struct {
	dirty   []extent.Extent // every buffered run
	pending []extent.Extent // dirty runs not yet drained
	// arrival is the latest virtual-time put arrival among the pending
	// runs. The origin records it at issue time (it knows the handle's
	// arrival); whoever drains the runs must not depart before it — the
	// data is not in the owner's window, in virtual time, until then.
	arrival simtime.Time
	// unlogged holds the dirty runs the owner's journal has not recorded
	// yet; journalEpoch consumes them at each Flush/Close.
	unlogged  []extent.Extent
	populated bool
	// popRuns tracks partial population (the sieved read path): the runs
	// of a not-fully-populated segment whose window bytes are already
	// valid. Empty once the segment is fully populated.
	popRuns []extent.Extent
}

// newL2Meta builds empty shared metadata for one open file. journal arms
// the unlogged-run bookkeeping the epoch log consumes.
func newL2Meta(journal bool) *l2meta {
	m := &l2meta{journal: journal}
	for i := range m.shards {
		m.shards[i].segs = make(map[int64]*segMeta)
	}
	return m
}

// lock locks the shard owning a global segment and returns it with the
// segment's state, nil when the segment was never touched.
func (m *l2meta) lock(seg int64) (*l2shard, *segMeta) {
	s := &m.shards[seg&(l2Shards-1)]
	s.mu.Lock()
	return s, s.segs[seg]
}

// lockCreate is lock creating the segment's state on first touch.
func (m *l2meta) lockCreate(seg int64) (*l2shard, *segMeta) {
	s, sm := m.lock(seg)
	if sm == nil {
		sm = &segMeta{}
		s.segs[seg] = sm
	}
	return s, sm
}

// addDirty records freshly shipped runs and the virtual time their put
// retires at the target, so a drain consuming them can respect causality.
// The run lists stay coalesced by incremental merge (extent.Add), so a
// shipment costs a binary search per run, not a re-sort of the segment.
// runs is only read; the caller may reuse it on return.
func (m *l2meta) addDirty(seg int64, runs []extent.Extent, at simtime.Time) {
	s, sm := m.lockCreate(seg)
	defer s.mu.Unlock()
	sm.dirty = extent.Add(sm.dirty, runs)
	if mutate.Enabled(mutate.TCIOLostPendingRun) {
		sm.pending = extent.Add(nil, runs)
	} else {
		sm.pending = extent.Add(sm.pending, runs)
	}
	if at > sm.arrival {
		sm.arrival = at
	}
	if m.journal {
		sm.unlogged = extent.Add(sm.unlogged, runs)
	}
}

// takeUnlogged removes and returns the segment's not-yet-journaled runs
// (segment-relative). The owner consumes them at each journalEpoch.
func (m *l2meta) takeUnlogged(seg int64) []extent.Extent {
	s, sm := m.lock(seg)
	defer s.mu.Unlock()
	if sm == nil {
		return nil
	}
	runs := sm.unlogged
	sm.unlogged = nil
	return runs
}

// isDirty reports whether the segment holds any buffered runs, drained or
// not — whether its window bytes are live data. It answers under the lock
// instead of handing out the run list, which addDirty rewrites in place.
func (m *l2meta) isDirty(seg int64) bool {
	s, sm := m.lock(seg)
	defer s.mu.Unlock()
	return sm != nil && len(sm.dirty) > 0
}

// hasDirty reports whether the segment still has undrained runs — the
// prefetch cache refuses to evict such segments.
func (m *l2meta) hasDirty(seg int64) bool {
	s, sm := m.lock(seg)
	defer s.mu.Unlock()
	return sm != nil && len(sm.pending) > 0
}

// takePending removes and returns the segment's undrained runs and their
// latest put arrival. The final drain uses it directly; runs written after
// an eager drain re-enter pending, so rewrites are drained again and the
// last bytes always win.
func (m *l2meta) takePending(seg int64) ([]extent.Extent, simtime.Time) {
	return m.takeCovered(seg, 0)
}

// takeCovered is takePending gated on coverage: it removes and returns the
// undrained runs only when they total at least need bytes — the write-
// behind trigger, evaluated and consumed under one lock so two checks can
// never drain the same runs twice.
func (m *l2meta) takeCovered(seg int64, need int64) ([]extent.Extent, simtime.Time) {
	s, sm := m.lock(seg)
	defer s.mu.Unlock()
	if sm == nil || extent.Total(sm.pending) < need {
		return nil, 0
	}
	runs, at := sm.pending, sm.arrival
	sm.pending, sm.arrival = nil, 0
	return runs, at
}

func (m *l2meta) isPopulated(seg int64) bool {
	s, sm := m.lock(seg)
	defer s.mu.Unlock()
	return sm != nil && sm.populated
}

func (m *l2meta) setPopulated(seg int64) {
	s, sm := m.lockCreate(seg)
	defer s.mu.Unlock()
	sm.populated = true
	sm.popRuns = nil
}

// missingRuns returns the segment-relative parts of needed whose window
// bytes are not yet valid. Full population, earlier sieved runs, and dirty
// runs (freshly written — newer than the file, so a sieve must never
// overwrite them with file bytes) all count as present.
func (m *l2meta) missingRuns(seg int64, needed []extent.Extent) []extent.Extent {
	s, sm := m.lock(seg)
	defer s.mu.Unlock()
	var have []extent.Extent
	if sm != nil {
		if sm.populated {
			return nil
		}
		have = append(append(have, sm.popRuns...), sm.dirty...)
	}
	return extent.Subtract(needed, have)
}

// addPopRuns records sieved (partial) population; once the recorded runs
// cover the whole segment window it is promoted to fully populated, so
// later fetches take the fast path.
func (m *l2meta) addPopRuns(seg int64, runs []extent.Extent, segSize int64) {
	s, sm := m.lockCreate(seg)
	defer s.mu.Unlock()
	if sm.populated {
		return
	}
	sm.popRuns = extent.Add(sm.popRuns, runs)
	if extent.Covers(sm.popRuns, 0, segSize) {
		sm.populated = true
		sm.popRuns = nil
	}
}

// locate applies the paper's equations (1)-(3) to a file offset.
func (f *File) locate(off int64) (rank int, slot int64, disp int64) {
	return f.layout.Locate(off)
}

// globalSegment returns the global segment index of a file offset.
func (f *File) globalSegment(off int64) int64 { return f.layout.Segment(off) }

// segmentOwner returns the owning rank and local slot of a global segment.
func (f *File) segmentOwner(seg int64) (rank int, slot int64) {
	return f.layout.Owner(seg)
}

// ship performs the one-sided transfer of segment-relative runs into the
// owner's window and records them as dirty. srcs[i] holds run i's bytes.
//
// A shared lock suffices: different ranks put into disjoint byte ranges of
// the segment (their own blocks), so concurrent epochs are safe. The epoch
// is left open (recorded in openOwners) so that successive flushes to the
// same owner pipeline; Flush and Close end all open epochs with one wave of
// unlocks whose completion waits overlap.
func (f *File) ship(seg int64, runs []extent.Extent, srcs [][]byte) error {
	if f.aggEnabled {
		// Aggregated path: hand the runs to this segment's node leader over
		// the intra-node fabric; the leader puts the node's merged runs at
		// the next collective (nodeagg.go).
		return f.depositForAggregation(seg, runs, srcs)
	}
	owner, slot := f.segmentOwner(seg)
	if slot >= int64(f.numSeg) {
		return fmt.Errorf("%w: segment %d needs slot %d of %d", ErrCapacity, seg, slot, f.numSeg)
	}
	winRuns := f.winRunsScratch[:0]
	for _, r := range runs {
		winRuns = append(winRuns, extent.Extent{Off: slot*f.segSize + r.Off, Len: r.Len})
	}
	f.winRunsScratch = winRuns[:0]
	t0 := f.c.Now()
	if err := f.openEpochFor(owner); err != nil {
		return err
	}
	f.reserveInflight()
	t1 := f.c.Now()
	h, err := f.putSegmentsRetry(owner, seg, winRuns, srcs)
	if err != nil {
		return err
	}
	f.inflight = append(f.inflight, h)
	t2 := f.c.Now()
	f.stats.LockWait += t1.Sub(t0)
	f.stats.PutIssue += t2.Sub(t1)
	f.meta.addDirty(seg, runs, h.Arrival())
	f.stats.Level1Flush++
	if f.tracing() {
		f.emit(trace.KindFlush, t0, extent.Total(runs), fmt.Sprintf("seg=%d owner=%d runs=%d", seg, owner, len(runs)))
	}
	return f.maybeWriteBehind()
}

// openEpochFor ensures a shared put epoch is open on owner, touching the
// LRU order on reuse and evicting the coldest epoch when the pipeline
// window is full.
func (f *File) openEpochFor(owner int) error {
	if f.win.Held(owner) {
		// Reuse marks the epoch hot: move it to the back of the LRU order
		// so eviction hits the coldest target, not the hottest.
		f.touchEpoch(owner)
		return nil
	}
	// Bound the open epochs: evict the least-recently-used one once the
	// window is full.
	for len(f.openOwners) >= f.cfg.PipelineDepth {
		coldest := f.openOwners[0]
		f.openOwners = slices.Delete(f.openOwners, 0, 1)
		f.stats.EpochEvictions++
		if err := f.win.Unlock(coldest); err != nil {
			return err
		}
	}
	if err := f.win.Lock(owner, false); err != nil {
		return err
	}
	f.openOwners = append(f.openOwners, owner)
	return nil
}

// reserveInflight bounds the outstanding transfers, independently of the
// epochs: the oldest Rput handle retires when the pipeline window is full.
func (f *File) reserveInflight() {
	for len(f.inflight) >= f.cfg.PipelineDepth {
		f.inflight[0].Complete()
		f.inflight = slices.Delete(f.inflight, 0, 1)
	}
}

// touchEpoch moves owner to the most-recently-used end of openOwners.
func (f *File) touchEpoch(owner int) {
	for i, o := range f.openOwners {
		if o == owner {
			copy(f.openOwners[i:], f.openOwners[i+1:])
			f.openOwners[len(f.openOwners)-1] = owner
			return
		}
	}
}

// putSegmentsRetry issues one one-sided put, absorbing injected NIC
// work-request drops (faults.SiteWinPut) under the shared faults.Retry
// driver. The fault roll is keyed by this rank's shipment number so chaos
// runs replay exactly; each backoff burns virtual time on the origin, as a
// real sender re-posting a dropped work request would.
func (f *File) putSegmentsRetry(owner int, seg int64, runs []extent.Extent, srcs [][]byte) (mpi.PutHandle, error) {
	inj := f.c.Faults()
	ship := f.shipCount
	f.shipCount++
	start := f.c.Now()
	var handle mpi.PutHandle
	end, retries, err := faults.Retry(start, f.retry,
		func(at simtime.Time, attempt int64) (simtime.Time, error) {
			f.c.AdvanceTo(at) // charge the preceding backoff, if any
			if inj.Should(faults.SiteWinPut, int64(f.c.Rank()), ship, attempt) {
				return f.c.Now(), inj.Fault(faults.SiteWinPut, "rank=%d seg=%d owner=%d",
					f.c.Rank(), seg, owner)
			}
			var perr error
			handle, perr = f.win.PutSegmentsFrom(owner, runs, srcs)
			return f.c.Now(), perr
		})
	f.c.AdvanceTo(end)
	if retries > 0 {
		f.stats.Retries += retries
		if f.tracing() {
			f.emit(trace.KindRetry, start, 0,
				fmt.Sprintf("put seg=%d owner=%d retries=%d", seg, owner, retries))
		}
	}
	if err != nil {
		return mpi.PutHandle{}, fmt.Errorf("tcio: ship segment %d to rank %d: %w", seg, owner, err)
	}
	return handle, nil
}

// closeEpochs unlocks every open put epoch; the unlock completions overlap.
// All unlock errors are reported, joined — under chaos, a failure on one
// target must not mask failures on the others.
func (f *File) closeEpochs() error {
	t0 := f.c.Now()
	var errs []error
	for _, owner := range f.openOwners {
		if err := f.win.Unlock(owner); err != nil {
			errs = append(errs, err)
		}
	}
	f.openOwners = f.openOwners[:0]
	f.inflight = f.inflight[:0] // unlocks completed every outstanding put
	f.stats.UnlockWait += f.c.Now().Sub(t0)
	return errors.Join(errs...)
}

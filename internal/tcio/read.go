package tcio

// The lazy read path (paper §IV.B): Read/ReadAt only record destination
// buffers; Fetch performs the real one-sided gets, batched per owner so
// the epochs' transfer waits overlap.

import (
	"fmt"
	"slices"

	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/trace"
)

// readReq is one recorded lazy read: fill dst from the given file offset.
type readReq struct {
	off int64
	dst []byte
}

// segGroup is the queued reads of one global segment, in queue order.
type segGroup struct {
	seg  int64
	reqs []readReq
	n    int // len(reqs), counted before the requests are laid out
}

// Read records a lazy read of n bytes at the current pointer and returns
// the destination buffer. The buffer's contents are defined only after
// Fetch (or Close) — the paper's lazy-loading contract.
func (f *File) Read(n int64) ([]byte, error) {
	dst := make([]byte, n)
	if err := f.ReadAt(f.pos, dst); err != nil {
		return nil, err
	}
	f.pos += n
	return dst, nil
}

// ReadTyped lazily reads count elements of type t at the current pointer
// and scatters them into mem according to the type's layout — the
// tcio_read(fh, data, count, MPI_Datatype) entry point. Like all TCIO
// reads, mem is defined only after Fetch (or Close).
func (f *File) ReadTyped(mem []byte, count int, t datatype.Type) error {
	need := int64(count) * t.Extent()
	if int64(len(mem)) < need {
		return fmt.Errorf("tcio: ReadTyped needs %d bytes of destination, have %d", need, len(mem))
	}
	staging := make([]byte, int64(count)*t.Size())
	if err := f.ReadAt(f.pos, staging); err != nil {
		return err
	}
	f.pos += int64(len(staging))
	f.postFetch = append(f.postFetch, func() {
		// Unpack cannot fail here: sizes were validated above.
		_ = datatype.Unpack(staging, mem, t, count)
	})
	return nil
}

// ReadAt records a lazy read filling dst from the given file offset
// (tcio_read_at). Data lands in dst at the next Fetch, segment
// realignment, or Close.
func (f *File) ReadAt(off int64, dst []byte) error {
	switch {
	case f.closed:
		return ErrClosed
	case f.mode != ReadMode:
		return fmt.Errorf("%w: read on %s handle", ErrMode, f.mode)
	case off < 0:
		return fmt.Errorf("tcio: negative offset %d", off)
	}
	f.stats.Reads++
	f.stats.BytesRead += int64(len(dst))
	if f.tracing() {
		f.emit(trace.KindRead, f.c.Now(), int64(len(dst)), fmt.Sprintf("off=%d", off))
	}
	for len(dst) > 0 {
		seg := f.globalSegment(off)
		segOff := off % f.segSize
		n := f.segSize - segOff
		if n > int64(len(dst)) {
			n = int64(len(dst))
		}
		if !f.layout.InRange(seg) {
			_, slot := f.segmentOwner(seg)
			return fmt.Errorf("%w: offset %d needs slot %d of %d (raise NumSegments)",
				ErrCapacity, off, slot, f.numSeg)
		}
		// Track the span of queued reads; once it exceeds the batch of
		// segments, perform the real data movement (the "file domain of
		// cached reads exceeds the level-1 buffer" rule, batched).
		if f.pendingSeg != seg {
			f.pendingDistinct++
			f.pendingSeg = seg
			if f.pendingDistinct > f.cfg.FetchBatch {
				// Always the independent path, even under CollectiveRead: a
				// rank-local batch overflow cannot be a collective call —
				// peers may be anywhere in their own compute.
				if err := f.fetchIndependent(); err != nil {
					return err
				}
				f.pendingDistinct = 1
				f.pendingSeg = seg
			}
		}
		f.c.Compute(f.pieceCPU)
		f.pending = append(f.pending, readReq{off: off, dst: dst[:n]})
		off += n
		dst = dst[n:]
	}
	return nil
}

// Fetch completes all recorded lazy reads (tcio_fetch). By default it is
// independent: only the calling rank participates. Under
// Config.CollectiveRead it is instead the two-phase collective exchange of
// collective.go — every rank of the read session must call it together.
func (f *File) Fetch() error {
	if f.closed {
		return ErrClosed
	}
	if f.cfg.CollectiveRead && f.mode == ReadMode {
		return f.fetchCollective()
	}
	return f.fetchIndependent()
}

// fetchIndependent is the rank-local fetch: gets for all queued segments
// are issued asynchronously under concurrently held shared window locks —
// one epoch per owner — so their wire times overlap instead of
// serializing.
func (f *File) fetchIndependent() error {
	if len(f.pending) == 0 {
		f.pendingSeg = -1
		f.pendingDistinct = 0
		f.runPostFetch()
		return nil
	}
	groups := f.groupPending()

	// Phase 1: make sure every needed segment is populated (only possible
	// in demand mode; the default preloads at Open). Population needs the
	// owner's exclusive lock. With prefetch armed, each step serves the
	// current segment (from the cache when it was staged in time), then
	// pushes the background lane ahead over the batch's forward-consecutive
	// successors — after the current segment's read, so the rank's file
	// system request order is exactly the demand loop's. With the sieve
	// armed, only the runs the queued reads need are staged (sieve.go)
	// instead of the whole segment; a staged prefetch still wins — its
	// whole-segment read already happened, so sieving after it would only
	// re-read bytes the cache holds.
	for i, g := range groups {
		seg := g.seg
		if f.meta.isPopulated(seg) {
			f.dropWastedPrefetch(seg)
			continue
		}
		owner, slot := f.segmentOwner(seg)
		if err := f.win.Lock(owner, true); err != nil {
			return err
		}
		if !f.meta.isPopulated(seg) {
			var perr error
			if e, ok := f.takePrefetched(seg); ok {
				perr = f.populateFromCache(seg, owner, slot, e)
			} else if f.sieveArmed() {
				perr = f.sievePopulate(seg, owner, slot, segmentRuns(g.reqs, f.segSize))
			} else {
				perr = f.populate(seg, owner, slot)
			}
			if perr == nil {
				perr = f.maybePrefetch(groups, i)
			}
			if perr != nil {
				f.win.Unlock(owner)
				return perr
			}
		} else {
			f.dropWastedPrefetch(seg)
		}
		if err := f.win.Unlock(owner); err != nil {
			return err
		}
	}
	return f.fetchGets(groups)
}

// groupPending groups the queued lazy reads by global segment, in first-
// appearance order, keeping queue order within each segment (a stable
// counting sort; ReadAt already split every request at segment
// boundaries), and resets the queue. The groups and their requests live
// in per-session scratch, valid until the next call.
func (f *File) groupPending() []segGroup {
	if f.segIdx == nil {
		f.segIdx = make(map[int64]int)
	}
	clear(f.segIdx)
	groups, idx := f.groups[:0], f.reqGroup[:0]
	for _, r := range f.pending {
		seg := f.globalSegment(r.off)
		g, ok := f.segIdx[seg]
		if !ok {
			g = len(groups)
			f.segIdx[seg] = g
			groups = append(groups, segGroup{seg: seg})
		}
		groups[g].n++
		idx = append(idx, g)
	}
	grouped := slices.Grow(f.grouped[:0], len(f.pending))[:len(f.pending)]
	at := 0
	for i := range groups {
		groups[i].reqs = grouped[at : at : at+groups[i].n]
		at += groups[i].n
	}
	for k, r := range f.pending {
		groups[idx[k]].reqs = append(groups[idx[k]].reqs, r)
	}
	f.groups, f.reqGroup, f.grouped = groups, idx, grouped
	f.pending = f.pending[:0]
	f.pendingSeg = -1
	f.pendingDistinct = 0
	return groups
}

// fetchGets is the data-movement phase shared by the independent and
// collective fetch paths: shared-lock each owner once, issue every
// segment's get asynchronously, then unlock — Unlock synchronizes with the
// epoch's transfers, so the waits overlap across owners and segments. Each
// get scatters straight into its readers' destination slices.
func (f *File) fetchGets(groups []segGroup) error {
	if len(groups) == 0 {
		f.runPostFetch()
		return nil
	}
	if f.ownerSeen == nil {
		f.ownerSeen = make(map[int]bool)
	}
	clear(f.ownerSeen)
	lockOrder := f.lockOrder[:0]
	for _, g := range groups {
		owner, _ := f.segmentOwner(g.seg)
		if !f.ownerSeen[owner] {
			f.ownerSeen[owner] = true
			lockOrder = append(lockOrder, owner)
		}
	}
	f.lockOrder = lockOrder
	for _, owner := range lockOrder {
		if err := f.win.Lock(owner, false); err != nil {
			return err
		}
	}
	var issueErr error
	var fetched int64
	for _, g := range groups {
		owner, slot := f.segmentOwner(g.seg)
		runs, dsts := f.getRuns[:0], f.getDsts[:0]
		for _, r := range g.reqs {
			runs = append(runs, extent.Extent{Off: slot*f.segSize + r.off%f.segSize, Len: int64(len(r.dst))})
			dsts = append(dsts, r.dst)
			fetched += int64(len(r.dst))
		}
		f.getRuns, f.getDsts = runs, dsts
		if _, err := f.win.GetSegmentsInto(owner, runs, dsts); err != nil {
			issueErr = err
			break
		}
		f.stats.Gets++
	}
	for _, owner := range lockOrder {
		if err := f.win.Unlock(owner); err != nil && issueErr == nil {
			issueErr = err
		}
	}
	if issueErr != nil {
		return issueErr
	}
	// All epochs are closed: every get's data is complete.
	if f.tracing() {
		f.emit(trace.KindFetch, f.c.Now(), fetched, fmt.Sprintf("segments=%d", len(groups)))
	}
	f.runPostFetch()
	return nil
}

// runPostFetch fires and clears the typed-read unpack hooks.
func (f *File) runPostFetch() {
	hooks := f.postFetch
	f.postFetch = nil
	for _, h := range hooks {
		h()
	}
}

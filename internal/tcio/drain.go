package tcio

// The file system side of TCIO: populating level-2 segments from the file
// (reads) and draining dirty runs back to it (writes). All transfers go
// through the storage layer, which batches retry handling, tracing, and
// virtual-time charging — and, with Config.DrainWorkers > 1, overlaps
// requests across distinct OSTs.

import (
	"fmt"

	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/storage"
	"github.com/tcio/tcio/internal/trace"
)

// populate loads one whole segment from the file system into its owner's
// window — the aggregated read that makes TCIO's read path collective in
// effect. The caller must hold the owner's exclusive window lock.
func (f *File) populate(seg int64, owner int, slot int64) error {
	base := f.layout.SegStart(seg)
	n := f.segSize
	if size := f.store.File().Size(); base+n > size {
		n = size - base
	}
	if n <= 0 {
		f.meta.setPopulated(seg)
		return nil
	}
	// Reused staging: both the file system read and the window put move
	// their bytes physically before returning, so one segment-sized buffer
	// serves every population this rank performs. Plain memory, like the
	// per-call allocation it replaces: never charged to the simulated-memory
	// accountant (only Malloc/Reserve roll SiteMemAlloc), so the per-rank
	// allocation fault stream is unchanged.
	if f.popBuf == nil {
		f.popBuf = make([]byte, f.segSize)
	}
	buf := f.popBuf[:n]
	res, err := f.store.ReadExtents("tcio: populate", trace.KindPopulate,
		[]storage.Request{{Off: base, Data: buf, Tag: fmt.Sprintf("seg=%d", seg)}})
	f.stats.Retries += res.Retries
	if err != nil {
		return err
	}
	if err := f.win.PutSegments(owner, []extent.Extent{{Off: slot * f.segSize, Len: n}}, buf); err != nil {
		return err
	}
	f.meta.setPopulated(seg)
	f.stats.Populations++
	return nil
}

// preloadAll populates every local slot that overlaps the file — the eager
// ablation. Each rank reads only its own segments, so the file system sees
// P large disjoint requests; one storage batch lets them fan out per OST.
func (f *File) preloadAll() error {
	size := f.store.File().Size()
	var local []byte // backed only once this rank has a segment to load
	var reqs []storage.Request
	var segs []int64
	for slot := int64(0); slot < int64(f.numSeg); slot++ {
		seg := f.layout.RankSegment(f.c.Rank(), slot)
		base := f.layout.SegStart(seg)
		if base >= size {
			break
		}
		n := f.segSize
		if base+n > size {
			n = size - base
		}
		if local == nil {
			local = f.win.Local()
		}
		reqs = append(reqs, storage.Request{
			Off:  base,
			Data: local[slot*f.segSize : slot*f.segSize+n],
			Tag:  fmt.Sprintf("seg=%d (preload)", seg),
		})
		segs = append(segs, seg)
	}
	res, err := f.store.ReadExtents("tcio: preload", trace.KindPopulate, reqs)
	f.stats.Retries += res.Retries
	f.stats.Populations += res.Requests
	if err != nil {
		return err
	}
	for _, seg := range segs {
		f.meta.setPopulated(seg)
	}
	return f.c.Barrier()
}

// drain writes this rank's still-undrained level-2 runs to the file system
// as one storage batch of large aligned requests. With write-behind armed,
// most segments already left on the background lane and only the residue
// remains; the rank then synchronizes with the lane so Close returns with
// every byte on disk.
func (f *File) drain() error {
	// Spilled slots first: their bytes live in the journal, not (in
	// simulated terms) in the window, so the drain pays the read-back
	// before it may write them (journal.go).
	if err := f.refaultSpilled(); err != nil {
		return err
	}
	var local []byte // backed only once this rank has a run to drain
	var reqs []storage.Request
	for slot := int64(0); slot < int64(f.numSeg); slot++ {
		seg := f.layout.RankSegment(f.c.Rank(), slot)
		runs, arrival := f.meta.takePending(seg)
		if len(runs) == 0 {
			continue
		}
		if local == nil {
			local = f.win.Local()
		}
		// The barrier before drain already synchronized every rank past its
		// unlocks, so the recorded put arrivals are in this rank's past;
		// AdvanceTo keeps the causal bound explicit (and free) regardless.
		f.c.AdvanceTo(arrival)
		base := f.layout.SegStart(seg)
		for _, r := range runs {
			reqs = append(reqs, storage.Request{
				Off:  base + r.Off,
				Data: local[slot*f.segSize+r.Off : slot*f.segSize+r.Off+r.Len],
				Tag:  fmt.Sprintf("seg=%d off=%d", seg, base+r.Off),
			})
		}
	}
	res, err := f.store.WriteExtents("tcio: drain", trace.KindDrain, reqs)
	f.stats.Retries += res.Retries
	f.stats.FSWrites += res.Requests
	f.stats.FlushResidue += res.Requests
	f.settleWriteBehind()
	return err
}

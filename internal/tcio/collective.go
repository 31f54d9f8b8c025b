package tcio

// The two-phase collective read (Config.CollectiveRead, DESIGN.md §2d) —
// OCIO's read-side discipline grafted onto TCIO's window machinery. Phase
// one: the ranks exchange their queued read intents (coalesced
// file-absolute runs) with one allgather, and each rank stages the union
// of all intents falling in its own segments — through the data sieve when
// SieveBuffer > 0, as whole-segment populations otherwise — with local
// window writes under its own lock, so each file-domain extent is fetched
// exactly once, by its owner, with no remote exclusive-lock traffic. A
// barrier publishes the windows. Phase two is the usual overlapped
// one-sided gets (read.go fetchGets), which redistribute every rank's runs
// from the freshly staged windows.

import (
	"encoding/binary"
	"sort"

	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/mutate"
)

// fetchCollective is Fetch under Config.CollectiveRead. Unlike the
// independent path it has no empty-queue fast exit: a rank with nothing
// queued must still join the exchange and the barrier, and may still owe
// staging work for other ranks' intents.
func (f *File) fetchCollective() error {
	groups := f.groupPending()

	// Exchange read intents. Encoding is fixed-width little-endian
	// (offset, length) pairs — identical on every platform, so the blob
	// bytes are part of the deterministic replay surface.
	var mine []extent.Extent
	for _, g := range groups {
		for _, r := range g.reqs {
			mine = append(mine, extent.Extent{Off: r.off, Len: int64(len(r.dst))})
		}
	}
	mine = extent.Coalesce(mine)
	blob := make([]byte, 16*len(mine))
	for i, r := range mine {
		binary.LittleEndian.PutUint64(blob[16*i:], uint64(r.Off))
		binary.LittleEndian.PutUint64(blob[16*i+8:], uint64(r.Len))
	}
	all, err := f.c.AllgatherBytes(blob)
	if err != nil {
		return err
	}
	f.stats.TwoPhaseExchanges++
	if mutate.Enabled(mutate.TCIOTwoPhaseDropIntent) {
		// Planted fault: the exchange silently loses the highest-ranked
		// contributing origin's intents, so the runs it needs from other
		// owners' segments are never staged. Every rank drops the same
		// blob, so the mutant stays deadlock-free — only wrong.
		for i := len(all) - 1; i >= 0; i-- {
			if len(all[i]) > 0 {
				all[i] = nil
				break
			}
		}
	}

	// Stage the union of all intents falling in this rank's own segments.
	// Splitting at segment boundaries and keying by owner assigns every
	// intended byte to exactly one rank's staging loop.
	needBySeg := make(map[int64][]extent.Extent)
	var segOrder []int64
	me := f.c.Rank()
	for _, b := range all {
		for i := 0; i+16 <= len(b); i += 16 {
			run := extent.Extent{
				Off: int64(binary.LittleEndian.Uint64(b[i:])),
				Len: int64(binary.LittleEndian.Uint64(b[i+8:])),
			}
			for run.Len > 0 {
				seg := f.layout.Segment(run.Off)
				segOff := run.Off % f.segSize
				n := f.segSize - segOff
				if n > run.Len {
					n = run.Len
				}
				if owner, _ := f.segmentOwner(seg); owner == me {
					if _, ok := needBySeg[seg]; !ok {
						segOrder = append(segOrder, seg)
					}
					needBySeg[seg] = append(needBySeg[seg], extent.Extent{Off: segOff, Len: n})
				}
				run.Off += n
				run.Len -= n
			}
		}
	}
	sort.Slice(segOrder, func(i, j int) bool { return segOrder[i] < segOrder[j] })
	if len(segOrder) > 0 {
		if err := f.win.Lock(me, true); err != nil {
			return err
		}
		for _, seg := range segOrder {
			if f.meta.isPopulated(seg) {
				f.dropWastedPrefetch(seg)
				continue
			}
			_, slot := f.segmentOwner(seg)
			var perr error
			if e, ok := f.takePrefetched(seg); ok {
				perr = f.populateFromCache(seg, me, slot, e)
			} else if f.sieveArmed() {
				perr = f.sievePopulate(seg, me, slot, extent.Coalesce(needBySeg[seg]))
			} else {
				perr = f.populate(seg, me, slot)
			}
			if perr != nil {
				f.win.Unlock(me)
				return perr
			}
		}
		if err := f.win.Unlock(me); err != nil {
			return err
		}
	}
	// The barrier publishes every owner's freshly staged window before any
	// rank's gets start — the boundary between the two phases.
	if err := f.c.Barrier(); err != nil {
		return err
	}
	return f.fetchGets(groups)
}

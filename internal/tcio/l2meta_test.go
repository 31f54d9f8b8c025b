package tcio

// Property test: the sharded l2meta must be observationally identical to a
// single-lock reference holding the same five maps. A random schedule of
// every metadata operation runs against both; every return value must
// match. Concurrent soundness is separately covered by the -race runs of
// the package's integration tests.

import (
	"math/rand"
	"testing"

	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/simtime"
)

// refL2Meta is the pre-sharding implementation, kept verbatim as the
// semantic oracle.
type refL2Meta struct {
	dirty     map[int64][]extent.Extent
	pending   map[int64][]extent.Extent
	populated map[int64]bool
	popRuns   map[int64][]extent.Extent
	arrival   map[int64]simtime.Time
}

func newRefL2Meta() *refL2Meta {
	return &refL2Meta{
		dirty:     make(map[int64][]extent.Extent),
		pending:   make(map[int64][]extent.Extent),
		populated: make(map[int64]bool),
		popRuns:   make(map[int64][]extent.Extent),
		arrival:   make(map[int64]simtime.Time),
	}
}

func (m *refL2Meta) addDirty(seg int64, runs []extent.Extent, at simtime.Time) {
	m.dirty[seg] = extent.Coalesce(append(m.dirty[seg], runs...))
	m.pending[seg] = extent.Coalesce(append(m.pending[seg], runs...))
	if at > m.arrival[seg] {
		m.arrival[seg] = at
	}
}

func (m *refL2Meta) takePending(seg int64) ([]extent.Extent, simtime.Time) {
	runs, at := m.pending[seg], m.arrival[seg]
	delete(m.pending, seg)
	delete(m.arrival, seg)
	return runs, at
}

func (m *refL2Meta) takeCovered(seg int64, need int64) ([]extent.Extent, simtime.Time) {
	runs := m.pending[seg]
	if extent.Total(runs) < need {
		return nil, 0
	}
	at := m.arrival[seg]
	delete(m.pending, seg)
	delete(m.arrival, seg)
	return runs, at
}

func (m *refL2Meta) setPopulated(seg int64) {
	m.populated[seg] = true
	delete(m.popRuns, seg)
}

func (m *refL2Meta) missingRuns(seg int64, needed []extent.Extent) []extent.Extent {
	if m.populated[seg] {
		return nil
	}
	have := append(append([]extent.Extent(nil), m.popRuns[seg]...), m.dirty[seg]...)
	return extent.Subtract(needed, have)
}

func (m *refL2Meta) addPopRuns(seg int64, runs []extent.Extent, segSize int64) {
	if m.populated[seg] {
		return
	}
	m.popRuns[seg] = extent.Coalesce(append(m.popRuns[seg], runs...))
	if extent.Covers(m.popRuns[seg], 0, segSize) {
		m.populated[seg] = true
		delete(m.popRuns, seg)
	}
}

// dirtySnapshot copies a segment's dirty runs under the shard lock: the
// live list is rewritten in place by addDirty, so tests never hold it.
func (m *l2meta) dirtySnapshot(seg int64) []extent.Extent {
	s, sm := m.lock(seg)
	defer s.mu.Unlock()
	if sm == nil {
		return nil
	}
	return append([]extent.Extent(nil), sm.dirty...)
}

func extentsEqual(a, b []extent.Extent) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestL2MetaShardedMatchesReference(t *testing.T) {
	const segSize = int64(4096)
	rng := rand.New(rand.NewSource(7))
	randRuns := func() []extent.Extent {
		n := 1 + rng.Intn(3)
		runs := make([]extent.Extent, 0, n)
		for i := 0; i < n; i++ {
			off := int64(rng.Intn(int(segSize - 64)))
			ln := int64(1 + rng.Intn(256))
			if off+ln > segSize {
				ln = segSize - off
			}
			runs = append(runs, extent.Extent{Off: off, Len: ln})
		}
		return runs
	}
	for trial := 0; trial < 20; trial++ {
		m := newL2Meta(false)
		ref := newRefL2Meta()
		for step := 0; step < 2000; step++ {
			// Segment range deliberately exceeds the shard count so shards
			// carry several segments each and collisions are exercised.
			seg := int64(rng.Intn(5 * l2Shards))
			switch rng.Intn(8) {
			case 0, 1:
				runs := randRuns()
				at := simtime.Time(rng.Intn(1000))
				m.addDirty(seg, runs, at)
				ref.addDirty(seg, runs, at)
			case 2:
				gr, ga := m.takePending(seg)
				wr, wa := ref.takePending(seg)
				if !extentsEqual(gr, wr) || ga != wa {
					t.Fatalf("trial %d step %d takePending(%d): got (%v, %v) want (%v, %v)",
						trial, step, seg, gr, ga, wr, wa)
				}
			case 3:
				need := int64(rng.Intn(600))
				gr, ga := m.takeCovered(seg, need)
				wr, wa := ref.takeCovered(seg, need)
				if !extentsEqual(gr, wr) || ga != wa {
					t.Fatalf("trial %d step %d takeCovered(%d, %d): got (%v, %v) want (%v, %v)",
						trial, step, seg, need, gr, ga, wr, wa)
				}
			case 4:
				if got, want := m.hasDirty(seg), len(ref.pending[seg]) > 0; got != want {
					t.Fatalf("trial %d step %d hasDirty(%d): got %v want %v", trial, step, seg, got, want)
				}
				if got, want := m.dirtySnapshot(seg), ref.dirty[seg]; !extentsEqual(got, want) {
					t.Fatalf("trial %d step %d dirty runs of %d: got %v want %v", trial, step, seg, got, want)
				}
				if got, want := m.isDirty(seg), len(ref.dirty[seg]) > 0; got != want {
					t.Fatalf("trial %d step %d isDirty(%d): got %v want %v", trial, step, seg, got, want)
				}
			case 5:
				m.setPopulated(seg)
				ref.setPopulated(seg)
			case 6:
				runs := randRuns()
				m.addPopRuns(seg, runs, segSize)
				ref.addPopRuns(seg, runs, segSize)
				if got, want := m.isPopulated(seg), ref.populated[seg]; got != want {
					t.Fatalf("trial %d step %d isPopulated(%d): got %v want %v", trial, step, seg, got, want)
				}
			case 7:
				needed := randRuns()
				got := m.missingRuns(seg, needed)
				want := ref.missingRuns(seg, needed)
				if !extentsEqual(got, want) {
					t.Fatalf("trial %d step %d missingRuns(%d, %v): got %v want %v",
						trial, step, seg, needed, got, want)
				}
			}
		}
	}
}

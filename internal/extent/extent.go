// Package extent is the repository's shared interval algebra over file
// byte ranges. Every I/O layer of the simulator reasons about the same
// object — sorted lists of contiguous (offset, length) runs: TCIO's
// level-1 block lists and level-2 segments, OCIO's flattened file views
// and aggregator domains, and the parallel file system's stripes and
// readahead windows. Thakur et al.'s list-I/O work (PAPERS.md) showed the
// performance of noncontiguous access optimizations comes from one
// first-class run-list representation with one optimized code path; this
// package is that path, so the higher layers compose instead of each
// reimplementing interval arithmetic.
//
// The operations are:
//
//   - Coalesce: sort and merge adjacent/overlapping runs (the level-1
//     combine step, OCIO's request flattening).
//   - Add: merge runs into an already coalesced list in place — the
//     incremental form of Coalesce that TCIO's level-2 dirty bookkeeping
//     runs on every shipment.
//   - Intersect / Subtract: run-list set algebra (hole detection,
//     read-modify-write prereads, cache accounting).
//   - SplitAt: cut runs at multiples of a granularity (segment and stripe
//     boundaries).
//   - Layout (layout.go): the paper's equations (1)-(3) round-robin
//     offset -> (rank, segment, displacement) mapping.
//   - Partition (partition.go): OCIO's equal contiguous file domains.
//
// All functions treat a nil list as empty and never return zero-length
// runs.
package extent

import (
	"cmp"
	"slices"
	"sort"

	"github.com/tcio/tcio/internal/mutate"
)

// Extent is one contiguous run of bytes: the half-open interval
// [Off, Off+Len). datatype.Segment is an alias of this type, so run lists
// flow between the layers without conversion.
type Extent struct {
	Off int64 // byte offset
	Len int64 // run length in bytes
}

// End returns the exclusive upper bound of the run.
func (e Extent) End() int64 { return e.Off + e.Len }

// Empty reports whether the run covers no bytes.
func (e Extent) Empty() bool { return e.Len <= 0 }

// Coalesce sorts runs by offset and merges adjacent or overlapping ones.
// Zero-length runs are dropped. The input slice may be reordered and its
// storage reused for the result.
func Coalesce(list []Extent) []Extent {
	out := list[:0]
	for _, e := range list {
		if e.Len > 0 {
			out = append(out, e)
		}
	}
	if !slices.IsSortedFunc(out, byOff) {
		slices.SortFunc(out, byOff)
	}
	merged := out[:0]
	for _, e := range out {
		if n := len(merged); n > 0 && merged[n-1].End() >= e.Off {
			if end := e.End(); end > merged[n-1].End() &&
				!mutate.Enabled(mutate.ExtentDroppedCoalesce) {
				merged[n-1].Len = end - merged[n-1].Off
			}
			continue
		}
		merged = append(merged, e)
	}
	return merged
}

func byOff(a, b Extent) int { return cmp.Compare(a.Off, b.Off) }

// Add merges runs into the coalesced list and returns the coalesced
// union: exactly Coalesce(append(list, runs...)), without re-sorting what
// is already sorted. Each run binary-searches the neighbours it touches and
// is spliced over them in place, so merging m runs into n costs
// O(m log n) comparisons plus the tail moves of the splices that change
// the list's length — a run extending or bridging existing runs, the
// common case for interleaved writers filling a segment, moves nothing or
// shrinks the list. list must be coalesced and its storage is reused; runs
// may arrive in any order, overlap, or be empty, and are only read (they
// must not share list's storage).
func Add(list, runs []Extent) []Extent {
	for _, r := range runs {
		if r.Len <= 0 {
			continue
		}
		// list[i:j] are the runs r touches: the first ending at or after
		// r's start through the last starting at or before r's end.
		i := sort.Search(len(list), func(k int) bool { return list[k].End() >= r.Off })
		j := i
		for j < len(list) && list[j].Off <= r.End() {
			j++
		}
		if i == j {
			list = slices.Insert(list, i, r)
			continue
		}
		lo, end := min(list[i].Off, r.Off), r.End()
		if e := list[j-1].End(); e > end &&
			!(mutate.Enabled(mutate.ExtentDroppedAdd) && list[j-1].Off > r.Off) {
			end = e
		}
		list[i] = Extent{Off: lo, Len: end - lo}
		list = slices.Delete(list, i+1, j)
	}
	return list
}

// Total sums the lengths of all runs (overlaps counted once only if the
// list is coalesced).
func Total(list []Extent) int64 {
	var n int64
	for _, e := range list {
		if e.Len > 0 {
			n += e.Len
		}
	}
	return n
}

// Span returns the smallest half-open interval [lo, hi) containing every
// run, or (0, 0) for an empty list.
func Span(list []Extent) (lo, hi int64) {
	first := true
	for _, e := range list {
		if e.Len <= 0 {
			continue
		}
		if first || e.Off < lo {
			lo = e.Off
		}
		if first || e.End() > hi {
			hi = e.End()
		}
		first = false
	}
	if first {
		return 0, 0
	}
	return lo, hi
}

// Covers reports whether the union of the runs covers [lo, hi) completely.
// An empty interval is trivially covered.
func Covers(list []Extent, lo, hi int64) bool {
	if hi <= lo {
		return true
	}
	merged := Coalesce(append([]Extent(nil), list...))
	for _, e := range merged {
		if e.Off <= lo && e.End() >= hi {
			return true
		}
	}
	return false
}

// Intersect returns the coalesced runs present in both a and b.
func Intersect(a, b []Extent) []Extent {
	as := Coalesce(append([]Extent(nil), a...))
	bs := Coalesce(append([]Extent(nil), b...))
	var out []Extent
	i, j := 0, 0
	for i < len(as) && j < len(bs) {
		lo := max64(as[i].Off, bs[j].Off)
		hi := min64(as[i].End(), bs[j].End())
		if hi > lo {
			out = append(out, Extent{Off: lo, Len: hi - lo})
		}
		if as[i].End() < bs[j].End() {
			i++
		} else {
			j++
		}
	}
	return out
}

// Subtract returns the coalesced runs of a not covered by b — the partition
// complement of Intersect: Intersect(a, b) and Subtract(a, b) are disjoint
// and together cover exactly Coalesce(a).
func Subtract(a, b []Extent) []Extent {
	as := Coalesce(append([]Extent(nil), a...))
	bs := Coalesce(append([]Extent(nil), b...))
	var out []Extent
	j := 0
	for _, e := range as {
		cur := e.Off
		for j < len(bs) && bs[j].End() <= cur {
			j++
		}
		k := j
		for cur < e.End() {
			if k >= len(bs) || bs[k].Off >= e.End() {
				out = append(out, Extent{Off: cur, Len: e.End() - cur})
				break
			}
			if bs[k].Off > cur {
				out = append(out, Extent{Off: cur, Len: bs[k].Off - cur})
			}
			if bs[k].End() > cur {
				cur = bs[k].End()
			}
			k++
		}
	}
	return out
}

// SplitAt cuts every run at multiples of the granularity, so no returned
// run crosses a boundary — the subdivision rule shared by TCIO's
// segment-aligned staging (§IV.A: an access larger than one segment "has to
// be subdivided and placed in different segments") and the file system's
// stripe-by-stripe cost accounting. Run order and coverage are preserved;
// gran < 1 returns the non-empty runs unchanged.
func SplitAt(list []Extent, gran int64) []Extent {
	out := make([]Extent, 0, len(list))
	for _, e := range list {
		if e.Len <= 0 {
			continue
		}
		if gran < 1 {
			out = append(out, e)
			continue
		}
		for e.Len > 0 {
			n := gran - e.Off%gran
			if n > e.Len {
				n = e.Len
			}
			out = append(out, Extent{Off: e.Off, Len: n})
			e.Off += n
			e.Len -= n
		}
	}
	return out
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

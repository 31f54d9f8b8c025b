package extent

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// universe is the byte universe of the bitmap cross-checks: small enough to
// enumerate, large enough to exercise merging, holes, and boundaries.
const universe = 512

// quickCfg returns a deterministic testing/quick configuration (seedcheck
// rule: no package-level math/rand).
func quickCfg(seed int64) *quick.Config {
	return &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(seed))}
}

// randList decodes raw fuzz values into a run list inside the universe.
func randList(raw []uint16) []Extent {
	out := make([]Extent, 0, len(raw)/2)
	for i := 0; i+1 < len(raw); i += 2 {
		off := int64(raw[i] % universe)
		length := int64(raw[i+1] % 64)
		out = append(out, Extent{Off: off, Len: length})
	}
	return out
}

// bitmap marks every byte covered by the list.
func bitmap(list []Extent) [universe + 64]bool {
	var m [universe + 64]bool
	for _, e := range list {
		for b := e.Off; b < e.End(); b++ {
			m[b] = true
		}
	}
	return m
}

// wellFormed checks the canonical-form invariants of a coalesced list:
// sorted, strictly separated (no adjacency), no empty runs.
func wellFormed(list []Extent) bool {
	for i, e := range list {
		if e.Len <= 0 {
			return false
		}
		if i > 0 && list[i-1].End() >= e.Off {
			return false
		}
	}
	return true
}

func TestCoalesceMatchesBitmap(t *testing.T) {
	prop := func(raw []uint16) bool {
		list := randList(raw)
		want := bitmap(list)
		got := Coalesce(list)
		return wellFormed(got) && bitmap(got) == want
	}
	if err := quick.Check(prop, quickCfg(1)); err != nil {
		t.Fatal(err)
	}
}

func TestCoalesceIdempotent(t *testing.T) {
	prop := func(raw []uint16) bool {
		once := Coalesce(randList(raw))
		twice := Coalesce(append([]Extent(nil), once...))
		if len(once) == 0 {
			return len(twice) == 0
		}
		return reflect.DeepEqual(once, twice)
	}
	if err := quick.Check(prop, quickCfg(2)); err != nil {
		t.Fatal(err)
	}
}

// TestIntersectSubtractPartition pins the partition invariant: for every
// byte of a, it lands in exactly one of Intersect(a,b) and Subtract(a,b),
// decided by membership in b; no byte outside a appears in either.
func TestIntersectSubtractPartition(t *testing.T) {
	prop := func(rawA, rawB []uint16) bool {
		a, b := randList(rawA), randList(rawB)
		ma, mb := bitmap(a), bitmap(b)
		inter, sub := Intersect(a, b), Subtract(a, b)
		if !wellFormed(inter) || !wellFormed(sub) {
			return false
		}
		mi, ms := bitmap(inter), bitmap(sub)
		for x := range ma {
			wantI := ma[x] && mb[x]
			wantS := ma[x] && !mb[x]
			if mi[x] != wantI || ms[x] != wantS {
				return false
			}
		}
		// Lengths partition Coalesce(a) exactly.
		return Total(inter)+Total(sub) == Total(Coalesce(append([]Extent(nil), a...)))
	}
	if err := quick.Check(prop, quickCfg(3)); err != nil {
		t.Fatal(err)
	}
}

func TestSplitAtPreservesCoverageAndBoundaries(t *testing.T) {
	prop := func(raw []uint16, g uint8) bool {
		gran := int64(g%32) + 1
		list := randList(raw)
		want := bitmap(list)
		split := SplitAt(list, gran)
		for _, e := range split {
			if e.Len <= 0 || e.Off/gran != (e.End()-1)/gran {
				return false // crosses a granularity boundary
			}
		}
		return bitmap(split) == want
	}
	if err := quick.Check(prop, quickCfg(4)); err != nil {
		t.Fatal(err)
	}
}

// TestLayoutRoundTrip checks that equations (1)-(3) and their inverse agree
// for random offsets: Locate distributes segments round-robin and Offset
// reconstructs the original offset.
func TestLayoutRoundTrip(t *testing.T) {
	prop := func(rawOff uint32, rawP, rawSeg uint8) bool {
		l := Layout{
			P:       int(rawP%64) + 1,
			SegSize: int64(rawSeg%128) + 1,
			NumSeg:  64,
		}
		off := int64(rawOff)
		rank, slot, disp := l.Locate(off)
		// Equations (1)-(3) verbatim.
		seg := off / l.SegSize
		if rank != int(seg%int64(l.P)) || slot != seg/int64(l.P) || disp != off%l.SegSize {
			return false
		}
		// Owner agrees with Locate; Offset inverts it.
		or, os := l.Owner(seg)
		if or != rank || os != slot || l.Segment(off) != seg {
			return false
		}
		return l.Offset(rank, slot, disp) == off
	}
	if err := quick.Check(prop, quickCfg(5)); err != nil {
		t.Fatal(err)
	}
}

// TestLayoutTilesCapacity walks every offset of a small layout and checks
// the mapping is a bijection onto (rank, slot, disp) triples.
func TestLayoutTilesCapacity(t *testing.T) {
	l := Layout{P: 3, SegSize: 8, NumSeg: 4}
	seen := make(map[[3]int64]bool)
	for off := int64(0); off < l.Capacity(); off++ {
		rank, slot, disp := l.Locate(off)
		if !l.InRange(l.Segment(off)) {
			t.Fatalf("offset %d out of range", off)
		}
		key := [3]int64{int64(rank), slot, disp}
		if seen[key] {
			t.Fatalf("offset %d collides at %v", off, key)
		}
		seen[key] = true
	}
	if len(seen) != int(l.Capacity()) {
		t.Fatalf("mapped %d of %d offsets", len(seen), l.Capacity())
	}
	if l.InRange(l.Segment(l.Capacity())) {
		t.Fatal("capacity boundary mapped in range")
	}
	if seg := l.RankSegment(2, 3); seg != 11 {
		t.Fatalf("RankSegment(2,3) = %d", seg)
	}
}

func TestPartitionDomainsTile(t *testing.T) {
	prop := func(rawLo uint16, rawSpan uint16, rawN uint8) bool {
		lo := int64(rawLo)
		hi := lo + int64(rawSpan)
		n := int(rawN%8) + 1
		p := NewPartition(lo, hi, n)
		doms := p.Domains()
		// Domains are contiguous, ordered, and exactly tile [lo, hi).
		cur := lo
		for _, d := range doms {
			if d.Len < 0 || (d.Len > 0 && d.Off != cur) {
				return false
			}
			cur = max64(cur, d.End())
		}
		if hi > lo && cur != hi {
			return false
		}
		// Every byte's Find result owns it.
		for off := lo; off < hi; off++ {
			d := p.Domain(p.Find(off))
			if off < d.Off || off >= d.End() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(6)); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionSplitPreservesRuns(t *testing.T) {
	prop := func(raw []uint16, rawN uint8) bool {
		n := int(rawN%6) + 1
		runs := Coalesce(randList(raw))
		lo, hi := Span(runs)
		p := NewPartition(lo, hi, n)
		parts := p.Split(runs)
		var flat []Extent
		for k, part := range parts {
			d := p.Domain(k)
			for _, e := range part {
				if e.Off < d.Off || e.End() > d.End() {
					return false // piece escaped its domain
				}
			}
			flat = append(flat, part...)
		}
		return bitmap(flat) == bitmap(runs) && Total(flat) == Total(runs)
	}
	if err := quick.Check(prop, quickCfg(7)); err != nil {
		t.Fatal(err)
	}
}

func TestCoversSpanSubtractEdges(t *testing.T) {
	if !Covers(nil, 5, 5) {
		t.Fatal("empty interval not covered")
	}
	if Covers(nil, 0, 1) {
		t.Fatal("nil list covers bytes")
	}
	if !Covers([]Extent{{0, 4}, {4, 4}}, 1, 7) {
		t.Fatal("adjacent runs do not cover")
	}
	if lo, hi := Span(nil); lo != 0 || hi != 0 {
		t.Fatalf("Span(nil) = %d,%d", lo, hi)
	}
	if got := Subtract([]Extent{{0, 10}}, nil); !reflect.DeepEqual(got, []Extent{{0, 10}}) {
		t.Fatalf("Subtract identity = %v", got)
	}
	if got := Intersect([]Extent{{0, 10}}, nil); got != nil {
		t.Fatalf("Intersect with empty = %v", got)
	}
	if got := SplitAt([]Extent{{3, 10}}, 4); !reflect.DeepEqual(got, []Extent{{3, 1}, {4, 4}, {8, 4}, {12, 1}}) {
		t.Fatalf("SplitAt = %v", got)
	}
}

// gridList decodes raw fuzz values into runs on an 8-byte grid, so
// adjacent, nested, duplicate, and zero-length runs — the shapes an
// incremental merge can get wrong — are common rather than rare.
func gridList(raw []uint16) []Extent {
	out := make([]Extent, 0, len(raw)/2)
	for i := 0; i+1 < len(raw); i += 2 {
		out = append(out, Extent{Off: int64(raw[i]%60) * 8, Len: int64(raw[i+1]%4) * 8})
	}
	return out
}

// TestAddMatchesCoalesce pins Add to its definition: merging runs into a
// coalesced list equals Coalesce(append(list, runs...)), for runs in any
// order, overlapping, adjacent, nested, or empty; runs is left untouched.
func TestAddMatchesCoalesce(t *testing.T) {
	for _, gen := range []func([]uint16) []Extent{randList, gridList} {
		prop := func(rawList, rawRuns []uint16) bool {
			list := Coalesce(gen(rawList))
			runs := gen(rawRuns)
			orig := slices.Clone(runs)
			want := Coalesce(append(append([]Extent(nil), list...), runs...))
			got := Add(list, runs)
			if !reflect.DeepEqual(runs, orig) || !wellFormed(got) {
				return false
			}
			return len(got) == len(want) && (len(got) == 0 || reflect.DeepEqual(got, want))
		}
		if err := quick.Check(prop, quickCfg(8)); err != nil {
			t.Fatal(err)
		}
	}
}

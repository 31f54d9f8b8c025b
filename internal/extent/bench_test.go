package extent

// Host micro-benchmark of the incremental run-list merge (size-swept per
// SNIPPETS.md Snippet 2). One op fills one segment: n single-run
// shipments, separated by gaps so the list grows to n runs, arrive in a
// shuffled order — interleaved writers racing to one level-2 segment.
// "add" merges each shipment with Add; "coalesce" re-sorts the whole list
// per shipment with Coalesce(append(list, run)), the merge Add replaces.

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkAdd(b *testing.B) {
	for _, n := range []int{8, 64, 512, 4096} {
		rng := rand.New(rand.NewSource(int64(n)))
		ships := make([]Extent, n)
		for i, k := range rng.Perm(n) {
			ships[i] = Extent{Off: int64(k) * 16, Len: 8}
		}
		list := make([]Extent, 0, n)
		b.Run(fmt.Sprintf("add/runs=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				list = list[:0]
				for j := range ships {
					list = Add(list, ships[j:j+1])
				}
			}
		})
		b.Run(fmt.Sprintf("coalesce/runs=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				list = list[:0]
				for _, s := range ships {
					list = Coalesce(append(list, s))
				}
			}
		})
	}
}

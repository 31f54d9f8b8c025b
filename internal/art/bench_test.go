package art

// Host micro-benchmarks of the checkpoint's in-memory side (size-swept per
// SNIPPETS.md Snippet 2): building a tree, decoding a record, and cutting
// a tree into the pieces Dump writes, at growing target cell counts. The
// Table IV trees sit at the middle size. They measure host cost only: the
// bytes produced are pinned by TestTableIVCheckpointGolden.

import (
	"fmt"
	"testing"
)

var benchCells = []int{256, 2048, 16384}

const benchVars = 2

// Sinks keep the compiler from discarding the measured calls.
var (
	sinkTree   *Tree
	sinkPieces []Piece
)

func benchTree(cells int) *Tree { return Generate(1, cells, benchVars, TreeRNG(1, 1)) }

func BenchmarkGenerate(b *testing.B) {
	for _, cells := range benchCells {
		b.Run(fmt.Sprintf("cells=%d", cells), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(benchTree(cells).EncodedSize())
			for i := 0; i < b.N; i++ {
				sinkTree = Generate(1, cells, benchVars, TreeRNG(1, 1))
			}
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	for _, cells := range benchCells {
		b.Run(fmt.Sprintf("cells=%d", cells), func(b *testing.B) {
			rec := benchTree(cells).Encode()
			b.ReportAllocs()
			b.SetBytes(int64(len(rec)))
			for i := 0; i < b.N; i++ {
				t, err := Decode(rec)
				if err != nil {
					b.Fatal(err)
				}
				sinkTree = t
			}
		})
	}
}

func BenchmarkPieces(b *testing.B) {
	for _, cells := range benchCells {
		b.Run(fmt.Sprintf("cells=%d", cells), func(b *testing.B) {
			tr := benchTree(cells)
			b.ReportAllocs()
			b.SetBytes(tr.EncodedSize())
			for i := 0; i < b.N; i++ {
				sinkPieces = tr.Pieces()
			}
		})
	}
}

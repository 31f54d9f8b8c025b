package art

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/mpi"
)

func TestGenerateMeetsTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := Generate(7, 500, 2, rng)
	if tr.ID != 7 || tr.Vars != 2 {
		t.Fatalf("ID/Vars = %d/%d", tr.ID, tr.Vars)
	}
	if n := tr.NumCells(); n < 500 {
		t.Fatalf("NumCells = %d, want >= 500", n)
	}
	if tr.Depth() < 2 {
		t.Fatalf("Depth = %d", tr.Depth())
	}
	// Structure sanity: children come in multiples of 8 from refinements.
	for l := 1; l < tr.Depth(); l++ {
		refined := 0
		for _, cell := range tr.Levels[l-1] {
			if cell.Refined {
				refined++
			}
		}
		if len(tr.Levels[l]) != refined*8 {
			t.Fatalf("level %d has %d cells for %d refined parents", l, len(tr.Levels[l]), refined)
		}
	}
}

func TestGenerateMinimums(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := Generate(0, 0, 0, rng)
	if tr.NumCells() < 1 || tr.Vars != 1 {
		t.Fatalf("degenerate tree: cells=%d vars=%d", tr.NumCells(), tr.Vars)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := Generate(42, 300, 3, rng)
	rec := tr.Encode()
	if int64(len(rec)) != tr.EncodedSize() {
		t.Fatalf("Encode len %d != EncodedSize %d", len(rec), tr.EncodedSize())
	}
	back, err := Decode(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Equal(back) {
		t.Fatal("decode(encode(tree)) != tree")
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(seed int64, target uint16, vars uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := Generate(seed, int(target%2000), int(vars%4)+1, rng)
		back, err := Decode(tr.Encode())
		return err == nil && tr.Equal(back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Fatal("short record accepted")
	}
	rng := rand.New(rand.NewSource(4))
	rec := Generate(1, 100, 2, rng).Encode()
	rec[0] = 0xFF // corrupt magic
	if _, err := Decode(rec); err == nil {
		t.Fatal("bad magic accepted")
	}
	rec2 := Generate(1, 100, 2, rng).Encode()
	if _, err := Decode(rec2[:len(rec2)-5]); err == nil {
		t.Fatal("truncated record accepted")
	}
}

func TestPiecesTileRecordExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := Generate(9, 200, 2, rng)
	pieces := tr.Pieces()
	covered := int64(0)
	expectedNext := int64(0)
	for _, p := range pieces {
		if p.Off != expectedNext {
			t.Fatalf("piece %q at %d, expected %d (gap or overlap)", p.Name, p.Off, expectedNext)
		}
		expectedNext = p.Off + int64(len(p.Data))
		covered += int64(len(p.Data))
	}
	if covered != tr.EncodedSize() {
		t.Fatalf("pieces cover %d of %d bytes", covered, tr.EncodedSize())
	}
	// Piece count: 1 header + depth*(1 refinement + vars values).
	want := 1 + tr.Depth()*(1+tr.Vars)
	if len(pieces) != want {
		t.Fatalf("%d pieces, want %d", len(pieces), want)
	}
}

func TestSegmentSizesTableIV(t *testing.T) {
	sizes := SegmentSizes(TableIV.Segments, TableIV.Mu, TableIV.Sigma, TableIV.Seed)
	if len(sizes) != 1024 {
		t.Fatalf("len = %d", len(sizes))
	}
	// Deterministic for the fixed seed.
	again := SegmentSizes(TableIV.Segments, TableIV.Mu, TableIV.Sigma, TableIV.Seed)
	for i := range sizes {
		if sizes[i] != again[i] {
			t.Fatal("not deterministic")
		}
	}
	// Statistics roughly match Normal(2048, 128).
	var sum, sq float64
	for _, v := range sizes {
		sum += float64(v)
	}
	mean := sum / float64(len(sizes))
	for _, v := range sizes {
		sq += (float64(v) - mean) * (float64(v) - mean)
	}
	sd := math.Sqrt(sq / float64(len(sizes)))
	if mean < 2000 || mean > 2100 {
		t.Fatalf("mean = %.1f", mean)
	}
	if sd < 100 || sd > 160 {
		t.Fatalf("sd = %.1f", sd)
	}
}

func TestOwnedByPartition(t *testing.T) {
	const n, procs = 100, 7
	seen := make(map[int]int)
	for r := 0; r < procs; r++ {
		for _, id := range OwnedBy(n, procs, r) {
			if id%procs != r {
				t.Fatalf("rank %d owns %d", r, id)
			}
			seen[id]++
		}
	}
	if len(seen) != n {
		t.Fatalf("%d trees covered, want %d", len(seen), n)
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("tree %d owned %d times", id, c)
		}
	}
}

func TestGenerateForRankDeterministicAcrossOwnership(t *testing.T) {
	// The same tree must have identical content regardless of the number
	// of ranks that deal it out.
	a := GenerateForRank(8, 2, 2, 0, 11) // trees 0,2,4,6
	b := GenerateForRank(8, 2, 4, 0, 11) // trees 0,4
	if !a[0].Equal(b[0]) {
		t.Fatal("tree 0 differs between 2-rank and 4-rank decompositions")
	}
	if !a[2].Equal(b[1]) {
		t.Fatal("tree 4 differs between decompositions")
	}
}

func runArt(t *testing.T, procs int, fn func(*mpi.Comm) error) {
	t.Helper()
	if _, err := mpi.Run(mpi.Config{Procs: procs, Machine: cluster.Lonestar()}, fn); err != nil {
		t.Fatal(err)
	}
}

func testDumpRestore(t *testing.T, lib Library, procs, ntrees int) {
	t.Helper()
	name := fmt.Sprintf("ckpt-%v-%d", lib, procs)
	runArt(t, procs, func(c *mpi.Comm) error {
		trees := GenerateForRank(ntrees, 2, c.Size(), c.Rank(), 99)
		// Use small trees for tests.
		if err := Dump(c, lib, name, trees, ntrees, 256); err != nil {
			return err
		}
		back, err := Restore(c, lib, name)
		if err != nil {
			return err
		}
		if len(back) != len(trees) {
			return fmt.Errorf("restored %d trees, want %d", len(back), len(trees))
		}
		for i := range trees {
			if !trees[i].Equal(back[i]) {
				return fmt.Errorf("rank %d: tree %d mismatch after restart", c.Rank(), trees[i].ID)
			}
		}
		return nil
	})
}

func TestDumpRestoreTCIO(t *testing.T)    { testDumpRestore(t, LibTCIO, 4, 12) }
func TestDumpRestoreVanilla(t *testing.T) { testDumpRestore(t, LibVanilla, 4, 12) }

func TestDumpRestoreSingleRank(t *testing.T) { testDumpRestore(t, LibTCIO, 1, 5) }

func TestCrossLibraryCompatibility(t *testing.T) {
	// A checkpoint written with TCIO must restore through vanilla MPI-IO
	// and vice versa: the file format is identical.
	const procs, ntrees = 3, 9
	runArt(t, procs, func(c *mpi.Comm) error {
		trees := GenerateForRank(ntrees, 2, c.Size(), c.Rank(), 5)
		if err := Dump(c, LibTCIO, "cross", trees, ntrees, 256); err != nil {
			return err
		}
		back, err := Restore(c, LibVanilla, "cross")
		if err != nil {
			return err
		}
		for i := range trees {
			if !trees[i].Equal(back[i]) {
				return fmt.Errorf("tree %d differs across libraries", trees[i].ID)
			}
		}
		return nil
	})
}

func TestDumpRejectsBadIDs(t *testing.T) {
	runArt(t, 1, func(c *mpi.Comm) error {
		tr := Generate(5, 10, 1, rand.New(rand.NewSource(1)))
		if err := Dump(c, LibTCIO, "bad", []*Tree{tr}, 3, 256); err == nil {
			return fmt.Errorf("tree id 5 with ntrees=3 accepted")
		}
		return nil
	})
}

func TestDumpDetectsMissingTrees(t *testing.T) {
	runArt(t, 1, func(c *mpi.Comm) error {
		tr := Generate(0, 10, 1, rand.New(rand.NewSource(1)))
		if err := Dump(c, LibTCIO, "missing", []*Tree{tr}, 2, 256); err == nil {
			return fmt.Errorf("missing tree 1 not detected")
		}
		return nil
	})
}

func TestRestoreRejectsGarbage(t *testing.T) {
	runArt(t, 1, func(c *mpi.Comm) error {
		pf := c.FS().Open("garbage")
		if _, err := pf.WriteAt(0, 0, make([]byte, 64), 0); err != nil {
			return err
		}
		if _, err := Restore(c, LibVanilla, "garbage"); err == nil {
			return fmt.Errorf("garbage checkpoint accepted")
		}
		return nil
	})
}

func TestRestoreRejectsCorruptIndex(t *testing.T) {
	// Each case rewrites one field of a valid three-tree checkpoint; Restore
	// must return an error — ErrCorruptIndex for the index fields — not
	// panic or exhaust memory allocating from the bad value.
	const ntrees = 3
	offset := func(img []byte, i int) int64 { return int64(binary.LittleEndian.Uint64(img[12+8*i:])) }
	setOffset := func(img []byte, i int, v int64) { binary.LittleEndian.PutUint64(img[12+8*i:], uint64(v)) }
	cases := []struct {
		name    string
		index   bool
		corrupt func([]byte)
	}{
		{"offset below its predecessor", true, func(img []byte) { setOffset(img, 2, offset(img, 1)-8) }},
		{"record shorter than its header", true, func(img []byte) { setOffset(img, 2, offset(img, 1)+headerSize/2) }},
		{"tree count beyond the file", true, func(img []byte) { binary.LittleEndian.PutUint64(img[4:], 1<<40) }},
		{"first record inside the index", true, func(img []byte) { setOffset(img, 0, offset(img, 0)-8) }},
		{"last record past the end", true, func(img []byte) { setOffset(img, ntrees, offset(img, ntrees)+1) }},
		{"level count beyond its record", false, func(img []byte) {
			// Tree 0's header, level 1 count (the first level is the root).
			binary.LittleEndian.PutUint32(img[offset(img, 0)+20+4:], 1<<30)
		}},
	}
	for _, lib := range []Library{LibVanilla, LibTCIO} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%v/%s", lib, tc.name), func(t *testing.T) {
				runArt(t, 1, func(c *mpi.Comm) error {
					trees := GenerateForRank(ntrees, 2, 1, 0, 3)
					if err := Dump(c, LibVanilla, "good", trees, ntrees, 256); err != nil {
						return err
					}
					img := c.FS().Open("good").Snapshot()
					tc.corrupt(img)
					if _, err := c.FS().Open("bad").WriteAt(0, 0, img, 0); err != nil {
						return err
					}
					_, err := Restore(c, lib, "bad")
					if err == nil || tc.index && !errors.Is(err, ErrCorruptIndex) {
						return fmt.Errorf("Restore = %v, want an error (ErrCorruptIndex: %v)", err, tc.index)
					}
					return nil
				})
			})
		}
	}
}

// tableIVCheckpointSHA256 is the SHA-256 of the paper's Table IV
// checkpoint (1024 trees, 2 variables, seed 5) as Dump lays it out, pinned
// from the per-cell implementation the slab-backed trees replaced.
const tableIVCheckpointSHA256 = "a50245e5c8d4abb745ddecf54dd5df3ef0132848a6a7e4fac3325a90830d972b"

func TestTableIVCheckpointGolden(t *testing.T) {
	const ntrees, vars = 1024, 2
	trees := GenerateForRank(ntrees, vars, 1, 0, TableIV.Seed)
	// Assemble the file as Dump does: the index, then every tree's
	// pieces at their record offsets.
	offsets := make([]int64, ntrees+1)
	offsets[0] = ckptHeaderSize(ntrees)
	for i, tr := range trees {
		offsets[i+1] = offsets[i] + tr.EncodedSize()
	}
	img := make([]byte, offsets[ntrees])
	binary.LittleEndian.PutUint32(img, ckptMagic)
	binary.LittleEndian.PutUint64(img[4:], ntrees)
	for i, off := range offsets {
		binary.LittleEndian.PutUint64(img[12+8*i:], uint64(off))
	}
	for i, tr := range trees {
		for _, p := range tr.Pieces() {
			copy(img[offsets[i]+p.Off:], p.Data)
		}
		if !bytes.Equal(tr.Encode(), img[offsets[i]:offsets[i+1]]) {
			t.Fatalf("tree %d: Encode differs from its pieces", i)
		}
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(img)); got != tableIVCheckpointSHA256 {
		t.Fatalf("Table IV checkpoint SHA-256 = %s, want %s", got, tableIVCheckpointSHA256)
	}
}

func TestLibraryString(t *testing.T) {
	if LibTCIO.String() != "TCIO" || LibVanilla.String() != "MPI-IO" {
		t.Fatal("Library.String wrong")
	}
	if Library(9).String() != "Library(9)" {
		t.Fatal("unknown library string wrong")
	}
}

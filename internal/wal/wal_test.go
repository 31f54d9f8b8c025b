package wal

// Property tests for the journal record encoding, quick-check style
// (seeded generators, mirroring internal/extent's property tests):
//
//   - arbitrary run lists round-trip byte-exactly through
//     EncodeEpochRecords + EncodeCommit + Decode;
//   - truncating the image at EVERY byte boundary decodes cleanly to the
//     epochs committed within the prefix — a torn tail is never an error
//     and never resurrects an uncommitted epoch;
//   - flipping any byte of a committed image either leaves the decoded
//     prefix intact (the flip landed past the last commit) or surfaces
//     typed ErrCorrupt — never silently different data;
//   - a journal written without commit markers (the skip-commit-marker
//     mutant's output) is structural corruption, not data.

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/tcio/tcio/internal/extent"
)

// genRuns draws a random run list: offsets ascending and disjoint, data
// bytes a function of (seed, position) so mismatches localize.
func genRuns(rng *rand.Rand, n int) []Run {
	runs := make([]Run, 0, n)
	off := int64(rng.Intn(64))
	for i := 0; i < n; i++ {
		ln := int64(1 + rng.Intn(96))
		data := make([]byte, ln)
		for j := range data {
			data[j] = byte(off + int64(j)*7 + 3)
		}
		runs = append(runs, Run{Extent: extent.Extent{Off: off, Len: ln}, Data: data})
		off += ln + int64(rng.Intn(128))
	}
	return runs
}

// buildImage journals epochs epoch-by-epoch the way the Writer lays them
// out: record batch then commit marker, appended contiguously. It returns
// the image and the byte offset just past each epoch's commit marker.
func buildImage(epochs []Epoch) (img []byte, commitEnds []int) {
	for _, ep := range epochs {
		batch, _ := EncodeEpochRecords(ep.Rank, ep.Seq, ep.Runs)
		img = append(img, batch...)
		img = append(img, EncodeCommit(ep.Seq)...)
		commitEnds = append(commitEnds, len(img))
	}
	return img, commitEnds
}

func epochsEqual(t *testing.T, got, want []Epoch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d epochs, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Rank != w.Rank || g.Seq != w.Seq || len(g.Runs) != len(w.Runs) {
			t.Fatalf("epoch %d: got rank=%d seq=%d runs=%d, want rank=%d seq=%d runs=%d",
				i, g.Rank, g.Seq, len(g.Runs), w.Rank, w.Seq, len(w.Runs))
		}
		for j := range w.Runs {
			if g.Runs[j].Extent != w.Runs[j].Extent {
				t.Fatalf("epoch %d run %d: extent %+v, want %+v", i, j, g.Runs[j].Extent, w.Runs[j].Extent)
			}
			if !bytes.Equal(g.Runs[j].Data, w.Runs[j].Data) {
				t.Fatalf("epoch %d run %d: data mismatch", i, j)
			}
		}
	}
}

func TestRoundTripArbitraryRunLists(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		nEpochs := 1 + rng.Intn(5)
		var epochs []Epoch
		for e := 0; e < nEpochs; e++ {
			epochs = append(epochs, Epoch{
				Rank: rng.Intn(16),
				Seq:  int64(e + 1),
				Runs: genRuns(rng, 1+rng.Intn(6)),
			})
		}
		img, _ := buildImage(epochs)
		got, err := Decode(img)
		if err != nil {
			t.Fatalf("trial %d: clean image failed to decode: %v", trial, err)
		}
		epochsEqual(t, got, epochs)
	}
}

// TestTornTailEveryByteBoundary cuts the image at every byte position and
// demands the decode equal exactly the epochs whose commit marker fits the
// prefix — the crash-anywhere contract.
func TestTornTailEveryByteBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		var epochs []Epoch
		for e := 0; e < 1+rng.Intn(4); e++ {
			epochs = append(epochs, Epoch{
				Rank: rng.Intn(8),
				Seq:  int64(e + 1),
				Runs: genRuns(rng, 1+rng.Intn(4)),
			})
		}
		img, commitEnds := buildImage(epochs)
		for cut := 0; cut <= len(img); cut++ {
			wantCommitted := 0
			for _, end := range commitEnds {
				if end <= cut {
					wantCommitted++
				}
			}
			got, err := Decode(img[:cut])
			if err != nil {
				t.Fatalf("trial %d cut %d/%d: torn tail decoded as corruption: %v",
					trial, cut, len(img), err)
			}
			if len(got) != wantCommitted {
				t.Fatalf("trial %d cut %d/%d: decoded %d epochs, want %d",
					trial, cut, len(img), len(got), wantCommitted)
			}
			epochsEqual(t, got, epochs[:wantCommitted])
		}
	}
}

// checksummedBytes lists the positions of an image's checksum and payload
// bytes — every byte a flip of which MUST surface as ErrCorrupt. Length
// prefixes are deliberately excluded: corrupting a length can only make a
// record look torn, and a tear is (correctly) indistinguishable from a
// crash, so it decodes cleanly to the last commit instead of erroring.
func checksummedBytes(img []byte) []int {
	var out []int
	for pos := 0; pos+headerSize <= len(img); {
		n := int(uint32(img[pos]) | uint32(img[pos+1])<<8 | uint32(img[pos+2])<<16 | uint32(img[pos+3])<<24)
		for i := pos + 4; i < pos+headerSize+n && i < len(img); i++ {
			out = append(out, i)
		}
		pos += headerSize + n
	}
	return out
}

// TestCorruptedChecksumRejected flips one checksummed byte of a complete
// record and demands the typed error; the epochs committed before the
// flipped record must still decode.
func TestCorruptedChecksumRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		var epochs []Epoch
		for e := 0; e < 2+rng.Intn(3); e++ {
			epochs = append(epochs, Epoch{
				Rank: rng.Intn(8),
				Seq:  int64(e + 1),
				Runs: genRuns(rng, 1+rng.Intn(3)),
			})
		}
		img, commitEnds := buildImage(epochs)
		flippable := checksummedBytes(img)
		pos := flippable[rng.Intn(len(flippable))]
		mut := append([]byte(nil), img...)
		mut[pos] ^= 0x40
		got, err := Decode(mut)
		if err == nil {
			t.Fatalf("trial %d: flip at %d/%d decoded cleanly", trial, pos, len(img))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("trial %d: corruption error is not typed ErrCorrupt: %v", trial, err)
		}
		// Epochs sealed strictly before the flipped byte's record survive.
		intact := 0
		for _, end := range commitEnds {
			if end <= pos {
				intact++
			}
		}
		if len(got) < intact {
			t.Fatalf("trial %d: flip at %d lost %d intact epochs (decoded %d)",
				trial, pos, intact, len(got))
		}
	}
}

// TestZeroLengthRecordRejected pins the framing edge case: a zero payload
// length is never produced by the writer and must read as corruption, not
// as an infinite loop or a silent skip.
func TestZeroLengthRecordRejected(t *testing.T) {
	img := make([]byte, headerSize) // length 0, checksum 0
	if _, err := Decode(img); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("zero-length record decoded without ErrCorrupt: %v", err)
	}
}

// TestUncommittedEpochsAreStructuralCorruption journals two epochs without
// commit markers — the byte stream the skip-commit-marker mutant writes —
// and demands the second header surface ErrCorrupt at decode time.
func TestUncommittedEpochsAreStructuralCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	b1, _ := EncodeEpochRecords(0, 1, genRuns(rng, 2))
	b2, _ := EncodeEpochRecords(0, 2, genRuns(rng, 2))
	img := append(append([]byte(nil), b1...), b2...)
	got, err := Decode(img)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("back-to-back uncommitted epochs decoded without ErrCorrupt: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("uncommitted epochs leaked %d committed epochs", len(got))
	}
}

// TestDataExtentsAddressRunBytes verifies the journal-relative extents
// EncodeEpochRecords reports: slicing the batch at each extent must yield
// exactly that run's data — the invariant the spill re-fault path relies on.
func TestDataExtentsAddressRunBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		runs := genRuns(rng, 1+rng.Intn(6))
		batch, dataAt := EncodeEpochRecords(3, 7, runs)
		if len(dataAt) != len(runs) {
			t.Fatalf("trial %d: %d extents for %d runs", trial, len(dataAt), len(runs))
		}
		for i, ext := range dataAt {
			if !bytes.Equal(batch[ext.Off:ext.Off+ext.Len], runs[i].Data) {
				t.Fatalf("trial %d run %d: extent %+v does not address the run's bytes", trial, i, ext)
			}
		}
	}
}

// goldenEpochRuns is a fixed epoch covering the framing's edge cases: a
// one-byte run, an empty run, a short run, and one longer than a cache
// line, at offsets that need all eight bytes of the offset field.
func goldenEpochRuns() []Run {
	lens := []int{1, 0, 5, 300}
	offs := []int64{0, 17, 1 << 20, 1<<40 + 3}
	runs := make([]Run, len(lens))
	for i, n := range lens {
		data := make([]byte, n)
		for j := range data {
			data[j] = byte(i*31 + j*7 + 1)
		}
		runs[i] = Run{Extent: extent.Extent{Off: offs[i], Len: int64(n)}, Data: data}
	}
	return runs
}

// TestEncodeEpochRecordsGolden pins the batch bytes and the data extents
// of a fixed epoch, computed from the append-per-record encoder, so a
// change to how EncodeEpochRecords builds the batch cannot change what
// lands in the journal.
func TestEncodeEpochRecordsGolden(t *testing.T) {
	const (
		wantLen    = 427
		wantSHA256 = "f7fc5c1340759043f7699594191cab3dcb1e26274592a8f6f1aeac5b2a5e2227"
	)
	wantAt := []extent.Extent{{Off: 46, Len: 1}, {Off: 72, Len: 0}, {Off: 97, Len: 5}, {Off: 127, Len: 300}}
	batch, dataAt := EncodeEpochRecords(5, 9, goldenEpochRuns())
	if len(batch) != wantLen {
		t.Errorf("batch is %d bytes, want %d", len(batch), wantLen)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(batch)); got != wantSHA256 {
		t.Errorf("batch SHA-256 = %s, want %s", got, wantSHA256)
	}
	if fmt.Sprint(dataAt) != fmt.Sprint(wantAt) {
		t.Errorf("data extents = %v, want %v", dataAt, wantAt)
	}
}

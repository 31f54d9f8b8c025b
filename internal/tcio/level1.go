package tcio

// The level-1 buffer (paper §IV.A): one segment-sized, segment-aligned
// per-process buffer that coalesces small sequential writes before they
// travel to the level-2 window as a single indexed-datatype put.

import (
	"fmt"

	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/trace"
)

// Write appends data at the current file pointer (tcio_write).
func (f *File) Write(data []byte) error {
	if err := f.WriteAt(f.pos, data); err != nil {
		return err
	}
	f.pos += int64(len(data))
	return nil
}

// WriteTyped writes count elements of type t, gathered from mem according
// to the type's layout — the tcio_write(fh, data, count, MPI_Datatype)
// entry point of the paper's Program 1.
func (f *File) WriteTyped(mem []byte, count int, t datatype.Type) error {
	packed, err := datatype.Pack(mem, t, count)
	if err != nil {
		return err
	}
	return f.Write(packed)
}

// WriteAt writes data at the given file offset (tcio_write_at). The call
// is fully independent: no other rank needs to participate.
func (f *File) WriteAt(off int64, data []byte) error {
	switch {
	case f.closed:
		return ErrClosed
	case f.mode != WriteMode:
		return fmt.Errorf("%w: write on %s handle", ErrMode, f.mode)
	case off < 0:
		return fmt.Errorf("tcio: negative offset %d", off)
	}
	f.stats.Writes++
	f.stats.BytesWritten += int64(len(data))
	if f.tracing() {
		f.emit(trace.KindWrite, f.c.Now(), int64(len(data)), fmt.Sprintf("off=%d", off))
	}
	// Split at segment boundaries: a block larger than one segment "has to
	// be subdivided and placed in different segments" (§IV.A).
	for len(data) > 0 {
		seg := f.globalSegment(off)
		segOff := off % f.segSize
		n := f.segSize - segOff
		if n > int64(len(data)) {
			n = int64(len(data))
		}
		if !f.layout.InRange(seg) {
			_, slot := f.segmentOwner(seg)
			return fmt.Errorf("%w: offset %d needs slot %d of %d (raise NumSegments)",
				ErrCapacity, off, slot, f.numSeg)
		}
		f.c.Compute(f.pieceCPU)
		if err := f.stageWrite(seg, segOff, data[:n]); err != nil {
			return err
		}
		off += n
		data = data[n:]
	}
	return nil
}

// stageWrite places one within-segment piece into the level-1 buffer,
// flushing and realigning first when the piece belongs to a different
// segment than the buffer is aligned with.
func (f *File) stageWrite(seg, segOff int64, piece []byte) error {
	if f.cfg.DisableLevel1 {
		// Ablation: ship the piece immediately with its own one-sided op.
		return f.ship(seg, []extent.Extent{{Off: segOff, Len: int64(len(piece))}}, [][]byte{piece})
	}
	if f.l1Seg != seg {
		if err := f.flushLevel1(); err != nil {
			return err
		}
		f.l1Seg = seg
	}
	copy(f.l1Buf[segOff:segOff+int64(len(piece))], piece)
	f.l1Blocks = append(f.l1Blocks, extent.Extent{Off: segOff, Len: int64(len(piece))})
	return nil
}

// flushLevel1 ships the level-1 buffer's cached blocks to the owning
// level-2 segment as one indexed-datatype one-sided put, gathered from the
// buffer where the blocks lie: each run's source is its own window of
// l1Buf, so nothing is packed first.
func (f *File) flushLevel1() error {
	if f.l1Seg < 0 || len(f.l1Blocks) == 0 {
		f.l1Seg = -1
		f.l1Blocks = f.l1Blocks[:0]
		return nil
	}
	blocks := extent.Coalesce(f.l1Blocks)
	srcs := f.l1Srcs[:0]
	for _, b := range blocks {
		srcs = append(srcs, f.l1Buf[b.Off:b.Off+b.Len])
	}
	f.l1Srcs = srcs[:0]
	err := f.ship(f.l1Seg, blocks, srcs)
	f.l1Seg = -1
	f.l1Blocks = f.l1Blocks[:0]
	return err
}

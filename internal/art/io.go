package art

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/mpiio"
	"github.com/tcio/tcio/internal/tcio"
)

// Library selects the I/O stack a checkpoint goes through — the two
// contenders of the paper's Figs. 9-10.
type Library int

// Available I/O backends.
const (
	// LibTCIO checkpoints through transparent collective I/O.
	LibTCIO Library = iota
	// LibVanilla checkpoints through vanilla MPI-IO: every piece is an
	// independent file system access.
	LibVanilla
)

// String names the library.
func (l Library) String() string {
	switch l {
	case LibTCIO:
		return "TCIO"
	case LibVanilla:
		return "MPI-IO"
	default:
		return fmt.Sprintf("Library(%d)", int(l))
	}
}

// backend is the minimal surface Dump/Restore need; it hides whether reads
// are lazy (TCIO) or immediate (vanilla MPI-IO).
type backend interface {
	WriteAt(off int64, data []byte) error
	ReadAt(off int64, dst []byte) error
	Fetch() error
	Close() error
}

type tcioBackend struct{ f *tcio.File }

func (b tcioBackend) WriteAt(off int64, data []byte) error { return b.f.WriteAt(off, data) }
func (b tcioBackend) ReadAt(off int64, dst []byte) error   { return b.f.ReadAt(off, dst) }
func (b tcioBackend) Fetch() error                         { return b.f.Fetch() }
func (b tcioBackend) Close() error                         { return b.f.Close() }

type vanillaBackend struct{ f *mpiio.File }

func (b vanillaBackend) WriteAt(off int64, data []byte) error { return b.f.WriteAt(off, data) }
func (b vanillaBackend) ReadAt(off int64, dst []byte) error {
	got, err := b.f.ReadAt(off, int64(len(dst)))
	if err != nil {
		return err
	}
	copy(dst, got)
	return nil
}
func (b vanillaBackend) Fetch() error { return nil }
func (b vanillaBackend) Close() error { return b.f.Close() }

// checkpoint file header: magic, tree count, then ntrees+1 record offsets.
const ckptMagic = 0x41525443 // "ARTC"

func ckptHeaderSize(ntrees int) int64 { return 4 + 8 + int64(ntrees+1)*8 }

// segmentsFor sizes a TCIO level-2 configuration to cover total bytes.
func segmentsFor(total, segSize int64, procs int) int {
	perRank := (total + int64(procs)*segSize - 1) / (int64(procs) * segSize)
	if perRank < 1 {
		perRank = 1
	}
	return int(perRank)
}

// Dump writes a checkpoint of the given trees (this rank's share; IDs are
// global indices) through the selected library. ntrees is the global tree
// count; segSize tunes TCIO's level-2 segments (0 = file system stripe).
// Dump is collective.
func Dump(c *mpi.Comm, lib Library, name string, trees []*Tree, ntrees int, segSize int64) error {
	// Establish global record offsets: every rank shares (id, size) pairs.
	blob := make([]byte, 4+16*len(trees))
	binary.LittleEndian.PutUint32(blob, uint32(len(trees)))
	for i, t := range trees {
		if t.ID < 0 || t.ID >= int64(ntrees) {
			return fmt.Errorf("art: tree id %d outside [0,%d)", t.ID, ntrees)
		}
		binary.LittleEndian.PutUint64(blob[4+16*i:], uint64(t.ID))
		binary.LittleEndian.PutUint64(blob[12+16*i:], uint64(t.EncodedSize()))
	}
	all, err := c.AllgatherBytes(blob)
	if err != nil {
		return err
	}
	sizes := make([]int64, ntrees)
	for _, b := range all {
		n := int(binary.LittleEndian.Uint32(b))
		for i := 0; i < n; i++ {
			id := int64(binary.LittleEndian.Uint64(b[4+16*i:]))
			sizes[id] = int64(binary.LittleEndian.Uint64(b[12+16*i:]))
		}
	}
	offsets := make([]int64, ntrees+1)
	offsets[0] = ckptHeaderSize(ntrees)
	for i := 0; i < ntrees; i++ {
		if sizes[i] == 0 {
			return fmt.Errorf("art: no rank owns tree %d", i)
		}
		offsets[i+1] = offsets[i] + sizes[i]
	}
	total := offsets[ntrees]

	be, err := openBackend(c, lib, name, tcio.WriteMode, segSize, total)
	if err != nil {
		return err
	}

	// Rank 0 writes the self-describing index.
	if c.Rank() == 0 {
		hdr := make([]byte, ckptHeaderSize(ntrees))
		binary.LittleEndian.PutUint32(hdr, ckptMagic)
		binary.LittleEndian.PutUint64(hdr[4:], uint64(ntrees))
		for i, off := range offsets {
			binary.LittleEndian.PutUint64(hdr[12+8*i:], uint64(off))
		}
		if err := be.WriteAt(0, hdr); err != nil {
			return err
		}
	}

	// Each rank writes its trees piece by piece — ART's natural I/O shape.
	for _, t := range trees {
		base := offsets[t.ID]
		for _, p := range t.Pieces() {
			if err := be.WriteAt(base+p.Off, p.Data); err != nil {
				return err
			}
		}
	}
	if err := be.Close(); err != nil {
		return err
	}
	// Dump is collective: no rank may proceed (e.g. to a restart) until
	// the checkpoint is complete. TCIO's Close already synchronizes;
	// vanilla MPI-IO needs the explicit barrier.
	return c.Barrier()
}

// Restore reads back this rank's round-robin share of the checkpoint and
// returns the reconstructed trees in ID order. Restore is collective.
func Restore(c *mpi.Comm, lib Library, name string) ([]*Tree, error) {
	size := c.FS().Open(name).Size()
	be, err := openBackend(c, lib, name, tcio.ReadMode, 0, size)
	if err != nil {
		return nil, err
	}

	// Read the index: magic + count first, then the offset table.
	head := make([]byte, 12)
	if err := be.ReadAt(0, head); err != nil {
		return nil, err
	}
	if err := be.Fetch(); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(head) != ckptMagic {
		return nil, fmt.Errorf("art: bad checkpoint magic %#x", binary.LittleEndian.Uint32(head))
	}
	// The index is untrusted input: validate it before allocating from it.
	// A count the file cannot hold, or offsets that step backwards, leave
	// the file, or leave a record shorter than its header are corruption,
	// not a reason to panic or exhaust memory.
	count := binary.LittleEndian.Uint64(head[4:])
	if size < ckptHeaderSize(0) || count > uint64(size-ckptHeaderSize(0))/8 {
		return nil, fmt.Errorf("art: %w: %d trees do not fit a %d-byte file", ErrCorruptIndex, count, size)
	}
	ntrees := int(count)
	offTable := make([]byte, (ntrees+1)*8)
	if err := be.ReadAt(12, offTable); err != nil {
		return nil, err
	}
	if err := be.Fetch(); err != nil {
		return nil, err
	}
	offsets := make([]int64, ntrees+1)
	for i := range offsets {
		offsets[i] = int64(binary.LittleEndian.Uint64(offTable[8*i:]))
	}
	if err := validateIndex(offsets, size); err != nil {
		return nil, err
	}

	var out []*Tree
	var buf []byte // one record buffer, reused across this rank's trees
	for _, id := range OwnedBy(ntrees, c.Size(), c.Rank()) {
		base := offsets[id]
		recLen := offsets[id+1] - base
		if int64(cap(buf)) < recLen {
			buf = make([]byte, recLen)
		}
		rec := buf[:recLen]

		// Header first: the record is self-describing, so the piece
		// layout is known only after parsing it.
		if err := be.ReadAt(base, rec[:headerSize]); err != nil {
			return nil, err
		}
		if err := be.Fetch(); err != nil {
			return nil, err
		}
		_, vars, counts, err := DecodeHeader(rec[:headerSize])
		if err != nil {
			return nil, fmt.Errorf("art: tree %d: %w", id, err)
		}
		// Then each array with its own (lazy) read call. The level counts
		// must fit the record: rec is a window into a reused buffer, so
		// slicing past its length would not fault but read stale bytes.
		off := int64(headerSize)
		cellBytes := 1 + 8*int64(vars)
		for _, n := range counts {
			if int64(n) > (recLen-off)/cellBytes {
				return nil, fmt.Errorf("art: tree %d: record of %d bytes truncated at level with %d cells", id, recLen, n)
			}
			if err := be.ReadAt(base+off, rec[off:off+int64(n)]); err != nil {
				return nil, err
			}
			off += int64(n)
			for v := 0; v < vars; v++ {
				if err := be.ReadAt(base+off, rec[off:off+int64(8*n)]); err != nil {
					return nil, err
				}
				off += int64(8 * n)
			}
		}
		if err := be.Fetch(); err != nil {
			return nil, err
		}
		t, err := Decode(rec)
		if err != nil {
			return nil, fmt.Errorf("art: tree %d: %w", id, err)
		}
		out = append(out, t)
	}
	if err := be.Close(); err != nil {
		return nil, err
	}
	if err := c.Barrier(); err != nil {
		return nil, err
	}
	return out, nil
}

// ErrCorruptIndex reports a checkpoint whose index cannot describe the
// file it heads; Restore wraps it with the offending value.
var ErrCorruptIndex = errors.New("corrupt checkpoint index")

// validateIndex checks a checkpoint's record offsets against the file: the
// first record starts right after the index, every record is at least a
// header long (so offsets never step backwards), and none ends past size.
func validateIndex(offsets []int64, size int64) error {
	ntrees := len(offsets) - 1
	if offsets[0] != ckptHeaderSize(ntrees) {
		return fmt.Errorf("art: %w: first record at %d, want %d", ErrCorruptIndex, offsets[0], ckptHeaderSize(ntrees))
	}
	for i := 1; i <= ntrees; i++ {
		if offsets[i] < offsets[i-1]+headerSize || offsets[i] > size {
			return fmt.Errorf("art: %w: tree %d spans [%d,%d) in a %d-byte file",
				ErrCorruptIndex, i-1, offsets[i-1], offsets[i], size)
		}
	}
	return nil
}

// openBackend builds the requested I/O stack over the shared file.
func openBackend(c *mpi.Comm, lib Library, name string, mode tcio.Mode, segSize, total int64) (backend, error) {
	switch lib {
	case LibTCIO:
		if segSize == 0 {
			segSize = c.FS().Config().StripeSize
		}
		f, err := tcio.Open(c, name, mode, tcio.Config{
			SegmentSize: segSize,
			NumSegments: segmentsFor(total, segSize, c.Size()),
		})
		if err != nil {
			return nil, err
		}
		return tcioBackend{f}, nil
	case LibVanilla:
		f, err := mpiio.Open(c, name)
		if err != nil {
			return nil, err
		}
		return vanillaBackend{f}, nil
	default:
		return nil, fmt.Errorf("art: unknown library %d", int(lib))
	}
}

// GenerateForRank deterministically builds rank's round-robin share of the
// paper's workload: ntrees trees with Table IV cell counts and `vars`
// variables per cell. All ranks derive the same global plan (the size draw
// is seeded), then materialize only their own trees.
func GenerateForRank(ntrees, vars, procs, rank int, seed int64) []*Tree {
	sizes := SegmentSizes(ntrees, TableIV.Mu, TableIV.Sigma, seed)
	var out []*Tree
	for _, id := range OwnedBy(ntrees, procs, rank) {
		// Per-tree RNG so generation is independent of ownership.
		rng := TreeRNG(seed, int64(id))
		out = append(out, Generate(int64(id), sizes[id], vars, rng))
	}
	return out
}

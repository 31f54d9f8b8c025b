// Package wal implements the per-file, per-rank journaled epoch log under
// tcio's level-2 tier (DESIGN.md §2f). Each flush epoch appends a batch of
// length-prefixed, checksummed records — an epoch header, one record per
// dirty run carrying its absolute file extent and bytes, then a separate
// commit marker — through a storage.Client, so journal traffic pays the
// same retry/trace/virtual-time costs as data writes and chaos faults
// charge identically.
//
// The format is recovery-first: a crash can cut the journal anywhere, and
// Decode must always produce a well-defined answer. The rules are
//
//   - a torn tail (too few bytes for the declared record, or a bare
//     length prefix) is a clean stop: everything after the last commit
//     marker is discarded;
//   - a complete record whose checksum fails is corruption, not a tear —
//     typed ErrCorrupt;
//   - an epoch header arriving while an epoch is still open is structural
//     corruption: the writer seals every epoch with a commit marker before
//     opening the next, so only a bug (or a deliberate mutant) produces it.
//
// Because the commit marker is issued as its own storage request after the
// epoch's record batch, a crash slicing the journal at any virtual time
// yields either a committed epoch or a torn uncommitted tail — never a
// half-committed one.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/mutate"
	"github.com/tcio/tcio/internal/storage"
	"github.com/tcio/tcio/internal/trace"
)

// Record framing: [4B little-endian payload length][4B CRC-32 (IEEE) of the
// payload][payload]. payload[0] is the record type.
const (
	headerSize = 8 // length + checksum prefix

	recEpoch  = 1 // payload: type, int32 rank, int64 epoch
	recRun    = 2 // payload: type, int64 epoch, int64 file offset, data...
	recCommit = 3 // payload: type, int64 epoch

	epochPayloadLen  = 13
	commitPayloadLen = 9
	runPayloadMin    = 17
)

// ErrCorrupt is returned when the journal contains a structurally complete
// but invalid record: a checksum mismatch, an unknown or malformed payload,
// or an epoch header inside a still-open epoch. Match it with errors.Is.
// Torn tails are NOT corruption — they are the expected shape of a crash
// and decode cleanly to the last committed epoch.
var ErrCorrupt = errors.New("wal: corrupt record")

// Run is one journaled dirty run: Extent.Off is the absolute file offset.
type Run struct {
	Extent extent.Extent
	Data   []byte
}

// Epoch is one committed flush epoch of one rank's journal.
type Epoch struct {
	Rank int
	Seq  int64 // the global flush-epoch counter value
	Runs []Run
}

// frameInPlace writes the length and checksum prefix of the record whose
// payload already sits in rec[headerSize:].
func frameInPlace(rec []byte) {
	payload := rec[headerSize:]
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(payload))
}

// EncodeEpochRecords renders the header and run records of one epoch (no
// commit marker) as one contiguous byte batch, returning the batch and the
// journal-relative extent each run's DATA bytes occupy within it — the
// re-fault addresses a spilled segment is read back from. The batch is
// sized exactly up front and every record is framed where it lies, so a
// run's bytes are copied once.
func EncodeEpochRecords(rank int, seq int64, runs []Run) (batch []byte, dataAt []extent.Extent) {
	size := headerSize + epochPayloadLen
	for _, r := range runs {
		size += headerSize + runPayloadMin + len(r.Data)
	}
	batch = make([]byte, size)
	rec := batch[:headerSize+epochPayloadLen]
	rec[headerSize] = recEpoch
	binary.LittleEndian.PutUint32(rec[headerSize+1:], uint32(int32(rank)))
	binary.LittleEndian.PutUint64(rec[headerSize+5:], uint64(seq))
	frameInPlace(rec)
	pos := len(rec)
	dataAt = make([]extent.Extent, len(runs))
	for i, r := range runs {
		rec = batch[pos : pos+headerSize+runPayloadMin+len(r.Data)]
		p := rec[headerSize:]
		p[0] = recRun
		binary.LittleEndian.PutUint64(p[1:9], uint64(seq))
		binary.LittleEndian.PutUint64(p[9:17], uint64(r.Extent.Off))
		copy(p[runPayloadMin:], r.Data)
		frameInPlace(rec)
		dataAt[i] = extent.Extent{Off: int64(pos) + headerSize + runPayloadMin, Len: int64(len(r.Data))}
		pos += len(rec)
	}
	return batch, dataAt
}

// EncodeCommit renders the commit marker sealing epoch seq.
func EncodeCommit(seq int64) []byte {
	rec := make([]byte, headerSize+commitPayloadLen)
	rec[headerSize] = recCommit
	binary.LittleEndian.PutUint64(rec[headerSize+1:], uint64(seq))
	frameInPlace(rec)
	return rec
}

// Decode scans a journal image and returns its committed epochs in append
// order. Bytes after the last commit marker that do not complete a further
// committed epoch are discarded (the torn tail of a crash). Structural
// corruption — bad checksum on a complete record, malformed payload, a
// header inside an open epoch, a commit or run for the wrong epoch —
// returns ErrCorrupt.
func Decode(img []byte) ([]Epoch, error) {
	var committed []Epoch
	var open *Epoch
	for pos := 0; pos < len(img); {
		if len(img)-pos < headerSize {
			break // torn length prefix
		}
		n := int(binary.LittleEndian.Uint32(img[pos : pos+4]))
		sum := binary.LittleEndian.Uint32(img[pos+4 : pos+8])
		if len(img)-pos-headerSize < n {
			break // torn record body
		}
		payload := img[pos+headerSize : pos+headerSize+n]
		if n == 0 || crc32.ChecksumIEEE(payload) != sum {
			return committed, fmt.Errorf("%w: checksum mismatch at byte %d", ErrCorrupt, pos)
		}
		switch payload[0] {
		case recEpoch:
			if n != epochPayloadLen {
				return committed, fmt.Errorf("%w: epoch header of %d bytes at %d", ErrCorrupt, n, pos)
			}
			if open != nil {
				return committed, fmt.Errorf(
					"%w: epoch header inside uncommitted epoch %d at byte %d", ErrCorrupt, open.Seq, pos)
			}
			open = &Epoch{
				Rank: int(int32(binary.LittleEndian.Uint32(payload[1:5]))),
				Seq:  int64(binary.LittleEndian.Uint64(payload[5:13])),
			}
		case recRun:
			if n < runPayloadMin {
				return committed, fmt.Errorf("%w: run record of %d bytes at %d", ErrCorrupt, n, pos)
			}
			if open == nil {
				return committed, fmt.Errorf("%w: run outside any epoch at byte %d", ErrCorrupt, pos)
			}
			if seq := int64(binary.LittleEndian.Uint64(payload[1:9])); seq != open.Seq {
				return committed, fmt.Errorf("%w: run for epoch %d inside epoch %d at byte %d",
					ErrCorrupt, seq, open.Seq, pos)
			}
			data := append([]byte(nil), payload[runPayloadMin:]...)
			open.Runs = append(open.Runs, Run{
				Extent: extent.Extent{
					Off: int64(binary.LittleEndian.Uint64(payload[9:17])),
					Len: int64(len(data)),
				},
				Data: data,
			})
		case recCommit:
			if n != commitPayloadLen {
				return committed, fmt.Errorf("%w: commit marker of %d bytes at %d", ErrCorrupt, n, pos)
			}
			if open == nil {
				return committed, fmt.Errorf("%w: commit outside any epoch at byte %d", ErrCorrupt, pos)
			}
			if seq := int64(binary.LittleEndian.Uint64(payload[1:9])); seq != open.Seq {
				return committed, fmt.Errorf("%w: commit for epoch %d sealing epoch %d at byte %d",
					ErrCorrupt, seq, open.Seq, pos)
			}
			committed = append(committed, *open)
			open = nil
		default:
			return committed, fmt.Errorf("%w: unknown record type %d at byte %d", ErrCorrupt, payload[0], pos)
		}
		pos += headerSize + n
	}
	return committed, nil
}

// Stats counts one Writer's journal activity.
type Stats struct {
	// Epochs counts non-empty epochs whose record batch was appended.
	Epochs int64
	// Appends counts storage write requests issued (record batches plus
	// commit markers).
	Appends int64
	// Bytes counts journal bytes written.
	Bytes int64
	// Commits counts commit markers issued. Equal to Epochs in a correct
	// writer; the gap is the observable of the skip-commit-marker mutant.
	Commits int64
}

// Writer appends epochs to one rank's journal file through a
// storage.Client. It is single-writer by construction (one rank owns one
// journal) and tracks the append position itself, so the journal file needs
// no size round trips.
type Writer struct {
	store *storage.Client
	rank  int
	pos   int64
	stats Stats
}

// NewWriter builds a writer appending at offset 0 of the client's file.
func NewWriter(store *storage.Client, rank int) *Writer {
	return &Writer{store: store, rank: rank}
}

// Stats returns a snapshot of the writer's counters.
func (w *Writer) Stats() Stats { return w.stats }

// AppendEpoch journals one flush epoch: the header-plus-runs batch as one
// write request, then the commit marker as a second, separately-faultable
// request. It returns the journal-file extent each run's data bytes landed
// at (the spill re-fault addresses). An empty run list appends nothing.
func (w *Writer) AppendEpoch(seq int64, runs []Run) ([]extent.Extent, error) {
	if len(runs) == 0 {
		return nil, nil
	}
	batch, dataAt := EncodeEpochRecords(w.rank, seq, runs)
	for i := range dataAt {
		dataAt[i].Off += w.pos
	}
	if _, err := w.store.WriteExtents("wal: append", trace.KindJournal, []storage.Request{
		{Off: w.pos, Data: batch, Tag: fmt.Sprintf("epoch=%d runs=%d", seq, len(runs))},
	}); err != nil {
		return nil, err
	}
	w.pos += int64(len(batch))
	w.stats.Epochs++
	w.stats.Appends++
	w.stats.Bytes += int64(len(batch))

	if !mutate.Enabled(mutate.WALSkipCommitMarker) {
		commit := EncodeCommit(seq)
		if _, err := w.store.WriteExtents("wal: commit", trace.KindJournal, []storage.Request{
			{Off: w.pos, Data: commit, Tag: fmt.Sprintf("commit=%d", seq)},
		}); err != nil {
			return nil, err
		}
		w.pos += int64(len(commit))
		w.stats.Appends++
		w.stats.Bytes += int64(len(commit))
		w.stats.Commits++
	}
	return dataAt, nil
}

// ReadBack fills dst with journal bytes from the given journal-file extent
// through the same charged storage path — the spill re-fault read.
func (w *Writer) ReadBack(ext extent.Extent, dst []byte) error {
	_, err := w.store.ReadExtents("wal: refault", trace.KindJournal, []storage.Request{
		{Off: ext.Off, Data: dst[:ext.Len], Tag: fmt.Sprintf("off=%d", ext.Off)},
	})
	return err
}

// Truncate retires the journal after the file's final drain settled: the
// charged, retried, faultable control request that makes recovery a no-op.
// On failure the journal is preserved — better a stale journal replayed
// than a file with no journal and a torn drain.
func (w *Writer) Truncate() error {
	if err := w.store.Truncate("wal: truncate", trace.KindJournal); err != nil {
		return err
	}
	w.pos = 0
	return nil
}

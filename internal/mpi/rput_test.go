package mpi

// Tests for the Rput-style nonblocking puts: PutSegmentsAsync handles,
// FlushLocal, the PendingArrival observer the overlap pipelines use, and
// the gathering PutSegmentsFrom.

import (
	"bytes"
	"errors"
	"testing"

	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/simtime"
)

func TestPutSegmentsAsyncComplete(t *testing.T) {
	_, err := Run(testCfg(2), func(c *Comm) error {
		win, err := c.WinCreate(64)
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			return nil
		}
		if err := win.Lock(1, false); err != nil {
			return err
		}
		h, err := win.PutSegmentsAsync(1, []datatype.Segment{{Off: 8, Len: 4}}, []byte{1, 2, 3, 4})
		if err != nil {
			return err
		}
		// PendingArrival observes the in-flight transfer without advancing
		// the origin clock past it.
		pending := win.PendingArrival(1)
		if pending <= c.Now() {
			return errors.New("put arrival not after issue time")
		}
		h.Complete()
		if c.Now() < pending {
			return errors.New("Complete did not wait for the transfer")
		}
		// A second put moves the epoch's horizon; FlushLocal waits for it.
		if _, err := win.PutSegmentsAsync(1, []datatype.Segment{{Off: 16, Len: 4}}, []byte{5, 6, 7, 8}); err != nil {
			return err
		}
		horizon := win.PendingArrival(1)
		if err := win.FlushLocal(1); err != nil {
			return err
		}
		if c.Now() < horizon {
			return errors.New("FlushLocal did not retire the epoch's transfers")
		}
		return win.Unlock(1)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFlushLocalNeedsEpoch(t *testing.T) {
	_, err := Run(testCfg(2), func(c *Comm) error {
		win, err := c.WinCreate(8)
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			return nil
		}
		if err := win.FlushLocal(1); err == nil {
			return errors.New("FlushLocal without an epoch succeeded")
		}
		if win.PendingArrival(1) != 0 {
			return errors.New("PendingArrival nonzero without an epoch")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// putOnce runs one two-rank program in which rank 0 puts three scattered
// blocks into rank 1's window, through put, and reports rank 1's window
// bytes, the put's arrival, and rank 0's clock right after the issue.
func putOnce(t *testing.T, put func(w *Win, segs []datatype.Segment, srcs [][]byte) (PutHandle, error)) ([]byte, simtime.Time, simtime.Time) {
	t.Helper()
	segs := []datatype.Segment{{Off: 40, Len: 5}, {Off: 3, Len: 2}, {Off: 16, Len: 9}}
	srcs := [][]byte{[]byte("abcde"), []byte("fg"), []byte("hijklmnop")}
	target := make([]byte, 64)
	var arrival, issued simtime.Time
	_, err := Run(testCfg(2), func(c *Comm) error {
		win, err := c.WinCreate(64)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := win.Lock(1, false); err != nil {
				return err
			}
			h, err := put(win, segs, srcs)
			if err != nil {
				return err
			}
			arrival, issued = h.Arrival(), c.Now()
			if err := win.Unlock(1); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 1 {
			copy(target, win.Local())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return target, arrival, issued
}

func TestPutSegmentsFromMatchesPacked(t *testing.T) {
	packedWin, packedArr, packedNow := putOnce(t, func(w *Win, segs []datatype.Segment, srcs [][]byte) (PutHandle, error) {
		return w.PutSegmentsAsync(1, segs, bytes.Join(srcs, nil))
	})
	gatherWin, gatherArr, gatherNow := putOnce(t, func(w *Win, segs []datatype.Segment, srcs [][]byte) (PutHandle, error) {
		return w.PutSegmentsFrom(1, segs, srcs)
	})
	if !bytes.Equal(packedWin, gatherWin) {
		t.Fatalf("window bytes differ:\npacked %q\ngather %q", packedWin, gatherWin)
	}
	if packedArr != gatherArr || packedNow != gatherNow {
		t.Fatalf("charge differs: packed arrival %v clock %v, gathered arrival %v clock %v",
			packedArr, packedNow, gatherArr, gatherNow)
	}
	if want := "fg"; string(gatherWin[3:5]) != want {
		t.Fatalf("segment 1 landed %q, want %q", gatherWin[3:5], want)
	}
}

func TestPutSegmentsFromRejectsMismatchedSources(t *testing.T) {
	_, err := Run(testCfg(2), func(c *Comm) error {
		win, err := c.WinCreate(32)
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			return nil
		}
		if err := win.Lock(1, false); err != nil {
			return err
		}
		segs := []datatype.Segment{{Off: 0, Len: 4}, {Off: 8, Len: 4}}
		before := c.Now()
		if _, err := win.PutSegmentsFrom(1, segs, [][]byte{{1, 2, 3, 4}, {5, 6, 7}}); err == nil {
			return errors.New("source shorter than its segment accepted")
		}
		if _, err := win.PutSegmentsFrom(1, segs, [][]byte{{1, 2, 3, 4}}); err == nil {
			return errors.New("fewer sources than segments accepted")
		}
		if c.Now() != before {
			return errors.New("rejected put charged the origin clock")
		}
		return win.Unlock(1)
	})
	if err != nil {
		t.Fatal(err)
	}
}

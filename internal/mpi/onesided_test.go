package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/netsim"
	"github.com/tcio/tcio/internal/simtime"
)

func TestWinHeld(t *testing.T) {
	_, err := Run(testCfg(2), func(c *Comm) error {
		win, err := c.WinCreate(8)
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			return nil
		}
		if win.Held(1) {
			return errors.New("Held before Lock")
		}
		if err := win.Lock(1, false); err != nil {
			return err
		}
		if !win.Held(1) {
			return errors.New("not Held after Lock")
		}
		if err := win.Unlock(1); err != nil {
			return err
		}
		if win.Held(1) {
			return errors.New("Held after Unlock")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWinGetAsyncDataValidAfterComplete(t *testing.T) {
	_, err := Run(testCfg(2), func(c *Comm) error {
		win, err := c.WinCreate(4)
		if err != nil {
			return err
		}
		if c.Rank() == 1 {
			copy(win.Local(), []byte{10, 20, 30, 40})
		}
		if err := c.Barrier(); err != nil || c.Rank() != 0 {
			return err
		}
		if err := win.Lock(1, false); err != nil {
			return err
		}
		h1, err := win.GetSegmentsAsync(1, []datatype.Segment{{Off: 1, Len: 2}})
		if err != nil {
			return err
		}
		h2, err := win.GetSegmentsAsync(1, []datatype.Segment{{Off: 3, Len: 1}})
		if err != nil {
			return err
		}
		if err := win.Unlock(1); err != nil {
			return err
		}
		if got := h1.Complete(); !bytes.Equal(got, []byte{20, 30}) {
			return fmt.Errorf("h1 = %v", got)
		}
		if got := h2.Complete(); !bytes.Equal(got, []byte{40}) {
			return fmt.Errorf("h2 = %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWinGetAsyncWithoutLockFails(t *testing.T) {
	_, err := Run(testCfg(2), func(c *Comm) error {
		win, err := c.WinCreate(8)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if _, err := win.GetSegmentsAsync(1, []datatype.Segment{{Off: 0, Len: 1}}); err == nil {
				return errors.New("async get without lock accepted")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWinAsyncGetsOverlapInVirtualTime(t *testing.T) {
	// N async gets under one epoch must cost far less than N synchronous
	// gets: the epoch's Unlock waits once for the slowest transfer.
	const n = 64
	segs := make([]datatype.Segment, 1)

	syncTime := runOneSidedTimed(t, func(c *Comm, win *Win) error {
		for i := 0; i < n; i++ {
			segs[0] = datatype.Segment{Off: int64(i), Len: 1}
			if err := win.Lock(1, false); err != nil {
				return err
			}
			if _, err := win.GetSegments(1, segs); err != nil {
				return err
			}
			if err := win.Unlock(1); err != nil {
				return err
			}
		}
		return nil
	})
	asyncTime := runOneSidedTimed(t, func(c *Comm, win *Win) error {
		if err := win.Lock(1, false); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			segs[0] = datatype.Segment{Off: int64(i), Len: 1}
			if _, err := win.GetSegmentsAsync(1, segs); err != nil {
				return err
			}
		}
		return win.Unlock(1)
	})
	if asyncTime >= syncTime {
		t.Fatalf("async epoch (%v) not cheaper than %d sync epochs (%v)", asyncTime, n, syncTime)
	}
}

// runOneSidedTimed runs fn on rank 0 against rank 1's 128-byte window and
// returns the makespan.
func runOneSidedTimed(t *testing.T, fn func(*Comm, *Win) error) simtime.Time {
	t.Helper()
	rep, err := Run(testCfg(2), func(c *Comm) error {
		win, err := c.WinCreate(128)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := fn(c, win); err != nil {
				return err
			}
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep.MaxTime
}

func TestWinSetClassChargesTwoSided(t *testing.T) {
	count := func(class netsim.Class) netsim.Stats {
		rep, err := Run(testCfg(2), func(c *Comm) error {
			win, err := c.WinCreate(8)
			if err != nil {
				return err
			}
			win.SetClass(class)
			if c.Rank() == 0 {
				if err := win.Lock(1, true); err != nil {
					return err
				}
				if err := win.Put(1, 0, []byte{1}); err != nil {
					return err
				}
				if err := win.Unlock(1); err != nil {
					return err
				}
			}
			return c.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Net
	}
	one := count(netsim.OneSided)
	two := count(netsim.TwoSided)
	if one.OneSidedMsgs == 0 {
		t.Fatal("default class did not record one-sided traffic")
	}
	if two.TwoSidedMsgs <= one.TwoSidedMsgs {
		t.Fatalf("SetClass(TwoSided) did not shift traffic: %+v vs %+v", two, one)
	}
}

func TestWinFenceSynchronizes(t *testing.T) {
	rep, err := Run(testCfg(3), func(c *Comm) error {
		win, err := c.WinCreate(8)
		if err != nil {
			return err
		}
		if c.Rank() == 1 {
			c.Compute(5 * simtime.Millisecond)
		}
		return win.Fence()
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, rt := range rep.RankTimes {
		if rt < simtime.Time(5*simtime.Millisecond) {
			t.Fatalf("rank %d left fence at %v", r, rt)
		}
	}
}

func TestSharedLocksDoNotChainVirtualTime(t *testing.T) {
	// Many shared epochs, each holding for 1 ms of compute, must overlap:
	// the makespan stays near one epoch, not the sum.
	rep, err := Run(testCfg(8), func(c *Comm) error {
		win, err := c.WinCreate(64)
		if err != nil {
			return err
		}
		if err := win.Lock(7, false); err != nil {
			return err
		}
		c.Compute(simtime.Millisecond)
		if err := win.Put(7, int64(c.Rank()), []byte{1}); err != nil {
			return err
		}
		return win.Unlock(7)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxTime > simtime.Time(4*simtime.Millisecond) {
		t.Fatalf("shared epochs serialized: makespan %v", rep.MaxTime)
	}
}

func TestExclusiveAfterSharedObservesHandoff(t *testing.T) {
	// An exclusive epoch must not begin (in virtual time) before earlier
	// shared epochs handed off.
	_, err := Run(testCfg(2), func(c *Comm) error {
		win, err := c.WinCreate(8)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := win.Lock(0, false); err != nil {
				return err
			}
			c.Compute(10 * simtime.Millisecond)
			if err := win.Unlock(0); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 1 {
			if err := win.Lock(0, true); err != nil {
				return err
			}
			if c.Now() < simtime.Time(10*simtime.Millisecond) {
				return fmt.Errorf("exclusive epoch began at %v, before shared handoff", c.Now())
			}
			return win.Unlock(0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWindowBackedOnFirstTouch: WinCreate exposes each rank's declared size
// without host bytes behind it. A get from an untouched target reads zeros
// and leaves it unbacked; the first put backs it, and a later put keeps
// the earlier one's bytes.
func TestWindowBackedOnFirstTouch(t *testing.T) {
	_, err := Run(testCfg(3), func(c *Comm) error {
		win, err := c.WinCreate(int64(16 + 8*c.Rank()))
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for r := 0; r < 3; r++ {
				if got, want := win.Size(r), int64(16+8*r); got != want {
					return fmt.Errorf("Size(%d) = %d, want %d", r, got, want)
				}
				if win.Backed(r) {
					return fmt.Errorf("target %d backed before any touch", r)
				}
			}
			if err := win.Lock(1, true); err != nil {
				return err
			}
			got, err := win.Get(1, 0, 24)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, make([]byte, 24)) {
				return fmt.Errorf("unbacked target read %v, want zeros", got)
			}
			if win.Backed(1) {
				return errors.New("a get backed its target")
			}
			if err := win.Put(1, 4, []byte("abcd")); err != nil {
				return err
			}
			if !win.Backed(1) {
				return errors.New("put left its target unbacked")
			}
			if err := win.Put(1, 20, []byte("xy")); err != nil {
				return err
			}
			if err := win.Unlock(1); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		switch c.Rank() {
		case 1:
			want := make([]byte, 24)
			copy(want[4:], "abcd")
			copy(want[20:], "xy")
			if got := win.Local(); !bytes.Equal(got, want) {
				return fmt.Errorf("rank 1 window = %q, want %q", got, want)
			}
		case 2:
			snap := []byte{9, 9, 9, 9}
			win.SnapshotLocalInto(snap, 28)
			if !bytes.Equal(snap, make([]byte, 4)) || win.Backed(2) {
				return fmt.Errorf("snapshot of an untouched window = %v (backed %v), want zeros, unbacked", snap, win.Backed(2))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPutGroupedRejectsNegativeLength: a negative-length segment whose
// lengths still sum to the data size once panicked PutGroupedAsync with a
// slice out of range. Every put and get body now checks segments against
// the declared window size first, so all three reject it with an error
// and leave the target untouched.
func TestPutGroupedRejectsNegativeLength(t *testing.T) {
	segs := []datatype.Segment{{Off: 0, Len: 2}, {Off: 4, Len: -1}}
	_, err := Run(testCfg(2), func(c *Comm) error {
		win, err := c.WinCreate(8)
		if err != nil || c.Rank() != 0 {
			return err
		}
		if err := win.Lock(1, true); err != nil {
			return err
		}
		if err := win.PutGrouped(1, []PutGroup{{Origin: 0, Segs: segs, Data: []byte{7}}}); err == nil {
			return errors.New("PutGrouped accepted a negative-length segment")
		}
		if _, err := win.PutSegmentsFrom(1, segs, [][]byte{{7, 7}, nil}); err == nil {
			return errors.New("PutSegmentsFrom accepted a negative-length segment")
		}
		if _, err := win.GetSegmentsInto(1, segs, [][]byte{make([]byte, 2), nil}); err == nil {
			return errors.New("GetSegmentsInto accepted a negative-length segment")
		}
		if win.Backed(1) {
			return errors.New("a rejected transfer backed its target")
		}
		return win.Unlock(1)
	})
	if err != nil {
		t.Fatal(err)
	}
}

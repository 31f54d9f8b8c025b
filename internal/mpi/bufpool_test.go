package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/faults"
)

func TestGetBufSizeClasses(t *testing.T) {
	if got := getBuf(0); got != nil {
		t.Fatalf("getBuf(0) = %v, want nil", got)
	}
	for _, n := range []int{1, 63, 64, 65, 128, 129, 4096, 4097, 4096 + poolSlack, 4096 + poolSlack + 1,
		1 << 20, 1<<20 + rpcRepHeaderWire, 1<<20 + rpcReqHeaderWire, (1 << 26) - 1, 1 << 26, 1<<26 + poolSlack} {
		b := getBuf(n)
		if len(b) != n {
			t.Fatalf("getBuf(%d): len %d", n, len(b))
		}
		p := cap(b) - poolSlack
		if c := cap(b); c < n || p&(p-1) != 0 || p < 1<<minPoolShift {
			t.Fatalf("getBuf(%d): cap %d not a covering pool class", n, c)
		}
		// The class is the smallest covering one.
		if p > 1<<minPoolShift && p/2+poolSlack >= n {
			t.Fatalf("getBuf(%d): cap %d, a smaller class covers", n, cap(b))
		}
		recycleBuf(b)
	}
	// A power-of-two payload plus a message header shares its own class.
	if c := cap(getBuf(1<<19 + rpcRepHeaderWire)); c != 1<<19+poolSlack {
		t.Fatalf("512 KiB reply: cap %d, want %d", c, 1<<19+poolSlack)
	}
	// Above the largest class the heap serves directly; recycling such a
	// buffer (or any odd-capacity caller slice) is a silent no-op.
	big := getBuf(1<<26 + poolSlack + 1)
	if len(big) != 1<<26+poolSlack+1 {
		t.Fatalf("oversize len %d", len(big))
	}
	recycleBuf(big)
	recycleBuf(make([]byte, 100))
}

func TestRecycleReturnsToPool(t *testing.T) {
	b := getBuf(1000)
	for i := range b {
		b[i] = 0xAA
	}
	recycleBuf(b)
	// sync.Pool gives no reuse guarantee, so only check that a subsequent
	// get of the same class is well-formed even if it is the recycled one.
	c := getBuf(700)
	if len(c) != 700 || cap(c) != 1024+poolSlack {
		t.Fatalf("after recycle: len %d cap %d", len(c), cap(c))
	}
}

// TestRecycledPayloadsStayCorrect hammers send/recv with the receiver
// recycling every delivered payload: reused staging must never leak one
// message's bytes into another.
func TestRecycledPayloadsStayCorrect(t *testing.T) {
	_, err := Run(testCfg(2), func(c *Comm) error {
		const rounds = 200
		if c.Rank() == 0 {
			buf := make([]byte, 512)
			for i := 0; i < rounds; i++ {
				for j := range buf {
					buf[j] = byte(i + j)
				}
				if err := c.Send(1, 7, buf[:128+(i%3)*128]); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < rounds; i++ {
			got, err := c.Recv(0, 7)
			if err != nil {
				return err
			}
			if len(got) != 128+(i%3)*128 {
				return fmt.Errorf("round %d: len %d", i, len(got))
			}
			for j, v := range got {
				if v != byte(i+j) {
					return fmt.Errorf("round %d byte %d: got %#x want %#x", i, j, v, byte(i+j))
				}
			}
			c.Recycle(got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPoolingKeepsFaultIdentity runs the same chaos-armed world twice —
// first with cold pools, then with the pools warmed by the first run — and
// checks that injection, retry, and message counts are identical. Staging
// buffers are real memory only: never charged to the simulated-memory
// accountant, never a fault site, so reuse must be invisible to the
// simulation.
func TestPoolingKeepsFaultIdentity(t *testing.T) {
	m := cluster.Lonestar()
	m.CoresPerNode = 1 // force every message across the interconnect
	world := func() (injected, setupRetries, messages int64) {
		inj := faults.New(42).Set(faults.SiteNetSetup, faults.Rule{Prob: 0.1})
		rep, err := Run(Config{Procs: 4, Machine: m, Faults: inj}, func(c *Comm) error {
			payload := bytes.Repeat([]byte{byte(c.Rank())}, 300)
			for i := 0; i < 20; i++ {
				if _, err := c.Bcast(0, payload); err != nil {
					return err
				}
				got, err := c.AllgatherBytes(payload[:100+i])
				if err != nil {
					return err
				}
				_ = got
				dst := (c.Rank() + 1) % c.Size()
				src := (c.Rank() + c.Size() - 1) % c.Size()
				if err := c.Send(dst, i, payload); err != nil {
					return err
				}
				in, err := c.Recv(src, i)
				if err != nil {
					return err
				}
				c.Recycle(in)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return inj.TotalInjected(), rep.Net.SetupRetries, rep.Net.Messages
	}
	i1, r1, m1 := world()
	i2, r2, m2 := world()
	if i1 != i2 || r1 != r2 || m1 != m2 {
		t.Fatalf("cold pools: injected=%d retries=%d msgs=%d; warm pools: %d/%d/%d",
			i1, r1, m1, i2, r2, m2)
	}
	if i1 == 0 {
		t.Fatal("chaos run injected nothing; the identity check is vacuous")
	}
}

// benchPingPong measures allocations of the p2p staging path; recycle
// toggles whether the receiver returns payloads to the pool.
func benchPingPong(b *testing.B, recycle bool) {
	b.ReportAllocs()
	_, err := Run(testCfg(2), func(c *Comm) error {
		peer := 1 - c.Rank()
		payload := make([]byte, 4096)
		for i := 0; i < b.N; i++ {
			if c.Rank() == 0 {
				if err := c.Send(peer, 0, payload); err != nil {
					return err
				}
				got, err := c.Recv(peer, 1)
				if err != nil {
					return err
				}
				if recycle {
					c.Recycle(got)
				}
			} else {
				got, err := c.Recv(peer, 0)
				if err != nil {
					return err
				}
				if recycle {
					c.Recycle(got)
				}
				if err := c.Send(peer, 1, payload); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkPingPongRecycle(b *testing.B)   { benchPingPong(b, true) }
func BenchmarkPingPongNoRecycle(b *testing.B) { benchPingPong(b, false) }

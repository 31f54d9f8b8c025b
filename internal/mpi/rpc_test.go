package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/simtime"
)

func TestRPCCodecRoundTrip(t *testing.T) {
	cases := []RPCRequest{
		{Op: OpOpen, Handle: 0, Seq: 0},
		{Op: OpWrite, Handle: 3, Seq: 41, Off: 1 << 30, Len: 5, Data: []byte("hello")},
		{Op: OpRead, Handle: 1, Seq: -1, Off: 7, Len: 4096},
		{Op: OpReadIntent, Handle: 2, Seq: 3, Data: []byte{0, 0, 0, 0, 0, 0, 0, 0, 16, 0, 0, 0, 0, 0, 0, 0}},
		{Op: OpShutdown},
	}
	for _, in := range cases {
		out, err := decodeRequest(encodeRequest(&in))
		if err != nil {
			t.Fatalf("%s: %v", in.Op, err)
		}
		if out.Op != in.Op || out.Handle != in.Handle || out.Seq != in.Seq ||
			out.Off != in.Off || out.Len != in.Len || !bytes.Equal(out.Data, in.Data) {
			t.Fatalf("%s round-trip: got %+v want %+v", in.Op, out, in)
		}
	}
	reps := []RPCReply{
		{OK: true, Seq: 9, Data: []byte{1, 2, 3}},
		{OK: false, Err: "pfs: boom", Seq: 2},
		{OK: false, Code: RPCErrExhausted, Err: "retries exhausted", Seq: 4},
		{OK: false, Code: RPCErrGeneric, Err: "other", Seq: 5, Data: []byte{9}},
		{},
	}
	for i, in := range reps {
		out, err := decodeReply(encodeReply(&in, [][]byte{in.Data}))
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if out.OK != in.OK || out.Code != in.Code || out.Err != in.Err ||
			out.Seq != in.Seq || !bytes.Equal(out.Data, in.Data) {
			t.Fatalf("reply %d round-trip: got %+v want %+v", i, out, in)
		}
	}
}

func TestRPCCodecRejectsCorrupt(t *testing.T) {
	if _, err := decodeRequest([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated request decoded")
	}
	buf := encodeRequest(&RPCRequest{Op: OpWrite, Data: []byte("abcd")})
	if _, err := decodeRequest(buf[:len(buf)-1]); err == nil {
		t.Fatal("short payload decoded")
	}
	if _, err := decodeReply([]byte{0}); err == nil {
		t.Fatal("truncated reply decoded")
	}
	rbuf := encodeReply(&RPCReply{Err: "x"}, [][]byte{[]byte("yz")})
	if _, err := decodeReply(rbuf[:len(rbuf)-1]); err == nil {
		t.Fatal("short reply decoded")
	}
}

// TestRPCServe drives a 3-rank world: rank 2 serves, ranks 0-1 each send
// two writes, one synchronous read, and a shutdown. The server must see
// the true envelope source as Client and per-client sequence order must
// survive the any-source loop.
func TestRPCServe(t *testing.T) {
	const tag = 77
	var (
		mu   sync.Mutex
		seen []string
	)
	_, err := Run(Config{Procs: 3, Machine: cluster.Lonestar()}, func(c *Comm) error {
		if c.Rank() == 2 {
			return c.Serve(tag, 2, 500*simtime.Nanosecond, func(req *RPCRequest) error {
				mu.Lock()
				seen = append(seen, fmt.Sprintf("%s c%d seq%d off%d %q",
					req.Op, req.Client, req.Seq, req.Off, req.Data))
				mu.Unlock()
				if req.Op == OpRead {
					return c.SendReply(req.Client, tag+1, &RPCReply{
						OK: true, Seq: req.Seq, Data: []byte{byte(req.Client), byte(req.Off)},
					})
				}
				return nil
			})
		}
		me := c.Rank()
		for s := 0; s < 2; s++ {
			if err := c.SendRequest(2, tag, &RPCRequest{
				Op: OpWrite, Seq: int64(s), Off: int64(me*100 + s),
				Data: []byte{byte(me), byte(s)},
			}); err != nil {
				return err
			}
		}
		if err := c.SendRequest(2, tag, &RPCRequest{Op: OpRead, Seq: 2, Off: int64(me)}); err != nil {
			return err
		}
		got := make([]byte, 2)
		rep, err := c.RecvReplyInto(2, tag+1, [][]byte{got})
		if err != nil {
			return err
		}
		if !rep.OK || rep.Seq != 2 || !bytes.Equal(got, []byte{byte(me), byte(me)}) {
			return fmt.Errorf("rank %d: bad reply %+v %v", me, rep, got)
		}
		return c.SendRequest(2, tag, &RPCRequest{Op: OpShutdown})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 6 {
		t.Fatalf("server handled %d requests, want 6: %v", len(seen), seen)
	}
	// Arrival interleaving across clients is scheduler-dependent, but each
	// client's own stream is FIFO: sorting the log restores a canonical view.
	sort.Strings(seen)
	want := []string{
		`read c0 seq2 off0 ""`,
		`read c1 seq2 off1 ""`,
		`write c0 seq0 off0 "\x00\x00"`,
		`write c0 seq1 off1 "\x00\x01"`,
		`write c1 seq0 off100 "\x01\x00"`,
		`write c1 seq1 off101 "\x01\x01"`,
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("request log mismatch at %d:\ngot  %q\nwant %q", i, seen[i], want[i])
		}
	}
}

// TestTryRecvRequest pins the non-blocking receive path a scheduling
// server loop depends on: a miss returns immediately without consuming
// anything, a hit matches FIFO order and fills Client from the envelope
// source exactly like RecvRequest.
func TestTryRecvRequest(t *testing.T) {
	const tag = 88
	_, err := Run(Config{Procs: 2, Machine: cluster.Lonestar()}, func(c *Comm) error {
		if c.Rank() == 0 {
			// Nothing sent yet from rank 1's perspective until the barrier.
			for s := 0; s < 3; s++ {
				if err := c.SendRequest(1, tag, &RPCRequest{Op: OpWrite, Seq: int64(s)}); err != nil {
					return err
				}
			}
			return c.Barrier()
		}
		if req, ok, err := c.TryRecvRequest(AnySource, tag+1); err != nil || ok || req != nil {
			return fmt.Errorf("empty tryTake: req=%v ok=%v err=%v", req, ok, err)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		// All three requests are buffered now; TryRecvRequest must drain
		// them in FIFO order and then report a miss.
		for s := 0; s < 3; s++ {
			req, ok, err := c.TryRecvRequest(AnySource, tag)
			if err != nil {
				return err
			}
			if !ok || req.Client != 0 || req.Seq != int64(s) {
				return fmt.Errorf("drain %d: ok=%v req=%+v", s, ok, req)
			}
		}
		if _, ok, err := c.TryRecvRequest(AnySource, tag); err != nil || ok {
			return fmt.Errorf("drained mailbox: ok=%v err=%v", ok, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRPCServeHandlerError pins that a handler failure aborts the loop
// with the op and source rank in the error.
func TestRPCServeHandlerError(t *testing.T) {
	boom := errors.New("domain exploded")
	_, err := Run(Config{Procs: 2, Machine: cluster.Lonestar()}, func(c *Comm) error {
		if c.Rank() == 1 {
			return c.Serve(5, 1, 0, func(req *RPCRequest) error { return boom })
		}
		return c.SendRequest(1, 5, &RPCRequest{Op: OpFlush})
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped handler error", err)
	}
	if !strings.Contains(err.Error(), "flush from rank 0") {
		t.Fatalf("err %q lacks op/source context", err)
	}
}

// replyOnce sends one reply from rank 0 to rank 1 through send and returns
// the wire bytes rank 1 received, its clock after the receive (the
// arrival), and the sender's clock after the send.
func replyOnce(t *testing.T, send func(c *Comm, rep *RPCReply, parts [][]byte) error) (wire []byte, arrival, sent simtime.Time) {
	t.Helper()
	parts := [][]byte{bytes.Repeat([]byte("ab"), 50), nil, []byte("c"), bytes.Repeat([]byte{7}, 3000)}
	m := cluster.Lonestar()
	m.CoresPerNode = 1 // bill the reply across the interconnect
	_, err := Run(Config{Procs: 2, Machine: m}, func(c *Comm) error {
		if c.Rank() == 0 {
			err := send(c, &RPCReply{OK: true, Seq: 11}, parts)
			sent = c.Now()
			return err
		}
		buf, err := c.Recv(0, 3)
		wire, arrival = append([]byte(nil), buf...), c.Now()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return wire, arrival, sent
}

// TestSendReplyFromMatchesPacked pins the gathering send to the packed
// one: same wire bytes, same arrival, same sender clock.
func TestSendReplyFromMatchesPacked(t *testing.T) {
	packedWire, packedArr, packedSent := replyOnce(t, func(c *Comm, rep *RPCReply, parts [][]byte) error {
		rep.Data = bytes.Join(parts, nil)
		return c.SendReply(1, 3, rep)
	})
	gatherWire, gatherArr, gatherSent := replyOnce(t, func(c *Comm, rep *RPCReply, parts [][]byte) error {
		return c.SendReplyFrom(1, 3, rep, parts)
	})
	if !bytes.Equal(packedWire, gatherWire) {
		t.Fatalf("wire bytes differ: packed %d B, gathered %d B", len(packedWire), len(gatherWire))
	}
	if packedArr != gatherArr || packedSent != gatherSent {
		t.Fatalf("charge differs: packed arrival %v sender %v, gathered arrival %v sender %v",
			packedArr, packedSent, gatherArr, gatherSent)
	}
	rep, err := decodeReply(gatherWire)
	if err != nil || !rep.OK || rep.Seq != 11 || len(rep.Data) != 3101 || rep.Data[100] != 'c' {
		t.Fatalf("gathered reply decodes to %+v, %v", rep, err)
	}
}

// TestRecvReplyInto pins the scattering receive: an OK reply lands in
// the destinations in order, a length mismatch is an error, and a failed
// reply keeps its code and message and leaves the destinations alone.
func TestRecvReplyInto(t *testing.T) {
	_, err := Run(testCfg(2), func(c *Comm) error {
		if c.Rank() == 0 {
			for _, rep := range []*RPCReply{
				{OK: true, Seq: 1, Data: []byte("abcdefg")},
				{OK: true, Seq: 2, Data: []byte("abcde")},
				{Code: RPCErrExhausted, Err: "retries exhausted", Seq: 3, Data: []byte("xy")},
			} {
				if err := c.SendReply(1, 4, rep); err != nil {
					return err
				}
			}
			return nil
		}
		a, b, d := make([]byte, 3), []byte{}, make([]byte, 4)
		rep, err := c.RecvReplyInto(0, 4, [][]byte{a, b, d})
		if err != nil {
			return err
		}
		if !rep.OK || rep.Seq != 1 || rep.Data != nil || string(a) != "abc" || string(d) != "defg" {
			return fmt.Errorf("scatter: rep %+v, dsts %q %q", rep, a, d)
		}
		if rep, err := c.RecvReplyInto(0, 4, [][]byte{a, d}); err == nil {
			return fmt.Errorf("5-byte reply into 7 bytes of destinations accepted: %+v", rep)
		}
		copy(a, "---")
		rep, err = c.RecvReplyInto(0, 4, [][]byte{a})
		if err != nil {
			return err
		}
		if rep.OK || rep.Code != RPCErrExhausted || rep.Err != "retries exhausted" || rep.Seq != 3 || rep.Data != nil {
			return fmt.Errorf("failed reply: %+v", rep)
		}
		if string(a) != "---" {
			return fmt.Errorf("failed reply wrote %q into its destination", a)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

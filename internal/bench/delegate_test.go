package bench

import (
	"bytes"
	"testing"
)

// smallDelegateOpts shrinks the sweep to test scale: 4 clients, 2 KiB
// files, 64 B requests.
func smallDelegateOpts() DelegateOptions {
	return DelegateOptions{
		Clients:       4,
		SegSize:       256,
		SegsPerClient: 2,
		Servers:       []int{0, 1, 2},
		Files:         []int{1, 2},
		ReqSizes:      []int64{64, 256},
		Scale:         4,
		Verify:        true,
	}
}

func TestDelegateSweepSmall(t *testing.T) {
	opts := smallDelegateOpts()
	_, points, err := Delegate(opts)
	if err != nil {
		t.Fatalf("Delegate: %v", err)
	}
	type key struct {
		servers, files int
		req            int64
	}
	byKey := map[key]DelegatePoint{}
	for _, p := range points {
		if p.Result != "ok" {
			t.Errorf("point %+v: result %q", p, p.Result)
		}
		byKey[key{p.Servers, p.Files, p.ReqSize}] = p
	}
	fileBytes := delegateFileBytes(opts)
	for _, files := range opts.Files {
		for _, req := range opts.ReqSizes {
			reqs := fileBytes / req * int64(files)
			base := byKey[key{0, files, req * opts.Scale}]
			if base.WriteReqs != reqs {
				t.Errorf("pass-through files=%d req=%d: %d write calls, want %d",
					files, req, base.WriteReqs, reqs)
			}
			if base.Staged != 0 || base.BatchedRuns != 0 {
				t.Errorf("pass-through files=%d req=%d reported server counters %d/%d",
					files, req, base.Staged, base.BatchedRuns)
			}
			for _, servers := range opts.Servers[1:] {
				p := byKey[key{servers, files, req * opts.Scale}]
				// Requests never straddle a domain block here, so one
				// protocol request per write call, all staged.
				if p.WriteReqs != reqs || p.Staged != reqs {
					t.Errorf("srv=%d files=%d req=%d: %d reqs / %d staged, want %d",
						servers, files, req, p.WriteReqs, p.Staged, reqs)
				}
				// The whole point: the coalesced epoch drain reaches the
				// file system in far fewer, longer requests than tcio's
				// per-owner segment drains.
				if p.FSWrites >= base.FSWrites {
					t.Errorf("srv=%d files=%d req=%d: %d fs-writes, pass-through %d",
						servers, files, req, p.FSWrites, base.FSWrites)
				}
				if p.BatchedRuns != p.FSWrites {
					t.Errorf("srv=%d files=%d req=%d: %d batched runs vs %d fs-writes",
						servers, files, req, p.BatchedRuns, p.FSWrites)
				}
			}
		}
	}
}

func TestDelegateChaosDeterministic(t *testing.T) {
	opts := smallDelegateOpts()
	var out [2]bytes.Buffer
	for i := range out {
		table, err := DelegateChaos(opts, 7)
		if err != nil {
			t.Fatalf("DelegateChaos: %v", err)
		}
		if err := table.Render(&out[i]); err != nil {
			t.Fatalf("render: %v", err)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Errorf("chaos tables differ between same-seed runs:\n%s\n---\n%s", out[0].String(), out[1].String())
	}
}

func TestDelegateValidate(t *testing.T) {
	opts := smallDelegateOpts()
	opts.ReqSizes = []int64{96} // 2048/ (96*4) does not divide
	if _, _, err := Delegate(opts); err == nil {
		t.Errorf("misaligned request size accepted")
	}
	opts = smallDelegateOpts()
	opts.Servers = []int{-1}
	if _, _, err := Delegate(opts); err == nil {
		t.Errorf("negative server count accepted")
	}
}

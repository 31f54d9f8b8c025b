package bench

// The scale harness's deterministic columns must be exactly that:
// identical run to run and across GOMAXPROCS. This is the in-repo
// counterpart of the CI scale-smoke diff, at a size small enough for
// every `go test` run.

import "testing"

func smallScale() ScaleOptions {
	opts := DefaultScale()
	opts.Procs = []int{8, 16}
	opts.GoMaxProcs = []int{1, 2}
	opts.Profiles = false
	opts.Progress = nil
	return opts
}

func TestScaleDeterministicColumns(t *testing.T) {
	_, first, err := Scale(smallScale())
	if err != nil {
		t.Fatal(err)
	}
	// Across GOMAXPROCS: each rank count's deterministic cells agree.
	byProcs := make(map[int]ScalePoint)
	for _, pt := range first {
		if pt.Result != "ok" {
			t.Fatalf("procs=%d gomaxprocs=%d: %s", pt.Procs, pt.GoMaxProcs, pt.Result)
		}
		ref, seen := byProcs[pt.Procs]
		if !seen {
			byProcs[pt.Procs] = pt
			continue
		}
		if pt.VirtualNs != ref.VirtualNs || pt.FSWrites != ref.FSWrites ||
			pt.FSReads != ref.FSReads || pt.TraceEvents != ref.TraceEvents {
			t.Errorf("procs=%d: gomaxprocs=%d deterministic columns (%d %d %d %d) differ from gomaxprocs=%d (%d %d %d %d)",
				pt.Procs, pt.GoMaxProcs, pt.VirtualNs, pt.FSWrites, pt.FSReads, pt.TraceEvents,
				ref.GoMaxProcs, ref.VirtualNs, ref.FSWrites, ref.FSReads, ref.TraceEvents)
		}
	}
	// Across runs: a second sweep reproduces every deterministic cell.
	_, second, err := Scale(smallScale())
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range second {
		ref := first[i]
		if pt.VirtualNs != ref.VirtualNs || pt.FSWrites != ref.FSWrites ||
			pt.FSReads != ref.FSReads || pt.TraceEvents != ref.TraceEvents || pt.Result != ref.Result {
			t.Errorf("rerun procs=%d gomaxprocs=%d: deterministic columns changed: (%d %d %d %d %s) vs (%d %d %d %d %s)",
				pt.Procs, pt.GoMaxProcs, pt.VirtualNs, pt.FSWrites, pt.FSReads, pt.TraceEvents, pt.Result,
				ref.VirtualNs, ref.FSWrites, ref.FSReads, ref.TraceEvents, ref.Result)
		}
	}
}

// TestScaleGeometryNormalized pins the one-segment-per-rank invariant:
// whatever pieces-per-rank a caller asks for, the harness reshapes the
// geometry so each rank fills exactly one segment (see DefaultScale).
func TestScaleGeometryNormalized(t *testing.T) {
	opts := smallScale()
	opts.Procs = []int{4}
	opts.GoMaxProcs = []int{1}
	opts.PiecesPerRank = 7 // not a divisor of the segment size
	tbl, points, err := Scale(opts)
	if err != nil {
		t.Fatal(err)
	}
	norm := tbl.Params.(ScaleOptions)
	if int64(norm.PiecesPerRank)*norm.PieceBytes != scaleSegSize {
		t.Fatalf("normalized geometry %d x %d B does not fill one %d B segment",
			norm.PiecesPerRank, norm.PieceBytes, scaleSegSize)
	}
	for _, pt := range points {
		if pt.Result != "ok" {
			t.Fatalf("procs=%d: %s", pt.Procs, pt.Result)
		}
	}
}

package bench

// Tests for the overlap sweep: the write-behind win and byte verification,
// chaos reproducibility (the CI run-twice-diff contract), and count
// invariance across worker fan-out and pipeline settings.

import (
	"reflect"
	"testing"
)

func overlapTestOpts() OverlapOptions {
	opts := DefaultOverlap()
	opts.LenReal = 256
	opts.Thresholds = []float64{0, 1}
	opts.Prefetch = []int{0, 4}
	return opts
}

func TestOverlapSweep(t *testing.T) {
	opts := overlapTestOpts()
	_, writes, reads, err := Overlap(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(writes) != 2 || len(reads) != 2 {
		t.Fatalf("sweep has %d write / %d read points", len(writes), len(reads))
	}
	for _, p := range writes {
		if p.Result != "ok" {
			t.Fatalf("write threshold %v: %s", p.Threshold, p.Result)
		}
	}
	for _, p := range reads {
		if p.Result != "ok" {
			t.Fatalf("read prefetch %d: %s", p.Prefetch, p.Result)
		}
	}
	sync, eager := writes[0], writes[1]
	// Threshold 1 coalesces each segment exactly as the final drain would,
	// so the request count must match the synchronous baseline...
	if sync.FSWrites != eager.FSWrites {
		t.Fatalf("fs writes differ: sync %d, eager %d", sync.FSWrites, eager.FSWrites)
	}
	// ...and overlapping most of them with the timestep loop must win
	// end-to-end. Eager coverage detection is guaranteed by the loop's
	// barriers (contributions from earlier phases are always visible), so
	// this holds deterministically, not just on a lucky schedule.
	if eager.VirtualTimeNs >= sync.VirtualTimeNs {
		t.Fatalf("write-behind did not reduce write time: sync %d ns, eager %d ns (eager drains %d)",
			sync.VirtualTimeNs, eager.VirtualTimeNs, eager.EagerDrains)
	}
	if eager.EagerDrains == 0 {
		t.Fatal("threshold 1 triggered no eager drains")
	}
	demand, prefetch := reads[0], reads[1]
	if demand.FSReads != prefetch.FSReads {
		t.Fatalf("fs reads differ: demand %d, prefetch %d", demand.FSReads, prefetch.FSReads)
	}
	if demand.Populations != prefetch.Populations {
		t.Fatalf("populations differ: demand %d, prefetch %d", demand.Populations, prefetch.Populations)
	}
	if prefetch.PrefetchHits == 0 {
		t.Fatal("prefetch window 4 scored no hits")
	}
	if prefetch.VirtualTimeNs > demand.VirtualTimeNs {
		t.Fatalf("prefetch slowed the sequential read: demand %d ns, prefetch %d ns",
			demand.VirtualTimeNs, prefetch.VirtualTimeNs)
	}
}

// TestOverlapChaosReproducible is the CI contract: two runs with the same
// seed must emit byte-identical tables, because the table only carries
// seed-deterministic counts.
func TestOverlapChaosReproducible(t *testing.T) {
	opts := overlapTestOpts()
	a, err := OverlapChaos(opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OverlapChaos(opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("chaos tables differ between identical runs:\n%+v\n%+v", a, b)
	}
}

// TestOverlapChaosWorkerInvariant re-runs the chaos table with a different
// drain fan-out: the worker count reorders request completion times but
// must not change a single counted column.
func TestOverlapChaosWorkerInvariant(t *testing.T) {
	serial := overlapTestOpts()
	serial.Workers = 1
	fanned := overlapTestOpts()
	fanned.Workers = 4
	a, err := OverlapChaos(serial, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OverlapChaos(fanned, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Fatalf("chaos counts changed with drain workers:\n%v\n%v", a.Rows, b.Rows)
	}
}

// TestOverlapChaosSettingInvariant reads the invariance off a single table:
// the write rows (thresholds 0 and 1) and the read rows (prefetch 0 and 8)
// must agree on every fault and request count — write-behind and prefetch
// change when requests happen, never which requests happen.
func TestOverlapChaosSettingInvariant(t *testing.T) {
	tbl, err := OverlapChaos(overlapTestOpts(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("chaos table has %d rows, want 4", len(tbl.Rows))
	}
	// Columns: phase, setting, injected, fs-retries, fs-writes, fs-reads,
	// populations, prefetch-hits, alloc-retries, result. Compare the fault
	// and request counts (indices 2-6) plus alloc-retries (8).
	invariant := []int{2, 3, 4, 5, 6, 8}
	for _, pair := range [][2]int{{0, 1}, {2, 3}} {
		for _, col := range invariant {
			// prefetch-hits (7) legitimately differs between prefetch 0
			// and 8; populations (6) must not.
			if a, b := tbl.Rows[pair[0]][col], tbl.Rows[pair[1]][col]; a != b {
				t.Errorf("rows %d/%d column %d differ: %q vs %q (%s)",
					pair[0], pair[1], col, a, b, tbl.Headers[col])
			}
		}
	}
}

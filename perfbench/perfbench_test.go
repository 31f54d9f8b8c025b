package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// quick runs one short measurement: set-up plus the minimum iterations.
func quick(t *testing.T, workload string, traced, corrupt bool) result {
	t.Helper()
	res, err := measure(config{workload: workload, opts: options{seed: 3, corrupt: corrupt},
		seconds: 1e-3, traced: traced, out: t.TempDir()}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCorruptedReadBackFails is the correctness gate: flipping one byte of
// read-back must make phases fail on every workload.
func TestCorruptedReadBackFails(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := quick(t, w.name, false, true)
			if res.Failed == 0 || res.Correct {
				t.Fatalf("corrupted read-back passed: %d of %d phases failed", res.Failed, res.Attempted)
			}
		})
	}
}

// TestTracedRunReportsEveryLayerMetric checks a clean traced run of every
// workload: no phase fails, every per-layer metric is printed, and the
// tier-specific layers read zero off the workload that uses them.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	table, err := loadMetrics()
	if err != nil {
		t.Fatal(err)
	}
	only := map[string]string{"delegate.": "delegated-shared-read", "wal.": "journaled-checkpoint", "tcio.spill_": "journaled-checkpoint"}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := quick(t, w.name, true, false)
			if !res.Correct || res.Failed != 0 || res.Attempted != 4 {
				t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(table.PerLayer) {
				t.Errorf("%d metrics, want the %d per-layer ones", len(res.Metrics), len(table.PerLayer))
			}
			for _, d := range table.PerLayer {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s: got %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
				}
				for prefix, owner := range only {
					if strings.HasPrefix(d.Name, prefix) && (m.Value != 0) != (owner == w.name) {
						t.Errorf("%s = %v on %s", d.Name, m.Value, w.name)
					}
				}
			}
		})
	}
}

// TestBenchmarkJSONMatchesTable keeps BENCHMARK.json and metrics.json in
// step: same workloads, same per-layer metrics, and every end-to-end
// metric that is not print-only.
func TestBenchmarkJSONMatchesTable(t *testing.T) {
	table, err := loadMetrics()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metrics.json", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better {
				t.Errorf("%s %d: %+v vs %+v", kind, i, got[i], want[i])
			}
		}
	}
	var e2e []metricDef
	for _, d := range table.EndToEnd {
		if d.PrintOnly == "" {
			e2e = append(e2e, d)
		}
	}
	same("end_to_end", b.EndToEnd, e2e)
	same("per_layer", b.PerLayer, table.PerLayer)

	// Every layer metric's prediction names a real metric and workload.
	known := map[string]bool{}
	for _, d := range table.EndToEnd {
		for _, w := range workloads {
			known[d.Name+"@"+w.name] = true
		}
	}
	for _, d := range table.PerLayer {
		for _, m := range d.Moves {
			if !known[m] {
				t.Errorf("%s moves unknown %q", d.Name, m)
			}
		}
	}
}

func TestCovered(t *testing.T) {
	mk := func(ivs ...[2]int64) []span {
		var out []span
		for _, iv := range ivs {
			out = append(out, span{Wall0: iv[0], Wall1: iv[1]})
		}
		return out
	}
	wall := func(s span) (int64, int64) { return s.Wall0, s.Wall1 }
	for _, tc := range []struct {
		spans []span
		want  int64
	}{
		{nil, 0},
		{mk([2]int64{0, 10}), 10},
		{mk([2]int64{0, 10}, [2]int64{5, 15}), 15},  // overlapping: parallel ranks
		{mk([2]int64{20, 30}, [2]int64{0, 10}), 20}, // disjoint, out of order
		{mk([2]int64{0, 30}, [2]int64{10, 20}), 30}, // nested
		{mk([2]int64{0, 10}, [2]int64{10, 20}), 20}, // touching
		{mk([2]int64{0, 10}, [2]int64{2, 4}, [2]int64{8, 12}), 12},
	} {
		if got := covered(tc.spans, wall); got != tc.want {
			t.Errorf("covered(%v) = %d, want %d", tc.spans, got, tc.want)
		}
	}
}

package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/tcio/tcio/internal/delegate"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/netsim"
	"github.com/tcio/tcio/internal/pfs"
	"github.com/tcio/tcio/internal/tcio"
)

//go:embed metrics.json
var metricsJSON []byte

// metricDef is one row of the metric table.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Moves names, as metric@workload, the end-to-end metrics a per-layer
	// metric should move.
	Moves []string `json:"moves,omitempty"`
	// PrintOnly, when set, says why an end-to-end metric is printed but
	// left out of the result line (and so carries no bound).
	PrintOnly string `json:"print_only,omitempty"`
}

// metricTable is metrics.json: every metric the benchmark prints.
type metricTable struct {
	CountOnlyLayers []string    `json:"count_only_layers"`
	EndToEnd        []metricDef `json:"end_to_end"`
	PerLayer        []metricDef `json:"per_layer"`
}

func loadMetrics() (metricTable, error) {
	var t metricTable
	if err := json.Unmarshal(metricsJSON, &t); err != nil {
		return t, fmt.Errorf("metrics.json: %w", err)
	}
	return t, nil
}

// isCount reports whether a per-layer metric is a count of work (or a
// ratio of counts), which the count-repeat report compares.
func (d metricDef) isCount() bool {
	switch d.Unit {
	case "count", "B", "simB", "ratio":
		return d.Name != "repeat.varying_counts"
	}
	return false
}

// timeUnits converts a nanosecond timing to a metric's unit.
var timeUnits = map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}

// timing looks a per-layer timing metric up in a tracer summary, whose
// keys are the metric names without their unit suffix.
func timing(summary map[string]float64, d metricDef) (float64, bool) {
	div, ok := timeUnits[d.Unit]
	if !ok || !strings.HasSuffix(d.Name, "_"+d.Unit) {
		return 0, false
	}
	v, ok := summary[strings.TrimSuffix(d.Name, "_"+d.Unit)]
	return v / div, ok
}

// counters sums the public counters of one iteration's runs.
type counters struct {
	tcioRanks    int64 // rank-phases summed into tcio
	tcio         tcio.Stats
	net          netsim.Stats // PeakOverlap: max over runs
	fs           pfs.Stats
	fsSimBytes   int64
	allocRetries int64
	creditStalls int64 // delegate clients'
	server       delegate.ServerStats
}

func (k *counters) addTCIO(sts []tcio.Stats) {
	for _, s := range sts {
		k.tcioRanks++
		t := &k.tcio
		t.Writes += s.Writes
		t.Level1Flush += s.Level1Flush
		t.Gets += s.Gets
		t.Populations += s.Populations
		t.FSWrites += s.FSWrites
		t.BytesWritten += s.BytesWritten
		t.Retries += s.Retries
		t.JournalEpochs += s.JournalEpochs
		t.JournalAppends += s.JournalAppends
		t.JournalBytes += s.JournalBytes
		t.JournalCommits += s.JournalCommits
		t.SpillSegments += s.SpillSegments
		t.SpillRefaultBytes += s.SpillRefaultBytes
		t.LockWait += s.LockWait
		t.PutIssue += s.PutIssue
		t.UnlockWait += s.UnlockWait
	}
}

func (k *counters) addReport(rep mpi.Report, scale int64) {
	n := &k.net
	n.Messages += rep.Net.Messages
	n.Bytes += rep.Net.Bytes
	n.LocalMessages += rep.Net.LocalMessages
	n.PeakOverlap = max(n.PeakOverlap, rep.Net.PeakOverlap)
	n.CongestedMsgs += rep.Net.CongestedMsgs
	n.OneSidedMsgs += rep.Net.OneSidedMsgs
	n.TwoSidedMsgs += rep.Net.TwoSidedMsgs
	n.SetupTimeTotal += rep.Net.SetupTimeTotal
	f := &k.fs
	f.Reads += rep.FS.Reads
	f.Writes += rep.FS.Writes
	f.LockConflicts += rep.FS.LockConflicts
	f.CacheHits += rep.FS.CacheHits
	f.Retries += rep.FS.Retries
	k.fsSimBytes += (rep.FS.BytesRead + rep.FS.BytesWritten) * scale
	k.allocRetries += rep.AllocRetries
}

func (k *counters) addDelegate(clients []delegate.Stats, servers []delegate.ServerStats) {
	for _, c := range clients {
		k.creditStalls += c.CreditStalls
	}
	for _, s := range servers {
		k.server.StagedWrites += s.StagedWrites
		k.server.BatchedRuns += s.BatchedRuns
		k.server.FSReads += s.FSReads
		k.server.ReadEpochs += s.ReadEpochs
		k.server.CacheHits += s.CacheHits
		k.server.CacheMisses += s.CacheMisses
	}
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// metrics derives the per-layer metrics the counters give.
func (k *counters) metrics() map[string]float64 {
	t, n, f, s := k.tcio, k.net, k.fs, k.server
	perRankMs := func(d int64) float64 { return ratio(d, k.tcioRanks) / 1e6 }
	return map[string]float64{
		"tcio.pieces_per_flush":    ratio(t.Writes, t.Level1Flush),
		"tcio.lock_wait_vt_ms":     perRankMs(int64(t.LockWait)),
		"tcio.put_issue_vt_ms":     perRankMs(int64(t.PutIssue)),
		"tcio.unlock_wait_vt_ms":   perRankMs(int64(t.UnlockWait)),
		"tcio.fs_writes":           float64(t.FSWrites),
		"tcio.populations":         float64(t.Populations),
		"tcio.gets":                float64(t.Gets),
		"tcio.retries":             float64(t.Retries),
		"tcio.spill_segments":      float64(t.SpillSegments),
		"tcio.spill_refault_bytes": float64(t.SpillRefaultBytes),
		"wal.bytes_per_user_byte":  ratio(t.JournalBytes, t.BytesWritten),
		"wal.appends":              float64(t.JournalAppends),
		"wal.epochs":               float64(t.JournalEpochs),
		"wal.commits":              float64(t.JournalCommits),
		"delegate.cache_hit_ratio": ratio(s.CacheHits, s.CacheHits+s.CacheMisses),
		"delegate.fs_reads":        float64(s.FSReads),
		"delegate.staged_per_run":  ratio(s.StagedWrites, s.BatchedRuns),
		"delegate.credit_stalls":   float64(k.creditStalls),
		"delegate.read_epochs":     float64(s.ReadEpochs),
		"mpi.alloc_retries":        float64(k.allocRetries),
		"netsim.messages":          float64(n.Messages),
		"netsim.bytes":             float64(n.Bytes),
		"netsim.onesided_msgs":     float64(n.OneSidedMsgs),
		"netsim.twosided_msgs":     float64(n.TwoSidedMsgs),
		"netsim.local_msgs":        float64(n.LocalMessages),
		"netsim.congested_frac":    ratio(n.CongestedMsgs, n.Messages),
		"netsim.setup_vt_ms":       float64(n.SetupTimeTotal) / 1e6,
		"netsim.peak_overlap":      float64(n.PeakOverlap),
		"pfs.reads":                float64(f.Reads),
		"pfs.writes":               float64(f.Writes),
		"pfs.bytes_per_request":    ratio(k.fsSimBytes, f.Reads+f.Writes),
		"pfs.lock_conflicts":       float64(f.LockConflicts),
		"pfs.readahead_hit_ratio":  ratio(f.CacheHits, f.Reads),
		"pfs.retries":              float64(f.Retries),
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func maxOf(v []float64) float64 {
	m := math.Inf(-1)
	for _, x := range v {
		m = max(m, x)
	}
	return m
}

// tailNote names the highest of p90/p99 with at least ten samples beyond
// it, "" when there are too few samples for either.
func tailNote(v []float64) string {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	for _, p := range []float64{99, 90} {
		if float64(len(s))*(100-p)/100 >= 10 {
			return fmt.Sprintf(", p%.0f %.6g", p, s[int(math.Ceil(p/100*float64(len(s))))-1])
		}
	}
	return ""
}

// countHistory is the count-repeat store: every value each count took in
// the runs of one (workload, seed) so far.
type countHistory map[string][]float64

// loadHistory reads the store, empty when absent.
func loadHistory(path string) (countHistory, error) {
	h := countHistory{}
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return h, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &h); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return h, nil
}

// observe records one iteration's value of a count.
func (h countHistory) observe(name string, v float64) {
	for _, seen := range h[name] {
		if seen == v {
			return
		}
	}
	h[name] = append(h[name], v)
}

// varying lists, by name, the counts that took more than one value.
func (h countHistory) varying() []string {
	var out []string
	for name, vals := range h {
		if len(vals) > 1 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func (h countHistory) save(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(h)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

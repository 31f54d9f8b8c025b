package main

// Tracing for the traced run. Spans are recorded from the benchmark's own
// code around every call a workload makes into a layer (tcio, delegate,
// art, mpi): name, host start and end, virtual start and end, parent span,
// and the iteration and rank that made the call. Calls that number around
// a million per iteration (WriteAt/ReadAt) go into log2 histograms
// instead. Everything stays in memory until the run ends.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/simtime"
)

type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Iter   int    `json:"iter"`
	Rank   int    `json:"rank"`          // -1 for host-level spans
	Wall0  int64  `json:"wall_start_ns"` // host time since the run started
	Wall1  int64  `json:"wall_end_ns"`
	VT0    int64  `json:"vt_start_ns"` // virtual time in the span's world
	VT1    int64  `json:"vt_end_ns"`
	// HistWall and HistVT are the parts of the span covered by child calls
	// kept in histograms rather than spans.
	HistWall int64 `json:"hist_wall_ns,omitempty"`
	HistVT   int64 `json:"hist_vt_ns,omitempty"`
}

// layer is the module a span's call went into: its name up to the dot.
func (s span) layer() string { return s.Name[:strings.IndexByte(s.Name, '.')] }

// hist is a log2 histogram of one call's host and virtual durations:
// bucket b counts durations d with bits.Len64(d) == b.
type hist struct {
	N       int64     `json:"n"`
	WallSum int64     `json:"wall_sum_ns"`
	VTSum   int64     `json:"vt_sum_ns"`
	Wall    [65]int64 `json:"wall_log2_ns"`
	VT      [65]int64 `json:"vt_log2_ns"`
}

func (h *hist) add(wall, vt int64) {
	h.N++
	h.WallSum += wall
	h.VTSum += vt
	h.Wall[bits.Len64(uint64(max(wall, 0)))]++
	h.VT[bits.Len64(uint64(max(vt, 0)))]++
}

func (h *hist) merge(o *hist) {
	h.N += o.N
	h.WallSum += o.WallSum
	h.VTSum += o.VTSum
	for b := range h.Wall {
		h.Wall[b] += o.Wall[b]
		h.VT[b] += o.VT[b]
	}
}

// quantile is the upper bound of the bucket holding quantile q.
func quantile(buckets *[65]int64, n int64, q float64) int64 {
	var seen int64
	for b, k := range buckets {
		seen += k
		if float64(seen) >= q*float64(n) {
			return int64(1)<<b - 1
		}
	}
	return 0
}

type histKey struct {
	iter int
	name string
}

// tracer collects the spans and histograms of a traced run. A nil tracer
// records nothing, which is how untraced iterations run the same code.
type tracer struct {
	base   time.Time
	iter   int
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
	hists map[histKey]*hist
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), hists: map[histKey]*hist{}}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.base)) }

func (tr *tracer) add(s span) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// hostBegin and hostEnd bracket a host-level span (no rank, no virtual time).
func (tr *tracer) hostBegin() int64 {
	if tr == nil {
		return 0
	}
	return tr.now()
}

func (tr *tracer) hostEnd(name string, start int64) {
	if tr == nil {
		return
	}
	tr.add(span{Name: name, ID: tr.nextID.Add(1), Iter: tr.iter, Rank: -1, Wall0: start, Wall1: tr.now()})
}

// runResult is one mpi.Run with its host start and end.
type runResult struct {
	rep        mpi.Report
	start, end time.Time
	err        error
}

// run executes body on every rank of a fresh world. Traced, the run is an
// "mpi.run" span whose children are one "bench.rank" span per rank body.
func (tr *tracer) run(cfg mpi.Config, body func(*mpi.Comm, *meter) error) runResult {
	var id int64
	if tr != nil {
		id = tr.nextID.Add(1)
	}
	var res runResult
	res.start = time.Now()
	res.rep, res.err = mpi.Run(cfg, func(c *mpi.Comm) error {
		var m *meter
		if tr != nil {
			m = &meter{tr: tr, c: c, root: id, hists: map[string]*hist{}}
			defer m.flush()
		}
		m.begin("bench.rank")
		defer m.end()
		return body(c, m)
	})
	res.end = time.Now()
	if tr != nil {
		tr.add(span{Name: "mpi.run", ID: id, Iter: tr.iter, Rank: -1,
			Wall0: int64(res.start.Sub(tr.base)), Wall1: int64(res.end.Sub(tr.base)),
			VT1: int64(res.rep.MaxTime)})
	}
	return res
}

// meter records one rank's spans and call histograms during one run; its
// methods do nothing on a nil meter.
type meter struct {
	tr    *tracer
	c     *mpi.Comm
	root  int64 // the run's span
	stack []int // indices into spans of the open spans
	spans []span
	hists map[string]*hist
}

// stamp is a call's start on both clocks.
type stamp struct {
	wall int64
	vt   simtime.Time
}

func (m *meter) stamp() stamp {
	if m == nil {
		return stamp{}
	}
	return stamp{m.tr.now(), m.c.Now()}
}

// begin opens a span as a child of the innermost open one.
func (m *meter) begin(name string) {
	if m == nil {
		return
	}
	parent := m.root
	if n := len(m.stack); n > 0 {
		parent = m.spans[m.stack[n-1]].ID
	}
	m.spans = append(m.spans, span{Name: name, ID: m.tr.nextID.Add(1), Parent: parent,
		Iter: m.tr.iter, Rank: m.c.Rank(), Wall0: m.tr.now(), VT0: int64(m.c.Now())})
	m.stack = append(m.stack, len(m.spans)-1)
}

// end closes the innermost open span.
func (m *meter) end() {
	if m == nil {
		return
	}
	i := m.stack[len(m.stack)-1]
	m.stack = m.stack[:len(m.stack)-1]
	m.spans[i].Wall1, m.spans[i].VT1 = m.tr.now(), int64(m.c.Now())
}

// call adds one histogrammed call that started at s.
func (m *meter) call(name string, s stamp) {
	if m == nil {
		return
	}
	wall, vt := m.tr.now()-s.wall, int64(m.c.Now()-s.vt)
	h := m.hists[name]
	if h == nil {
		h = new(hist)
		m.hists[name] = h
	}
	h.add(wall, vt)
	if n := len(m.stack); n > 0 {
		sp := &m.spans[m.stack[n-1]]
		sp.HistWall += wall
		sp.HistVT += vt
	}
}

// flush hands the rank's records to the tracer.
func (m *meter) flush() {
	m.tr.mu.Lock()
	defer m.tr.mu.Unlock()
	m.tr.spans = append(m.tr.spans, m.spans...)
	for name, h := range m.hists {
		k := histKey{m.tr.iter, name}
		if m.tr.hists[k] == nil {
			m.tr.hists[k] = new(hist)
		}
		m.tr.hists[k].merge(h)
	}
}

// summary derives one iteration's timings, in nanoseconds, keyed without
// their unit: "<call>.wall" and "<call>.vt" (median over the call's spans,
// mean over a histogrammed call), "<call>.vt_max", "self.<layer>.wall" and
// "self.<layer>.vt" (summed over the iteration's spans), and
// "mpi.run_overhead" (mean over runs of run wall minus the longest rank
// body).
func (tr *tracer) summary(iter int) map[string]float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := map[string]float64{}
	var spans []span
	children := map[int64][]span{}
	for _, s := range tr.spans {
		if s.Iter == iter {
			spans = append(spans, s)
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	walls, vts := map[string][]float64{}, map[string][]float64{}
	var overhead []float64
	for _, s := range spans {
		walls[s.Name] = append(walls[s.Name], float64(s.Wall1-s.Wall0))
		vts[s.Name] = append(vts[s.Name], float64(s.VT1-s.VT0))
		kids := children[s.ID]
		selfWall := s.Wall1 - s.Wall0 - s.HistWall - covered(kids, func(k span) (int64, int64) { return k.Wall0, k.Wall1 })
		selfVT := s.VT1 - s.VT0 - s.HistVT - covered(kids, func(k span) (int64, int64) { return k.VT0, k.VT1 })
		out["self."+s.layer()+".wall"] += float64(max(selfWall, 0))
		out["self."+s.layer()+".vt"] += float64(max(selfVT, 0))
		if s.Name == "mpi.run" {
			var longest int64
			for _, k := range kids {
				longest = max(longest, k.Wall1-k.Wall0)
			}
			overhead = append(overhead, float64(s.Wall1-s.Wall0-longest))
		}
	}
	for name := range walls {
		out[name+".wall"] = median(walls[name])
		out[name+".vt"] = median(vts[name])
		out[name+".vt_max"] = maxOf(vts[name])
	}
	for k, h := range tr.hists {
		if k.iter == iter && h.N > 0 {
			out[k.name+".wall"] = float64(h.WallSum) / float64(h.N)
			out[k.name+".vt"] = float64(h.VTSum) / float64(h.N)
		}
	}
	if len(overhead) > 0 {
		out["mpi.run_overhead"] = mean(overhead)
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span, interval func(span) (int64, int64)) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		lo, hi := interval(s)
		ivs = append(ivs, iv{lo, hi})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	for i, v := range ivs {
		if i == 0 || v.lo > end {
			total += v.hi - v.lo
			end = v.hi
		} else if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

// histLines describes each histogrammed call over the given iterations.
func (tr *tracer) histLines(iters map[int]bool) []string {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	total := map[string]*hist{}
	for k, h := range tr.hists {
		if iters[k.iter] {
			if total[k.name] == nil {
				total[k.name] = new(hist)
			}
			total[k.name].merge(h)
		}
	}
	var out []string
	for name, h := range total {
		out = append(out, fmt.Sprintf("%s: %d calls, wall p50<=%dns p99<=%dns, vt p50<=%dns p99<=%dns",
			name, h.N, quantile(&h.Wall, h.N, 0.5), quantile(&h.Wall, h.N, 0.99),
			quantile(&h.VT, h.N, 0.5), quantile(&h.VT, h.N, 0.99)))
	}
	sort.Strings(out)
	return out
}

// write stores the header, every span and every histogram as JSON lines.
func (tr *tracer) write(path string, header any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	err = enc.Encode(header)
	tr.mu.Lock()
	for i := 0; err == nil && i < len(tr.spans); i++ {
		err = enc.Encode(tr.spans[i])
	}
	keys := make([]histKey, 0, len(tr.hists))
	for k := range tr.hists {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i].iter < keys[j].iter || keys[i].iter == keys[j].iter && keys[i].name < keys[j].name
	})
	for _, k := range keys {
		if err == nil {
			err = enc.Encode(struct {
				Hist string `json:"hist"`
				Iter int    `json:"iter"`
				*hist
			}{k.name, k.iter, tr.hists[k]})
		}
	}
	tr.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Command perfbench is the repository benchmark. It runs one named
// workload in a single process, driving the simulator's public packages
// (tcio, delegate, art, mpi) from its own code, byte-checks every
// read-back, and prints each metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 1.2, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the bounded end-to-end ones, measured on
// untraced iterations; with --trace 1 they are the per-layer ones, from traced
// iterations alternated with untraced ones (the difference in iteration
// wall time is the tracing overhead). metrics.json lists every metric and
// which end-to-end metric each per-layer one should move.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload synthetic-interleaved --seed 5 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"sync/atomic"
	"time"

	"github.com/tcio/tcio/internal/art"
)

// setupRounds is how often a run sets up from nothing; setup_s is the
// median.
const setupRounds = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark run.
type config struct {
	workload string
	opts     options
	seconds  float64
	traced   bool
	out      string // directory for the span and count files
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	name := flags.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := flags.Int64("seed", art.TableIV.Seed, "seed every generated input derives from (default: the paper's Table IV seed)")
	seconds := flags.Float64("seconds", 10, "how long to measure, in seconds")
	traced := flags.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	out := flags.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for span and count files")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if flags.NArg() > 0 || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: want --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	res, err := measure(config{workload: *name, opts: options{seed: *seed}, seconds: *seconds, traced: *traced == 1, out: *out}, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// sample is one measured iteration.
type sample struct {
	it     iteration
	traced bool
	wall   time.Duration // the whole iteration, verification included
	heap   uint64        // Go heap high-water mark, bytes
	layer  map[string]float64
}

// measure sets the workload up, runs measured iterations for the
// configured time, and reports them; log receives the readable lines.
func measure(cfg config, log io.Writer) (result, error) {
	table, err := loadMetrics()
	if err != nil {
		return result{}, err
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	host := map[string]any{"nproc": runtime.NumCPU(), "GOMAXPROCS": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "os": runtime.GOOS, "arch": runtime.GOARCH}
	fmt.Fprintf(log, "perfbench: workload=%s seed=%d seconds=%g trace=%v\n", w.name, cfg.opts.seed, cfg.seconds, cfg.traced)
	fmt.Fprintf(log, "host: nproc=%d GOMAXPROCS=%d go=%s %s/%s\n", host["nproc"], host["GOMAXPROCS"], host["go"], host["os"], host["arch"])

	// Set-up, several times from nothing: generate the inputs and run one
	// warm-up iteration.
	var r runner
	var setups, gens []float64
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		var gen time.Duration
		r, gen, err = w.setup(cfg.opts)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		r.iterate(nil)
		setups = append(setups, time.Since(t0).Seconds())
		gens = append(gens, float64(gen))
	}

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	counts := filepath.Join(cfg.out, fmt.Sprintf("counts-%s-seed%d.json", w.name, cfg.opts.seed))
	history, err := loadHistory(counts)
	if err != nil {
		return result{}, err
	}
	heap := startHeapSampler()
	var samples []sample
	start := time.Now()
	for i := 0; ; i++ {
		s := sample{traced: tr != nil && i%2 == 1, layer: map[string]float64{}}
		var itTracer *tracer
		if s.traced {
			itTracer, tr.iter = tr, i
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		heap.reset()
		t0 := time.Now()
		s.it = r.iterate(itTracer)
		s.wall = time.Since(t0)
		s.heap = heap.peak.Load()
		runtime.ReadMemStats(&m1)
		for k, v := range s.it.counters.metrics() {
			s.layer[k] = v
		}
		if s.traced {
			sum := tr.summary(i)
			for _, d := range table.PerLayer {
				if v, ok := timing(sum, d); ok {
					s.layer[d.Name] = v
				}
			}
		} else {
			s.layer["host.alloc_MB"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
			s.layer["host.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
		}
		for _, d := range table.PerLayer {
			if d.isCount() {
				history.observe(d.Name, s.layer[d.Name])
			}
		}
		if msg := s.it.firstError(); msg != "" {
			fmt.Fprintf(log, "iteration %d failed: %s\n", i, msg)
		}
		samples = append(samples, s)
		minIters := 1
		if tr != nil {
			minIters = 2
		}
		if len(samples) >= minIters && time.Since(start)+s.wall > time.Duration(cfg.seconds*float64(time.Second)) {
			break
		}
	}
	heap.close()
	if err := history.save(counts); err != nil {
		return result{}, err
	}

	res := result{Metrics: map[string]metricValue{}}
	for _, s := range samples {
		res.Attempted += 2
		res.Failed += s.it.failedPhases()
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(log, "iterations: %d measured in %.3fs\n", len(samples), time.Since(start).Seconds())

	// End to end, from untraced iterations.
	e2e := map[string][]float64{"setup_s": setups}
	for _, s := range samples {
		if s.traced {
			continue
		}
		it := s.it
		e2e["write_wall_s"] = append(e2e["write_wall_s"], it.write.wall.Seconds())
		e2e["read_wall_s"] = append(e2e["read_wall_s"], it.read.wall.Seconds())
		e2e["write_MBps"] = append(e2e["write_MBps"], float64(it.write.simBytes)/1e6/it.write.vt.Seconds())
		e2e["read_MBps"] = append(e2e["read_MBps"], float64(it.read.simBytes)/1e6/it.read.vt.Seconds())
		e2e["sim_peak_mem_MB"] = append(e2e["sim_peak_mem_MB"], float64(it.write.peakMem)/1e6)
		e2e["host_peak_heap_MB"] = append(e2e["host_peak_heap_MB"], float64(s.heap)/1e6)
	}
	for _, d := range table.EndToEnd {
		if d.Name == "fail_frac" {
			fmt.Fprintf(log, "e2e   %-28s %.6g %s (%d of %d phases failed)\n", d.Name,
				float64(res.Failed)/float64(res.Attempted), d.Unit, res.Failed, res.Attempted)
			continue
		}
		v := median(e2e[d.Name])
		note := ""
		if d.PrintOnly != "" {
			note = "; print only, no bound"
		}
		fmt.Fprintf(log, "e2e   %-28s %.6g %s (median of %d%s%s)\n", d.Name, v, d.Unit, len(e2e[d.Name]), tailNote(e2e[d.Name]), note)
		if !cfg.traced && d.PrintOnly == "" {
			res.Metrics[d.Name] = metricValue{v, d.Unit}
		}
	}
	if !cfg.traced {
		return res, nil
	}

	// Per layer, from the traced iterations (host.* from the untraced).
	layer := map[string][]float64{}
	var tracedWall, untracedWall []float64
	traceIters := map[int]bool{}
	for i, s := range samples {
		for k, v := range s.layer {
			layer[k] = append(layer[k], v)
		}
		if s.traced {
			tracedWall = append(tracedWall, float64(s.wall))
			traceIters[i] = true
		} else {
			untracedWall = append(untracedWall, float64(s.wall))
		}
	}
	if w.genCall != "" {
		layer[w.genCall+".wall_ms"] = []float64{median(gens) / 1e6}
	}
	layer["trace.overhead_ms"] = []float64{(median(tracedWall) - median(untracedWall)) / 1e6}
	varying := history.varying()
	layer["repeat.varying_counts"] = []float64{float64(len(varying))}
	for _, d := range table.PerLayer {
		v := median(layer[d.Name])
		fmt.Fprintf(log, "layer %-28s %.6g %s\n", d.Name, v, d.Unit)
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	fmt.Fprintf(log, "layers measured only through the counts above: %s\n", strings.Join(table.CountOnlyLayers, ", "))
	for _, line := range tr.histLines(traceIters) {
		fmt.Fprintln(log, "calls", line)
	}
	for _, name := range varying {
		fmt.Fprintf(log, "count varies across iterations or runs: %s %v\n", name, history[name])
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, cfg.opts.seed))
	if err := tr.write(path, map[string]any{"workload": w.name, "seed": cfg.opts.seed, "host": host}); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintln(log, "spans:", path)
	return res, nil
}

// heapSampler tracks the Go heap's high-water mark by reading the live
// heap object bytes every millisecond.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func heapNow() uint64 {
	s := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
			v := heapNow()
			for p := h.peak.Load(); v > p && !h.peak.CompareAndSwap(p, v); p = h.peak.Load() {
			}
		}
	}()
	return h
}

// reset restarts the high-water mark from the current heap.
func (h *heapSampler) reset() { h.peak.Store(heapNow()) }

func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}

// Command tciobench regenerates the paper's artifacts — Tables I-IV and
// Figures 5-7, 9 and 10 — and the repository's own sweeps, every one of
// them an experiment of internal/bench's registry.
//
// Usage:
//
//	tciobench -run fig5                  # write+read throughput vs process count
//	tciobench -run fig6,fig7             # throughput vs file size (incl. the OOM point)
//	tciobench -run tables,table4         # Tables I-IV
//	tciobench -run fig9,fig10            # ART checkpoint/restart throughput
//	tciobench -run chaos -seed 7         # fault-injection sweep (seed-deterministic)
//	tciobench -run overlap-chaos,nodeagg-chaos,sieve-chaos,delegate-chaos -seed 7
//	tciobench -run delegate-read -det    # deterministic columns only
//	tciobench -run scale -scale-procs 64 -scale-maxprocs 2   # one small scale point
//	tciobench -run crash -crash-kills 12 -crash-budgets 0,2,4,8
//	tciobench -run conform -seed 1 -progs 64   # differential conformance sweep
//	tciobench -run overlap -json out.json      # every table as JSON ([]stats.Table)
//	tciobench -run all                   # everything
//
// Simulated datasets follow the paper (LENarray=4M elements, files up to
// 48 GB); -len-real controls how many elements are actually materialized
// per array (the byte-scale mechanism described in DESIGN.md). Every
// table tags its host-fact columns (wall clock, virtual times that depend
// on host scheduling); -det drops them, leaving output that is identical
// run to run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/tcio/tcio/internal/bench"
	"github.com/tcio/tcio/internal/stats"
)

func main() {
	o := bench.DefaultOptions()
	run := flag.String("run", "", "comma-separated experiments (listed above), or all")
	det := flag.Bool("det", false, "drop host-fact columns, leaving only deterministic ones")
	jsonPath := flag.String("json", "", "also write every table to this path as JSON")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	quiet := flag.Bool("quiet", false, "suppress progress lines")
	flag.BoolVar(&o.Verify, "verify", o.Verify, "verify every byte on read-back")
	flag.Int64Var(&o.Seed, "seed", o.Seed, "seed of fault injection, crash kills and generated programs")
	flag.Var(list[int]{&o.Procs, count}, "procs", "comma-separated process counts for fig5, fig9 and fig10")
	flag.IntVar(&o.LenSim, "len-sim", o.LenSim, "simulated LENarray (elements per array per process)")
	flag.IntVar(&o.LenReal, "len-real", o.LenReal, "materialized elements per array per process")
	flag.IntVar(&o.ChaosProcs, "chaos-procs", o.ChaosProcs, "process count for chaos")
	flag.Var(list[float64]{&o.ChaosRates, rate}, "chaos-rates", "comma-separated OST transient-error rates for chaos")
	flag.IntVar(&o.DrainWorkers, "drain-workers", 0, "TCIO drain fan-out for chaos, drainsweep and overlap (0 = each sweep's default)")
	flag.Var(list[int]{&o.ScaleProcs, count}, "scale-procs", "comma-separated rank counts for scale")
	flag.Var(list[int]{&o.ScaleMaxProcs, count}, "scale-maxprocs", "comma-separated GOMAXPROCS settings for scale")
	flag.IntVar(&o.ScalePieces, "scale-pieces", o.ScalePieces, "strided pieces per rank for scale")
	flag.BoolVar(&o.ScaleProfiles, "scale-profiles", o.ScaleProfiles, "capture mutex/block profile top entries for scale")
	flag.IntVar(&o.CrashKills, "crash-kills", 0, "kill instants replayed per crash configuration (0 = default)")
	flag.Var(list[int64]{&o.CrashBudgets, budget}, "crash-budgets", "comma-separated resident-segment budgets for crash (empty = default)")
	flag.IntVar(&o.Trees, "trees", o.Trees, "number of ART FTT segments for fig9 and fig10 (Table IV: 1024)")
	flag.IntVar(&o.Progs, "progs", o.Progs, "number of generated programs for conform")
	flag.StringVar(&o.Corpus, "corpus", "", "directory receiving shrunk repros of conform divergences")
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintln(out, "usage: tciobench -run NAME,...|all [flags]\n\nexperiments:")
		for _, e := range bench.Experiments {
			fmt.Fprintf(out, "  %-15s %s\n", e.Name, e.Doc)
		}
		fmt.Fprintln(out, "\nflags:")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *run == "" {
		flag.Usage()
		os.Exit(2)
	}
	experiments, err := bench.Select(*run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tciobench:", err)
		os.Exit(2)
	}
	o.Out = os.Stdout
	if !*quiet {
		o.Progress = func(line string) { fmt.Fprintln(os.Stderr, "  ", line) }
	}
	var all []stats.Table
	for _, e := range experiments {
		tables, err := e.Run(&o)
		if err != nil {
			fail(err)
		}
		for _, t := range tables {
			t.Experiment = e.Name
			if *det {
				t = t.Det()
			}
			if err := emit(t, *csv); err != nil {
				fail(err)
			}
			all = append(all, t)
		}
	}
	if *jsonPath != "" {
		blob, err := json.MarshalIndent(all, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fail(err)
		}
		if !*quiet {
			fmt.Fprintln(os.Stderr, "  ", "wrote", *jsonPath)
		}
	}
}

// emit prints one table, aligned or as CSV, and its note.
func emit(t stats.Table, csv bool) error {
	var err error
	if csv {
		fmt.Printf("# %s\n", t.Title)
		err = t.CSV(os.Stdout)
	} else {
		err = t.Render(os.Stdout)
	}
	if err == nil && t.Note != "" {
		_, err = fmt.Printf("%s\n\n", t.Note)
	}
	return err
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tciobench:", err)
	os.Exit(1)
}

// list is a comma-separated flag whose elements parse with parse.
type list[T any] struct {
	vals  *[]T
	parse func(string) (T, error)
}

func (l list[T]) String() string {
	if l.vals == nil {
		return ""
	}
	parts := make([]string, len(*l.vals))
	for i, v := range *l.vals {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
}

func (l list[T]) Set(spec string) error {
	var out []T
	for _, part := range strings.Split(spec, ",") {
		v, err := l.parse(strings.TrimSpace(part))
		if err != nil {
			return err
		}
		out = append(out, v)
	}
	*l.vals = out
	return nil
}

func count(s string) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil || v < 1 {
		return 0, fmt.Errorf("bad count %q", s)
	}
	return v, nil
}

func rate(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v < 0 || v > 1 {
		return 0, fmt.Errorf("bad error rate %q", s)
	}
	return v, nil
}

func budget(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad segment budget %q", s)
	}
	return v, nil
}

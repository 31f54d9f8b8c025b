package bench

// The experiment registry: every table and figure the harness regenerates,
// registered once by name. cmd/tciobench is a loop over this list.

import (
	"fmt"
	"io"
	"strings"

	"github.com/tcio/tcio/internal/conformance"
	"github.com/tcio/tcio/internal/stats"
)

// Options carries the command-line knobs into the registered experiments.
// DefaultOptions holds every sweep's own defaults, so an experiment run
// with them reproduces its documented configuration.
type Options struct {
	// Procs is the x-axis process counts of Figs. 5, 9 and 10.
	Procs []int
	// LenSim and LenReal size the synthetic workload (see SweepOptions).
	LenSim, LenReal int
	// Seed drives every fault injection, kill draw and generated program.
	Seed int64
	// ChaosProcs and ChaosRates shape the chaos sweep.
	ChaosProcs int
	ChaosRates []float64
	// DrainWorkers is TCIO's drain fan-out for chaos, drainsweep and
	// overlap (0 keeps each sweep's default).
	DrainWorkers int
	// ScaleProcs, ScaleMaxProcs, ScalePieces and ScaleProfiles shape the
	// host scale sweep.
	ScaleProcs, ScaleMaxProcs []int
	ScalePieces               int
	ScaleProfiles             bool
	// CrashKills and CrashBudgets shape the crash sweep (0 and nil keep
	// its defaults).
	CrashKills   int
	CrashBudgets []int64
	// Trees is the ART FTT segment count of Figs. 9 and 10.
	Trees int
	// Progs and Corpus drive the conformance sweep.
	Progs  int
	Corpus string
	// Verify checks every byte read back.
	Verify bool
	// Progress receives one line per completed point.
	Progress func(string)
	// Out receives the report of experiments that print text instead of
	// tables (conform).
	Out io.Writer

	shared map[string][]stats.Table
}

// DefaultOptions returns the defaults of every registered experiment.
func DefaultOptions() Options {
	sweep, scale := DefaultSweep(), DefaultScale()
	return Options{
		Procs:         sweep.Procs,
		LenSim:        sweep.LenSim,
		LenReal:       sweep.LenReal,
		Seed:          1,
		ChaosProcs:    DefaultChaos().Procs,
		ChaosRates:    DefaultChaos().Rates,
		ScaleProcs:    scale.Procs,
		ScaleMaxProcs: scale.GoMaxProcs,
		ScalePieces:   scale.PiecesPerRank,
		ScaleProfiles: scale.Profiles,
		Trees:         DefaultART().Trees,
		Progs:         32,
		Verify:        true,
		Out:           io.Discard,
	}
}

// Experiment is one registered table or figure generator.
type Experiment struct {
	Name string
	Doc  string
	Run  func(o *Options) ([]stats.Table, error)
}

// Experiments lists every experiment in the order "all" runs them.
var Experiments = []Experiment{
	{"tables", "Tables I, II and III", func(o *Options) ([]stats.Table, error) {
		t3 := Table3()
		loc2, loc3 := ProgramLines()
		r2, r3 := ProgramReadLines()
		t3.Note = fmt.Sprintf("programming effort: OCIO write=%d read=%d lines; TCIO write=%d read=%d lines",
			loc2, r2, loc3, r3)
		return []stats.Table{Table1(), Table2(o.sweep()), t3}, nil
	}},
	{"fig5", "Figure 5: throughput vs processes", func(o *Options) ([]stats.Table, error) {
		w, r, _, err := Fig5(o.sweep())
		return []stats.Table{w, r}, err
	}},
	{"fig6", "Figure 6: write throughput vs file size", func(o *Options) ([]stats.Table, error) {
		return o.share("fig6/7", 0, o.fileSizes)
	}},
	{"fig7", "Figure 7: read throughput vs file size", func(o *Options) ([]stats.Table, error) {
		return o.share("fig6/7", 1, o.fileSizes)
	}},
	{"ablations", "TCIO design-choice ablations", func(o *Options) ([]stats.Table, error) {
		a := DefaultAblation()
		a.LenReal, a.Progress = o.LenReal, o.Progress
		return one(Ablations(a))
	}},
	{"chaos", "fault-injection sweep (seed-deterministic)", func(o *Options) ([]stats.Table, error) {
		c := DefaultChaos()
		c.Seed, c.Procs, c.Rates, c.DrainWorkers = o.Seed, o.ChaosProcs, o.ChaosRates, o.DrainWorkers
		c.LenSim, c.LenReal, c.Verify, c.Progress = o.LenSim, o.LenReal, o.Verify, o.Progress
		return one(Chaos(c))
	}},
	{"drainsweep", "drain fan-out vs virtual write time", func(o *Options) ([]stats.Table, error) {
		d := DefaultDrainSweep()
		d.LenSim, d.LenReal, d.Verify, d.Progress = o.LenSim, o.LenReal, o.Verify, o.Progress
		if o.DrainWorkers > 0 {
			d.Workers = []int{1, o.DrainWorkers}
		}
		return one(DrainSweep(d))
	}},
	{"overlap", "write-behind and read-prefetch overlap sweep", func(o *Options) ([]stats.Table, error) {
		ts, _, _, err := Overlap(o.overlap())
		return ts, err
	}},
	{"overlap-chaos", "overlap under faults (seed-deterministic)", func(o *Options) ([]stats.Table, error) {
		return one(OverlapChaos(o.overlap(), o.Seed))
	}},
	{"nodeagg", "intra-node aggregation sweep", func(o *Options) ([]stats.Table, error) {
		return one(NodeAgg(o.nodeAgg()))
	}},
	{"nodeagg-chaos", "node aggregation under faults (seed-deterministic)", func(o *Options) ([]stats.Table, error) {
		return one(NodeAggChaos(o.nodeAgg(), o.Seed))
	}},
	{"sieve", "noncontiguous read engine sweep", func(o *Options) ([]stats.Table, error) {
		ts, _, err := Sieve(o.sieve())
		return ts, err
	}},
	{"sieve-chaos", "sieved reads under faults (seed-deterministic)", func(o *Options) ([]stats.Table, error) {
		return one(SieveChaos(o.sieve(), o.Seed))
	}},
	{"delegate", "I/O delegation write sweep", func(o *Options) ([]stats.Table, error) {
		t, _, err := Delegate(o.delegate())
		return one(t, err)
	}},
	{"delegate-chaos", "delegation under faults (seed-deterministic)", func(o *Options) ([]stats.Table, error) {
		return one(DelegateChaos(o.delegate(), o.Seed))
	}},
	{"delegate-read", "delegated read sweep", func(o *Options) ([]stats.Table, error) {
		d := DefaultDelegateRead()
		d.Verify, d.Progress = o.Verify, o.Progress
		t, _, err := DelegateRead(d)
		return one(t, err)
	}},
	{"scale", "host wall-clock scale sweep", func(o *Options) ([]stats.Table, error) {
		s := DefaultScale()
		s.Procs, s.GoMaxProcs, s.PiecesPerRank = o.ScaleProcs, o.ScaleMaxProcs, o.ScalePieces
		s.Profiles, s.Verify, s.Progress = o.ScaleProfiles, o.Verify, o.Progress
		t, _, err := Scale(s)
		return one(t, err)
	}},
	{"crash", "out-of-core budgets and crash recovery (seed-deterministic)", func(o *Options) ([]stats.Table, error) {
		c := DefaultCrash()
		c.Seed, c.Verify, c.Progress = o.Seed, o.Verify, o.Progress
		if o.CrashKills > 0 {
			c.Kills = o.CrashKills
		}
		if len(o.CrashBudgets) > 0 {
			c.Budgets = o.CrashBudgets
		}
		t, _, err := Crash(c)
		return one(t, err)
	}},
	{"conform", "randomized differential conformance sweep", func(o *Options) ([]stats.Table, error) {
		failures, err := conformance.RunSweep(o.Out, o.Seed, o.Progs, o.Corpus)
		if err == nil && failures > 0 {
			err = fmt.Errorf("conform: %d divergent programs", failures)
		}
		return nil, err
	}},
	{"table4", "Table IV: ART segment generation", func(o *Options) ([]stats.Table, error) {
		return []stats.Table{Table4()}, nil
	}},
	{"fig9", "Figure 9: ART write throughput", func(o *Options) ([]stats.Table, error) {
		return o.share("fig9/10", 0, o.art)
	}},
	{"fig10", "Figure 10: ART read throughput", func(o *Options) ([]stats.Table, error) {
		return o.share("fig9/10", 1, o.art)
	}},
}

// Select resolves a comma-separated list of experiment names, or "all".
func Select(spec string) ([]Experiment, error) {
	if spec == "all" {
		return Experiments, nil
	}
	var out []Experiment
	for _, name := range strings.Split(spec, ",") {
		i := indexOf(strings.TrimSpace(name))
		if i < 0 {
			return nil, fmt.Errorf("unknown experiment %q (known: %s, all)", name, strings.Join(Names(), ", "))
		}
		out = append(out, Experiments[i])
	}
	return out, nil
}

// Names lists the registered experiment names in order.
func Names() []string {
	names := make([]string, len(Experiments))
	for i, e := range Experiments {
		names[i] = e.Name
	}
	return names
}

func indexOf(name string) int {
	for i, e := range Experiments {
		if e.Name == name {
			return i
		}
	}
	return -1
}

// one wraps a single-table result.
func one(t stats.Table, err error) ([]stats.Table, error) {
	return []stats.Table{t}, err
}

// share runs a sweep that feeds two experiments once per Options and
// returns its i-th table.
func (o *Options) share(key string, i int, run func() ([]stats.Table, error)) ([]stats.Table, error) {
	ts, ok := o.shared[key]
	if !ok {
		var err error
		if ts, err = run(); err != nil {
			return nil, err
		}
		if o.shared == nil {
			o.shared = make(map[string][]stats.Table)
		}
		o.shared[key] = ts
	}
	return ts[i : i+1], nil
}

func (o *Options) sweep() SweepOptions {
	s := DefaultSweep()
	s.Procs, s.LenSim, s.LenReal, s.Verify, s.Progress = o.Procs, o.LenSim, o.LenReal, o.Verify, o.Progress
	return s
}

func (o *Options) fileSizes() ([]stats.Table, error) {
	f := DefaultFileSizeSweep()
	f.LenReal, f.Verify, f.Progress = o.LenReal, o.Verify, o.Progress
	w, r, _, err := Fig6And7(f)
	return []stats.Table{w, r}, err
}

func (o *Options) art() ([]stats.Table, error) {
	a := DefaultART()
	a.Procs, a.Trees, a.Progress = o.Procs, o.Trees, o.Progress
	w, r, _, err := Fig9And10(a)
	return []stats.Table{w, r}, err
}

func (o *Options) overlap() OverlapOptions {
	v := DefaultOverlap()
	v.LenSim, v.LenReal, v.Verify, v.Progress = o.LenSim, o.LenReal, o.Verify, o.Progress
	if o.DrainWorkers > 0 {
		v.Workers = o.DrainWorkers
	}
	return v
}

func (o *Options) nodeAgg() NodeAggOptions {
	n := DefaultNodeAgg()
	n.Verify, n.Progress = o.Verify, o.Progress
	return n
}

func (o *Options) sieve() SieveOptions {
	s := DefaultSieve()
	s.Verify, s.Progress = o.Verify, o.Progress
	return s
}

func (o *Options) delegate() DelegateOptions {
	d := DefaultDelegate()
	d.Verify, d.Progress = o.Verify, o.Progress
	return d
}
